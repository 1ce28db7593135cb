// Related-work baseline: the Chan-et-al. two-integer transformation (the
// papers [2,3]) applied per query, vs the native SFS-D baseline and the
// paper's engines. The transformation doubles the comparison width per
// nominal dimension and re-materializes two columns per query, which is
// exactly why purpose-built variable-preference engines win.

#include <cstdio>

#include "common/rng.h"
#include "common/timer.h"
#include "core/adaptive_sfs.h"
#include "core/ipo_tree.h"
#include "datagen/generator.h"
#include "harness.h"
#include "skyline/sfs_direct.h"
#include "skyline/transform.h"

using namespace nomsky;

int main() {
  const size_t queries = bench::EnvQueries(5);
  std::printf("%-8s %14s %14s %14s %14s\n", "N", "transform [s]", "SFS-D [s]",
              "SFS-A [s]", "IPO [s]");

  for (size_t base : {5000, 10000, 20000}) {
    gen::GenConfig config;
    config.num_rows = bench::ScaledRows(base);
    config.distribution = gen::Distribution::kAnticorrelated;
    config.seed = 42;
    Dataset data = gen::Generate(config);
    PreferenceProfile tmpl = gen::MostFrequentTemplate(data);

    TransformEngine transform(data, tmpl);
    SfsDirect sfsd(data, tmpl);
    AdaptiveSfsEngine asfs(data, tmpl);
    IpoTreeEngine::Options tree_opts;
    tree_opts.num_threads = 0;
    IpoTreeEngine tree(data, tmpl, tree_opts);

    Rng rng(7);
    double t_transform = 0, t_sfsd = 0, t_asfs = 0, t_tree = 0;
    for (size_t i = 0; i < queries; ++i) {
      PreferenceProfile q = gen::RandomImplicitQuery(data, tmpl, 3, &rng);
      WallTimer w1;
      size_t n1 = transform.Query(q).ValueOrDie().size();
      t_transform += w1.ElapsedSeconds();
      WallTimer w2;
      size_t n2 = sfsd.Query(q).ValueOrDie().size();
      t_sfsd += w2.ElapsedSeconds();
      WallTimer w3;
      size_t n3 = asfs.Query(q).ValueOrDie().size();
      t_asfs += w3.ElapsedSeconds();
      WallTimer w4;
      size_t n4 = tree.Query(q).ValueOrDie().size();
      t_tree += w4.ElapsedSeconds();
      if (n1 != n2 || n2 != n3 || n3 != n4) {
        std::printf("DISAGREEMENT: %zu %zu %zu %zu\n", n1, n2, n3, n4);
        return 1;
      }
    }
    double d = static_cast<double>(queries);
    std::printf("%-8zu %14.4f %14.4f %14.6f %14.6f\n", config.num_rows,
                t_transform / d, t_sfsd / d, t_asfs / d, t_tree / d);
  }
  return 0;
}
