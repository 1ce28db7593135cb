// Nursery explorer: the paper's real data set end to end —
//   1. reconstruct the UCI Nursery data by enumeration,
//   2. round-trip it through CSV (the import path a real deployment uses),
//   3. estimate the skyline size before committing to a query,
//   4. answer implicit-preference queries on the two nominal attributes
//      ("form of the family", "number of children") with a persisted
//      IPO tree (save + reload).
//
//   $ ./build/examples/nursery_explorer

#include <cstdio>

#include "common/timer.h"
#include "core/ipo_tree.h"
#include "datagen/csv.h"
#include "datagen/nursery.h"
#include "skyline/estimator.h"

using namespace nomsky;

int main() {
  Dataset data = gen::NurseryDataset();
  std::printf("reconstructed Nursery: %zu rows, schema %s\n", data.num_rows(),
              data.schema().ToString().c_str());

  // CSV round trip.
  std::string csv_path = "/tmp/nomsky_nursery.csv";
  if (!gen::SaveCsv(data, csv_path).ok()) return 1;
  auto reloaded = gen::LoadCsv(data.schema(), csv_path);
  if (!reloaded.ok()) {
    std::printf("csv reload failed: %s\n",
                reloaded.status().ToString().c_str());
    return 1;
  }
  std::printf("csv round trip: %zu rows reloaded from %s\n",
              reloaded->num_rows(), csv_path.c_str());

  // Cost estimation before building anything.
  PreferenceProfile tmpl(data.schema());
  double estimate = SampleSkylineEstimate(*reloaded, tmpl, 2000, 1);
  std::printf("estimated template-skyline size: ~%.0f points\n", estimate);

  // Build the IPO tree, persist it, reload it (a server restart).
  WallTimer build;
  IpoTreeEngine tree(*reloaded, tmpl);
  std::printf("IPO tree built in %.3f s; actual template skyline: %zu\n",
              build.ElapsedSeconds(), tree.template_skyline().size());

  std::string tree_path = "/tmp/nomsky_nursery.ipo";
  if (!tree.Save(tree_path).ok()) return 1;
  auto restored = IpoTreeEngine::Load(*reloaded, tmpl, tree_path);
  if (!restored.ok()) {
    std::printf("reload failed: %s\n", restored.status().ToString().c_str());
    return 1;
  }
  std::printf("tree persisted and reloaded from %s\n\n", tree_path.c_str());

  // Queries: families-first vs foster-first social workers disagree on
  // "form"; parents of big families rank "children" differently.
  const std::vector<std::pair<std::string, std::string>> preferences[] = {
      {{"form", "complete<completed<*"}},
      {{"form", "foster<*"}},
      {{"children", "more<3<*"}},
      {{"form", "complete<*"}, {"children", "1<2<*"}},
  };
  for (const auto& prefs : preferences) {
    auto query =
        PreferenceProfile::Parse(data.schema(), prefs).ValueOrDie();
    WallTimer timer;
    auto result = (*restored)->Query(query);
    if (!result.ok()) {
      std::printf("query failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-44s -> %4zu skyline applications (%.3f ms)\n",
                query.ToString(data.schema()).c_str(), result->size(),
                timer.ElapsedMillis());
  }
  std::remove(csv_path.c_str());
  std::remove(tree_path.c_str());
  return 0;
}
