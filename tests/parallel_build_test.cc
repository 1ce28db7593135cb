#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/ipo_tree.h"
#include "datagen/generator.h"

namespace nomsky {
namespace {

std::vector<RowId> Sorted(std::vector<RowId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

struct ParallelParam {
  size_t threads;
  IpoTreeEngine::Construction construction;
};

class ParallelBuildTest : public ::testing::TestWithParam<ParallelParam> {};

TEST_P(ParallelBuildTest, IdenticalToSequential) {
  const auto& param = GetParam();
  gen::GenConfig config;
  config.num_rows = 400;
  config.cardinality = 6;
  config.num_nominal = 2;
  config.seed = 31;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);

  IpoTreeEngine::Options seq_opts;
  seq_opts.num_threads = 1;
  seq_opts.construction = param.construction;
  IpoTreeEngine sequential(data, tmpl, seq_opts);

  IpoTreeEngine::Options par_opts = seq_opts;
  par_opts.num_threads = param.threads;
  IpoTreeEngine parallel(data, tmpl, par_opts);

  EXPECT_EQ(parallel.build_stats().num_nodes,
            sequential.build_stats().num_nodes);
  EXPECT_EQ(parallel.build_stats().total_disqualified,
            sequential.build_stats().total_disqualified);
  EXPECT_EQ(parallel.template_skyline(), sequential.template_skyline());

  Rng rng(32);
  for (int rep = 0; rep < 6; ++rep) {
    PreferenceProfile query = gen::RandomImplicitQuery(data, tmpl, 3, &rng);
    EXPECT_EQ(Sorted(parallel.Query(query).ValueOrDie()),
              Sorted(sequential.Query(query).ValueOrDie()))
        << "rep " << rep;
  }
}

// gtest prints each parameter as a byte dump, padding included, and that
// dump is part of the discovered ctest name. A static array is
// zero-initialized before its values are set, so its padding bytes are zero
// and the names stay the same from run to run.
constexpr ParallelParam kParallelParams[] = {
    {2, IpoTreeEngine::Construction::kMdc},
    {4, IpoTreeEngine::Construction::kMdc},
    {4, IpoTreeEngine::Construction::kDirect},
    {0, IpoTreeEngine::Construction::kMdc}};

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelBuildTest, ::testing::ValuesIn(kParallelParams),
    [](const ::testing::TestParamInfo<ParallelParam>& info) {
      std::string name = "t" + std::to_string(info.param.threads) + "_bitmap";
      name += info.param.construction == IpoTreeEngine::Construction::kMdc
                  ? "_mdc"
                  : "_direct";
      return name;
    });

TEST(ParallelBuildTest, MoreThreadsThanJobs) {
  // 1 nominal dim of cardinality 2 -> only 2 fill jobs; 8 threads must not
  // crash or deadlock.
  gen::GenConfig config;
  config.num_rows = 50;
  config.num_nominal = 1;
  config.cardinality = 2;
  config.seed = 33;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl(data.schema());
  IpoTreeEngine::Options opts;
  opts.num_threads = 8;
  IpoTreeEngine tree(data, tmpl, opts);
  EXPECT_EQ(tree.build_stats().num_nodes, 2u);
}

}  // namespace
}  // namespace nomsky
