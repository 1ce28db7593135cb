// Cross-engine integration test: for random datasets, templates and
// queries, every evaluation path (Naive ground truth, SFS-D, SFS-A,
// IPO-Tree, Hybrid) must return identical skylines.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/adaptive_sfs.h"
#include "core/hybrid.h"
#include "core/ipo_tree.h"
#include "datagen/generator.h"
#include "skyline/naive.h"
#include "skyline/sfs_direct.h"

namespace nomsky {
namespace {

std::vector<RowId> Sorted(std::vector<RowId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

struct AgreementParam {
  gen::Distribution dist;
  size_t num_nominal;
  size_t cardinality;
  bool empty_template;
  uint64_t seed;
};

class EngineAgreementTest : public ::testing::TestWithParam<AgreementParam> {};

TEST_P(EngineAgreementTest, AllEnginesAgree) {
  const auto& p = GetParam();
  gen::GenConfig config;
  config.num_rows = 350;
  config.num_numeric = 2;
  config.num_nominal = p.num_nominal;
  config.cardinality = p.cardinality;
  config.distribution = p.dist;
  config.seed = p.seed;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = p.empty_template
                               ? PreferenceProfile(data.schema())
                               : gen::MostFrequentTemplate(data);

  SfsDirectEngine sfsd(data, tmpl);
  AdaptiveSfsEngine asfs(data, tmpl);
  IpoTreeEngine ipo(data, tmpl);
  HybridEngine hybrid(data, tmpl, /*top_k=*/p.cardinality);

  Rng rng(p.seed + 1);
  for (size_t order = 0; order <= 4; ++order) {
    PreferenceProfile query =
        order == 0 ? PreferenceProfile(data.schema())
                   : gen::RandomImplicitQuery(data, tmpl, order, &rng);
    auto combined = query.CombineWithTemplate(tmpl).ValueOrDie();
    DominanceComparator cmp(data, combined);
    std::vector<RowId> truth =
        Sorted(NaiveSkyline(cmp, AllRows(config.num_rows)));

    EXPECT_EQ(Sorted(sfsd.Query(query).ValueOrDie()), truth)
        << "SFS-D order " << order;
    EXPECT_EQ(Sorted(asfs.Query(query).ValueOrDie()), truth)
        << "SFS-A order " << order;
    EXPECT_EQ(Sorted(ipo.Query(query).ValueOrDie()), truth)
        << "IPO order " << order;
    EXPECT_EQ(Sorted(hybrid.Query(query).ValueOrDie()), truth)
        << "Hybrid order " << order;
  }
}

// gtest prints each parameter as a byte dump, padding included, and that
// dump is part of the discovered ctest name. A static array is
// zero-initialized before its values are set, so its padding bytes are zero
// and the names stay the same from run to run.
constexpr AgreementParam kAgreementParams[] = {
    {gen::Distribution::kAnticorrelated, 2, 5, false, 1},
    {gen::Distribution::kAnticorrelated, 2, 5, true, 2},
    {gen::Distribution::kAnticorrelated, 1, 8, false, 3},
    {gen::Distribution::kAnticorrelated, 3, 3, false, 4},
    {gen::Distribution::kIndependent, 2, 6, false, 5},
    {gen::Distribution::kIndependent, 3, 4, true, 6},
    {gen::Distribution::kCorrelated, 2, 5, false, 7},
    {gen::Distribution::kCorrelated, 1, 10, true, 8}};

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineAgreementTest, ::testing::ValuesIn(kAgreementParams),
    [](const ::testing::TestParamInfo<AgreementParam>& info) {
      std::string name = gen::DistributionName(info.param.dist);
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_m" + std::to_string(info.param.num_nominal) + "_c" +
             std::to_string(info.param.cardinality) +
             (info.param.empty_template ? "_emptytmpl" : "_freqtmpl") + "_s" +
             std::to_string(info.param.seed);
    });

// Duplicated tuples must survive every engine identically.
TEST(EngineAgreementTest, DuplicateHeavyDataset) {
  gen::GenConfig config;
  config.num_rows = 50;
  config.cardinality = 3;
  config.seed = 99;
  Dataset base = gen::Generate(config);
  Dataset data(base.schema());
  for (int copy = 0; copy < 3; ++copy) {
    for (RowId r = 0; r < base.num_rows(); ++r) {
      ASSERT_TRUE(data.Append(base.GetRow(r)).ok());
    }
  }
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  SfsDirectEngine sfsd(data, tmpl);
  AdaptiveSfsEngine asfs(data, tmpl);
  IpoTreeEngine ipo(data, tmpl);
  Rng rng(100);
  PreferenceProfile query = gen::RandomImplicitQuery(data, tmpl, 2, &rng);
  auto combined = query.CombineWithTemplate(tmpl).ValueOrDie();
  DominanceComparator cmp(data, combined);
  std::vector<RowId> truth = Sorted(NaiveSkyline(cmp, AllRows(data.num_rows())));
  EXPECT_EQ(truth.size() % 3, 0u) << "duplicates appear as triples";
  EXPECT_EQ(Sorted(sfsd.Query(query).ValueOrDie()), truth);
  EXPECT_EQ(Sorted(asfs.Query(query).ValueOrDie()), truth);
  EXPECT_EQ(Sorted(ipo.Query(query).ValueOrDie()), truth);
}

}  // namespace
}  // namespace nomsky
