#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "datagen/generator.h"
#include "skyline/bnl.h"
#include "skyline/naive.h"
#include "skyline/sfs.h"
#include "skyline/sfs_direct.h"

namespace nomsky {
namespace {

std::vector<RowId> Sorted(std::vector<RowId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Table 1 / Table 2 of the paper.
Dataset PaperData() {
  Schema s;
  EXPECT_TRUE(s.AddNumeric("price").ok());
  EXPECT_TRUE(s.AddNumeric("hotel_class", SortDirection::kMaxBetter).ok());
  EXPECT_TRUE(s.AddNominal("hotel_group", {"T", "H", "M"}).ok());
  Dataset data(s);
  EXPECT_TRUE(data.Append({{1600, 4}, {0}}).ok());  // a
  EXPECT_TRUE(data.Append({{2400, 1}, {0}}).ok());  // b
  EXPECT_TRUE(data.Append({{3000, 5}, {1}}).ok());  // c
  EXPECT_TRUE(data.Append({{3600, 4}, {1}}).ok());  // d
  EXPECT_TRUE(data.Append({{2400, 2}, {2}}).ok());  // e
  EXPECT_TRUE(data.Append({{3000, 3}, {2}}).ok());  // f
  return data;
}

TEST(SkylineAlgorithmsTest, PaperTable2Bob) {
  // Bob: no special preference -> skyline {a, c, e, f}.
  Dataset data = PaperData();
  PreferenceProfile empty(data.schema());
  DominanceComparator cmp(data, empty);
  EXPECT_EQ(Sorted(NaiveSkyline(cmp, AllRows(6))),
            (std::vector<RowId>{0, 2, 4, 5}));
}

TEST(SkylineAlgorithmsTest, PaperTable2AllCustomers) {
  // Every row of Table 2.
  Dataset data = PaperData();
  const std::vector<std::pair<std::string, std::vector<RowId>>> cases = {
      {"T<M<*", {0, 2}},        // Alice
      {"H<M<*", {0, 2, 4}},     // Chris
      {"H<M<T", {0, 2, 4}},     // David (full order)
      {"H<T<*", {0, 2}},        // Emily
      {"M<*", {0, 2, 4, 5}},    // Fred
  };
  for (const auto& [pref_text, expected] : cases) {
    auto pref = PreferenceProfile::Parse(data.schema(),
                                         {{"hotel_group", pref_text}})
                    .ValueOrDie();
    DominanceComparator cmp(data, pref);
    EXPECT_EQ(Sorted(NaiveSkyline(cmp, AllRows(6))), expected)
        << "preference " << pref_text;
    EXPECT_EQ(Sorted(BnlSkyline(cmp, AllRows(6))), expected)
        << "preference " << pref_text;
    EXPECT_EQ(Sorted(SfsSkyline(data, pref, AllRows(6))), expected)
        << "preference " << pref_text;
  }
}

TEST(SkylineAlgorithmsTest, EmptyAndSingletonInputs) {
  Dataset data = PaperData();
  PreferenceProfile empty(data.schema());
  DominanceComparator cmp(data, empty);
  EXPECT_TRUE(NaiveSkyline(cmp, {}).empty());
  EXPECT_TRUE(BnlSkyline(cmp, {}).empty());
  EXPECT_EQ(BnlSkyline(cmp, {3}), (std::vector<RowId>{3}));
  EXPECT_EQ(SfsSkyline(data, empty, {3}), (std::vector<RowId>{3}));
}

TEST(SkylineAlgorithmsTest, DuplicateRowsAllKept) {
  Schema s;
  ASSERT_TRUE(s.AddNumeric("x").ok());
  ASSERT_TRUE(s.AddNominal("g", {"a", "b"}).ok());
  Dataset data(s);
  ASSERT_TRUE(data.Append({{1.0}, {0}}).ok());
  ASSERT_TRUE(data.Append({{1.0}, {0}}).ok());  // duplicate
  ASSERT_TRUE(data.Append({{2.0}, {0}}).ok());  // dominated
  PreferenceProfile empty(s);
  DominanceComparator cmp(data, empty);
  EXPECT_EQ(Sorted(NaiveSkyline(cmp, AllRows(3))), (std::vector<RowId>{0, 1}));
  EXPECT_EQ(Sorted(BnlSkyline(cmp, AllRows(3))), (std::vector<RowId>{0, 1}));
  EXPECT_EQ(Sorted(SfsSkyline(data, empty, AllRows(3))),
            (std::vector<RowId>{0, 1}));
}

TEST(SkylineAlgorithmsTest, SfsEmitsInScoreOrder) {
  gen::GenConfig config;
  config.num_rows = 500;
  config.seed = 3;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  RankTable ranks(data.schema(), tmpl);
  std::vector<RowId> sky = SfsSkyline(data, tmpl, AllRows(data.num_rows()));
  for (size_t i = 1; i < sky.size(); ++i) {
    EXPECT_LE(ranks.Score(data, sky[i - 1]), ranks.Score(data, sky[i]));
  }
}

struct AlgoAgreementParam {
  gen::Distribution dist;
  size_t order;
};

class AlgoAgreementTest
    : public ::testing::TestWithParam<AlgoAgreementParam> {};

TEST_P(AlgoAgreementTest, AllAlgorithmsAgree) {
  const auto& param = GetParam();
  gen::GenConfig config;
  config.num_rows = 400;
  config.cardinality = 6;
  config.distribution = param.dist;
  config.seed = 1234 + param.order;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  Rng rng(999 + param.order);
  PreferenceProfile query =
      gen::RandomImplicitQuery(data, tmpl, param.order, &rng);

  DominanceComparator cmp(data, query);
  std::vector<RowId> naive = Sorted(NaiveSkyline(cmp, AllRows(config.num_rows)));
  std::vector<RowId> bnl = Sorted(BnlSkyline(cmp, AllRows(config.num_rows)));
  std::vector<RowId> sfs = Sorted(SfsSkyline(data, query, AllRows(config.num_rows)));
  EXPECT_EQ(naive, bnl);
  EXPECT_EQ(naive, sfs);
  EXPECT_FALSE(naive.empty());
}

// gtest prints each parameter as a byte dump, padding included, and that
// dump is part of the discovered ctest name. A static array is
// zero-initialized before its values are set, so its padding bytes are zero
// and the names stay the same from run to run.
constexpr AlgoAgreementParam kAlgoAgreementParams[] = {
    {gen::Distribution::kIndependent, 1},
    {gen::Distribution::kIndependent, 3},
    {gen::Distribution::kCorrelated, 2},
    {gen::Distribution::kCorrelated, 4},
    {gen::Distribution::kAnticorrelated, 1},
    {gen::Distribution::kAnticorrelated, 2},
    {gen::Distribution::kAnticorrelated, 3},
    {gen::Distribution::kAnticorrelated, 4}};

INSTANTIATE_TEST_SUITE_P(
    Distributions, AlgoAgreementTest, ::testing::ValuesIn(kAlgoAgreementParams),
    [](const ::testing::TestParamInfo<AlgoAgreementParam>& info) {
      return std::string(gen::DistributionName(info.param.dist)) == "independent"
                 ? "ind_order" + std::to_string(info.param.order)
             : std::string(gen::DistributionName(info.param.dist)) == "correlated"
                 ? "corr_order" + std::to_string(info.param.order)
                 : "anti_order" + std::to_string(info.param.order);
    });

TEST(SkylineAlgorithmsTest, SkylineDefinitionHolds) {
  // Soundness + completeness of the skyline against the definition.
  gen::GenConfig config;
  config.num_rows = 300;
  config.seed = 77;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  Rng rng(78);
  PreferenceProfile query = gen::RandomImplicitQuery(data, tmpl, 3, &rng);
  DominanceComparator cmp(data, query);
  std::vector<RowId> sky = SfsSkyline(data, query, AllRows(config.num_rows));
  std::vector<bool> in_sky(config.num_rows, false);
  for (RowId r : sky) in_sky[r] = true;
  for (RowId p = 0; p < config.num_rows; ++p) {
    bool dominated = false;
    for (RowId q = 0; q < config.num_rows; ++q) {
      if (q != p && cmp.Compare(q, p) == DomResult::kLeftDominates) {
        dominated = true;
        break;
      }
    }
    EXPECT_EQ(in_sky[p], !dominated) << "row " << p;
  }
}

TEST(SfsDirectTest, MatchesNaiveOnCombinedProfile) {
  gen::GenConfig config;
  config.num_rows = 350;
  config.seed = 88;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  SfsDirect engine(data, tmpl);
  Rng rng(89);
  PreferenceProfile query = gen::RandomImplicitQuery(data, tmpl, 2, &rng);
  auto result = engine.Query(query);
  ASSERT_TRUE(result.ok());

  auto combined = query.CombineWithTemplate(tmpl).ValueOrDie();
  DominanceComparator cmp(data, combined);
  EXPECT_EQ(Sorted(*result), Sorted(NaiveSkyline(cmp, AllRows(config.num_rows))));
  EXPECT_GT(engine.last_dominance_tests(), 0u);
}

TEST(SfsDirectTest, RejectsConflictingQuery) {
  Dataset data = PaperData();
  auto tmpl = PreferenceProfile::Parse(data.schema(), {{"hotel_group", "T<*"}})
                  .ValueOrDie();
  auto conflicting =
      PreferenceProfile::Parse(data.schema(), {{"hotel_group", "H<T<*"}})
          .ValueOrDie();
  SfsDirect engine(data, tmpl);
  EXPECT_TRUE(engine.Query(conflicting).status().IsConflict());
}

TEST(SkylineAlgorithmsTest, BnlStatsPopulated) {
  Dataset data = PaperData();
  PreferenceProfile empty(data.schema());
  DominanceComparator cmp(data, empty);
  BnlStats stats;
  BnlSkyline(cmp, AllRows(6), &stats);
  EXPECT_GT(stats.dominance_tests, 0u);
  EXPECT_GE(stats.max_window, 4u);
}

}  // namespace
}  // namespace nomsky
