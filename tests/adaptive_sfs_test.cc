#include "core/adaptive_sfs.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "datagen/generator.h"
#include "skyline/naive.h"

namespace nomsky {
namespace {

std::vector<RowId> Sorted(std::vector<RowId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

Dataset Table1Data() {
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

TEST(AdaptiveSfsTest, PaperTable2Skylines) {
  Dataset data = Table1Data();
  PreferenceProfile tmpl(data.schema());
  AdaptiveSfsEngine engine(data, tmpl);
  auto run = [&](const std::string& pref) {
    auto q = PreferenceProfile::Parse(data.schema(), {{"hotel_group", pref}})
                 .ValueOrDie();
    return Sorted(engine.Query(q).ValueOrDie());
  };
  EXPECT_EQ(run("T<M<*"), (std::vector<RowId>{0, 2}));        // Alice
  EXPECT_EQ(run("H<M<*"), (std::vector<RowId>{0, 2, 4}));     // Chris
  EXPECT_EQ(run("H<M<T"), (std::vector<RowId>{0, 2, 4}));     // David
  EXPECT_EQ(run("H<T<*"), (std::vector<RowId>{0, 2}));        // Emily
  EXPECT_EQ(run("M<*"), (std::vector<RowId>{0, 2, 4, 5}));    // Fred
  // Bob: empty query -> template skyline.
  EXPECT_EQ(Sorted(engine.Query(PreferenceProfile(data.schema())).ValueOrDie()),
            (std::vector<RowId>{0, 2, 4, 5}));
}

TEST(AdaptiveSfsTest, SearchSpaceIsTemplateSkyline) {
  Dataset data = Table1Data();
  PreferenceProfile tmpl(data.schema());
  AdaptiveSfsEngine engine(data, tmpl);
  // S = {a, c, e, f}; b and d can never appear in any refinement skyline.
  EXPECT_EQ(engine.sorted_skyline().size(), 4u);
}

struct AsfsParam {
  gen::Distribution dist;
  size_t order;
  bool empty_template;
};

class AdaptiveSfsAgreementTest : public ::testing::TestWithParam<AsfsParam> {};

TEST_P(AdaptiveSfsAgreementTest, MatchesNaive) {
  const auto& param = GetParam();
  gen::GenConfig config;
  config.num_rows = 400;
  config.cardinality = 6;
  config.distribution = param.dist;
  config.seed = 700 + param.order;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = param.empty_template
                               ? PreferenceProfile(data.schema())
                               : gen::MostFrequentTemplate(data);
  AdaptiveSfsEngine engine(data, tmpl);
  Rng rng(701 + param.order);
  for (int rep = 0; rep < 5; ++rep) {
    PreferenceProfile query =
        gen::RandomImplicitQuery(data, tmpl, param.order, &rng);
    auto combined = query.CombineWithTemplate(tmpl).ValueOrDie();
    DominanceComparator cmp(data, combined);
    std::vector<RowId> expected =
        Sorted(NaiveSkyline(cmp, AllRows(config.num_rows)));
    EXPECT_EQ(Sorted(engine.Query(query).ValueOrDie()), expected)
        << "rep " << rep;
  }
}

// gtest prints each parameter as a byte dump, padding included, and that
// dump is part of the discovered ctest name. A static array is
// zero-initialized before its values are set, so its padding bytes are zero
// and the names stay the same from run to run.
constexpr AsfsParam kAsfsParams[] = {
    {gen::Distribution::kIndependent, 1, false},
    {gen::Distribution::kIndependent, 3, true},
    {gen::Distribution::kCorrelated, 2, false},
    {gen::Distribution::kAnticorrelated, 1, false},
    {gen::Distribution::kAnticorrelated, 2, true},
    {gen::Distribution::kAnticorrelated, 3, false},
    {gen::Distribution::kAnticorrelated, 4, false}};

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdaptiveSfsAgreementTest, ::testing::ValuesIn(kAsfsParams),
    [](const ::testing::TestParamInfo<AsfsParam>& info) {
      std::string name = gen::DistributionName(info.param.dist);
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_order" + std::to_string(info.param.order) +
             (info.param.empty_template ? "_emptytmpl" : "_freqtmpl");
    });

TEST(AdaptiveSfsTest, ProgressiveEmissionIsInScoreOrderAndFinal) {
  gen::GenConfig config;
  config.num_rows = 500;
  config.seed = 800;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  AdaptiveSfsEngine engine(data, tmpl);
  Rng rng(801);
  PreferenceProfile query = gen::RandomImplicitQuery(data, tmpl, 3, &rng);

  std::vector<RowId> emitted;
  std::vector<double> scores;
  auto n = engine.QueryProgressive(query, [&](RowId r, double score) {
    emitted.push_back(r);
    scores.push_back(score);
    return true;
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, emitted.size());
  EXPECT_TRUE(std::is_sorted(scores.begin(), scores.end()))
      << "progressive emission must be in ascending score order";
  // Progressiveness: every emitted point is in the final answer.
  std::vector<RowId> full = Sorted(engine.Query(query).ValueOrDie());
  for (RowId r : emitted) {
    EXPECT_TRUE(std::binary_search(full.begin(), full.end(), r));
  }
}

TEST(AdaptiveSfsTest, EarlyStopHonored) {
  gen::GenConfig config;
  config.num_rows = 500;
  config.seed = 900;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  AdaptiveSfsEngine engine(data, tmpl);
  Rng rng(901);
  PreferenceProfile query = gen::RandomImplicitQuery(data, tmpl, 2, &rng);
  size_t seen = 0;
  auto n = engine.QueryProgressive(query, [&](RowId, double) {
    return ++seen < 3;  // stop after 3 points
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(seen, 3u);
  // The first 3 of the full progressive run must match.
  std::vector<RowId> full = engine.Query(query).ValueOrDie();
  EXPECT_GE(full.size(), 3u);
}

TEST(AdaptiveSfsTest, QueryStatsReasonable) {
  gen::GenConfig config;
  config.num_rows = 600;
  config.seed = 1000;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  AdaptiveSfsEngine engine(data, tmpl);
  Rng rng(1001);
  PreferenceProfile query = gen::RandomImplicitQuery(data, tmpl, 3, &rng);
  auto result = engine.Query(query);
  ASSERT_TRUE(result.ok());
  const auto& stats = engine.last_query_stats();
  EXPECT_EQ(stats.skyline_size, result->size());
  EXPECT_LE(stats.affected, engine.sorted_skyline().size());
  // Affected (paper definition) counts at least the re-ranked subset.
  size_t paper_affected = engine.CountAffected(query).ValueOrDie();
  EXPECT_GE(paper_affected, stats.affected);
}

TEST(AdaptiveSfsTest, TemplateEqualQueryTouchesNothing) {
  gen::GenConfig config;
  config.num_rows = 300;
  config.seed = 1100;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  AdaptiveSfsEngine engine(data, tmpl);
  // Querying the template itself re-ranks nothing and returns S.
  auto result = engine.Query(tmpl);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(engine.last_query_stats().affected, 0u);
  EXPECT_EQ(result->size(), engine.sorted_skyline().size());
}

TEST(AdaptiveSfsTest, ConflictingQueryRejected) {
  gen::GenConfig config;
  config.num_rows = 100;
  config.seed = 1200;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  AdaptiveSfsEngine engine(data, tmpl);
  ValueId t = tmpl.pref(0).choices()[0];
  ValueId other = t == 0 ? 1 : 0;
  PreferenceProfile bad(data.schema());
  ASSERT_TRUE(
      bad.SetPref(0, ImplicitPreference::Make(tmpl.pref(0).cardinality(),
                                              {other, t})
                         .ValueOrDie())
          .ok());
  EXPECT_TRUE(engine.Query(bad).status().IsConflict());
}

TEST(AdaptiveSfsTest, MemoryUsagePositive) {
  gen::GenConfig config;
  config.num_rows = 200;
  config.seed = 1300;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  AdaptiveSfsEngine engine(data, tmpl);
  EXPECT_GT(engine.MemoryUsage(), 0u);
  EXPECT_GE(engine.preprocessing_seconds(), 0.0);
}

}  // namespace
}  // namespace nomsky
