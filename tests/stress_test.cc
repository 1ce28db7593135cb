// Long-running randomized stress: many random (schema, distribution,
// template, query) configurations, all engines cross-checked against the
// O(n²) ground truth. Catches interaction bugs the per-module tests can't.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/adaptive_sfs.h"
#include "core/hybrid.h"
#include "core/ipo_tree.h"
#include "datagen/generator.h"
#include "skyline/naive.h"
#include "skyline/sfs_direct.h"
#include "skyline/transform.h"

namespace nomsky {
namespace {

std::vector<RowId> Sorted(std::vector<RowId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(StressTest, RandomConfigurationsAllEnginesAgree) {
  Rng meta_rng(20260612);
  for (int config_id = 0; config_id < 12; ++config_id) {
    gen::GenConfig config;
    config.num_rows = 100 + meta_rng.UniformInt(250);
    config.num_numeric = 1 + meta_rng.UniformInt(3);
    config.num_nominal = 1 + meta_rng.UniformInt(3);
    config.cardinality = 2 + meta_rng.UniformInt(5);
    config.zipf_theta = meta_rng.UniformDouble(0.0, 2.0);
    config.distribution = static_cast<gen::Distribution>(meta_rng.UniformInt(3));
    config.seed = meta_rng.Next();
    Dataset data = gen::Generate(config);

    // Random template: empty, most-frequent, or order-2.
    PreferenceProfile tmpl(data.schema());
    switch (meta_rng.UniformInt(3)) {
      case 0:
        break;
      case 1:
        tmpl = gen::MostFrequentTemplate(data);
        break;
      default: {
        Rng r(config.seed + 1);
        tmpl = gen::RandomImplicitQuery(data, PreferenceProfile(data.schema()),
                                        2, &r);
        break;
      }
    }

    IpoTreeEngine::Options opts;
    opts.construction = meta_rng.UniformInt(2) == 1
                            ? IpoTreeEngine::Construction::kDirect
                            : IpoTreeEngine::Construction::kMdc;
    opts.num_threads = 1 + meta_rng.UniformInt(4);
    IpoTreeEngine tree(data, tmpl, opts);
    AdaptiveSfsEngine asfs(data, tmpl);
    SfsDirectEngine sfsd(data, tmpl);
    TransformEngine transform(data, tmpl);

    Rng query_rng(config.seed + 2);
    for (int rep = 0; rep < 4; ++rep) {
      size_t order = query_rng.UniformInt(config.cardinality + 1);
      PreferenceProfile query =
          gen::RandomImplicitQuery(data, tmpl, order, &query_rng);
      auto combined = query.CombineWithTemplate(tmpl).ValueOrDie();
      DominanceComparator cmp(data, combined);
      std::vector<RowId> truth =
          Sorted(NaiveSkyline(cmp, AllRows(config.num_rows)));
      std::string ctx = "config " + std::to_string(config_id) + " rep " +
                        std::to_string(rep) + " order " +
                        std::to_string(order) + " n_nom " +
                        std::to_string(config.num_nominal) + " c " +
                        std::to_string(config.cardinality);
      EXPECT_EQ(Sorted(tree.Query(query).ValueOrDie()), truth)
          << "IPO " << ctx;
      EXPECT_EQ(Sorted(asfs.Query(query).ValueOrDie()), truth)
          << "SFS-A " << ctx;
      EXPECT_EQ(Sorted(sfsd.Query(query).ValueOrDie()), truth)
          << "SFS-D " << ctx;
      EXPECT_EQ(Sorted(transform.Query(query).ValueOrDie()), truth)
          << "transform " << ctx;
    }
  }
}

TEST(StressTest, AdversarialClusteredData) {
  // Heavy duplication + a few distinct clusters: stresses tie handling in
  // presorting and window logic.
  Schema s;
  ASSERT_TRUE(s.AddNumeric("x").ok());
  ASSERT_TRUE(s.AddNumeric("y").ok());
  ASSERT_TRUE(s.AddNominal("g", {"a", "b", "c"}).ok());
  Dataset data(s);
  Rng rng(99);
  for (int i = 0; i < 600; ++i) {
    double cluster = static_cast<double>(rng.UniformInt(3));
    ASSERT_TRUE(data.Append({{cluster * 0.3, (2.0 - cluster) * 0.3},
                             {static_cast<ValueId>(rng.UniformInt(3))}})
                    .ok());
  }
  PreferenceProfile tmpl(s);
  IpoTreeEngine tree(data, tmpl);
  AdaptiveSfsEngine asfs(data, tmpl);
  for (const char* pref : {"a<*", "b<a<*", "c<b<a", "*"}) {
    auto query = PreferenceProfile::Parse(s, {{"g", pref}}).ValueOrDie();
    auto combined = query.CombineWithTemplate(tmpl).ValueOrDie();
    DominanceComparator cmp(data, combined);
    std::vector<RowId> truth = Sorted(NaiveSkyline(cmp, AllRows(600)));
    EXPECT_EQ(Sorted(tree.Query(query).ValueOrDie()), truth) << pref;
    EXPECT_EQ(Sorted(asfs.Query(query).ValueOrDie()), truth) << pref;
  }
}

TEST(StressTest, RepeatedQueriesAreIdempotent) {
  // Engines must not corrupt internal state across queries (epoch logic,
  // mutable stats).
  gen::GenConfig config;
  config.num_rows = 400;
  config.seed = 98;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  AdaptiveSfsEngine asfs(data, tmpl);
  IpoTreeEngine tree(data, tmpl);
  Rng rng(97);
  PreferenceProfile q1 = gen::RandomImplicitQuery(data, tmpl, 3, &rng);
  PreferenceProfile q2 = gen::RandomImplicitQuery(data, tmpl, 2, &rng);
  auto a1 = Sorted(asfs.Query(q1).ValueOrDie());
  auto t1 = Sorted(tree.Query(q1).ValueOrDie());
  for (int i = 0; i < 50; ++i) {
    (void)asfs.Query(q2).ValueOrDie();
    (void)tree.Query(q2).ValueOrDie();
    EXPECT_EQ(Sorted(asfs.Query(q1).ValueOrDie()), a1) << "iteration " << i;
    EXPECT_EQ(Sorted(tree.Query(q1).ValueOrDie()), t1) << "iteration " << i;
  }
}

TEST(StressTest, ManyEnginesOverOneDatasetShareNothing) {
  // Engines borrow (not own) the dataset: several over the same data must
  // not interfere.
  gen::GenConfig config;
  config.num_rows = 200;
  config.seed = 96;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  std::vector<std::unique_ptr<AdaptiveSfsEngine>> engines;
  for (int i = 0; i < 8; ++i) {
    engines.push_back(std::make_unique<AdaptiveSfsEngine>(data, tmpl));
  }
  Rng rng(95);
  PreferenceProfile query = gen::RandomImplicitQuery(data, tmpl, 2, &rng);
  auto expected = Sorted(engines[0]->Query(query).ValueOrDie());
  for (auto& e : engines) {
    EXPECT_EQ(Sorted(e->Query(query).ValueOrDie()), expected);
  }
}

}  // namespace
}  // namespace nomsky
