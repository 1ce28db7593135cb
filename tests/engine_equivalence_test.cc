// Registry-driven equivalence property test: on randomized datasets,
// templates and queries, EVERY registered engine — enumerated through
// EngineRegistry, so engines added later are covered automatically — must
// return the naive ground-truth skyline. The parallel partition-merge
// paths are held to the same standard at 1, 2 and 8 threads, including
// concurrent batched execution over a shared engine.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/adaptive_sfs.h"
#include "datagen/generator.h"
#include "exec/engine_registry.h"
#include "exec/query_executor.h"
#include "skyline/naive.h"
#include "skyline/sfs.h"

namespace nomsky {
namespace {

std::vector<RowId> Sorted(std::vector<RowId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

struct RandomCase {
  Dataset data;
  PreferenceProfile tmpl;
  std::vector<PreferenceProfile> queries;
};

RandomCase MakeCase(uint64_t seed) {
  Rng meta(seed);
  gen::GenConfig config;
  config.num_rows = 250 + meta.UniformInt(200);
  config.num_numeric = 1 + meta.UniformInt(2);
  config.num_nominal = 1 + meta.UniformInt(3);
  config.cardinality = 3 + meta.UniformInt(6);
  config.distribution = static_cast<gen::Distribution>(meta.UniformInt(3));
  config.seed = seed * 31 + 7;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = meta.UniformInt(2) == 0
                               ? PreferenceProfile(data.schema())
                               : gen::MostFrequentTemplate(data);
  Rng qrng(seed + 1000);
  std::vector<PreferenceProfile> queries;
  for (size_t order = 0; order <= 3; ++order) {
    queries.push_back(order == 0
                          ? PreferenceProfile(data.schema())
                          : gen::RandomImplicitQuery(data, tmpl, order,
                                                     &qrng));
  }
  return RandomCase{std::move(data), std::move(tmpl), std::move(queries)};
}

class EngineEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineEquivalenceTest, AllRegisteredEnginesMatchGroundTruth) {
  RandomCase c = MakeCase(GetParam());
  ThreadPool pool(8);
  EngineOptions options;
  options.pool = &pool;
  options.query_shards = 4;
  options.topk = 3;  // force some hybrid/auto queries off the tree

  EngineRegistry& registry = EngineRegistry::Global();
  for (const PreferenceProfile& query : c.queries) {
    auto combined = query.CombineWithTemplate(c.tmpl).ValueOrDie();
    DominanceComparator cmp(c.data, combined);
    std::vector<RowId> truth =
        Sorted(NaiveSkyline(cmp, AllRows(c.data.num_rows())));
    for (const std::string& name : registry.Names()) {
      auto engine = registry.Create(name, c.data, c.tmpl, options);
      ASSERT_TRUE(engine.ok()) << name;
      auto rows = (*engine)->Query(query);
      ASSERT_TRUE(rows.ok()) << name << ": " << rows.status().ToString();
      EXPECT_EQ(Sorted(*rows), truth) << name;
    }
  }
}

TEST_P(EngineEquivalenceTest, ParallelPartitionMergeMatchesSequential) {
  RandomCase c = MakeCase(GetParam() + 500);
  std::vector<RowId> all = AllRows(c.data.num_rows());
  for (const PreferenceProfile& query : c.queries) {
    auto combined = query.CombineWithTemplate(c.tmpl).ValueOrDie();
    std::vector<RowId> expected = Sorted(SfsSkyline(c.data, combined, all));
    for (size_t threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      SfsStats stats;
      std::vector<RowId> got = Sorted(ParallelSfsSkyline(
          c.data, combined, all, &pool, /*shards=*/threads, &stats));
      EXPECT_EQ(got, expected) << threads << " threads";
    }
  }
}

// Concurrency stress: one shared engine of each kind answers the same
// query batch on 8 threads; every answer must equal the sequential one.
// This is the test the ThreadSanitizer CI job gates on.
TEST_P(EngineEquivalenceTest, ConcurrentBatchesMatchSequential) {
  RandomCase c = MakeCase(GetParam() + 1300);
  Rng qrng(GetParam() + 2);
  std::vector<PreferenceProfile> batch;
  for (size_t i = 0; i < 48; ++i) {
    batch.push_back(gen::RandomImplicitQuery(c.data, c.tmpl, 2, &qrng));
  }
  ThreadPool pool(8);
  EngineOptions options;
  options.pool = &pool;
  options.query_shards = 2;
  EngineRegistry& registry = EngineRegistry::Global();
  for (const std::string& name : registry.Names()) {
    auto engine = registry.Create(name, c.data, c.tmpl, options);
    ASSERT_TRUE(engine.ok()) << name;
    std::vector<std::vector<RowId>> expected;
    for (const PreferenceProfile& q : batch) {
      expected.push_back((*engine)->Query(q).ValueOrDie());
    }
    QueryExecutor executor(**engine, &pool);
    BatchResult result = executor.RunBatch(batch);
    ASSERT_EQ(result.failures, 0u) << name;
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(result.rows[i], expected[i]) << name << " query " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomizedSweep, EngineEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// A QueryProgressive consumer that re-enters a DIFFERENT engine on the
// same thread must not corrupt the outer query's visit-stamp scratch
// (each in-flight query leases its own instance).
TEST(NestedQueryTest, ProgressiveConsumerMayReenterAnotherEngine) {
  RandomCase outer = MakeCase(31);
  RandomCase inner = MakeCase(32);
  AdaptiveSfsEngine engine_a(outer.data, outer.tmpl);
  AdaptiveSfsEngine engine_b(inner.data, inner.tmpl);
  ASSERT_NE(engine_a.sorted_skyline().size(), engine_b.sorted_skyline().size())
      << "test needs differently-sized scratches to be meaningful";

  const PreferenceProfile& query = outer.queries.back();
  std::vector<RowId> expected = engine_a.Query(query).ValueOrDie();

  std::vector<RowId> got;
  auto emitted = engine_a.QueryProgressive(
      query, [&](RowId r, double) {
        got.push_back(r);
        // Re-entrant query against the other engine mid-extraction.
        EXPECT_TRUE(engine_b.Query(inner.queries.back()).ok());
        return true;
      });
  ASSERT_TRUE(emitted.ok());
  EXPECT_EQ(got, expected);
}

// Engine storage accounting must track the structures the engines hold
// (satellite audit: IPO-tree value tables and the ASFS inverted index are
// part of the footprint).
TEST(EngineMemoryAuditTest, EnginesReportNonTrivialFootprints) {
  RandomCase c = MakeCase(77);
  EngineOptions options;
  EngineRegistry& registry = EngineRegistry::Global();
  for (const std::string& name : registry.Names()) {
    auto engine = registry.Create(name, c.data, c.tmpl, options);
    ASSERT_TRUE(engine.ok()) << name;
    if (name == "sfsd") {
      EXPECT_EQ((*engine)->MemoryUsage(), 0u) << "baseline materializes "
                                                 "nothing";
    } else {
      EXPECT_GT((*engine)->MemoryUsage(), 0u) << name;
    }
  }
  // Dataset accounting covers both column families.
  size_t expected =
      c.data.schema().num_numeric() * c.data.num_rows() * sizeof(double) +
      c.data.schema().num_nominal() * c.data.num_rows() * sizeof(ValueId);
  EXPECT_GE(c.data.MemoryUsage(), expected);
}

}  // namespace
}  // namespace nomsky
