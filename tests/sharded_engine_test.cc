// ShardedEngine: registry-driven equivalence of sharded:<inner> for EVERY
// registered inner engine against the naive ground truth, swept over shard
// counts (1/2/8) × worker threads (1/2) and both placement policies,
// including empty-shard and single-point edge cases; byte-identical
// agreement of sharded:sfsd with sfsd; auto-planner routing to the sharded
// path; and concurrent batched execution over one shared sharded engine
// (the ThreadSanitizer CI job gates this suite via the "concurrency"
// label).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/generator.h"
#include "dominance/kernel_simd.h"
#include "exec/engine_registry.h"
#include "exec/planner.h"
#include "exec/query_executor.h"
#include "exec/sharded_engine.h"
#include "skyline/estimator.h"
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

RandomCase MakeCase(uint64_t seed, size_t rows) {
  Rng meta(seed);
  gen::GenConfig config;
  config.num_rows = rows;
  config.num_numeric = 1 + meta.UniformInt(2);
  config.num_nominal = 1 + meta.UniformInt(3);
  config.cardinality = 3 + meta.UniformInt(6);
  config.distribution = static_cast<gen::Distribution>(meta.UniformInt(3));
  config.seed = seed * 37 + 5;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = meta.UniformInt(2) == 0
                               ? PreferenceProfile(data.schema())
                               : gen::MostFrequentTemplate(data);
  Rng qrng(seed + 4000);
  std::vector<PreferenceProfile> queries;
  for (size_t order = 0; order <= 3; ++order) {
    queries.push_back(order == 0
                          ? PreferenceProfile(data.schema())
                          : gen::RandomImplicitQuery(data, tmpl, order,
                                                     &qrng));
  }
  return RandomCase{std::move(data), std::move(tmpl), std::move(queries)};
}

class ShardedEngineTest : public ::testing::TestWithParam<uint64_t> {};

// The satellite suite: sharded:<inner> for every registered inner engine,
// at 1/2/8 shards × 1/2 threads, against the naive ground truth.
TEST_P(ShardedEngineTest, EveryInnerEngineMatchesGroundTruthAcrossShards) {
  RandomCase c = MakeCase(GetParam(), 260 + GetParam() * 17);
  std::vector<std::vector<RowId>> truths;
  for (const PreferenceProfile& query : c.queries) {
    auto combined = query.CombineWithTemplate(c.tmpl).ValueOrDie();
    DominanceComparator cmp(c.data, combined);
    truths.push_back(Sorted(NaiveSkyline(cmp, AllRows(c.data.num_rows()))));
  }
  EngineRegistry& registry = EngineRegistry::Global();
  for (const std::string& inner : registry.Names()) {
    if (inner == "sharded") continue;  // covered as every sharded:<inner>
    for (size_t shards : {1, 2, 8}) {
      for (size_t threads : {1, 2}) {
        ThreadPool pool(threads);
        EngineOptions options;
        options.pool = &pool;
        options.data_shards = shards;
        options.topk = 3;
        auto engine =
            registry.Create("sharded:" + inner, c.data, c.tmpl, options);
        ASSERT_TRUE(engine.ok())
            << inner << ": " << engine.status().ToString();
        for (size_t qi = 0; qi < c.queries.size(); ++qi) {
          auto rows = (*engine)->Query(c.queries[qi]);
          ASSERT_TRUE(rows.ok()) << inner << ": " << rows.status().ToString();
          EXPECT_EQ(Sorted(*rows), truths[qi])
              << "sharded:" << inner << " at " << shards << " shards, "
              << threads << " threads, query " << qi;
        }
      }
    }
  }
}

// Acceptance criterion: sharded:sfsd with 4 shards produces byte-identical
// skylines to sfsd — same rows in the same emission order, both policies.
TEST_P(ShardedEngineTest, ShardedSfsdIsByteIdenticalToSfsd) {
  RandomCase c = MakeCase(GetParam() + 100, 300);
  ThreadPool pool(2);
  EngineOptions plain;
  auto sfsd = EngineRegistry::Global().Create("sfsd", c.data, c.tmpl, plain);
  ASSERT_TRUE(sfsd.ok());
  for (ShardPolicy policy : {ShardPolicy::kHash, ShardPolicy::kRange}) {
    EngineOptions options;
    options.pool = &pool;
    options.data_shards = 4;
    options.shard_policy = policy;
    auto sharded =
        EngineRegistry::Global().Create("sharded:sfsd", c.data, c.tmpl,
                                        options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    for (const PreferenceProfile& query : c.queries) {
      auto expected = (*sfsd)->Query(query);
      auto got = (*sharded)->Query(query);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *expected)
          << "emission order differs under " << ShardPolicyName(policy);
    }
  }
}

// The cross-shard merge against the full single-window pass over the same
// union: random tables split into 1/2/3/8 private shards, local skylines
// from every registered engine, every kernel tier. The sequence must be
// identical, each winner's reported source must map back to its global id,
// and the merge must do no intra-shard work — zero dominance tests for one
// shard, never more than the full pass for k.
TEST_P(ShardedEngineTest, CrossShardMergeEmitsTheFullPassSequence) {
  RandomCase c = MakeCase(GetParam() + 200, 240 + GetParam() * 23);
  const CompiledProfile neutral(c.data.schema(),
                                PreferenceProfile(c.data.schema()));
  PackedBlock source_packed;
  source_packed.PackAll(neutral, c.data);
  EngineRegistry& registry = EngineRegistry::Global();
  for (size_t k : {1, 2, 3, 8}) {
    ShardedDataset::Options split;
    split.num_shards = k;
    auto sharded = ShardedDataset::Partition(c.data, split);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    std::vector<PackedBlock> packed(k);
    for (size_t s = 0; s < k; ++s) packed[s].PackAll(neutral, sharded->shard(s));
    for (const std::string& name : registry.Names()) {
      if (name == "sharded") continue;
      std::vector<std::unique_ptr<SkylineEngine>> engines;
      for (size_t s = 0; s < k; ++s) {
        auto engine = registry.Create(name, sharded->shard(s), c.tmpl);
        ASSERT_TRUE(engine.ok()) << name << ": " << engine.status().ToString();
        engines.push_back(std::move(engine).ValueOrDie());
      }
      for (size_t qi = 0; qi < c.queries.size(); ++qi) {
        const PreferenceProfile combined =
            c.queries[qi].CombineWithTemplate(c.tmpl).ValueOrDie();
        std::vector<std::vector<RowId>> locals(k);
        std::vector<RowId> union_rows;
        std::vector<ShardSpan> spans(k);
        for (size_t s = 0; s < k; ++s) {
          auto rows = engines[s]->Query(c.queries[qi]);
          ASSERT_TRUE(rows.ok()) << name << ": " << rows.status().ToString();
          locals[s] = std::move(rows).ValueOrDie();
          for (RowId local : locals[s]) {
            union_rows.push_back(sharded->ToGlobal(s, local));
          }
          spans[s] = ShardSpan{&sharded->shard(s), &packed[s], &locals[s],
                               &sharded->shard_rows(s)};
        }
        for (KernelTier tier : AvailableKernelTiers()) {
          ForceKernelTier(static_cast<int>(tier));
          SfsStats full_stats;
          const std::vector<RowId> full = RefilterSkyline(
              combined, {&c.data, &source_packed, &union_rows, nullptr},
              &full_stats);
          SfsStats merge_stats;
          std::vector<SpanRow> sources;
          const std::vector<RowId> merged =
              MergeShardSkylines(combined, spans, &merge_stats, &sources);
          const std::string where = name + " at " + std::to_string(k) +
                                    " shards, query " + std::to_string(qi) +
                                    ", tier " + KernelTierName(tier);
          EXPECT_EQ(merged, full) << where;
          ASSERT_EQ(sources.size(), merged.size()) << where;
          for (size_t i = 0; i < merged.size(); ++i) {
            EXPECT_EQ(sharded->ToGlobal(sources[i].span, sources[i].local),
                      merged[i])
                << where;
          }
          if (k == 1) {
            EXPECT_EQ(merge_stats.dominance_tests, 0u) << where;
          } else {
            EXPECT_LE(merge_stats.dominance_tests, full_stats.dominance_tests)
                << where;
          }
        }
        ForceKernelTier(kTierNoForce);
      }
    }
  }
}

// SFS-D's partition-then-merge path shares the cross-shard merge loop: its
// sequence must equal the sequential SFS pass at every slice count.
TEST_P(ShardedEngineTest, ParallelSfsEmitsTheSequentialSequence) {
  RandomCase c = MakeCase(GetParam() + 300, 400);
  ThreadPool pool(2);
  const std::vector<RowId> all = AllRows(c.data.num_rows());
  for (const PreferenceProfile& query : c.queries) {
    const PreferenceProfile combined =
        query.CombineWithTemplate(c.tmpl).ValueOrDie();
    const std::vector<RowId> expected = SfsSkyline(c.data, combined, all);
    for (size_t slices : {2, 3, 8}) {
      EXPECT_EQ(ParallelSfsSkyline(c.data, combined, all, &pool, slices),
                expected)
          << slices << " slices";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomizedSweep, ShardedEngineTest,
                         ::testing::Values(1, 2, 3));

TEST(ShardedEngineEdgeTest, MoreShardsThanRowsAndSinglePoint) {
  // 8 shards over 3 rows (most shards empty) and over exactly 1 row.
  for (size_t rows : {3u, 1u}) {
    gen::GenConfig config;
    config.num_rows = rows;
    config.num_numeric = 1;
    config.num_nominal = 2;
    config.cardinality = 4;
    config.seed = 9 + rows;
    Dataset data = gen::Generate(config);
    PreferenceProfile tmpl(data.schema());
    PreferenceProfile query(data.schema());
    DominanceComparator cmp(data, query);
    std::vector<RowId> truth = Sorted(NaiveSkyline(cmp, AllRows(rows)));
    ThreadPool pool(2);
    for (const std::string& inner :
         {std::string("sfsd"), std::string("asfs"), std::string("ipo")}) {
      EngineOptions options;
      options.pool = &pool;
      options.data_shards = 8;
      auto engine = EngineRegistry::Global().Create("sharded:" + inner, data,
                                                    tmpl, options);
      ASSERT_TRUE(engine.ok()) << inner << ": "
                               << engine.status().ToString();
      auto got = (*engine)->Query(query);
      ASSERT_TRUE(got.ok()) << inner << ": " << got.status().ToString();
      EXPECT_EQ(Sorted(*got), truth) << inner << " over " << rows << " rows";
    }
  }
}

TEST(ShardedEngineEdgeTest, RejectsNestingAndUnknownInner) {
  Dataset data = MakeCase(7, 50).data;
  PreferenceProfile tmpl(data.schema());
  auto nested = EngineRegistry::Global().Create("sharded:sharded:sfsd", data,
                                                tmpl, EngineOptions());
  EXPECT_FALSE(nested.ok());
  auto unknown = EngineRegistry::Global().Create("sharded:nope", data, tmpl,
                                                 EngineOptions());
  EXPECT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().ToString().find("nope"), std::string::npos);
}

TEST(ShardedEngineTestObservability, ReportsShardsFootprintAndMergeStats) {
  RandomCase c = MakeCase(5, 400);
  ThreadPool pool(2);
  EngineOptions options;
  options.pool = &pool;
  options.data_shards = 4;
  auto created = ShardedEngine::Create("asfs", c.data, c.tmpl, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<ShardedEngine> engine = std::move(created).ValueOrDie();

  EXPECT_EQ(engine->num_shards(), 4u);
  EXPECT_EQ(engine->inner_name(), "asfs");
  EXPECT_EQ(std::string(engine->name()), "Sharded(asfs x4)");
  // Four snapshots, each carrying rows + packed block + an ASFS index.
  size_t snapshot_rows = 0, snapshot_bytes = 0;
  for (size_t s = 0; s < engine->num_shards(); ++s) {
    auto snap = engine->snapshot(s);
    EXPECT_EQ(snap->epoch, 0u);
    EXPECT_EQ(snap->data.num_rows(), snap->global_rows.size());
    EXPECT_EQ(snap->packed.size(), snap->data.num_rows());
    snapshot_rows += snap->data.num_rows();
    snapshot_bytes += snap->data.MemoryUsage() + snap->packed.MemoryUsage();
  }
  EXPECT_EQ(snapshot_rows, c.data.num_rows());
  EXPECT_GT(engine->MemoryUsage(), snapshot_bytes);
  EXPECT_GT(engine->shard_build_seconds_total(), 0.0);

  auto rows = engine->Query(c.queries.back());
  ASSERT_TRUE(rows.ok());
  // The merge saw at least the final skyline and can only shrink the union.
  EXPECT_EQ(engine->last_merge_survivors(), rows->size());
  EXPECT_GE(engine->last_merge_candidates(), rows->size());
  // The fan-out was timed: four shard engines ran, and none can outlast
  // the fan-out that waited for it, so the sum is at most 4x the wall.
  EXPECT_GT(engine->last_fanout_seconds(), 0.0);
  EXPECT_GT(engine->last_shard_query_seconds(), 0.0);
  EXPECT_LE(engine->last_shard_query_seconds(),
            4.0 * engine->last_fanout_seconds());
}

// The auto planner must take the sharded route for scan-bound queries over
// large data when shards are armed — and the route must stay correct.
TEST(AutoShardedRoutingTest, ScanBoundLargeQueriesRouteToShards) {
  gen::GenConfig config;
  config.num_rows = 400;
  config.num_numeric = 2;
  config.num_nominal = 2;
  config.cardinality = 8;
  config.seed = 77;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl(data.schema());

  // One unpopular refined value on dim 0 (escapes a topk=2 materialization
  // plan) while dim 1 stays unordered (large incomparability factor → the
  // analytic estimate is scan-bound).
  EngineOptions options;
  options.topk = 2;
  options.data_shards = 4;
  options.sharded_min_rows = 100;  // 400-row "large" threshold for the test
  ThreadPool pool(2);
  options.pool = &pool;
  AutoEngine engine(data, tmpl, options);
  ASSERT_NE(engine.sharded_engine(), nullptr);

  const Schema& schema = data.schema();
  size_t card = schema.dim(schema.nominal_dims()[0]).cardinality();
  ValueId unpopular = 0;
  while (std::binary_search(engine.planner().popular_plan()[0].begin(),
                            engine.planner().popular_plan()[0].end(),
                            unpopular)) {
    ++unpopular;
  }
  PreferenceProfile query(data.schema());
  ASSERT_TRUE(
      query.SetPref(0, ImplicitPreference::Make(card, {unpopular})
                           .ValueOrDie())
          .ok());

  // Precondition: the estimator must consider this scan-bound; if it stops
  // doing so the test's premise is gone — fail loudly here, not silently.
  double est = AnalyticIndependentEstimate(data.num_rows(), schema, query);
  ASSERT_GT(est / static_cast<double>(data.num_rows()), 0.25);

  PlanDecision decision;
  auto rows = engine.QueryExplained(query, &decision);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(decision.engine, "sharded") << decision.reason;
  EXPECT_EQ(engine.dispatch_counts().sharded, 1u);

  DominanceComparator cmp(data, query);
  EXPECT_EQ(Sorted(*rows), Sorted(NaiveSkyline(cmp, AllRows(400))));

  // Below the row threshold the planner must fall back to plain sfsd.
  EngineOptions small = options;
  small.sharded_min_rows = 100'000;
  AutoEngine small_engine(data, tmpl, small);
  EXPECT_EQ(small_engine.planner().Choose(query).engine, "sfsd");
}

// The merge helpers underpinning the sharded layer, exercised directly on
// ARBITRARY partitions (not the engine's own): per-subset skylines of any
// cover of the rows must merge to the full skyline (MergeLocalSkylines).
TEST(MergeLocalSkylinesTest, ArbitraryPartitionsMergeToTheFullSkyline) {
  RandomCase c = MakeCase(21, 320);
  const PreferenceProfile combined =
      c.queries.back().CombineWithTemplate(c.tmpl).ValueOrDie();
  std::vector<RowId> all = AllRows(c.data.num_rows());

  // An intentionally lopsided cover: tiny, huge, and empty subsets.
  std::vector<std::vector<RowId>> subsets(4);
  for (RowId r : all) {
    subsets[r < 10 ? 0 : (r % 2 == 0 ? 1 : 3)].push_back(r);
  }
  ASSERT_TRUE(subsets[2].empty());

  std::vector<std::vector<RowId>> locals;
  for (const auto& subset : subsets) {
    locals.push_back(SfsSkyline(c.data, combined, subset));
  }
  EXPECT_EQ(Sorted(MergeLocalSkylines(c.data, combined, locals)),
            Sorted(SfsSkyline(c.data, combined, all)));
}

// Concurrency gate: one shared sharded engine answers a batch fanned out
// on 8 threads (shard fan-out nests inside the batch fan-out); answers
// must equal the sequential ones. Run under TSan in CI.
TEST(ShardedConcurrencyTest, ConcurrentBatchesOverOneSharedEngine) {
  RandomCase c = MakeCase(13, 350);
  Rng qrng(17);
  std::vector<PreferenceProfile> batch;
  for (size_t i = 0; i < 32; ++i) {
    batch.push_back(gen::RandomImplicitQuery(c.data, c.tmpl, 2, &qrng));
  }
  ThreadPool pool(8);
  EngineOptions options;
  options.pool = &pool;
  options.data_shards = 4;
  for (const std::string& inner : {std::string("sfsd"), std::string("asfs"),
                                   std::string("hybrid")}) {
    auto engine = EngineRegistry::Global().Create("sharded:" + inner, c.data,
                                                  c.tmpl, options);
    ASSERT_TRUE(engine.ok()) << inner;
    std::vector<std::vector<RowId>> expected;
    for (const PreferenceProfile& q : batch) {
      expected.push_back((*engine)->Query(q).ValueOrDie());
    }
    QueryExecutor executor(**engine, &pool);
    BatchResult result = executor.RunBatch(batch);
    ASSERT_EQ(result.failures, 0u) << inner;
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(result.rows[i], expected[i]) << inner << " query " << i;
    }
  }
}

}  // namespace
}  // namespace nomsky
