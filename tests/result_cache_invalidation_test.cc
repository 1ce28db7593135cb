// Result-cache invalidation against epoch swaps: a RebuildShard racing
// cached QueryServed lookups must never surface rows from a retired
// snapshot — every answer (cached or fresh) matches one of the two
// epochs' exact skylines, and once a swap settles, queries reflect the
// new contents. Runs under ThreadSanitizer in CI via the "concurrency"
// label.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "datagen/generator.h"
#include "exec/sharded_engine.h"
#include "exec/thread_pool.h"
#include "skyline/naive.h"

namespace nomsky {
namespace {

std::vector<RowId> Sorted(std::vector<RowId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::pair<Dataset, std::vector<RowId>> SliceRows(
    const Dataset& source, const std::vector<RowId>& ids) {
  Dataset rows(source.schema());
  EXPECT_TRUE(rows.AppendRowsFrom(source, ids).ok());
  return {std::move(rows), ids};
}

std::vector<RowId> TruthOver(const Dataset& data,
                             const PreferenceProfile& query,
                             const PreferenceProfile& tmpl,
                             std::vector<RowId> rows) {
  auto combined = query.CombineWithTemplate(tmpl).ValueOrDie();
  DominanceComparator cmp(data, combined);
  return Sorted(NaiveSkyline(cmp, rows));
}

struct SwapCase {
  Dataset data;
  PreferenceProfile tmpl;
  PreferenceProfile query;
};

SwapCase MakeCase(uint64_t seed) {
  gen::GenConfig config;
  config.num_rows = 240;
  config.num_numeric = 2;
  config.num_nominal = 2;
  config.cardinality = 5;
  config.seed = seed;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  Rng qrng(seed + 71);
  PreferenceProfile query = gen::RandomImplicitQuery(data, tmpl, 2, &qrng);
  return SwapCase{std::move(data), std::move(tmpl), std::move(query)};
}

// Sequential contract first: a rebuild invalidates, so the cached repeat
// that would have been a hit becomes a miss answering from the NEW epoch.
TEST(ResultCacheInvalidationTest, RebuildShardRetiresCachedAnswers) {
  SwapCase c = MakeCase(19);
  ThreadPool pool(2);
  EngineOptions options;
  options.pool = &pool;
  options.data_shards = 3;
  options.result_cache_capacity = 16;
  auto created = ShardedEngine::Create("sfsd", c.data, c.tmpl, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<ShardedEngine> engine = std::move(created).ValueOrDie();
  ASSERT_NE(engine->result_cache(), nullptr);

  CacheVerdict verdict = CacheVerdict::kSubsumed;
  auto first = engine->QueryServed(c.query, nullptr, &verdict);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(verdict, CacheVerdict::kMiss);
  auto repeat = engine->QueryServed(c.query, nullptr, &verdict);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(verdict, CacheVerdict::kHit);
  EXPECT_EQ(*repeat, *first);

  // Swap shard 0 to its first half: the cache must not answer from the
  // retired epoch.
  std::vector<RowId> shard0 = engine->snapshot(0)->global_rows;
  std::vector<RowId> half(shard0.begin(),
                          shard0.begin() + shard0.size() / 2);
  auto [rows, ids] = SliceRows(c.data, half);
  ASSERT_TRUE(engine->RebuildShard(0, std::move(rows), std::move(ids)).ok());

  std::vector<RowId> surviving;
  for (size_t s = 0; s < engine->num_shards(); ++s) {
    auto snap = engine->snapshot(s);
    surviving.insert(surviving.end(), snap->global_rows.begin(),
                     snap->global_rows.end());
  }
  auto after = engine->QueryServed(c.query, nullptr, &verdict);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(verdict, CacheVerdict::kMiss);
  EXPECT_EQ(Sorted(*after),
            TruthOver(c.data, c.query, c.tmpl, std::move(surviving)));
  EXPECT_GE(engine->result_cache()->stats().invalidations, 1u);
}

// The race itself: readers hammer a small query rotation through the
// cached QueryServed path while a writer flips shard 0 between two row
// sets. Every answer — and every answer's neutral-packed payload — must
// match one of the two epochs' skylines exactly; a blend or a
// retired-snapshot row fails the test, and TSan fails any unsynchronized
// access between the cache, the swap, and the readers.
TEST(ResultCacheInvalidationConcurrencyTest,
     SwapsRacingCachedLookupsNeverServeRetiredRows) {
  SwapCase c = MakeCase(23);
  ThreadPool pool(4);
  EngineOptions options;
  options.pool = &pool;
  options.data_shards = 4;
  options.result_cache_capacity = 16;
  auto created = ShardedEngine::Create("sfsd", c.data, c.tmpl, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<ShardedEngine> engine = std::move(created).ValueOrDie();

  std::vector<RowId> rows_a, rows_b;
  std::vector<RowId> shard0 = engine->snapshot(0)->global_rows;
  std::vector<RowId> shard0_half(shard0.begin(),
                                 shard0.begin() + shard0.size() / 2);
  for (size_t s = 1; s < engine->num_shards(); ++s) {
    auto snap = engine->snapshot(s);
    rows_a.insert(rows_a.end(), snap->global_rows.begin(),
                  snap->global_rows.end());
  }
  rows_b = rows_a;
  rows_a.insert(rows_a.end(), shard0.begin(), shard0.end());
  rows_b.insert(rows_b.end(), shard0_half.begin(), shard0_half.end());
  const std::vector<RowId> truth_a =
      TruthOver(c.data, c.query, c.tmpl, std::move(rows_a));
  const std::vector<RowId> truth_b =
      TruthOver(c.data, c.query, c.tmpl, std::move(rows_b));
  ASSERT_NE(truth_a, truth_b)
      << "halving shard 0 must change the skyline or the race is vacuous";

  constexpr int kReaders = 3;
  constexpr size_t kQueriesPerReader = 60;
  std::atomic<int> active_readers{kReaders};
  std::atomic<size_t> cache_answers{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (size_t i = 0; i < kQueriesPerReader; ++i) {
        PackedBlock block;
        CacheVerdict verdict = CacheVerdict::kMiss;
        auto rows = engine->QueryServed(c.query, &block, &verdict);
        if (!rows.ok()) {
          active_readers.fetch_sub(1, std::memory_order_release);
          GTEST_FAIL() << rows.status().ToString();
        }
        if (verdict != CacheVerdict::kMiss) {
          cache_answers.fetch_add(1, std::memory_order_relaxed);
        }
        // The payload must carry exactly the answered rows.
        if (block.size() != rows->size()) {
          active_readers.fetch_sub(1, std::memory_order_release);
          GTEST_FAIL() << "payload size diverges from the answer";
        }
        for (size_t k = 0; k < block.size(); ++k) {
          if (block.row_id(k) != (*rows)[k]) {
            active_readers.fetch_sub(1, std::memory_order_release);
            GTEST_FAIL() << "payload ids diverge from the answer";
          }
        }
        std::vector<RowId> got = Sorted(std::move(*rows));
        if (got != truth_a && got != truth_b) {
          active_readers.fetch_sub(1, std::memory_order_release);
          GTEST_FAIL() << "answer matches neither epoch's skyline "
                          "(verdict " << CacheVerdictName(verdict) << ")";
        }
      }
      active_readers.fetch_sub(1, std::memory_order_release);
    });
  }

  uint64_t swaps = 0;
  while (active_readers.load(std::memory_order_acquire) > 0 || swaps < 2) {
    const std::vector<RowId>& ids = (swaps % 2 == 0) ? shard0_half : shard0;
    auto [rows, global] = SliceRows(c.data, ids);
    Status st = engine->RebuildShard(0, std::move(rows), std::move(global));
    ASSERT_TRUE(st.ok()) << st.ToString();
    ++swaps;
  }
  for (auto& reader : readers) reader.join();
  // Whatever the verdict, an answer now must match shard 0's current
  // contents (the full table after an even number of swaps): a stale entry
  // cached after the last racing swap would show here.
  {
    CacheVerdict settled_verdict = CacheVerdict::kMiss;
    auto settled = engine->QueryServed(c.query, nullptr, &settled_verdict);
    ASSERT_TRUE(settled.ok());
    EXPECT_EQ(Sorted(*settled), swaps % 2 == 0 ? truth_a : truth_b)
        << "verdict " << CacheVerdictName(settled_verdict);
  }
  // Land on the full table with one more swap after the readers are gone,
  // even when shard 0 already holds it: a reader's last query may have
  // cached a valid answer after the last racing swap, and only a swap
  // that follows every insert leaves the cache empty.
  {
    auto [rows, global] = SliceRows(c.data, shard0);
    ASSERT_TRUE(
        engine->RebuildShard(0, std::move(rows), std::move(global)).ok());
    ++swaps;
  }

  // Settled: the cache was invalidated once per swap, and a fresh repeat
  // round-trips miss -> hit on the final contents.
  EXPECT_GE(engine->result_cache()->stats().invalidations, swaps);
  CacheVerdict verdict = CacheVerdict::kHit;
  auto fresh = engine->QueryServed(c.query, nullptr, &verdict);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(verdict, CacheVerdict::kMiss);
  EXPECT_EQ(Sorted(*fresh), truth_a);
  auto cached = engine->QueryServed(c.query, nullptr, &verdict);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(verdict, CacheVerdict::kHit);
  EXPECT_EQ(Sorted(*cached), truth_a);
}

}  // namespace
}  // namespace nomsky
