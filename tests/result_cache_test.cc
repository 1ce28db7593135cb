// ResultCache: exact hits must return the inserted answer byte-for-byte,
// subsumption hits must refilter to exactly what a fresh scan emits (and
// promote), invalidation must retire entries AND in-flight stale inserts,
// and eviction must weigh QueryHistory popularity, not just recency.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/query_history.h"
#include "datagen/generator.h"
#include "exec/result_cache.h"
#include "skyline/naive.h"
#include "skyline/sfs.h"

namespace nomsky {
namespace {

Dataset MakeData(uint64_t seed) {
  gen::GenConfig config;
  config.num_rows = 400;
  config.num_numeric = 2;
  config.num_nominal = 2;
  config.cardinality = 6;
  config.seed = seed;
  return gen::Generate(config);
}

PreferenceProfile Parse(const Schema& schema, const std::string& text) {
  return PreferenceProfile::ParseText(schema, text).ValueOrDie();
}

// The emission order the cache serves: one full-table span through the
// full RefilterSkyline pass (the table is not a skyline, so the cross-shard
// merge does not apply) — the same (score, global id) candidate order the
// sharded and serving paths emit.
std::vector<RowId> CanonicalSkyline(const Dataset& data,
                                    const PreferenceProfile& profile) {
  CompiledProfile neutral(data.schema(), PreferenceProfile(data.schema()));
  PackedBlock packed;
  packed.PackAll(neutral, data);
  std::vector<RowId> all = AllRows(data.num_rows());
  return RefilterSkyline(profile, {&data, &packed, &all, &all});
}

// Computes `profile`'s skyline fresh and publishes it, exactly as an
// engine's miss path does.
std::vector<RowId> InsertSkyline(ResultCache* cache, const Dataset& data,
                                 const PreferenceProfile& profile) {
  const uint64_t generation = cache->generation();
  std::vector<RowId> rows = CanonicalSkyline(data, profile);
  CompiledProfile neutral(data.schema(), PreferenceProfile(data.schema()));
  PackedBlock winners;
  winners.Pack(neutral, data, rows);
  cache->Insert(profile, generation, rows, winners);
  return rows;
}

TEST(ResultCacheTest, ExactHitReturnsTheInsertedAnswer) {
  Dataset data = MakeData(41);
  ResultCache cache(data.schema(), ResultCache::Options{});
  const PreferenceProfile cached = Parse(data.schema(), "nom0: v2<*");
  std::vector<RowId> rows = InsertSkyline(&cache, data, cached);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(cache.size(), 1u);

  auto answer = cache.Lookup(cached);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->verdict, CacheVerdict::kHit);
  EXPECT_EQ(answer->rows, rows);
  // The entry's transposed values are the winners' rows, in answer order.
  ASSERT_NE(answer->entry, nullptr);
  ASSERT_EQ(answer->entry->values.num_rows(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const RowValues got = answer->entry->values.GetRow(i);
    const RowValues want = data.GetRow(rows[i]);
    EXPECT_EQ(got.numeric, want.numeric) << "row " << i;
    EXPECT_EQ(got.nominal, want.nominal) << "row " << i;
  }
  // A profile nothing cached subsumes is a miss.
  EXPECT_FALSE(cache.Lookup(Parse(data.schema(), "nom1: v4<*")).has_value());

  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.exact_hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.subsumed_hits, 0u);
}

TEST(ResultCacheTest, SubsumptionRefiltersByteIdenticallyAndPromotes) {
  Dataset data = MakeData(43);
  ResultCache cache(data.schema(), ResultCache::Options{});
  const PreferenceProfile weaker = Parse(data.schema(), "nom0: v1<*");
  const PreferenceProfile stronger =
      Parse(data.schema(), "nom0: v1<v0<*; nom1: v2<*");
  ASSERT_TRUE(stronger.IsRefinementOf(weaker));
  std::vector<RowId> weaker_rows = InsertSkyline(&cache, data, weaker);

  auto answer = cache.Lookup(stronger);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->verdict, CacheVerdict::kSubsumed);
  // Property 1 made the refilter exact: byte-identical to a fresh scan.
  EXPECT_EQ(answer->rows, CanonicalSkyline(data, stronger));
  // And the answer is a subset of the cached superset.
  for (RowId r : answer->rows) {
    EXPECT_NE(std::find(weaker_rows.begin(), weaker_rows.end(), r),
              weaker_rows.end());
  }
  // AnswerNeutralRows maps each winner back to its packed slot.
  PackedBlock block;
  AnswerNeutralRows(*answer, &block);
  ASSERT_EQ(block.size(), answer->rows.size());
  for (size_t i = 0; i < block.size(); ++i) {
    EXPECT_EQ(block.row_id(i), answer->rows[i]);
  }

  // The refined answer was promoted: repeats hit directly.
  auto repeat = cache.Lookup(stronger);
  ASSERT_TRUE(repeat.has_value());
  EXPECT_EQ(repeat->verdict, CacheVerdict::kHit);
  EXPECT_EQ(repeat->rows, answer->rows);

  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.subsumed_hits, 1u);
  EXPECT_EQ(stats.exact_hits, 1u);
  EXPECT_EQ(stats.insertions, 2u);  // weaker + the promotion
}

TEST(ResultCacheTest, SubsumptionCanBeDisabled) {
  Dataset data = MakeData(47);
  ResultCache::Options options;
  options.allow_subsumption = false;
  ResultCache cache(data.schema(), options);
  InsertSkyline(&cache, data, Parse(data.schema(), "nom0: v1<*"));
  EXPECT_FALSE(
      cache.Lookup(Parse(data.schema(), "nom0: v1<v0<*")).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResultCacheTest, InvalidateRetiresEntriesAndStaleInserts) {
  Dataset data = MakeData(53);
  ResultCache cache(data.schema(), ResultCache::Options{});
  const PreferenceProfile profile = Parse(data.schema(), "nom1: v3<*");
  const uint64_t stale_generation = cache.generation();
  std::vector<RowId> rows = InsertSkyline(&cache, data, profile);
  ASSERT_TRUE(cache.Lookup(profile).has_value());

  cache.Invalidate();
  EXPECT_GT(cache.generation(), stale_generation);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(profile).has_value());

  // A result computed against the retired snapshot must be dropped.
  CompiledProfile neutral(data.schema(), PreferenceProfile(data.schema()));
  PackedBlock winners;
  winners.Pack(neutral, data, rows);
  cache.Insert(profile, stale_generation, rows, winners);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(profile).has_value());

  // The same rows tagged with the CURRENT generation publish fine.
  cache.Insert(profile, cache.generation(), rows, winners);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Lookup(profile).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ResultCacheTest, EvictionSparesHistoryPopularEntries) {
  Dataset data = MakeData(59);
  QueryHistory history(data.schema());
  const PreferenceProfile popular = Parse(data.schema(), "nom0: v3<*");
  for (int i = 0; i < 20; ++i) history.Record(popular);

  ResultCache::Options options;
  options.capacity = 2;
  options.history = &history;
  ResultCache cache(data.schema(), options);

  // Insert the popular profile FIRST so pure LRU would evict it.
  InsertSkyline(&cache, data, popular);
  const PreferenceProfile cold = Parse(data.schema(), "nom1: v1<*");
  InsertSkyline(&cache, data, cold);
  InsertSkyline(&cache, data, Parse(data.schema(), "nom1: v4<*"));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The history-hot entry survived the cold burst; the unqueried one went.
  auto hit = cache.Lookup(popular);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict, CacheVerdict::kHit);
  EXPECT_FALSE(cache.Lookup(cold).has_value());
}

TEST(ResultCacheTest, VerdictNamesMatchTheExplainVocabulary) {
  EXPECT_STREQ(CacheVerdictName(CacheVerdict::kMiss), "miss");
  EXPECT_STREQ(CacheVerdictName(CacheVerdict::kHit), "hit");
  EXPECT_STREQ(CacheVerdictName(CacheVerdict::kSubsumed), "subsumed");
}

}  // namespace
}  // namespace nomsky
