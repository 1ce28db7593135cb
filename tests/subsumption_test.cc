// Subsumption property suite (Property 1, the result cache's soundness
// argument): on randomized datasets and implicit queries,
//   * Subsumes on compiled profiles must agree with
//     PreferenceProfile::IsRefinementOf in both directions, and
//   * whenever Subsumes(weaker, stronger) holds, re-filtering weaker's
//     cached skyline under stronger is BYTE-IDENTICAL to a fresh scan —
//     and every registered engine agrees on the answer set.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "datagen/generator.h"
#include "dominance/subsumption.h"
#include "exec/engine_registry.h"
#include "exec/result_cache.h"
#include "exec/thread_pool.h"
#include "skyline/naive.h"
#include "skyline/sfs.h"

namespace nomsky {
namespace {

std::vector<RowId> Sorted(std::vector<RowId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

Dataset MakeData(uint64_t seed) {
  Rng meta(seed);
  gen::GenConfig config;
  config.num_rows = 200 + meta.UniformInt(150);
  config.num_numeric = 1 + meta.UniformInt(2);
  config.num_nominal = 1 + meta.UniformInt(3);
  config.cardinality = 3 + meta.UniformInt(5);
  config.distribution = static_cast<gen::Distribution>(meta.UniformInt(3));
  config.seed = seed * 17 + 3;
  return gen::Generate(config);
}

// Weakens `strong` by truncating every dimension's choice list to a random
// prefix (possibly empty). A prefix orders a subset of the pairs the full
// list orders, so `strong` refines the result by construction.
PreferenceProfile PrefixWeaken(const Dataset& data,
                               const PreferenceProfile& strong, Rng* rng) {
  const Schema& schema = data.schema();
  PreferenceProfile weak(schema);
  for (size_t j = 0; j < strong.num_nominal(); ++j) {
    const std::vector<ValueId>& choices = strong.pref(j).choices();
    const size_t keep = rng->UniformInt(choices.size() + 1);
    if (keep == 0) continue;
    const size_t card = schema.dim(schema.nominal_dims()[j]).cardinality();
    std::vector<ValueId> prefix(choices.begin(), choices.begin() + keep);
    EXPECT_TRUE(
        weak.SetPref(j, ImplicitPreference::Make(card, prefix).ValueOrDie())
            .ok());
  }
  return weak;
}

// One full-table span through the full RefilterSkyline pass (the table is
// not a skyline, so the cross-shard merge does not apply): the canonical
// emission order the cache both stores and serves.
std::vector<RowId> CanonicalSkyline(const Dataset& data,
                                    const PreferenceProfile& profile) {
  CompiledProfile neutral(data.schema(), PreferenceProfile(data.schema()));
  PackedBlock packed;
  packed.PackAll(neutral, data);
  std::vector<RowId> all = AllRows(data.num_rows());
  return RefilterSkyline(profile, {&data, &packed, &all, &all});
}

class SubsumptionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SubsumptionPropertyTest, SubsumesAgreesWithIsRefinementOf) {
  Dataset data = MakeData(GetParam());
  const Schema& schema = data.schema();
  const PreferenceProfile empty(schema);
  Rng rng(GetParam() + 100);
  for (int round = 0; round < 8; ++round) {
    PreferenceProfile a =
        gen::RandomImplicitQuery(data, empty, 1 + rng.UniformInt(3), &rng);
    PreferenceProfile b =
        round % 2 == 0
            ? gen::RandomImplicitQuery(data, empty, 1 + rng.UniformInt(3),
                                       &rng)
            : PrefixWeaken(data, a, &rng);  // guaranteed-related pairs too
    const CompiledProfile ca(schema, a);
    const CompiledProfile cb(schema, b);
    EXPECT_EQ(Subsumes(ca, cb), b.IsRefinementOf(a))
        << "a=" << a.ToString(schema) << " b=" << b.ToString(schema);
    EXPECT_EQ(Subsumes(cb, ca), a.IsRefinementOf(b))
        << "a=" << a.ToString(schema) << " b=" << b.ToString(schema);
  }
}

TEST_P(SubsumptionPropertyTest, RefilterOfWeakerSkylineMatchesFreshScan) {
  Dataset data = MakeData(GetParam() + 300);
  const Schema& schema = data.schema();
  const PreferenceProfile empty(schema);
  Rng rng(GetParam() + 400);
  for (int round = 0; round < 6; ++round) {
    PreferenceProfile stronger =
        gen::RandomImplicitQuery(data, empty, 1 + rng.UniformInt(3), &rng);
    PreferenceProfile weaker = PrefixWeaken(data, stronger, &rng);
    ASSERT_TRUE(stronger.IsRefinementOf(weaker));
    ASSERT_TRUE(Subsumes(CompiledProfile(schema, weaker),
                         CompiledProfile(schema, stronger)));

    // Cache the weaker profile's skyline, then answer the refinement
    // through the cache: the refilter must emit exactly what a fresh
    // full-table scan emits — same rows, same order.
    ResultCache cache(schema, ResultCache::Options{});
    std::vector<RowId> weaker_rows = CanonicalSkyline(data, weaker);
    CompiledProfile neutral(schema, PreferenceProfile(schema));
    PackedBlock winners;
    winners.Pack(neutral, data, weaker_rows);
    cache.Insert(weaker, cache.generation(), weaker_rows, winners);

    auto answer = cache.Lookup(stronger);
    ASSERT_TRUE(answer.has_value());
    // PrefixWeaken may return the profile unchanged (every prefix kept
    // whole), in which case the lookup is an exact hit — equally valid.
    EXPECT_TRUE(answer->verdict == CacheVerdict::kSubsumed ||
                answer->verdict == CacheVerdict::kHit);
    EXPECT_EQ(answer->rows, CanonicalSkyline(data, stronger))
        << "weaker=" << weaker.ToString(schema)
        << " stronger=" << stronger.ToString(schema);
  }
}

TEST_P(SubsumptionPropertyTest, EveryEngineAgreesWithTheCachedAnswer) {
  Dataset data = MakeData(GetParam() + 600);
  const Schema& schema = data.schema();
  const PreferenceProfile empty(schema);
  Rng rng(GetParam() + 700);
  PreferenceProfile stronger = gen::RandomImplicitQuery(data, empty, 2, &rng);
  PreferenceProfile weaker = PrefixWeaken(data, stronger, &rng);

  ResultCache cache(schema, ResultCache::Options{});
  std::vector<RowId> weaker_rows = CanonicalSkyline(data, weaker);
  CompiledProfile neutral(schema, PreferenceProfile(schema));
  PackedBlock winners;
  winners.Pack(neutral, data, weaker_rows);
  cache.Insert(weaker, cache.generation(), weaker_rows, winners);
  auto answer = cache.Lookup(stronger);
  ASSERT_TRUE(answer.has_value());
  const std::vector<RowId> expected = Sorted(answer->rows);

  ThreadPool pool(4);
  EngineOptions options;
  options.pool = &pool;
  EngineRegistry& registry = EngineRegistry::Global();
  for (const std::string& name : registry.Names()) {
    auto engine = registry.Create(name, data, empty, options);
    ASSERT_TRUE(engine.ok()) << name;
    auto rows = (*engine)->Query(stronger);
    ASSERT_TRUE(rows.ok()) << name << ": " << rows.status().ToString();
    EXPECT_EQ(Sorted(*rows), expected) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomizedSweep, SubsumptionPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace nomsky
