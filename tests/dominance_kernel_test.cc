// Property suite pinning the compiled dominance kernel byte-identical to
// the reference comparator (dominance/dominance.h). Every engine now runs
// the kernel path, so these tests — together with the registry-driven
// engine_equivalence_test, which re-verifies every engine (including
// sharded:* at 1/2/8 shards) against the naive ground truth on the kernel
// path — are the correctness anchor of the hot loop.

#include "dominance/kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>

#include "common/rng.h"
#include "dominance/kernel_simd.h"
#include "datagen/generator.h"
#include "skyline/bnl.h"
#include "skyline/naive.h"
#include "skyline/sfs.h"

namespace nomsky {
namespace {

// Table 1 of the paper (price, hotel-class, hotel-group).
Schema PaperSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNumeric("price").ok());
  EXPECT_TRUE(s.AddNumeric("hotel_class", SortDirection::kMaxBetter).ok());
  EXPECT_TRUE(s.AddNominal("hotel_group", {"T", "H", "M"}).ok());
  return s;
}

TEST(CompiledProfileTest, RanksAndSigns) {
  Schema schema = PaperSchema();
  auto profile =
      PreferenceProfile::Parse(schema, {{"hotel_group", "T<M<*"}})
          .ValueOrDie();
  CompiledProfile kernel(schema, profile);
  EXPECT_EQ(kernel.num_numeric(), 2u);
  EXPECT_EQ(kernel.num_nominal(), 1u);
  EXPECT_EQ(kernel.row_slots() % 8, 0u);  // cache-line multiple
  EXPECT_EQ(kernel.numeric_sign(0), 1.0);   // price: min better
  EXPECT_EQ(kernel.numeric_sign(1), -1.0);  // class: max better
  EXPECT_EQ(kernel.rank(0, 0), 0u);  // T: first choice
  EXPECT_EQ(kernel.rank(0, 2), 1u);  // M: second choice
  EXPECT_EQ(kernel.rank(0, 1), CompiledProfile::kUnlistedRank);  // H
}

// All four DomResult outcomes on crafted rows, including the two key
// semantic corners: distinct unlisted values are incomparable (never
// equal), and rows that tie in every dimension are equal.
TEST(CompiledProfileTest, FourOutcomeSemantics) {
  Schema schema = PaperSchema();
  Dataset data(schema);
  ASSERT_TRUE(data.Append({{100, 3}, {0}}).ok());  // 0: T
  ASSERT_TRUE(data.Append({{200, 2}, {0}}).ok());  // 1: T, worse numerics
  ASSERT_TRUE(data.Append({{100, 3}, {1}}).ok());  // 2: H (unlisted)
  ASSERT_TRUE(data.Append({{100, 3}, {2}}).ok());  // 3: M (unlisted)
  ASSERT_TRUE(data.Append({{100, 3}, {0}}).ok());  // 4: tie-only vs 0
  ASSERT_TRUE(data.Append({{50, 1}, {0}}).ok());   // 5: mixed vs 0

  auto profile = PreferenceProfile::Parse(schema, {{"hotel_group", "T<*"}})
                     .ValueOrDie();
  CompiledProfile kernel(schema, profile);
  PackedBlock block;
  block.Pack(kernel, data, AllRows(data.num_rows()));
  auto cmp = [&](RowId p, RowId q) {
    return kernel.Compare(block.row(p), block.row(q));
  };

  EXPECT_EQ(cmp(0, 1), DomResult::kLeftDominates);
  EXPECT_EQ(cmp(1, 0), DomResult::kRightDominates);
  EXPECT_EQ(cmp(0, 4), DomResult::kEqual);  // tie in every dimension
  // T ≺ * beats unlisted H with equal numerics.
  EXPECT_EQ(cmp(0, 2), DomResult::kLeftDominates);
  // H vs M: distinct unlisted values — incomparable even with identical
  // numerics (the rank sentinel must not read as a tie).
  EXPECT_EQ(cmp(2, 3), DomResult::kIncomparable);
  EXPECT_EQ(cmp(3, 2), DomResult::kIncomparable);
  // Better price, worse class: numeric conflict.
  EXPECT_EQ(cmp(5, 0), DomResult::kIncomparable);
}

// Randomized sweep: the kernel must return the byte-identical DomResult to
// DominanceComparator for every pair, every profile order, and all four
// outcomes must actually occur across the sweep.
TEST(CompiledProfileTest, MatchesReferenceComparatorOnRandomData) {
  std::array<size_t, 4> outcome_counts{};
  for (uint64_t seed : {11u, 12u, 13u}) {
    gen::GenConfig config;
    config.num_rows = 160;
    config.num_numeric = 1 + seed % 3;
    config.num_nominal = 1 + seed % 3;
    config.cardinality = 6;
    config.seed = seed;
    Dataset data = gen::Generate(config);
    PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
    Rng rng(seed * 17);
    for (size_t order = 0; order <= 3; ++order) {
      PreferenceProfile query =
          order == 0 ? PreferenceProfile(data.schema())
                     : gen::RandomImplicitQuery(data, tmpl, order, &rng);
      DominanceComparator reference(data, query);
      CompiledProfile kernel(data.schema(), query);
      PackedBlock block;
      block.Pack(kernel, data, AllRows(data.num_rows()));
      for (RowId p = 0; p < data.num_rows(); ++p) {
        for (RowId q = 0; q < data.num_rows(); ++q) {
          DomResult expected = reference.Compare(p, q);
          DomResult got = kernel.Compare(block.row(p), block.row(q));
          ASSERT_EQ(got, expected) << "seed " << seed << " order " << order
                                   << " p=" << p << " q=" << q;
          ++outcome_counts[static_cast<size_t>(expected)];
        }
      }
    }
  }
  for (size_t i = 0; i < outcome_counts.size(); ++i) {
    EXPECT_GT(outcome_counts[i], 0u) << "outcome " << i << " never exercised";
  }
}

// Kernel SFS extraction must emit the identical row sequence (progressive
// order) and dominance-test count as the reference extraction.
TEST(KernelExtractionTest, SfsExtractIdenticalToReference) {
  gen::GenConfig config;
  config.num_rows = 400;
  config.seed = 31;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  Rng rng(32);
  for (size_t order : {0u, 2u, 4u}) {
    PreferenceProfile query =
        order == 0 ? PreferenceProfile(data.schema())
                   : gen::RandomImplicitQuery(data, tmpl, order, &rng);
    RankTable ranks(data.schema(), query);
    std::vector<ScoredRow> sorted =
        PresortByScore(data, ranks, AllRows(data.num_rows()));
    DominanceComparator cmp(data, query);
    SfsStats ref_stats, kern_stats;
    std::vector<RowId> reference = SfsExtract(cmp, sorted, &ref_stats);
    CompiledProfile kernel(data.schema(), query);
    std::vector<RowId> got = SfsExtract(kernel, data, sorted, &kern_stats);
    EXPECT_EQ(got, reference);
    EXPECT_EQ(kern_stats.dominance_tests, ref_stats.dominance_tests);
  }
}

// Kernel BNL must walk the identical window sequence as the reference BNL
// (same results in the same order, same stats, including MTF reorders).
TEST(KernelExtractionTest, BnlIdenticalToReference) {
  gen::GenConfig config;
  config.num_rows = 300;
  config.distribution = gen::Distribution::kAnticorrelated;
  config.seed = 41;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  Rng rng(42);
  PreferenceProfile query = gen::RandomImplicitQuery(data, tmpl, 2, &rng);
  DominanceComparator cmp(data, query);
  BnlStats ref_stats, kern_stats;
  std::vector<RowId> reference =
      BnlSkyline(cmp, AllRows(data.num_rows()), &ref_stats);
  CompiledProfile kernel(data.schema(), query);
  std::vector<RowId> got =
      BnlSkyline(kernel, data, AllRows(data.num_rows()), &kern_stats);
  EXPECT_EQ(got, reference);
  EXPECT_EQ(kern_stats.dominance_tests, ref_stats.dominance_tests);
  EXPECT_EQ(kern_stats.max_window, ref_stats.max_window);
  EXPECT_EQ(kern_stats.window_reorders, ref_stats.window_reorders);
}

// The move-to-front heuristic: a dominator sitting deep in the window gets
// promoted (and counted) the first time it kills a candidate.
TEST(KernelExtractionTest, BnlMoveToFrontPromotesAndCounts) {
  Schema s;
  ASSERT_TRUE(s.AddNumeric("x").ok());
  ASSERT_TRUE(s.AddNumeric("y").ok());
  Dataset data(s);
  ASSERT_TRUE(data.Append({{0.0, 10.0}, {}}).ok());  // 0: window front
  ASSERT_TRUE(data.Append({{5.0, 5.0}, {}}).ok());   // 1: the dominator
  ASSERT_TRUE(data.Append({{6.0, 6.0}, {}}).ok());   // 2: killed by 1
  ASSERT_TRUE(data.Append({{7.0, 7.0}, {}}).ok());   // 3: killed by 1
  PreferenceProfile empty(s);
  DominanceComparator cmp(data, empty);
  BnlStats stats;
  std::vector<RowId> sky = BnlSkyline(cmp, AllRows(4), &stats);
  // Rows 0 and 1 are incomparable; 2 and 3 are dominated by 1. The first
  // kill promotes row 1 past row 0, so the second kill costs one test.
  EXPECT_EQ(sky, (std::vector<RowId>{1, 0}));
  EXPECT_EQ(stats.window_reorders, 1u);

  CompiledProfile kernel(s, empty);
  BnlStats kern_stats;
  EXPECT_EQ(BnlSkyline(kernel, data, AllRows(4), &kern_stats), sky);
  EXPECT_EQ(kern_stats.window_reorders, 1u);
}

TEST(PackedBlockTest, RowIdsAndReuseAcrossProfiles) {
  gen::GenConfig config;
  config.num_rows = 50;
  config.seed = 51;
  Dataset data = gen::Generate(config);
  PreferenceProfile empty(data.schema());
  CompiledProfile kernel(data.schema(), empty);
  std::vector<RowId> ids = {7, 3, 11};
  PackedBlock block;
  block.Pack(kernel, data, ids);
  ASSERT_EQ(block.size(), 3u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(block.row_id(i), ids[i]);
    // Packed slots reproduce the reference comparison against itself.
    EXPECT_EQ(kernel.Compare(block.row(i), block.row(i)), DomResult::kEqual);
  }
  // Re-packing with a different row set reuses the buffer.
  block.Pack(kernel, data, AllRows(data.num_rows()));
  EXPECT_EQ(block.size(), data.num_rows());
  EXPECT_GT(block.MemoryUsage(), 0u);
}

// ---------------------------------------------------------------------------
// Forced-dispatch suite: every tier the host supports (scalar always, then
// avx2 where the CPU has it) must be byte-identical to the reference
// comparator and to the scalar window scans. The AVX2 tier is only
// exercised on hosts that have it — CI's scalar-forced leg plus the x86-64
// runners cover both paths between them.
// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, TiersEnumerateAndForce) {
  EXPECT_TRUE(KernelTierAvailable(KernelTier::kScalar));
  // Exactly {kScalar} or {kScalar, kAvx2}: no value between the two tiers
  // is ever listed.
  const std::vector<KernelTier> tiers = AvailableKernelTiers();
  const bool has_avx2 = DetectBestKernelTier() == KernelTier::kAvx2;
  const std::vector<KernelTier> expected =
      has_avx2 ? std::vector<KernelTier>{KernelTier::kScalar, KernelTier::kAvx2}
               : std::vector<KernelTier>{KernelTier::kScalar};
  EXPECT_EQ(tiers, expected);
  EXPECT_EQ(KernelTierAvailable(KernelTier::kAvx2), has_avx2);
  EXPECT_STREQ(KernelTierName(KernelTier::kScalar), "scalar");
  EXPECT_STREQ(KernelTierName(KernelTier::kAvx2), "avx2");

  ForceKernelTier(static_cast<int>(KernelTier::kScalar));
  EXPECT_EQ(ActiveKernelTier(), KernelTier::kScalar);
  // An unavailable forced tier clamps to the best the host has.
  ForceKernelTier(static_cast<int>(KernelTier::kAvx2));
  EXPECT_EQ(ActiveKernelTier(), DetectBestKernelTier());
  // Whatever integer is forced, dispatch lands on an available tier.
  for (int forced : {0, 1, 2, 3, 7, 255, 256, -2}) {
    ForceKernelTier(forced);
    const KernelTier active = ActiveKernelTier();
    EXPECT_NE(std::find(tiers.begin(), tiers.end(), active), tiers.end())
        << "forced " << forced << " -> tier "
        << static_cast<int>(active);
  }
  ForceKernelTier(kTierNoForce);
}

// The randomized reference sweep, replayed per dispatch tier: every pair,
// every profile order, all four outcomes occurring, on every tier.
TEST(SimdDispatchTest, EveryTierMatchesReferenceOnRandomData) {
  for (KernelTier tier : AvailableKernelTiers()) {
    std::array<size_t, 4> outcome_counts{};
    for (uint64_t seed : {11u, 12u, 13u}) {
      gen::GenConfig config;
      config.num_rows = 120;
      config.num_numeric = 1 + seed % 3;
      config.num_nominal = 1 + seed % 3;
      config.cardinality = 6;
      config.seed = seed;
      Dataset data = gen::Generate(config);
      PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
      Rng rng(seed * 17);
      for (size_t order = 0; order <= 3; ++order) {
        PreferenceProfile query =
            order == 0 ? PreferenceProfile(data.schema())
                       : gen::RandomImplicitQuery(data, tmpl, order, &rng);
        DominanceComparator reference(data, query);
        CompiledProfile kernel(data.schema(), query);
        PackedBlock block;
        block.Pack(kernel, data, AllRows(data.num_rows()));
        for (RowId p = 0; p < data.num_rows(); ++p) {
          for (RowId q = 0; q < data.num_rows(); ++q) {
            DomResult expected = reference.Compare(p, q);
            DomResult got =
                ComparePairTier(tier, kernel, block.row(p), block.row(q));
            ASSERT_EQ(got, expected)
                << KernelTierName(tier) << " seed " << seed << " order "
                << order << " p=" << p << " q=" << q;
            ++outcome_counts[static_cast<size_t>(expected)];
          }
        }
      }
    }
    for (size_t i = 0; i < outcome_counts.size(); ++i) {
      EXPECT_GT(outcome_counts[i], 0u)
          << KernelTierName(tier) << ": outcome " << i << " never exercised";
    }
  }
}

// The semantic corners that killed naive vectorizations: NaN numerics
// (IEEE `<` false both ways — reads as a tie on that dimension), -0.0 vs
// +0.0 after sign-folding (equal, not related), and kUnlistedRank
// sentinels (distinct unlisted values clash to INCOMPARABLE; the rank tie
// must not read as equality).
TEST(SimdDispatchTest, NanSignedZeroAndUnlistedRankEdgeCases) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema schema = PaperSchema();
  Dataset data(schema);
  ASSERT_TRUE(data.Append({{100, 3}, {0}}).ok());   // 0: T baseline
  ASSERT_TRUE(data.Append({{nan, 3}, {0}}).ok());   // 1: NaN price
  ASSERT_TRUE(data.Append({{nan, 3}, {0}}).ok());   // 2: NaN price again
  ASSERT_TRUE(data.Append({{-0.0, 3}, {0}}).ok());  // 3: negative zero
  ASSERT_TRUE(data.Append({{+0.0, 3}, {0}}).ok());  // 4: positive zero
  ASSERT_TRUE(data.Append({{100, 3}, {1}}).ok());   // 5: H (unlisted)
  ASSERT_TRUE(data.Append({{100, 3}, {2}}).ok());   // 6: M (unlisted)
  ASSERT_TRUE(data.Append({{50, 3}, {1}}).ok());    // 7: better price, H

  auto profile = PreferenceProfile::Parse(schema, {{"hotel_group", "T<*"}})
                     .ValueOrDie();
  CompiledProfile kernel(schema, profile);
  PackedBlock block;
  block.Pack(kernel, data, AllRows(data.num_rows()));

  for (KernelTier tier : AvailableKernelTiers()) {
    auto cmp = [&](RowId p, RowId q) {
      return ComparePairTier(tier, kernel, block.row(p), block.row(q));
    };
    // Every pair must agree with the scalar kernel byte for byte.
    for (RowId p = 0; p < data.num_rows(); ++p) {
      for (RowId q = 0; q < data.num_rows(); ++q) {
        ASSERT_EQ(cmp(p, q), kernel.Compare(block.row(p), block.row(q)))
            << KernelTierName(tier) << " p=" << p << " q=" << q;
      }
    }
    // And the corners must read as specified.
    EXPECT_EQ(cmp(1, 2), DomResult::kEqual) << KernelTierName(tier);
    EXPECT_EQ(cmp(0, 1), DomResult::kEqual) << KernelTierName(tier);
    EXPECT_EQ(cmp(3, 4), DomResult::kEqual) << KernelTierName(tier);
    EXPECT_EQ(cmp(5, 6), DomResult::kIncomparable) << KernelTierName(tier);
    EXPECT_EQ(cmp(6, 5), DomResult::kIncomparable) << KernelTierName(tier);
    EXPECT_EQ(cmp(0, 5), DomResult::kLeftDominates) << KernelTierName(tier);
    // Better price but clashing unlisted nominal: still incomparable.
    EXPECT_EQ(cmp(7, 6), DomResult::kIncomparable) << KernelTierName(tier);
  }
}

// One-vs-many scans: FindDominatorTier / FindRelatedTier must return the
// same first-hit index (and relation) as a scalar walk, from every start
// offset that a window compaction could produce.
TEST(SimdDispatchTest, BlockScansMatchScalarWalkEveryTier) {
  gen::GenConfig config;
  config.num_rows = 160;
  config.distribution = gen::Distribution::kAnticorrelated;
  config.seed = 61;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  Rng rng(62);
  PreferenceProfile query = gen::RandomImplicitQuery(data, tmpl, 2, &rng);
  CompiledProfile kernel(data.schema(), query);
  PackedBlock block;
  block.Pack(kernel, data, AllRows(data.num_rows()));
  const size_t n = block.size();
  const size_t stride = block.stride();

  for (KernelTier tier : AvailableKernelTiers()) {
    for (RowId p = 0; p < 48; ++p) {
      const uint64_t* probe = block.row(p);
      // Scalar expectations.
      size_t exp_dom = n, exp_rel = n;
      DomResult exp_rel_result = DomResult::kIncomparable;
      for (size_t i = 0; i < n; ++i) {
        const DomResult r = kernel.Compare(block.row(i), probe);
        if (exp_dom == n && r == DomResult::kLeftDominates) exp_dom = i;
        if (exp_rel == n && (r == DomResult::kLeftDominates ||
                             r == DomResult::kRightDominates)) {
          exp_rel = i;
          exp_rel_result = r;
        }
      }
      ASSERT_EQ(FindDominatorTier(tier, kernel, probe, block.row(0), n,
                                  stride),
                exp_dom)
          << KernelTierName(tier) << " p=" << p;
      DomResult rel_result = DomResult::kIncomparable;
      ASSERT_EQ(FindRelatedTier(tier, kernel, probe, block.row(0), n, stride,
                                &rel_result),
                exp_rel)
          << KernelTierName(tier) << " p=" << p;
      if (exp_rel < n) {
        ASSERT_EQ(rel_result, exp_rel_result)
            << KernelTierName(tier) << " p=" << p;
      }
    }
  }
}

// A wide schema (6 numeric + 5 nominal = 11 slots, 16-slot stride) drives
// the multi-group path, including the group that straddles the
// numeric/nominal boundary and the all-padding final group.
TEST(SimdDispatchTest, MultiGroupStrideMatchesReference) {
  gen::GenConfig config;
  config.num_rows = 90;
  config.num_numeric = 6;
  config.num_nominal = 5;
  config.cardinality = 4;
  config.seed = 71;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  Rng rng(72);
  PreferenceProfile query = gen::RandomImplicitQuery(data, tmpl, 3, &rng);
  DominanceComparator reference(data, query);
  CompiledProfile kernel(data.schema(), query);
  ASSERT_EQ(kernel.row_slots(), 16u);
  PackedBlock block;
  block.Pack(kernel, data, AllRows(data.num_rows()));
  for (KernelTier tier : AvailableKernelTiers()) {
    for (RowId p = 0; p < data.num_rows(); ++p) {
      for (RowId q = 0; q < data.num_rows(); ++q) {
        ASSERT_EQ(ComparePairTier(tier, kernel, block.row(p), block.row(q)),
                  reference.Compare(p, q))
            << KernelTierName(tier) << " p=" << p << " q=" << q;
      }
    }
  }
}

TEST(PackedWindowTest, AppendCompactPromote) {
  PackedWindow window(8);
  std::vector<uint64_t> row(8, 0);
  for (uint64_t v = 0; v < 4; ++v) {
    row[0] = v;
    window.Append(row.data(), static_cast<RowId>(v));
  }
  ASSERT_EQ(window.size(), 4u);
  window.PromoteToFront(2);
  EXPECT_EQ(window.id(0), 2u);
  EXPECT_EQ(window.row(0)[0], 2u);
  EXPECT_EQ(window.id(2), 0u);
  // Compact entry 3 down over entry 1 and truncate.
  window.CopyEntry(3, 1);
  window.Truncate(2);
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(window.id(1), 3u);
  EXPECT_EQ(window.row(1)[0], 3u);
}

}  // namespace
}  // namespace nomsky
