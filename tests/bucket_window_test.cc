// Property suite for NominalBucketWindow (dominance/bucket_window.h): on
// every probe its verdict must equal the flat WindowDominates scan over the
// same rows, and its test count must equal an independent oracle that
// walks the eligible rows in ascending key order, acceptance order within a
// key, up to the first dominator. Runs under every kernel tier the host
// has. Schemas cover 0-3 nominal dimensions plus two with un-keyed
// dimensions compared in the scan (the cardinality product exceeds the key
// cap, or one dimension has more values than a keyed one may),
// and 0-5 numeric dimensions (the AVX2 scan unrolls 3); data mixes
// listed, unlisted and equal rows, NaN and ±0.0; profiles range over
// orders 0 through the cardinality, and window sizes from 1 row to every
// row, so both bucket enumeration modes run. Every window runs under a row bound that keys it and, when it holds
// fewer than kMinKeyedRows rows, under its own size, which keys nothing.

#include "dominance/bucket_window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dominance/kernel.h"
#include "dominance/kernel_simd.h"
#include "skyline/naive.h"

namespace nomsky {
namespace {

struct Shape {
  const char* name;
  size_t num_numeric;
  std::vector<size_t> cards;
};

Schema MakeSchema(const Shape& shape) {
  Schema schema;
  for (size_t i = 0; i < shape.num_numeric; ++i) {
    EXPECT_TRUE(schema
                    .AddNumeric("n" + std::to_string(i),
                                i % 2 == 0 ? SortDirection::kMinBetter
                                           : SortDirection::kMaxBetter)
                    .ok());
  }
  for (size_t j = 0; j < shape.cards.size(); ++j) {
    std::vector<std::string> values;
    for (size_t v = 0; v < shape.cards[j]; ++v) {
      values.push_back("v" + std::to_string(v));
    }
    EXPECT_TRUE(schema.AddNominal("c" + std::to_string(j), values).ok());
  }
  return schema;
}

// Rows over a small numeric domain with NaN and both zeros, so ties, equal
// rows and the IEEE corners all occur; every fifth row repeats an earlier
// one exactly.
Dataset MakeData(const Schema& schema, const Shape& shape, size_t n,
                 Rng* rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double domain[] = {nan, -0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0};
  Dataset data(schema);
  std::vector<RowValues> rows;
  for (size_t r = 0; r < n; ++r) {
    if (r > 0 && r % 5 == 0) {
      const RowValues repeat = rows[rng->UniformInt(rows.size())];
      rows.push_back(repeat);
    } else {
      RowValues row;
      for (size_t i = 0; i < shape.num_numeric; ++i) {
        row.numeric.push_back(domain[rng->UniformInt(std::size(domain))]);
      }
      for (size_t c : shape.cards) {
        // Skewed towards low ids so some buckets fill up.
        const uint64_t v = rng->UniformInt(c);
        row.nominal.push_back(static_cast<ValueId>(
            rng->UniformInt(2) == 0 ? v : v % std::min<size_t>(c, 3)));
      }
      rows.push_back(std::move(row));
    }
    EXPECT_TRUE(data.Append(rows.back()).ok());
  }
  return data;
}

PreferenceProfile RandomProfile(const Schema& schema, const Shape& shape,
                                size_t order, Rng* rng) {
  PreferenceProfile profile(schema);
  for (size_t j = 0; j < shape.cards.size(); ++j) {
    std::vector<ValueId> values(shape.cards[j]);
    std::iota(values.begin(), values.end(), 0);
    rng->Shuffle(&values);
    values.resize(std::min(order, values.size()));
    EXPECT_TRUE(profile
                    .SetPref(j, ImplicitPreference::Make(shape.cards[j], values)
                                    .ValueOrDie())
                    .ok());
  }
  return profile;
}

// The leading nominal dimensions of at most kMaxKeyedCardinality values
// whose cardinality product stays within the cap; none under a row bound
// below kMinKeyedRows.
size_t ExpectedKeyedDims(const Shape& shape, size_t max_rows) {
  if (max_rows < NominalBucketWindow::kMinKeyedRows) return 0;
  size_t product = 1, keyed = 0;
  for (size_t c : shape.cards) {
    if (c > NominalBucketWindow::kMaxKeyedCardinality ||
        product * c > NominalBucketWindow::kMaxBuckets) {
      break;
    }
    product *= c;
    ++keyed;
  }
  return keyed;
}

// Oracle: rows of `window` (indices in acceptance order) that hold, on
// every keyed dimension, the probe's value or one ranked ahead of it,
// ordered by (mixed-radix key, acceptance index), scanned with the
// kernel's four-way Compare up to the first dominator.
std::pair<bool, size_t> OracleScan(const CompiledProfile& kernel,
                                   const Shape& shape, size_t keyed,
                                   const std::vector<const uint64_t*>& window,
                                   const uint64_t* probe) {
  const size_t nn = kernel.num_numeric();
  std::vector<std::pair<uint64_t, size_t>> order;
  for (size_t i = 0; i < window.size(); ++i) {
    uint64_t key = 0;
    bool eligible = true;
    for (size_t j = 0; j < keyed; ++j) {
      const ValueId v = static_cast<ValueId>(window[i][nn + j]);
      const ValueId vc = static_cast<ValueId>(probe[nn + j]);
      eligible =
          eligible && (v == vc || kernel.rank(j, v) < kernel.rank(j, vc));
      key = key * shape.cards[j] + v;
    }
    if (eligible) order.emplace_back(key, i);
  }
  std::sort(order.begin(), order.end());
  size_t tests = 0;
  for (const auto& [key, i] : order) {
    ++tests;
    if (kernel.Compare(window[i], probe) == DomResult::kLeftDominates) {
      return {true, tests};
    }
  }
  return {false, tests};
}

class BucketWindowTest : public ::testing::TestWithParam<KernelTier> {
 protected:
  void SetUp() override { ForceKernelTier(static_cast<int>(GetParam())); }
  void TearDown() override { ForceKernelTier(kTierNoForce); }
};

TEST_P(BucketWindowTest, MatchesFlatScanAndOracleCount) {
  const std::vector<Shape> shapes = {
      {"0nom", 3, {}},
      {"1nom", 2, {5}},
      {"2nom", 2, {4, 6}},
      {"3nom", 1, {3, 4, 5}},
      {"unkeyed_cap", 2, {64, 64, 3}},   // 64*64*3 > cap: dim 2 un-keyed
      {"unkeyed_card", 2, {5, 70, 3}},   // 70 values: dims 1 and 2 un-keyed
      {"nominal_only", 0, {3, 4}},
      {"3num", 3, {5, 6}},  // the AVX2 scan unrolls 3 numeric dimensions
      {"4num", 4, {5, 6}},
      {"5num", 5, {4}},
  };
  size_t probes = 0, dominated = 0;
  for (size_t si = 0; si < shapes.size(); ++si) {
    const Shape& shape = shapes[si];
    const Schema schema = MakeSchema(shape);
    const size_t max_card =
        shape.cards.empty()
            ? 0
            : *std::max_element(shape.cards.begin(), shape.cards.end());
    std::vector<size_t> orders;
    for (size_t o = 0; o <= max_card; ++o) {
      if (max_card <= 8 || o <= 4 || o % 17 == 0 || o + 1 >= max_card) {
        orders.push_back(o);
      }
    }
    Rng rng(1000 + si);
    const Dataset data = MakeData(schema, shape, 240, &rng);
    for (size_t order : orders) {
      const PreferenceProfile profile =
          RandomProfile(schema, shape, order, &rng);
      const CompiledProfile kernel(schema, profile);
      PackedBlock block;
      block.Pack(kernel, data, AllRows(data.num_rows()));
      for (size_t window_rows : {size_t{1}, size_t{5}, size_t{40},
                                 data.num_rows()}) {
        std::vector<size_t> picks(data.num_rows());
        std::iota(picks.begin(), picks.end(), 0);
        rng.Shuffle(&picks);
        picks.resize(window_rows);
        PackedWindow flat(kernel.row_slots());
        std::vector<const uint64_t*> rows;
        for (size_t p : picks) {
          flat.Append(block.row(p), block.row_id(p));
          rows.push_back(block.row(p));
        }
        std::vector<size_t> bounds = {NominalBucketWindow::kMinKeyedRows};
        if (window_rows < NominalBucketWindow::kMinKeyedRows) {
          bounds.push_back(window_rows);
        }
        for (size_t bound : bounds) {
          const size_t keyed = ExpectedKeyedDims(shape, bound);
          NominalBucketWindow bucketed(kernel, bound);
          ASSERT_EQ(bucketed.keyed_dims(), keyed) << shape.name;
          for (size_t p : picks) {
            bucketed.Append(block.row(p), block.row_id(p));
          }
          ASSERT_EQ(bucketed.ids(), flat.ids());
          for (size_t q = 0; q < block.size(); ++q) {
            const uint64_t* probe = block.row(q);
            size_t flat_tests = 0, tests = 0;
            const bool expected =
                WindowDominates(kernel, flat, probe, &flat_tests);
            const bool got = bucketed.Dominates(probe, &tests);
            const auto [oracle_hit, oracle_tests] =
                OracleScan(kernel, shape, keyed, rows, probe);
            const std::string where =
                std::string(shape.name) + " order " + std::to_string(order) +
                " window " + std::to_string(window_rows) + " bound " +
                std::to_string(bound) + " probe " + std::to_string(q);
            ASSERT_EQ(got, expected) << where;
            ASSERT_EQ(oracle_hit, expected) << where;
            ASSERT_EQ(tests, oracle_tests) << where;
            // Without a dominator both scan all they may visit; the
            // bucketed one visits a subset. (With one, visit order
            // differs: either may stop first.)
            if (!got) {
              ASSERT_LE(tests, flat_tests) << where;
            }
            ++probes;
            dominated += got ? 1 : 0;
          }
        }
      }
    }
  }
  // Both verdicts must actually occur across the sweep.
  EXPECT_GT(dominated, 0u);
  EXPECT_LT(dominated, probes);
}

// Equal rows never dominate; a row strictly better on one numeric slot of
// the probe's own bucket does; NaN ties both ways; -0.0 equals +0.0; a
// listed value beats an unlisted one with identical numerics, while two
// distinct unlisted values stay incomparable.
TEST_P(BucketWindowTest, SemanticCorners) {
  const Shape shape{"corners", 2, {3, 90, 60}};  // dims 1, 2 are un-keyed
  const Schema schema = MakeSchema(shape);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Dataset data(schema);
  // Column n1 is max-better; the kernel folds the sign.
  const std::vector<RowValues> rows = {
      {{1.0, 1.0}, {0, 0, 0}},   // 0
      {{1.0, 1.0}, {0, 0, 0}},   // 1: equal to 0
      {{0.5, 1.0}, {0, 0, 0}},   // 2: better than 0 on n0
      {{nan, 1.0}, {0, 0, 0}},   // 3: NaN on n0
      {{-0.0, 1.0}, {1, 0, 0}},  // 4
      {{0.0, 1.0}, {1, 0, 0}},   // 5: +0.0 vs 4's -0.0
      {{1.0, 1.0}, {2, 0, 0}},   // 6: value 2 on dim 0
      {{1.0, 1.0}, {0, 0, 1}},   // 7: differs from 0 on the un-keyed dim
      {{1.0, 1.0}, {0, 0, 2}},   // 8: another un-keyed value
      {{1.0, 1.0}, {1, 0, 0}},   // 9: like 0 but value 1 on dim 0
  };
  for (const RowValues& row : rows) ASSERT_TRUE(data.Append(row).ok());
  PreferenceProfile profile(schema);
  ASSERT_TRUE(
      profile.SetPref(0, ImplicitPreference::Make(3, {2}).ValueOrDie()).ok());
  ASSERT_TRUE(
      profile.SetPref(2, ImplicitPreference::Make(60, {1}).ValueOrDie()).ok());
  const CompiledProfile kernel(schema, profile);
  PackedBlock block;
  block.Pack(kernel, data, AllRows(data.num_rows()));
  // Keyed and unkeyed windows must agree on every corner.
  auto dominated_by = [&](std::vector<RowId> window_rows, RowId probe) {
    NominalBucketWindow keyed(kernel, NominalBucketWindow::kMinKeyedRows);
    NominalBucketWindow unkeyed(kernel, window_rows.size());
    EXPECT_EQ(keyed.keyed_dims(), 1u);
    EXPECT_EQ(unkeyed.keyed_dims(), 0u);
    for (RowId r : window_rows) {
      keyed.Append(block.row(r), r);
      unkeyed.Append(block.row(r), r);
    }
    const bool verdict = keyed.Dominates(block.row(probe));
    EXPECT_EQ(unkeyed.Dominates(block.row(probe)), verdict);
    return verdict;
  };
  EXPECT_FALSE(dominated_by({1}, 0));     // equal
  EXPECT_TRUE(dominated_by({2}, 0));      // strictly better numeric
  EXPECT_FALSE(dominated_by({0}, 2));
  EXPECT_FALSE(dominated_by({3}, 0));     // NaN ties
  EXPECT_FALSE(dominated_by({0}, 3));
  EXPECT_FALSE(dominated_by({4}, 5));     // -0.0 == +0.0
  EXPECT_FALSE(dominated_by({5}, 4));
  EXPECT_TRUE(dominated_by({6}, 0));      // listed 2 beats unlisted 0
  EXPECT_TRUE(dominated_by({6}, 9));      // ... and unlisted 1
  EXPECT_FALSE(dominated_by({0}, 6));
  EXPECT_FALSE(dominated_by({0}, 9));     // distinct unlisted: incomparable
  EXPECT_FALSE(dominated_by({9}, 0));
  EXPECT_TRUE(dominated_by({7}, 0));      // un-keyed listed 1 beats 0
  EXPECT_FALSE(dominated_by({8}, 0));     // un-keyed unlisted 2 vs 0
  EXPECT_FALSE(dominated_by({0, 1, 3, 4, 5, 8}, 0));
}

TEST_P(BucketWindowTest, EmptyWindowTestsNothing) {
  const Shape shape{"empty", 2, {4, 4}};
  const Schema schema = MakeSchema(shape);
  Rng rng(5);
  const Dataset data = MakeData(schema, shape, 10, &rng);
  const CompiledProfile kernel(schema, PreferenceProfile(schema));
  PackedBlock block;
  block.Pack(kernel, data, AllRows(data.num_rows()));
  for (size_t bound : {size_t{0}, NominalBucketWindow::kMinKeyedRows}) {
    NominalBucketWindow window(kernel, bound);
    size_t tests = 0;
    EXPECT_FALSE(window.Dominates(block.row(0), &tests));
    EXPECT_EQ(tests, 0u);
    EXPECT_EQ(window.size(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, BucketWindowTest,
                         ::testing::ValuesIn(AvailableKernelTiers()),
                         [](const ::testing::TestParamInfo<KernelTier>& info) {
                           return std::string(KernelTierName(info.param));
                         });

}  // namespace
}  // namespace nomsky
