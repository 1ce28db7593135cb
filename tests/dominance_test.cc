#include "dominance/dominance.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/generator.h"

namespace nomsky {
namespace {

// Table 1 of the paper: vacation packages (price, hotel-class, hotel-group).
Schema PaperSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNumeric("price").ok());
  EXPECT_TRUE(s.AddNumeric("hotel_class", SortDirection::kMaxBetter).ok());
  EXPECT_TRUE(s.AddNominal("hotel_group", {"T", "H", "M"}).ok());
  return s;
}

Dataset PaperData() {
  Dataset data(PaperSchema());
  // a..f from Table 1.
  EXPECT_TRUE(data.Append({{1600, 4}, {0}}).ok());  // a: T
  EXPECT_TRUE(data.Append({{2400, 1}, {0}}).ok());  // b: T
  EXPECT_TRUE(data.Append({{3000, 5}, {1}}).ok());  // c: H
  EXPECT_TRUE(data.Append({{3600, 4}, {1}}).ok());  // d: H
  EXPECT_TRUE(data.Append({{2400, 2}, {2}}).ok());  // e: M
  EXPECT_TRUE(data.Append({{3000, 3}, {2}}).ok());  // f: M
  return data;
}

constexpr RowId kA = 0, kB = 1, kD = 3, kE = 4, kF = 5;

TEST(DominanceTest, NumericOnlyDominance) {
  Dataset data = PaperData();
  PreferenceProfile empty(data.schema());
  DominanceComparator cmp(data, empty);
  // a dominates b: cheaper is equal? a price 1600 < 2400, class 4 > 1,
  // same group T.
  EXPECT_EQ(cmp.Compare(kA, kB), DomResult::kLeftDominates);
  EXPECT_EQ(cmp.Compare(kB, kA), DomResult::kRightDominates);
}

TEST(DominanceTest, DistinctNominalValuesBlockDominance) {
  Dataset data = PaperData();
  PreferenceProfile empty(data.schema());
  DominanceComparator cmp(data, empty);
  // a is numerically better than e, but T vs M are incomparable without a
  // preference.
  EXPECT_EQ(cmp.Compare(kA, kE), DomResult::kIncomparable);
}

TEST(DominanceTest, PreferenceCreatesDominance) {
  Dataset data = PaperData();
  auto pref = PreferenceProfile::Parse(data.schema(), {{"hotel_group", "T<M<*"}})
                  .ValueOrDie();
  DominanceComparator cmp(data, pref);
  // With T ≺ M, a now dominates e (1600<2400, 4>2, T≺M).
  EXPECT_EQ(cmp.Compare(kA, kE), DomResult::kLeftDominates);
  // And M ≺ H makes f dominate d (3000<3600, 3<4? no: class 3 < 4).
  EXPECT_EQ(cmp.Compare(kF, kD), DomResult::kIncomparable);
}

TEST(DominanceTest, EqualRows) {
  Dataset data(PaperSchema());
  ASSERT_TRUE(data.Append({{100, 3}, {0}}).ok());
  ASSERT_TRUE(data.Append({{100, 3}, {0}}).ok());
  PreferenceProfile empty(data.schema());
  DominanceComparator cmp(data, empty);
  EXPECT_EQ(cmp.Compare(0, 1), DomResult::kEqual);
  EXPECT_FALSE(cmp.Dominates(0, 1));
}

TEST(DominanceTest, MixedBetterWorseIsIncomparable) {
  Dataset data(PaperSchema());
  ASSERT_TRUE(data.Append({{100, 1}, {0}}).ok());
  ASSERT_TRUE(data.Append({{200, 5}, {0}}).ok());
  PreferenceProfile empty(data.schema());
  DominanceComparator cmp(data, empty);
  EXPECT_EQ(cmp.Compare(0, 1), DomResult::kIncomparable);
}

TEST(DominanceTest, AntisymmetryAndConsistency) {
  gen::GenConfig config;
  config.num_rows = 150;
  config.cardinality = 5;
  config.seed = 23;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  Rng rng(31);
  PreferenceProfile query = gen::RandomImplicitQuery(data, tmpl, 3, &rng);
  DominanceComparator cmp(data, query);
  for (RowId p = 0; p < data.num_rows(); p += 3) {
    for (RowId q = 0; q < data.num_rows(); q += 3) {
      DomResult pq = cmp.Compare(p, q);
      DomResult qp = cmp.Compare(q, p);
      switch (pq) {
        case DomResult::kLeftDominates:
          EXPECT_EQ(qp, DomResult::kRightDominates);
          break;
        case DomResult::kRightDominates:
          EXPECT_EQ(qp, DomResult::kLeftDominates);
          break;
        case DomResult::kEqual:
          EXPECT_EQ(qp, DomResult::kEqual);
          break;
        case DomResult::kIncomparable:
          EXPECT_EQ(qp, DomResult::kIncomparable);
          break;
      }
    }
  }
}

TEST(DominanceTest, TransitivityOnSamples) {
  gen::GenConfig config;
  config.num_rows = 60;
  config.cardinality = 4;
  config.seed = 7;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  Rng rng(41);
  PreferenceProfile query = gen::RandomImplicitQuery(data, tmpl, 2, &rng);
  DominanceComparator cmp(data, query);
  for (RowId a = 0; a < data.num_rows(); ++a) {
    for (RowId b = 0; b < data.num_rows(); ++b) {
      if (cmp.Compare(a, b) != DomResult::kLeftDominates) continue;
      for (RowId c = 0; c < data.num_rows(); ++c) {
        if (cmp.Compare(b, c) == DomResult::kLeftDominates) {
          EXPECT_EQ(cmp.Compare(a, c), DomResult::kLeftDominates)
              << a << " ≺ " << b << " ≺ " << c;
        }
      }
    }
  }
}

// Dominance straight from Section 2's definition under explicit
// per-dimension partial orders: p dominates q iff p ⪯ q on every dimension
// and p ≺ q on at least one. Distinct nominal values are ordered only when
// the (closed) order contains the pair; otherwise neither is ⪯ the other.
DomResult DefinitionalCompare(const Dataset& data,
                              const std::vector<PartialOrder>& orders,
                              RowId p, RowId q) {
  const std::vector<double> sign = NumericSigns(data.schema());
  bool p_le_q = true, q_le_p = true;  // ⪯ on every dimension seen so far
  for (size_t i = 0; i < sign.size(); ++i) {
    const double a = sign[i] * data.numeric_column(i)[p];
    const double b = sign[i] * data.numeric_column(i)[q];
    if (a < b) q_le_p = false;
    if (b < a) p_le_q = false;
  }
  for (size_t j = 0; j < orders.size(); ++j) {
    const ValueId a = data.nominal_column(j)[p];
    const ValueId b = data.nominal_column(j)[q];
    if (a == b) continue;
    if (!orders[j].Contains(a, b)) p_le_q = false;
    if (!orders[j].Contains(b, a)) q_le_p = false;
  }
  if (p_le_q && q_le_p) return DomResult::kEqual;
  if (p_le_q) return DomResult::kLeftDominates;
  if (q_le_p) return DomResult::kRightDominates;
  return DomResult::kIncomparable;
}

// The implicit-preference fast path must agree with dominance under the
// explicit P(R̃) expansion, evaluated pair by pair from the definition.
TEST(DominanceTest, FastPathAgreesWithGeneralComparator) {
  gen::GenConfig config;
  config.num_rows = 120;
  config.cardinality = 5;
  config.num_nominal = 2;
  config.seed = 59;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  Rng rng(61);
  for (int trial = 0; trial < 4; ++trial) {
    PreferenceProfile query =
        gen::RandomImplicitQuery(data, tmpl, 1 + trial, &rng);
    DominanceComparator fast(data, query);
    std::vector<PartialOrder> orders;
    for (size_t j = 0; j < query.num_nominal(); ++j) {
      orders.push_back(query.pref(j).ToPartialOrder());
    }
    for (RowId p = 0; p < data.num_rows(); p += 2) {
      for (RowId q = 0; q < data.num_rows(); q += 2) {
        EXPECT_EQ(fast.Compare(p, q), DefinitionalCompare(data, orders, p, q))
            << "p=" << p << " q=" << q;
      }
    }
  }
}

}  // namespace
}  // namespace nomsky
