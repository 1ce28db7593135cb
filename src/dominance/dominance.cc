#include "dominance/dominance.h"

namespace nomsky {

std::vector<double> NumericSigns(const Schema& schema) {
  std::vector<double> signs(schema.num_numeric());
  for (size_t i = 0; i < schema.num_numeric(); ++i) {
    signs[i] = schema.dim(schema.numeric_dims()[i]).direction() ==
                       SortDirection::kMinBetter
                   ? 1.0
                   : -1.0;
  }
  return signs;
}

DominanceComparator::DominanceComparator(const Dataset& data,
                                         const PreferenceProfile& profile)
    : data_(&data),
      profile_(&profile),
      numeric_sign_(NumericSigns(data.schema())) {
  NOMSKY_CHECK(profile.num_nominal() == data.schema().num_nominal())
      << "profile arity does not match schema";
}

DomResult DominanceComparator::Compare(RowId p, RowId q) const {
  bool left_better = false, right_better = false;
  const size_t num_numeric = numeric_sign_.size();
  for (size_t i = 0; i < num_numeric; ++i) {
    const auto& col = data_->numeric_column(i);
    double a = numeric_sign_[i] * col[p];
    double b = numeric_sign_[i] * col[q];
    if (a < b) {
      if (right_better) return DomResult::kIncomparable;
      left_better = true;
    } else if (b < a) {
      if (left_better) return DomResult::kIncomparable;
      right_better = true;
    }
  }
  const size_t num_nominal = profile_->num_nominal();
  for (size_t j = 0; j < num_nominal; ++j) {
    const auto& col = data_->nominal_column(j);
    ValueId a = col[p], b = col[q];
    if (a == b) continue;
    const ImplicitPreference& pref = profile_->pref(j);
    int cmp = pref.Compare(a, b);
    if (cmp == 0) return DomResult::kIncomparable;  // distinct unlisted values
    if (cmp < 0) {
      if (right_better) return DomResult::kIncomparable;
      left_better = true;
    } else {
      if (left_better) return DomResult::kIncomparable;
      right_better = true;
    }
  }
  if (left_better) return DomResult::kLeftDominates;
  if (right_better) return DomResult::kRightDominates;
  return DomResult::kEqual;
}

}  // namespace nomsky
