// Dominance kernel: tuple-vs-tuple comparison under a preference profile.
//
// p dominates q iff p ⪯ q in every dimension and p ≺ q in at least one
// (Section 2). Numeric dimensions use the schema's fixed orientation;
// nominal dimensions use the query's implicit preferences, under which two
// distinct unlisted values are INCOMPARABLE (not equal!) — this is the key
// semantic difference from mapping values to ranks and comparing
// numerically.

#ifndef NOMSKY_DOMINANCE_DOMINANCE_H_
#define NOMSKY_DOMINANCE_DOMINANCE_H_

#include <vector>

#include "common/dataset.h"
#include "order/preference_profile.h"

namespace nomsky {

/// \brief Per-dimension comparison signs folding the schema's numeric
/// orientations: +1.0 for min-better, -1.0 for max-better. Shared by the
/// reference comparator and the compiled kernel so the sign semantics
/// cannot drift apart.
std::vector<double> NumericSigns(const Schema& schema);

/// \brief Outcome of comparing two tuples under a dominance relation.
enum class DomResult {
  kEqual,          ///< identical in every dimension
  kLeftDominates,  ///< left ≺ right
  kRightDominates, ///< right ≺ left
  kIncomparable,   ///< neither dominates
};

/// \brief Compares rows of one dataset under a fixed preference profile.
///
/// The comparator borrows the dataset and profile; both must outlive it.
class DominanceComparator {
 public:
  DominanceComparator(const Dataset& data, const PreferenceProfile& profile);

  /// \brief Full four-way comparison of rows p and q.
  DomResult Compare(RowId p, RowId q) const;

  /// \brief True iff row p dominates row q (strictly better overall).
  bool Dominates(RowId p, RowId q) const {
    return Compare(p, q) == DomResult::kLeftDominates;
  }

  const Dataset& data() const { return *data_; }
  const PreferenceProfile& profile() const { return *profile_; }

 private:
  const Dataset* data_;
  const PreferenceProfile* profile_;
  std::vector<double> numeric_sign_;
};

}  // namespace nomsky

#endif  // NOMSKY_DOMINANCE_DOMINANCE_H_
