// Naive O(n^2) skyline: the executable definition.
//
// Checks every candidate against every other candidate. Used as the ground
// truth in tests and as the slowest baseline in the algorithm-comparison
// bench; never used by the engines.

#ifndef NOMSKY_SKYLINE_NAIVE_H_
#define NOMSKY_SKYLINE_NAIVE_H_

#include <vector>

#include "common/types.h"
#include "dominance/dominance.h"

namespace nomsky {

/// \brief Returns the rows of `candidates` not dominated by any other
/// candidate, in input order. With empty `candidates`, scans no rows;
/// pass AllRows() for the full dataset.
std::vector<RowId> NaiveSkyline(const DominanceComparator& cmp,
                                const std::vector<RowId>& candidates);

/// \brief Convenience: the identity row list [0, n).
std::vector<RowId> AllRows(size_t n);

}  // namespace nomsky

#endif  // NOMSKY_SKYLINE_NAIVE_H_
