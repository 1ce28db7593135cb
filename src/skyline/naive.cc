#include "skyline/naive.h"

#include <numeric>

namespace nomsky {

std::vector<RowId> AllRows(size_t n) {
  std::vector<RowId> rows(n);
  std::iota(rows.begin(), rows.end(), RowId{0});
  return rows;
}

std::vector<RowId> NaiveSkyline(const DominanceComparator& cmp,
                                const std::vector<RowId>& candidates) {
  std::vector<RowId> skyline;
  for (RowId p : candidates) {
    bool dominated = false;
    for (RowId q : candidates) {
      if (q == p) continue;
      if (cmp.Compare(q, p) == DomResult::kLeftDominates) {
        dominated = true;
        break;
      }
    }
    if (!dominated) skyline.push_back(p);
  }
  return skyline;
}

}  // namespace nomsky
