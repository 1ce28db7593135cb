#include "dominance/subsumption.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace nomsky {

bool Subsumes(const CompiledProfile& weaker, const CompiledProfile& stronger) {
  if (weaker.num_numeric() != stronger.num_numeric() ||
      weaker.num_nominal() != stronger.num_nominal()) {
    return false;
  }
  std::vector<ValueId> by_rank;
  for (size_t j = 0; j < weaker.num_nominal(); ++j) {
    const size_t c = weaker.cardinality(j);
    if (stronger.cardinality(j) != c) return false;
    // The weaker order on dimension j is exactly rank order over its listed
    // values, with every listed value above every unlisted one and unlisted
    // values mutually incomparable. Listed ranks are the 0-based choice
    // positions — distinct and contiguous — so bucketing recovers the choice
    // list without sorting.
    size_t listed = 0;
    for (ValueId v = 0; v < c; ++v) {
      if (weaker.rank(j, v) != CompiledProfile::kUnlistedRank) ++listed;
    }
    if (listed == 0) continue;  // no pairs ordered by the weaker profile
    by_rank.assign(listed, 0);
    for (ValueId v = 0; v < c; ++v) {
      const uint32_t r = weaker.rank(j, v);
      if (r != CompiledProfile::kUnlistedRank) by_rank[r] = v;
    }
    // Containment needs rank_s(u) < rank_s(v) for every weaker-ordered pair
    // u ≺_w v. Strict < is transitive, so checking consecutive choices
    // covers every listed pair...
    uint32_t prev = stronger.rank(j, by_rank[0]);
    for (size_t i = 1; i < listed; ++i) {
      const uint32_t cur = stronger.rank(j, by_rank[i]);
      if (!(prev < cur)) return false;
      prev = cur;
    }
    // ...and "last listed choice beats the best unlisted value" covers the
    // listed-vs-unlisted pairs (every earlier choice ranks strictly lower
    // than the last by the chain above). Note prev may be kUnlistedRank —
    // a weaker choice the stronger profile dropped can never stay above
    // values the stronger profile also leaves unlisted.
    if (listed < c) {
      uint32_t min_unlisted = std::numeric_limits<uint32_t>::max();
      for (ValueId v = 0; v < c; ++v) {
        if (weaker.rank(j, v) == CompiledProfile::kUnlistedRank) {
          min_unlisted = std::min(min_unlisted, stronger.rank(j, v));
        }
      }
      if (!(prev < min_unlisted)) return false;
    }
  }
  return true;
}

}  // namespace nomsky
