// Profile subsumption: does one compiled profile's dominance relation
// contain another's?
//
// Property 1 of the paper says a refined preference only shrinks the
// skyline: if every pair ordered by profile A is ordered the same way by
// profile B (B *refines* A), then SKY(B) ⊆ SKY(A) over any candidate set.
// The result cache leans on this — a cached skyline for A is a superset of
// the answer for any B that refines A, so B can be answered by re-filtering
// A's cached rows through the kernel instead of rescanning the table.
//
// This predicate decides the containment directly on the compiled rank
// arrays, so the cache never re-parses profile
// text on the lookup path. `Subsumes(weaker, stronger)` is true iff for
// every nominal dimension and every value pair (u, v):
//
//     u ≺_weaker v  ⇒  u ≺_stronger v
//
// Numeric dimensions are schema-oriented and query-independent, so they
// never affect subsumption. The per-pair relation is rank order (listed
// choice position; unlisted = kUnlistedRank, i.e. every listed value beats
// every unlisted one and two distinct unlisted values are incomparable),
// which makes the containment checkable in O(cardinality) per dimension.
//
// tests/subsumption_test.cc pins Subsumes against
// PreferenceProfile::IsRefinementOf and against the refilter property
// (re-filtering the weaker profile's skyline under the stronger one is
// byte-identical to a fresh scan).

#ifndef NOMSKY_DOMINANCE_SUBSUMPTION_H_
#define NOMSKY_DOMINANCE_SUBSUMPTION_H_

#include "dominance/kernel.h"

namespace nomsky {

/// \brief True iff `stronger` refines `weaker`: every dominance pair
/// induced by `weaker` also holds under `stronger`, so any skyline cached
/// under `weaker` is a superset of the answer under `stronger`. Profiles
/// compiled against different shapes (dimension counts or cardinalities)
/// are never subsumed.
bool Subsumes(const CompiledProfile& weaker, const CompiledProfile& stronger);

}  // namespace nomsky

#endif  // NOMSKY_DOMINANCE_SUBSUMPTION_H_
