// Sort-First Skyline (Chomicki, Godfrey, Gryz, Liang, ICDE 2003), adapted
// to implicit preferences via the rank-based score f of Section 4.2.
//
// Candidates are sorted by f; because p ≺ q implies f(p) < f(q), a point
// can only be dominated by points sorted strictly before it, so the window
// holds only confirmed skyline points and the algorithm is progressive:
// every accepted point is final the moment it is accepted.

#ifndef NOMSKY_SKYLINE_SFS_H_
#define NOMSKY_SKYLINE_SFS_H_

#include <vector>

#include "common/types.h"
#include "dominance/dominance.h"
#include "dominance/kernel.h"
#include "order/ranking.h"

namespace nomsky {

/// \brief One presorted candidate: score first so std::sort orders by f,
/// breaking ties by row id for determinism.
struct ScoredRow {
  double score;
  RowId row;

  auto operator<=>(const ScoredRow&) const = default;
};

/// \brief Statistics of one SFS run.
struct SfsStats {
  size_t dominance_tests = 0;
};

/// \brief Scores and sorts `candidates` by f under `ranks`.
std::vector<ScoredRow> PresortByScore(const Dataset& data,
                                      const RankTable& ranks,
                                      const std::vector<RowId>& candidates);

/// \brief Skyline extraction over an f-sorted sequence. `sorted` MUST be
/// ordered by a score function monotone under `cmp`'s dominance relation.
/// Returns rows in emission (score) order — the progressive order.
///
/// This is the REFERENCE extraction (one DominanceComparator::Compare per
/// window test); the engines run the compiled-kernel overload below, which
/// property tests pin against this one.
std::vector<RowId> SfsExtract(const DominanceComparator& cmp,
                              const std::vector<ScoredRow>& sorted,
                              SfsStats* stats = nullptr);

/// \brief Compiled-kernel extraction: candidates are packed row-major once
/// and the accepted window is kept as a dense cache-packed scratch, so each
/// window test touches one contiguous tuple per side. Emits the identical
/// row sequence (and dominance-test count) as the reference overload.
std::vector<RowId> SfsExtract(const CompiledProfile& kernel,
                              const Dataset& data,
                              const std::vector<ScoredRow>& sorted,
                              SfsStats* stats = nullptr);

/// \brief Convenience: presort + extract in one call.
std::vector<RowId> SfsSkyline(const Dataset& data,
                              const PreferenceProfile& profile,
                              const std::vector<RowId>& candidates,
                              SfsStats* stats = nullptr);

class ThreadPool;

/// \brief The merge step of the partition-then-merge proof, exposed for any
/// layer that computes per-partition skylines: given local skylines of
/// subsets that together cover the candidate rows, the union is re-sorted
/// by f and one extraction pass removes cross-partition dominated points.
/// Correct for ANY exact per-subset skylines regardless of which engine
/// produced them or their emission order (SFS score order, ASFS progressive
/// order, IPO-tree set order): a global skyline point is undominated
/// globally, hence undominated within its own subset, hence present in the
/// union — so the union is a lossless candidate set. This is the same
/// argument ParallelSfsSkyline makes for candidate slices; here it is
/// generalized to arbitrary partitions (the sharded dataset layer feeds it
/// per-shard engine results). `stats` records the merge pass only.
std::vector<RowId> MergeLocalSkylines(
    const Dataset& data, const PreferenceProfile& profile,
    const std::vector<std::vector<RowId>>& locals, SfsStats* stats = nullptr);

/// \brief One shard's contribution to a cross-shard merge: its private row
/// store, its local skyline (LOCAL row ids), the local→global id map, and
/// optionally the shard's neutral-packed block (rows packed under the empty
/// profile, identity ids). All pointers borrow; `packed` may be null, and a
/// null `to_global` means the span's local ids already are global ids.
struct ShardSpan {
  const Dataset* data = nullptr;
  const PackedBlock* packed = nullptr;
  const std::vector<RowId>* local_skyline = nullptr;
  const std::vector<RowId>* to_global = nullptr;
};

/// \brief Where a merge winner came from: the index of its span and its
/// LOCAL row id there (an index into that span's `data` / `packed`).
struct SpanRow {
  uint32_t span;
  RowId local;
};

/// \brief MergeLocalSkylines for shards that own PRIVATE datasets (each
/// span's skyline ids index its own Dataset, not a shared source). Same
/// partition-then-merge argument, but candidates are scored and packed from
/// each shard's own rows, so the merge needs no global row store at all —
/// this is what lets epoch snapshots drop the source dataset after
/// partitioning. Candidates sort by (score, global id), the exact order
/// MergeLocalSkylines derives from global ids over a shared source, so the
/// emitted sequence is byte-identical to it on equivalent inputs. When a
/// span carries a neutral-packed block, rows are re-ranked from the packed
/// bytes (CompiledProfile::RepackRow) without touching the Dataset columns.
/// Returns GLOBAL row ids in emission (score) order; when `sources` is
/// given it receives each winner's (span, local row), parallel to the
/// result.
///
/// PRECONDITION: every span's `local_skyline` is a skyline of its rows
/// under `profile` — no two rows of one span dominate each other. The merge
/// relies on it to test each candidate only against the rows the OTHER
/// spans have accepted so far (one NominalBucketWindow per span, holding
/// every other span's accepted rows): if some earlier
/// candidate dominates c, then an ACCEPTED one w does (the candidates
/// dominating c have an undominated member, which dominates c by
/// transitivity, sorts before c because p ≺ q implies f(p) < f(q), and was
/// accepted because nothing dominates it); w cannot share c's span, because
/// that span is a skyline; so c's window of the other spans' rows finds w.
/// The accepted set — and, since emission stays in (score, global id)
/// order, the emitted sequence — equals a full single-window pass over the
/// union, and each candidate runs at most as many dominance tests as it
/// would there: both windows are bucketed alike (same profile, same
/// candidate count, hence the same keyed dimensions) and visited in
/// ascending bucket key, acceptance order within a bucket, so the rows c
/// meets here are the full pass's rows minus its own span's, in the same
/// order. Those never dominate c, so both scans stop at the same first
/// dominator (or run out) and this one has examined a subsequence of the
/// other's rows. One span is therefore a pure score sort:
/// no packing, zero dominance tests. A span that is a SUPERSET of a skyline
/// (a cached answer re-filtered under a stronger profile) breaks the
/// precondition; use RefilterSkyline for it.
std::vector<RowId> MergeShardSkylines(const PreferenceProfile& profile,
                                      const std::vector<ShardSpan>& spans,
                                      SfsStats* stats = nullptr,
                                      std::vector<SpanRow>* sources = nullptr);

/// \brief The full single-window SFS pass over ONE span whose rows need not
/// be mutually non-dominating: every candidate, in (score, global id) order,
/// is tested against every row accepted before it. This is the result
/// cache's subsumption refilter — a cached skyline under a weaker profile is
/// a lossless superset of the skyline under a stronger one (Property 1),
/// but not a skyline under it — and the "fresh scan" oracle over a whole
/// table. Returns GLOBAL row ids in emission (score) order.
std::vector<RowId> RefilterSkyline(const PreferenceProfile& profile,
                                   const ShardSpan& span,
                                   SfsStats* stats = nullptr);

/// \brief Partition-then-merge SFS: candidates are split into `shards`
/// slices, each slice's local skyline is extracted independently (on the
/// pool when one is given), and the local skylines are merged by the same
/// cross-span pass as MergeShardSkylines, which tests each candidate only
/// against the other slices' accepted rows. Global skyline points survive
/// their own shard, so the union of local skylines is a lossless candidate
/// set and the result equals SfsSkyline on the same inputs, in the same
/// order (both paths break score ties by row id). `pool` may be null and
/// `shards` <= 1, which
/// degrade to the sequential path. `stats` sums the dominance tests of all
/// shards plus the merge pass.
std::vector<RowId> ParallelSfsSkyline(const Dataset& data,
                                      const PreferenceProfile& profile,
                                      const std::vector<RowId>& candidates,
                                      ThreadPool* pool, size_t shards,
                                      SfsStats* stats = nullptr);

}  // namespace nomsky

#endif  // NOMSKY_SKYLINE_SFS_H_
