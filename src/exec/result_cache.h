// Profile-subsumption result cache — the paper's IPO-Tree-k idea ("answer
// popular preference paths from materialized results") generalized to a
// serving-tier cache over ARBITRARY profiles.
//
// Entries are keyed by the canonical text of the effective (template-
// combined) profile and store the winning rows three ways at once: the
// global row ids in emission order, the rows' neutral-packed slots (the
// same bytes shard images and the wire use), and the transposed column
// values (the exact inversion of the neutral pack). That redundancy is
// what makes every hit path allocation-light:
//
//  * exact hit — the incoming profile's canonical text matches an entry:
//    the cached ids/values are the answer, byte-for-byte.
//  * subsumption hit — the incoming profile REFINES a cached one
//    (Subsumes(cached, incoming), Property 1): the cached skyline is a
//    superset of the answer, so one full RefilterSkyline pass over the
//    entry's own rows re-filters it through the dominance kernel (the
//    cross-shard merge does not apply: the entry is not a skyline under
//    the incoming profile) —
//    orders of magnitude fewer rows than a table rescan, and the emitted
//    sequence is identical to a fresh scan (same (score, id) candidate
//    order, same winner set). The refined answer is promoted to its own
//    exact entry so repeats of the refined profile hit directly.
//
// Invalidation is generational: every epoch swap (RebuildShard, serving
// refresh) calls Invalidate(), which bumps the generation and drops all
// entries. Readers snapshot generation() BEFORE pinning data, and Insert
// drops any result tagged with a stale generation — so a slow query that
// raced a swap can never publish rows from the retired snapshot (the
// tsan-gated invalidation suite races exactly this).
//
// Eviction is LRU tempered by QueryHistory popularity: the scan window's
// lowest (direct hits + recorded popularity of the profile's choices)
// entry is evicted, so history-hot profiles survive cold bursts — the
// cache-shaped analogue of "materialize the popular paths only".

#ifndef NOMSKY_EXEC_RESULT_CACHE_H_
#define NOMSKY_EXEC_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/dataset.h"
#include "common/schema.h"
#include "dominance/kernel.h"
#include "order/preference_profile.h"

namespace nomsky {

class QueryHistory;

/// \brief How a cache consultation resolved. kMiss is also what callers
/// report when no cache is armed.
enum class CacheVerdict { kMiss, kHit, kSubsumed };

/// \brief "miss" / "hit" / "subsumed" — the --explain vocabulary.
const char* CacheVerdictName(CacheVerdict verdict);

/// \brief Subsumption-aware skyline result cache. Thread-safe; lookups,
/// inserts and invalidation may race freely.
class ResultCache {
 public:
  struct Options {
    /// Max entries; clamped to >= 1.
    size_t capacity = 64;
    /// When false, only exact canonical-text hits are served (the
    /// subsumption scan and refilter are skipped entirely).
    bool allow_subsumption = true;
    /// LRU tail entries examined per eviction; the popularity scoring
    /// picks the coldest of these.
    size_t eviction_scan = 8;
    /// Borrowed popularity source for eviction; may be null (pure LRU).
    const QueryHistory* history = nullptr;
  };

  struct Stats {
    uint64_t exact_hits = 0;
    uint64_t subsumed_hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
  };

  /// \brief One cached skyline. Immutable after insertion (hits is a
  /// counter, not state); handed out as shared_ptr<const> so a lookup can
  /// keep using an entry the cache has since evicted.
  struct Entry {
    Entry(const Schema& schema, PreferenceProfile p, uint64_t gen);

    PreferenceProfile profile;   // effective (template-combined)
    CompiledProfile compiled;    // the subsumption test's weaker side
    uint64_t generation;         // cache generation at insert
    std::string key;             // profile.ToString(schema)
    std::vector<RowId> rows;     // global ids, emission order
    std::vector<RowId> locals;   // 0..n-1, the refilter span's skyline
    PackedBlock packed;          // neutral pack of rows (ids == rows)
    Dataset values;              // transposed columns of the same rows
    mutable std::atomic<uint64_t> hits{0};
  };

  /// \brief A resolved lookup. `rows` is the answer; `entry` is the
  /// serving entry — for kHit its rows/values ARE the answer, for
  /// kSubsumed it is the weaker superset entry (map through `rows`).
  struct Answer {
    CacheVerdict verdict = CacheVerdict::kMiss;
    std::vector<RowId> rows;
    std::shared_ptr<const Entry> entry;
  };

  ResultCache(const Schema& schema, Options options);

  /// \brief Current invalidation generation. Callers MUST read this before
  /// pinning the data they compute from and pass it back to Insert.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// \brief Retires every entry (they were built on data that is being
  /// swapped out) and bumps the generation so in-flight results computed
  /// on the old data are dropped at Insert. Call BEFORE or AFTER the swap
  /// publish — the contract only needs "after the swap is visible, one
  /// Invalidate has run".
  void Invalidate();

  /// \brief Resolves `effective` (an already template-combined profile)
  /// against the cache. nullopt = miss. The subsumption refilter runs
  /// outside the cache mutex and promotes the refined answer to an exact
  /// entry for next time.
  std::optional<Answer> Lookup(const PreferenceProfile& effective);

  /// \brief Publishes a freshly computed skyline. `generation` must be the
  /// value read from generation() before the computation pinned its data;
  /// stale results are dropped silently. `neutral` holds the winning rows
  /// neutral-packed in the same order as `rows`.
  void Insert(const PreferenceProfile& effective, uint64_t generation,
              const std::vector<RowId>& rows, const PackedBlock& neutral);

  Stats stats() const;
  size_t size() const;
  size_t capacity() const { return options_.capacity; }
  const Schema& schema() const { return schema_; }

 private:
  std::shared_ptr<Entry> MakeEntry(const PreferenceProfile& effective,
                                   uint64_t generation,
                                   const std::vector<RowId>& rows,
                                   const PackedBlock& neutral) const;
  /// Eviction score (under mutex): direct hits + history popularity of the
  /// profile's choices. Lowest goes first.
  double ScoreOf(const Entry& entry) const;
  void EvictOneLocked();

  const Schema schema_;
  const Options options_;
  std::atomic<uint64_t> generation_{0};

  mutable std::mutex mutex_;
  std::list<std::shared_ptr<Entry>> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<std::shared_ptr<Entry>>::iterator>
      index_;

  mutable std::atomic<uint64_t> exact_hits_{0};
  mutable std::atomic<uint64_t> subsumed_hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> insertions_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> invalidations_{0};
};

/// \brief Copies an answer's winning rows into `out` as neutral-packed
/// slots (ids = global rows, answer order) — the block a serving layer
/// ships or re-transposes. For subsumption answers this maps each winner
/// back through the superset entry's id list.
void AnswerNeutralRows(const ResultCache::Answer& answer, PackedBlock* out);

}  // namespace nomsky

#endif  // NOMSKY_EXEC_RESULT_CACHE_H_
