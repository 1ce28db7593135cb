#include "exec/result_cache.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "core/query_history.h"
#include "dominance/subsumption.h"
#include "exec/shard_image.h"
#include "skyline/sfs.h"

namespace nomsky {

const char* CacheVerdictName(CacheVerdict verdict) {
  switch (verdict) {
    case CacheVerdict::kMiss: return "miss";
    case CacheVerdict::kHit: return "hit";
    case CacheVerdict::kSubsumed: return "subsumed";
  }
  return "unknown";
}

ResultCache::Entry::Entry(const Schema& schema, PreferenceProfile p,
                          uint64_t gen)
    : profile(std::move(p)),
      compiled(schema, profile),
      generation(gen),
      values(schema) {}

ResultCache::ResultCache(const Schema& schema, Options options)
    : schema_(schema), options_([&] {
        if (options.capacity == 0) options.capacity = 1;
        if (options.eviction_scan == 0) options.eviction_scan = 1;
        return options;
      }()) {}

void ResultCache::Invalidate() {
  std::lock_guard<std::mutex> lock(mutex_);
  // The generation is global, so a swap retires EVERY entry: bump first
  // (in-flight Inserts tagged with the old value die), then drop the map.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  index_.clear();
  lru_.clear();
}

std::optional<ResultCache::Answer> ResultCache::Lookup(
    const PreferenceProfile& effective) {
  const uint64_t gen = generation();
  const std::string key = effective.ToString(schema_);
  std::shared_ptr<const Entry> exact;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      exact = *it->second;
    }
  }
  if (exact != nullptr) {
    exact->hits.fetch_add(1, std::memory_order_relaxed);
    exact_hits_.fetch_add(1, std::memory_order_relaxed);
    return Answer{CacheVerdict::kHit, exact->rows, std::move(exact)};
  }
  if (!options_.allow_subsumption) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  // Subsumption scan, most recently used first: the incoming profile is
  // compiled once and tested as the STRONGER side against each entry.
  const CompiledProfile stronger(schema_, effective);
  std::shared_ptr<const Entry> base;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (Subsumes((*it)->compiled, stronger)) {
        lru_.splice(lru_.begin(), lru_, it);
        base = *it;
        break;
      }
    }
  }
  if (base == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  base->hits.fetch_add(1, std::memory_order_relaxed);
  subsumed_hits_.fetch_add(1, std::memory_order_relaxed);
  // Refilter outside the mutex: the entry's rows are one self-contained
  // shard span (its own columns, neutral slots and id map), so one full
  // RefilterSkyline pass emits exactly what a fresh scan would — same
  // (score, global id) candidate order, same winner set. The span is a
  // superset of the answer, not a skyline under `effective`, so the
  // cross-shard MergeShardSkylines does not apply.
  std::vector<RowId> rows = RefilterSkyline(
      effective, {&base->values, &base->packed, &base->locals, &base->rows});
  // Promote the refined answer to an exact entry. Its rows derive from
  // `base`, which was live at `gen` — if a swap raced the refilter, the
  // generation check in Insert drops the promotion.
  PackedBlock winners;
  Answer answer{CacheVerdict::kSubsumed, std::move(rows), std::move(base)};
  AnswerNeutralRows(answer, &winners);
  Insert(effective, gen, answer.rows, winners);
  return answer;
}

std::shared_ptr<ResultCache::Entry> ResultCache::MakeEntry(
    const PreferenceProfile& effective, uint64_t generation,
    const std::vector<RowId>& rows, const PackedBlock& neutral) const {
  NOMSKY_CHECK(neutral.size() == rows.size())
      << "result-cache insert: packed block does not match the row list";
  auto entry = std::make_shared<Entry>(schema_, effective, generation);
  entry->key = effective.ToString(schema_);
  entry->rows = rows;
  entry->locals.resize(rows.size());
  std::iota(entry->locals.begin(), entry->locals.end(), RowId{0});
  entry->packed.Reset(neutral.stride());
  for (size_t i = 0; i < rows.size(); ++i) {
    entry->packed.AppendRaw(neutral.row(i), rows[i]);
  }
  auto values = DatasetFromNeutralPacked(schema_, entry->packed,
                                         "result cache entry");
  if (!values.ok()) return nullptr;  // not a neutral pack; refuse to cache
  entry->values = std::move(values).ValueOrDie();
  return entry;
}

void ResultCache::Insert(const PreferenceProfile& effective,
                         uint64_t generation, const std::vector<RowId>& rows,
                         const PackedBlock& neutral) {
  if (generation != this->generation()) return;  // raced a swap; stale
  auto entry = MakeEntry(effective, generation, rows, neutral);
  if (entry == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  // Re-check under the same mutex Invalidate holds: after this point no
  // swap can retire the snapshot these rows came from without also
  // clearing the map we are inserting into.
  if (generation != generation_.load(std::memory_order_acquire)) return;
  auto it = index_.find(entry->key);
  if (it != index_.end()) {
    // Refresh rather than duplicate (a concurrent miss on the same
    // profile already published the identical answer).
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(entry);
  index_[entry->key] = lru_.begin();
  insertions_.fetch_add(1, std::memory_order_relaxed);
  while (lru_.size() > options_.capacity) EvictOneLocked();
}

double ResultCache::ScoreOf(const Entry& entry) const {
  double score =
      static_cast<double>(entry.hits.load(std::memory_order_relaxed));
  if (options_.history != nullptr) {
    for (size_t j = 0; j < entry.profile.num_nominal(); ++j) {
      for (ValueId v : entry.profile.pref(j).choices()) {
        score += static_cast<double>(options_.history->ValueCount(j, v));
      }
    }
  }
  return score;
}

void ResultCache::EvictOneLocked() {
  // Scan the LRU tail and evict the coldest of the window, so a history-
  // popular profile parked at the tail outlives one-off queries.
  auto victim = std::prev(lru_.end());
  double victim_score = ScoreOf(**victim);
  auto it = victim;
  for (size_t scanned = 1;
       scanned < options_.eviction_scan && it != lru_.begin(); ++scanned) {
    --it;
    const double score = ScoreOf(**it);
    if (score < victim_score) {
      victim = it;
      victim_score = score;
    }
  }
  index_.erase((*victim)->key);
  lru_.erase(victim);
  evictions_.fetch_add(1, std::memory_order_relaxed);
}

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  s.exact_hits = exact_hits_.load(std::memory_order_relaxed);
  s.subsumed_hits = subsumed_hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  return s;
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

void AnswerNeutralRows(const ResultCache::Answer& answer, PackedBlock* out) {
  const ResultCache::Entry& entry = *answer.entry;
  out->Reset(entry.packed.stride());
  if (answer.verdict == CacheVerdict::kHit) {
    for (size_t i = 0; i < entry.packed.size(); ++i) {
      out->AppendRaw(entry.packed.row(i), entry.packed.row_id(i));
    }
    return;
  }
  // Subsumption answers interleave differently than the superset entry
  // (emission order follows the REFINED profile's scores), so map each
  // winner back to its slot in the entry.
  std::unordered_map<RowId, size_t> where;
  where.reserve(entry.rows.size());
  for (size_t i = 0; i < entry.rows.size(); ++i) where[entry.rows[i]] = i;
  for (RowId global : answer.rows) {
    auto it = where.find(global);
    NOMSKY_CHECK(it != where.end())
        << "refiltered winner " << global << " is not in the cached superset";
    out->AppendRaw(entry.packed.row(it->second), global);
  }
}

}  // namespace nomsky
