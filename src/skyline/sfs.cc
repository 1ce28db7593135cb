#include "skyline/sfs.h"

#include <algorithm>
#include <atomic>
#include <span>

#include "exec/thread_pool.h"

namespace nomsky {

std::vector<ScoredRow> PresortByScore(const Dataset& data,
                                      const RankTable& ranks,
                                      const std::vector<RowId>& candidates) {
  std::vector<ScoredRow> scored;
  scored.reserve(candidates.size());
  for (RowId r : candidates) {
    scored.push_back(ScoredRow{ranks.Score(data, r), r});
  }
  std::sort(scored.begin(), scored.end());
  return scored;
}

std::vector<RowId> SfsExtract(const DominanceComparator& cmp,
                              const std::vector<ScoredRow>& sorted,
                              SfsStats* stats) {
  std::vector<RowId> skyline;
  SfsStats local;
  for (const ScoredRow& sr : sorted) {
    bool dominated = false;
    for (RowId s : skyline) {
      ++local.dominance_tests;
      if (cmp.Compare(s, sr.row) == DomResult::kLeftDominates) {
        dominated = true;
        break;
      }
    }
    if (!dominated) skyline.push_back(sr.row);
  }
  if (stats != nullptr) *stats = local;
  return skyline;
}

std::vector<RowId> SfsExtract(const CompiledProfile& kernel,
                              const Dataset& data,
                              const std::vector<ScoredRow>& sorted,
                              SfsStats* stats) {
  // Batch-pack every candidate in score order up front (one PackRow sweep
  // over contiguous destination lines); the accepted window is re-packed
  // densely in acceptance order so the inner scan streams contiguous cache
  // lines.
  std::vector<RowId> ids;
  ids.reserve(sorted.size());
  for (const ScoredRow& sr : sorted) ids.push_back(sr.row);
  PackedBlock block;
  block.Pack(kernel, data, ids);
  PackedWindow window(kernel.row_slots());
  SfsStats local;
  for (size_t i = 0; i < block.size(); ++i) {
    const uint64_t* cp = block.row(i);
    if (!WindowDominates(kernel, window, cp, &local.dominance_tests)) {
      window.Append(cp, block.row_id(i));
    }
  }
  if (stats != nullptr) *stats = local;
  return window.ids();
}

std::vector<RowId> SfsSkyline(const Dataset& data,
                              const PreferenceProfile& profile,
                              const std::vector<RowId>& candidates,
                              SfsStats* stats) {
  RankTable ranks(data.schema(), profile);
  std::vector<ScoredRow> sorted = PresortByScore(data, ranks, candidates);
  CompiledProfile kernel(data.schema(), profile);
  return SfsExtract(kernel, data, sorted, stats);
}

std::vector<RowId> MergeLocalSkylines(
    const Dataset& data, const PreferenceProfile& profile,
    const std::vector<std::vector<RowId>>& locals, SfsStats* stats) {
  std::vector<RowId> merged;
  size_t total = 0;
  for (const auto& local : locals) total += local.size();
  merged.reserve(total);
  for (const auto& local : locals) {
    merged.insert(merged.end(), local.begin(), local.end());
  }
  return SfsSkyline(data, profile, merged, stats);
}

namespace {

// One merge candidate. Sorting by (score, global id) reproduces exactly
// the order MergeLocalSkylines gets from ScoredRow over a shared source
// dataset.
struct SpanCandidate {
  double score;
  RowId global;
  uint32_t span;
  RowId local;

  bool operator<(const SpanCandidate& o) const {
    return score != o.score ? score < o.score : global < o.global;
  }
};

// The union of the spans' rows, each scored from its own shard and sorted:
// the candidate order shared by every merge and refilter.
std::vector<SpanCandidate> ScoreSpans(const RankTable& ranks,
                                      std::span<const ShardSpan> spans) {
  std::vector<SpanCandidate> merged;
  size_t total = 0;
  for (const ShardSpan& span : spans) total += span.local_skyline->size();
  merged.reserve(total);
  for (size_t s = 0; s < spans.size(); ++s) {
    const ShardSpan& span = spans[s];
    for (RowId local : *span.local_skyline) {
      const RowId global =
          span.to_global != nullptr ? (*span.to_global)[local] : local;
      merged.push_back(SpanCandidate{ranks.Score(*span.data, local), global,
                                     static_cast<uint32_t>(s), local});
    }
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

// Candidates pack from their own shard: via the neutral-packed bytes when
// the span carries them, else the columns.
void PackCandidate(const CompiledProfile& kernel, const ShardSpan& span,
                   RowId local, uint64_t* dest) {
  if (span.packed != nullptr) {
    kernel.RepackRow(span.packed->row(local), dest);
  } else {
    kernel.PackRow(*span.data, local, dest);
  }
}

void EmitWinner(const SpanCandidate& c, std::vector<RowId>* rows,
                std::vector<SpanRow>* sources) {
  rows->push_back(c.global);
  if (sources != nullptr) sources->push_back(SpanRow{c.span, c.local});
}

// The one merge loop of every partition-then-merge caller. windows[t]
// holds the rows every span but t has accepted, in acceptance order, so a
// candidate from span t is tested only against other spans' rows (see the
// precondition in sfs.h), in the order the full pass would meet them.
std::vector<RowId> CrossSpanExtract(const CompiledProfile& kernel,
                                    std::span<const ShardSpan> spans,
                                    const std::vector<SpanCandidate>& sorted,
                                    SfsStats* stats,
                                    std::vector<SpanRow>* sources) {
  const size_t n = spans.size();
  std::vector<RowId> rows;
  std::vector<uint64_t> cand(kernel.row_slots());
  uint64_t* const cp = cand.data();
  std::vector<PackedWindow> windows;
  windows.reserve(n);
  for (size_t t = 0; t < n; ++t) windows.emplace_back(kernel.row_slots());
  SfsStats local_stats;
  for (const SpanCandidate& c : sorted) {
    PackCandidate(kernel, spans[c.span], c.local, cp);
    if (WindowDominates(kernel, windows[c.span], cp,
                        &local_stats.dominance_tests)) {
      continue;
    }
    for (size_t t = 0; t < n; ++t) {
      if (t != c.span) windows[t].Append(cp, c.global);
    }
    EmitWinner(c, &rows, sources);
  }
  if (stats != nullptr) *stats = local_stats;
  return rows;
}

}  // namespace

std::vector<RowId> MergeShardSkylines(const PreferenceProfile& profile,
                                      const std::vector<ShardSpan>& spans,
                                      SfsStats* stats,
                                      std::vector<SpanRow>* sources) {
  if (stats != nullptr) *stats = SfsStats{};
  if (sources != nullptr) sources->clear();
  if (spans.empty()) return {};
  const Schema& schema = spans.front().data->schema();
  const std::vector<SpanCandidate> sorted =
      ScoreSpans(RankTable(schema, profile), spans);
  if (spans.size() == 1) {
    // A lone skyline has nothing to remove: the merge is the score sort.
    std::vector<RowId> rows;
    rows.reserve(sorted.size());
    for (const SpanCandidate& c : sorted) EmitWinner(c, &rows, sources);
    return rows;
  }
  return CrossSpanExtract(CompiledProfile(schema, profile), spans, sorted,
                          stats, sources);
}

std::vector<RowId> RefilterSkyline(const PreferenceProfile& profile,
                                   const ShardSpan& span, SfsStats* stats) {
  const Schema& schema = span.data->schema();
  const std::vector<SpanCandidate> sorted =
      ScoreSpans(RankTable(schema, profile), {&span, 1});
  // One window over the whole sequence: every candidate meets every row
  // accepted before it.
  const CompiledProfile kernel(schema, profile);
  std::vector<uint64_t> cand(kernel.row_slots());
  uint64_t* const cp = cand.data();
  PackedWindow window(kernel.row_slots());
  SfsStats local_stats;
  for (const SpanCandidate& c : sorted) {
    PackCandidate(kernel, span, c.local, cp);
    if (!WindowDominates(kernel, window, cp, &local_stats.dominance_tests)) {
      window.Append(cp, c.global);
    }
  }
  if (stats != nullptr) *stats = local_stats;
  return window.ids();
}

std::vector<RowId> ParallelSfsSkyline(const Dataset& data,
                                      const PreferenceProfile& profile,
                                      const std::vector<RowId>& candidates,
                                      ThreadPool* pool, size_t shards,
                                      SfsStats* stats) {
  if (shards <= 1 || candidates.size() < 2 * shards) {
    return SfsSkyline(data, profile, candidates, stats);
  }
  RankTable ranks(data.schema(), profile);
  // One compiled profile shared by every shard and the merge pass: the
  // compiled state is immutable after construction, so concurrent readers
  // are safe.
  CompiledProfile kernel(data.schema(), profile);

  // Local pass: each shard presorts its slice and extracts its skyline.
  std::vector<std::vector<RowId>> local(shards);
  std::atomic<size_t> shard_tests{0};
  const size_t per_shard = (candidates.size() + shards - 1) / shards;
  ParallelFor(pool, shards, [&](size_t s) {
    const size_t begin = s * per_shard;
    const size_t end = std::min(candidates.size(), begin + per_shard);
    std::vector<RowId> slice(candidates.begin() + begin,
                             candidates.begin() + end);
    std::vector<ScoredRow> sorted = PresortByScore(data, ranks, slice);
    SfsStats shard_stats;
    local[s] = SfsExtract(kernel, data, sorted, &shard_stats);
    shard_tests.fetch_add(shard_stats.dominance_tests,
                          std::memory_order_relaxed);
  });

  // Merge pass: every slice is a skyline over the shared source, so the
  // cross-span merge applies with global ids as local ids.
  std::vector<ShardSpan> spans(shards);
  for (size_t s = 0; s < shards; ++s) {
    spans[s] = ShardSpan{&data, nullptr, &local[s], nullptr};
  }
  SfsStats merge_stats;
  std::vector<RowId> skyline = CrossSpanExtract(
      kernel, spans, ScoreSpans(ranks, spans), &merge_stats, nullptr);
  if (stats != nullptr) {
    stats->dominance_tests =
        shard_tests.load(std::memory_order_relaxed) +
        merge_stats.dominance_tests;
  }
  return skyline;
}

}  // namespace nomsky
