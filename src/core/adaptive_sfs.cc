#include "core/adaptive_sfs.h"

#include <algorithm>
#include <limits>

#include "common/timer.h"
#include "dominance/bucket_window.h"
#include "dominance/kernel.h"
#include "skyline/naive.h"

namespace nomsky {

AdaptiveSfsEngine::AdaptiveSfsEngine(const Dataset& data,
                                     const PreferenceProfile& tmpl)
    : data_(&data), template_(&tmpl) {
  WallTimer timer;
  template_ranks_ = std::make_unique<RankTable>(data.schema(), tmpl);

  // Algorithm 3: compute SKY(R̃) and presort it by the template score.
  std::vector<ScoredRow> all =
      PresortByScore(data, *template_ranks_, AllRows(data.num_rows()));
  CompiledProfile kernel(data.schema(), tmpl);
  std::vector<RowId> skyline = SfsExtract(kernel, data, all);
  sorted_.reserve(skyline.size());
  for (RowId r : skyline) {
    sorted_.push_back(ScoredRow{template_ranks_->Score(data, r), r});
  }
  // SfsExtract emits in score order already; keep the invariant explicit.
  NOMSKY_DCHECK(std::is_sorted(sorted_.begin(), sorted_.end()));

  BuildIndexes();
  preprocess_seconds_ = timer.ElapsedSeconds();
}

AdaptiveSfsEngine::AdaptiveSfsEngine(
    const Dataset& data, const PreferenceProfile& tmpl,
    std::vector<ScoredRow> presorted_template_skyline)
    : data_(&data), template_(&tmpl) {
  WallTimer timer;
  template_ranks_ = std::make_unique<RankTable>(data.schema(), tmpl);
  sorted_ = std::move(presorted_template_skyline);
  NOMSKY_CHECK(std::is_sorted(sorted_.begin(), sorted_.end()))
      << "presorted skyline must be in ascending score order";
  BuildIndexes();
  preprocess_seconds_ = timer.ElapsedSeconds();
}

void AdaptiveSfsEngine::BuildIndexes() {
  // Inverted index: value -> positions within the sorted list.
  const Schema& schema = data_->schema();
  inverted_.resize(schema.num_nominal());
  for (size_t j = 0; j < schema.num_nominal(); ++j) {
    inverted_[j].resize(schema.dim(schema.nominal_dims()[j]).cardinality());
    const auto& col = data_->nominal_column(j);
    for (size_t pos = 0; pos < sorted_.size(); ++pos) {
      inverted_[j][col[sorted_[pos].row]].push_back(
          static_cast<uint32_t>(pos));
    }
  }
}

std::vector<std::unique_ptr<AdaptiveSfsEngine::VisitScratch>>&
AdaptiveSfsEngine::ScratchLease::Freelist() {
  thread_local std::vector<std::unique_ptr<VisitScratch>> freelist;
  return freelist;
}

AdaptiveSfsEngine::ScratchLease::ScratchLease(size_t size) {
  auto& freelist = Freelist();
  // Prefer a recycled scratch already sized for this engine, so a thread
  // alternating between engines keeps the O(1) epoch-bump amortization
  // instead of re-zeroing stamps on every lease.
  for (size_t i = freelist.size(); i-- > 0;) {
    if (freelist[i]->stamp.size() == size) {
      scratch_ = std::move(freelist[i]);
      freelist.erase(freelist.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  if (scratch_ == nullptr) scratch_ = std::make_unique<VisitScratch>();
  if (scratch_->stamp.size() != size ||
      scratch_->epoch == std::numeric_limits<uint32_t>::max()) {
    scratch_->stamp.assign(size, 0);
    scratch_->epoch = 0;
  }
  ++scratch_->epoch;
}

AdaptiveSfsEngine::ScratchLease::~ScratchLease() {
  auto& freelist = Freelist();
  // Bounded cache: in-flight leases are few (one per nesting level), so a
  // handful of parked scratches covers every realistic engine mix.
  if (freelist.size() < 8) freelist.push_back(std::move(scratch_));
}

Result<std::vector<size_t>> AdaptiveSfsEngine::AffectedPositions(
    const PreferenceProfile& effective, VisitScratch* scratch) const {
  // A point is re-ranked iff it carries a value whose rank changes, i.e. a
  // value the query lists beyond the template prefix of its dimension.
  std::vector<size_t> positions;
  for (size_t j = 0; j < effective.num_nominal(); ++j) {
    const ImplicitPreference& pref = effective.pref(j);
    for (size_t pos = 0; pos < pref.order(); ++pos) {
      ValueId v = pref.choices()[pos];
      uint32_t old_rank = template_ranks_->rank(j, v);
      uint32_t new_rank = static_cast<uint32_t>(pos + 1);
      if (old_rank == new_rank) continue;
      for (uint32_t list_pos : inverted_[j][v]) {
        if (scratch->stamp[list_pos] != scratch->epoch) {
          scratch->stamp[list_pos] = scratch->epoch;
          positions.push_back(list_pos);
        }
      }
    }
  }
  return positions;
}

Result<size_t> AdaptiveSfsEngine::QueryProgressive(
    const PreferenceProfile& query,
    const std::function<bool(RowId, double)>& consume) const {
  NOMSKY_ASSIGN_OR_RETURN(PreferenceProfile effective,
                          query.CombineWithTemplate(*template_));
  QueryStats stats;

  ScratchLease lease(sorted_.size());
  VisitScratch& scratch = lease.get();
  NOMSKY_ASSIGN_OR_RETURN(std::vector<size_t> affected,
                          AffectedPositions(effective, &scratch));
  stats.affected = affected.size();

  // Re-score the affected points under the refined ranking and re-sort them
  // among themselves (Algorithm 4 steps 1-4).
  RankTable new_ranks(data_->schema(), effective);
  std::vector<ScoredRow> resorted;
  resorted.reserve(affected.size());
  for (size_t pos : affected) {
    RowId r = sorted_[pos].row;
    resorted.push_back(ScoredRow{new_ranks.Score(*data_, r), r});
  }
  std::sort(resorted.begin(), resorted.end());

  // Merged progressive extraction. Unaffected points keep their template
  // scores and mutual incomparability; every candidate needs checking only
  // against already-accepted AFFECTED points (see header comment). The
  // accepted affected points live in a nominal-bucketed window, so each
  // candidate meets only the affected rows that can beat it on every
  // nominal dimension; candidates are packed lazily — only when the window
  // is non-empty — so queries with few affected points keep their
  // o(n)-comparison profile.
  CompiledProfile kernel(data_->schema(), effective);
  NominalBucketWindow accepted_affected(kernel, resorted.size());
  std::vector<uint64_t> cand_packed(kernel.row_slots());
  size_t emitted = 0;

  size_t iu = 0;  // cursor over sorted_ (skipping affected positions)
  size_t ia = 0;  // cursor over resorted
  const uint32_t cur_epoch = scratch.epoch;
  auto skip_affected = [&] {
    while (iu < sorted_.size() && scratch.stamp[iu] == cur_epoch) ++iu;
  };
  skip_affected();
  while (iu < sorted_.size() || ia < resorted.size()) {
    bool take_affected;
    if (iu >= sorted_.size()) {
      take_affected = true;
    } else if (ia >= resorted.size()) {
      take_affected = false;
    } else {
      take_affected = resorted[ia] < sorted_[iu];
    }
    ScoredRow candidate = take_affected ? resorted[ia] : sorted_[iu];
    bool dominated = false;
    bool packed = false;
    if (accepted_affected.size() > 0) {
      kernel.PackRow(*data_, candidate.row, cand_packed.data());
      packed = true;
      dominated = accepted_affected.Dominates(cand_packed.data(),
                                             &stats.dominance_tests);
    }
    if (!dominated) {
      ++emitted;
      if (take_affected) {
        if (!packed) {
          kernel.PackRow(*data_, candidate.row, cand_packed.data());
        }
        accepted_affected.Append(cand_packed.data(), candidate.row);
      }
      if (!consume(candidate.row, candidate.score)) break;
    }
    if (take_affected) {
      ++ia;
    } else {
      ++iu;
      skip_affected();
    }
  }
  stats.skyline_size = emitted;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    last_stats_ = stats;
  }
  return emitted;
}

Result<std::vector<RowId>> AdaptiveSfsEngine::Query(
    const PreferenceProfile& query) const {
  std::vector<RowId> out;
  Result<size_t> n = QueryProgressive(query, [&](RowId r, double) {
    out.push_back(r);
    return true;
  });
  if (!n.ok()) return n.status();
  NOMSKY_DCHECK(*n == out.size());
  return out;
}

Result<std::vector<RowId>> AdaptiveSfsEngine::QueryTopK(
    const PreferenceProfile& query, size_t k) const {
  std::vector<RowId> out;
  out.reserve(k);
  Result<size_t> n = QueryProgressive(query, [&](RowId r, double) {
    out.push_back(r);
    return out.size() < k;
  });
  if (!n.ok()) return n.status();
  return out;
}

Result<size_t> AdaptiveSfsEngine::CountAffected(
    const PreferenceProfile& query) const {
  NOMSKY_ASSIGN_OR_RETURN(PreferenceProfile effective,
                          query.CombineWithTemplate(*template_));
  // Paper definition: points of SKY(R̃) carrying ANY value listed in R̃'.
  ScratchLease lease(sorted_.size());
  VisitScratch& scratch = lease.get();
  size_t count = 0;
  for (size_t j = 0; j < effective.num_nominal(); ++j) {
    for (ValueId v : effective.pref(j).choices()) {
      for (uint32_t pos : inverted_[j][v]) {
        if (scratch.stamp[pos] != scratch.epoch) {
          scratch.stamp[pos] = scratch.epoch;
          ++count;
        }
      }
    }
  }
  return count;
}

size_t AdaptiveSfsEngine::MemoryUsage() const {
  // sorted_ plus the inverted index: the outer per-dimension / per-value
  // vector-of-vectors scaffolding is counted too, not just the leaf lists —
  // at high cardinality the scaffolding dominates the leaves.
  size_t bytes = sorted_.capacity() * sizeof(ScoredRow);
  bytes += inverted_.capacity() * sizeof(inverted_[0]);
  for (const auto& per_dim : inverted_) {
    bytes += per_dim.capacity() * sizeof(std::vector<uint32_t>);
    for (const auto& list : per_dim) bytes += list.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// IncrementalAdaptiveSfs
// ---------------------------------------------------------------------------

IncrementalAdaptiveSfs::IncrementalAdaptiveSfs(Dataset data,
                                               PreferenceProfile tmpl)
    : data_(std::move(data)),
      template_(std::move(tmpl)),
      ranks_(data_.schema(), template_),
      cmp_(data_, template_) {
  size_t n = data_.num_rows();
  alive_.assign(n, true);
  in_skyline_.assign(n, false);
  score_.resize(n);
  for (RowId r = 0; r < n; ++r) score_[r] = ranks_.Score(data_, r);
  num_live_ = n;
  for (RowId r : SfsSkyline(data_, template_, AllRows(n))) {
    in_skyline_[r] = true;
    list_.Insert(ScoreKey{score_[r], r});
  }
}

Result<RowId> IncrementalAdaptiveSfs::Insert(const RowValues& row) {
  NOMSKY_RETURN_NOT_OK(data_.Append(row));
  RowId r = static_cast<RowId>(data_.num_rows() - 1);
  alive_.push_back(true);
  in_skyline_.push_back(false);
  score_.push_back(ranks_.Score(data_, r));
  ++num_live_;
  dirty_ = true;

  // Compare against the current skyline: a single pass finds whether the
  // new tuple is dominated and which members it demotes.
  bool dominated = false;
  std::vector<RowId> demoted;
  list_.ForEach([&](const ScoreKey& k) {
    if (dominated) return;
    DomResult res = cmp_.Compare(k.row, r);
    if (res == DomResult::kLeftDominates) {
      dominated = true;  // cannot demote anyone if dominated (transitivity)
    } else if (res == DomResult::kRightDominates) {
      demoted.push_back(k.row);
    }
  });
  if (!dominated) {
    for (RowId d : demoted) {
      in_skyline_[d] = false;
      list_.Erase(ScoreKey{score_[d], d});
    }
    in_skyline_[r] = true;
    list_.Insert(ScoreKey{score_[r], r});
  }
  return r;
}

Status IncrementalAdaptiveSfs::Delete(RowId row) {
  if (row >= data_.num_rows() || !alive_[row]) {
    return Status::NotFound("row ", row, " is not live");
  }
  alive_[row] = false;
  --num_live_;
  dirty_ = true;
  if (!in_skyline_[row]) return Status::OK();

  in_skyline_[row] = false;
  list_.Erase(ScoreKey{score_[row], row});

  // Promote shadow tuples the deleted point was the last dominator of:
  // those not dominated by any remaining skyline member, thinned to the
  // skyline among themselves.
  std::vector<RowId> candidates;
  for (RowId s = 0; s < data_.num_rows(); ++s) {
    if (!alive_[s] || in_skyline_[s]) continue;
    bool dominated = false;
    list_.ForEach([&](const ScoreKey& k) {
      if (!dominated && cmp_.Compare(k.row, s) == DomResult::kLeftDominates) {
        dominated = true;
      }
    });
    if (!dominated) candidates.push_back(s);
  }
  for (RowId p : NaiveSkyline(cmp_, candidates)) {
    in_skyline_[p] = true;
    list_.Insert(ScoreKey{score_[p], p});
  }
  return Status::OK();
}

void IncrementalAdaptiveSfs::RebuildEngineIfDirty() {
  if (!dirty_ && engine_ != nullptr) return;
  // The maintained list IS the presorted live template skyline, so the
  // snapshot engine never sees tombstoned rows.
  std::vector<ScoredRow> presorted;
  presorted.reserve(list_.size());
  list_.ForEach(
      [&](const ScoreKey& k) { presorted.push_back(ScoredRow{k.score, k.row}); });
  engine_ = std::make_unique<AdaptiveSfsEngine>(data_, template_,
                                                std::move(presorted));
  dirty_ = false;
}

Result<std::vector<RowId>> IncrementalAdaptiveSfs::Query(
    const PreferenceProfile& query) {
  RebuildEngineIfDirty();
  return engine_->Query(query);
}

std::vector<RowId> IncrementalAdaptiveSfs::TemplateSkyline() const {
  std::vector<RowId> out;
  out.reserve(list_.size());
  list_.ForEach([&](const ScoreKey& k) { out.push_back(k.row); });
  return out;
}

}  // namespace nomsky
