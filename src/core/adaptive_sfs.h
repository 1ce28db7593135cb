// Adaptive SFS (paper Section 4): progressive implicit-preference querying
// without materialization.
//
// Preprocessing (Algorithm 3): compute S = SKY(R̃) under the template,
// rank values (r(v) = c_i by default, r(v_j) = j for template choices) and
// presort S by f(p) = Σ r(p.D_i). Build an inverted index value → S
// positions.
//
// Query (Algorithm 4): a refinement R̃' re-ranks only the values it lists
// beyond the template prefix, so only the l points of S carrying such
// values ("affected" points) change score. Those are located through the
// inverted index, re-scored, re-sorted among themselves (O(l log l)) and
// merged back against the untouched presorted remainder. Extraction then
// exploits that a refinement only ever ADDS dominance pairs whose better
// side is a newly listed value:
//   * an unaffected point never newly dominates anything, and
//   * two unaffected points stay mutually incomparable,
// so every candidate only needs to be checked against the affected points
// accepted so far. This yields the paper's O(l log n + min(c,l) · n) query
// bound and emits skyline points progressively in score order. The
// accepted affected points live in a NominalBucketWindow
// (dominance/bucket_window.h): a candidate is tested only against those
// holding, on every nominal dimension, its own value or a listed value
// ranked ahead of it — the only rows that can dominate it — so the
// accept/reject decisions, and the emission order, are those of the flat
// scan with fewer dominance tests. With fewer than
// NominalBucketWindow::kMinKeyedRows affected points the window keys
// nothing and is the flat scan.
//
// IncrementalAdaptiveSfs additionally owns its dataset and maintains
// S and the sorted list under tuple insertions and deletions (Section 4.3).

#ifndef NOMSKY_CORE_ADAPTIVE_SFS_H_
#define NOMSKY_CORE_ADAPTIVE_SFS_H_

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/dataset.h"
#include "common/result.h"
#include "core/engine.h"
#include "core/sorted_list.h"
#include "order/ranking.h"
#include "skyline/sfs.h"

namespace nomsky {

/// \brief The SFS-A engine of the paper.
///
/// Query, QueryProgressive, QueryTopK and CountAffected are const and safe
/// to call concurrently: the per-query visit-stamp scratch lives in
/// thread_local storage and the last-query statistics are published under a
/// mutex (last_query_stats() reports the most recently *finished* query).
class AdaptiveSfsEngine : public SkylineEngine {
 public:
  struct QueryStats {
    size_t affected = 0;         ///< l: re-ranked points
    size_t dominance_tests = 0;
    size_t skyline_size = 0;     ///< |SKY(R̃')|
  };

  /// Preprocesses (Algorithm 3). `data` and `tmpl` must outlive the engine.
  AdaptiveSfsEngine(const Dataset& data, const PreferenceProfile& tmpl);

  /// Constructs from an already-computed template skyline in presorted
  /// (ascending template-score) order; skips the skyline computation. Used
  /// by IncrementalAdaptiveSfs, whose maintained list is exactly this.
  AdaptiveSfsEngine(const Dataset& data, const PreferenceProfile& tmpl,
                    std::vector<ScoredRow> presorted_template_skyline);

  const char* name() const override { return "SFS-A"; }

  Result<std::vector<RowId>> Query(
      const PreferenceProfile& query) const override;

  /// \brief Progressive variant: emits each confirmed skyline point (with
  /// its query score) as soon as it is accepted; the consumer returns false
  /// to stop early. Returns the number of points emitted.
  Result<size_t> QueryProgressive(
      const PreferenceProfile& query,
      const std::function<bool(RowId, double)>& consume) const;

  /// \brief First k skyline points in ascending score order — the "show me
  /// a page of best results now" use the paper's progressiveness enables.
  /// Costs only the work needed to confirm k points.
  Result<std::vector<RowId>> QueryTopK(const PreferenceProfile& query,
                                       size_t k) const;

  /// \brief S = SKY(template) in presorted (score) order.
  const std::vector<ScoredRow>& sorted_skyline() const { return sorted_; }

  /// \brief |AFFECT(R)| under the paper's definition: points of S carrying
  /// ANY value listed in the (combined) query preference. Used for the
  /// panel-(d) metric; the engine itself re-ranks only the subset whose
  /// rank actually changes.
  Result<size_t> CountAffected(const PreferenceProfile& query) const;

  size_t MemoryUsage() const override;
  double preprocessing_seconds() const override { return preprocess_seconds_; }
  QueryStats last_query_stats() const {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return last_stats_;
  }

 private:
  friend class IncrementalAdaptiveSfs;

  /// Visit-stamp scratch: stamp[pos] == epoch marks positions touched by
  /// the running query. Instances are recycled through a thread_local
  /// freelist (the epoch bump invalidates stale stamps in O(1); a size
  /// change forces a full reset).
  struct VisitScratch {
    std::vector<uint32_t> stamp;
    uint32_t epoch = 0;
  };

  /// RAII lease of a scratch from the calling thread's freelist, sized for
  /// `size` slots with the epoch already advanced for a fresh query. Each
  /// in-flight query leases its own instance, so a QueryProgressive
  /// consumer that re-enters an engine on the same thread cannot clobber
  /// the outer query's stamps.
  class ScratchLease {
   public:
    explicit ScratchLease(size_t size);
    ~ScratchLease();
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;
    VisitScratch& get() const { return *scratch_; }

   private:
    static std::vector<std::unique_ptr<VisitScratch>>& Freelist();

    std::unique_ptr<VisitScratch> scratch_;
  };

  void BuildIndexes();

  Result<std::vector<size_t>> AffectedPositions(
      const PreferenceProfile& effective, VisitScratch* scratch) const;

  const Dataset* data_;
  const PreferenceProfile* template_;
  std::unique_ptr<RankTable> template_ranks_;
  std::vector<ScoredRow> sorted_;  // L(R̃): S presorted by template score
  // inverted_[j][v] = positions (into sorted_) of points with value v on
  // nominal dim j.
  std::vector<std::vector<std::vector<uint32_t>>> inverted_;
  double preprocess_seconds_ = 0.0;

  mutable std::mutex stats_mutex_;
  mutable QueryStats last_stats_;  // guarded by stats_mutex_
};

/// \brief Adaptive SFS with incremental maintenance: owns its data; tuples
/// can be inserted and deleted between queries without re-preprocessing.
class IncrementalAdaptiveSfs {
 public:
  /// Starts from `data` (copied in). The template is copied too.
  IncrementalAdaptiveSfs(Dataset data, PreferenceProfile tmpl);

  /// \brief Appends a tuple; maintains SKY(R̃) and the sorted list.
  /// Returns the new row id.
  Result<RowId> Insert(const RowValues& row);

  /// \brief Deletes a tuple. If it was a skyline point, non-skyline points
  /// it was shadowing are promoted.
  Status Delete(RowId row);

  /// \brief SKY(R̃') over the live tuples.
  Result<std::vector<RowId>> Query(const PreferenceProfile& query);

  /// \brief Number of live tuples.
  size_t num_live() const { return num_live_; }

  /// \brief Current SKY(template), unsorted.
  std::vector<RowId> TemplateSkyline() const;

  const Dataset& data() const { return data_; }

 private:
  void RebuildEngineIfDirty();

  Dataset data_;
  PreferenceProfile template_;
  RankTable ranks_;
  DominanceComparator cmp_;  // under the template
  SortedList list_;          // (template score, row) of skyline members
  std::vector<bool> alive_;
  std::vector<bool> in_skyline_;
  std::vector<double> score_;  // template score per row
  size_t num_live_ = 0;

  // Query path: a lazily rebuilt AdaptiveSfsEngine snapshot.
  bool dirty_ = true;
  std::unique_ptr<AdaptiveSfsEngine> engine_;
};

}  // namespace nomsky

#endif  // NOMSKY_CORE_ADAPTIVE_SFS_H_
