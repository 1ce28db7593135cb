// Auto query planner: routes each implicit-preference query to the engine
// the paper's cost model favors for it, instead of pinning the whole
// session to one strategy.
//
// The routing combines two signals:
//   * materialization coverage — if every choice the (template-combined)
//     query makes is materialized in the IPO tree's per-dimension value
//     lists, the tree answers in O(x^m') set operations, the cheapest path
//     by far. The lists come from QueryHistory (query-popular values,
//     Section 3.1) when a history is supplied, else the data-frequency
//     top-k.
//   * skyline cardinality — AnalyticIndependentEstimate (the paper's [4]
//     cost-estimation line) predicts |SKY(R̃')|. A small predicted skyline
//     means few affected points, where Adaptive SFS's O(l log n + min(c,l)n)
//     re-rank wins; a huge one means most points survive every comparison
//     window and the query is scan-bound, where the partitioned parallel
//     SFS-D baseline is the better fit.
//
// AutoEngine wraps the planner behind the SkylineEngine interface so "auto"
// is just another registry name. The per-query decisions stay observable:
// QueryExplained returns the routing verdict, and dispatch_counts()
// aggregates them for a stats line.
//
// The estimates above are priors, not measurements — a mispredicted
// cardinality or a cache-cold shard can make the "cheap" route the slow
// one. AutoEngine therefore times every answered query and feeds the
// result into a RouteLatencyTable (per-route EWMAs, split by whether the
// query was tree-covered); once each eligible route has a few samples,
// ChooseAdaptive routes by OBSERVED cost and the static cost model only
// breaks ties during warmup. PlanDecision::policy says which regime made
// the call ("estimate" / "warmup" / "measured"), so --explain shows the
// feedback loop working.

#ifndef NOMSKY_EXEC_PLANNER_H_
#define NOMSKY_EXEC_PLANNER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/hybrid.h"
#include "dominance/kernel_simd.h"
#include "exec/engine_registry.h"

namespace nomsky {

/// \brief One routing verdict: which registry engine, and why.
struct PlanDecision {
  std::string engine;  ///< registry name: "hybrid", "asfs", "sfsd" or
                       ///< "sharded"
  std::string reason;  ///< human-readable explanation (--explain output)
  /// Dominance kernel tier the routed engine's comparisons dispatch to
  /// ("scalar" / "avx2"); resolved when the decision is made.
  std::string kernel_tier = KernelTierName(ActiveKernelTier());
  /// Which regime produced the verdict: "estimate" (static cost model),
  /// "warmup" (adaptive routing still collecting per-route samples) or
  /// "measured" (lowest observed EWMA latency).
  std::string policy = "estimate";
  /// The latency table's context bit: were all refined choices
  /// materialized-popular (the hybrid tree's cheap case)?
  bool tree_covered = false;
};

/// \brief Measured per-route query latencies: one EWMA + sample count per
/// (context, route) cell, where the context is the planner's tree-covered
/// bit — covered and uncovered queries have wildly different costs on the
/// hybrid route, so they must not share an average. Lock-free (CAS on the
/// bit-cast EWMA), safe for concurrent Record/read from query threads.
class RouteLatencyTable {
 public:
  static constexpr size_t kNumRoutes = 4;  // hybrid, asfs, sfsd, sharded
  /// EWMA smoothing: next = prev + kAlpha * (sample - prev).
  static constexpr double kAlpha = 0.2;
  /// Samples every eligible (context, route) cell needs before the
  /// measured policy takes over from warmup round-robin.
  static constexpr uint64_t kWarmupSamples = 2;

  /// \brief Route index for a registry engine name, or -1 when the name is
  /// not a routable engine.
  static int RouteIndex(const std::string& engine);
  static const char* RouteName(size_t route);

  void Record(bool tree_covered, size_t route, double seconds);

  /// \brief Smoothed seconds for the cell; 0.0 before any sample.
  double MeanSeconds(bool tree_covered, size_t route) const;
  uint64_t Samples(bool tree_covered, size_t route) const;

 private:
  struct Cell {
    std::atomic<uint64_t> ewma_bits{0};  // bit-cast double; 0 = no sample
    std::atomic<uint64_t> samples{0};
  };
  Cell cells_[2][kNumRoutes];
};

/// \brief Stateless per-query router. Thread-safe: all state is fixed at
/// construction.
class QueryPlanner {
 public:
  struct Options {
    /// Values per dimension assumed materialized in the tree.
    size_t popular_topk = 10;
    /// Estimated |SKY(R̃')| / |D| above which the query counts as
    /// scan-bound and is routed to the parallel SFS-D baseline.
    double scan_bound_fraction = 0.25;
    /// When > 1 a sharded engine is available: scan-bound queries over at
    /// least `sharded_min_rows` rows route to it instead of "sfsd" (the
    /// per-shard engines answer in parallel and the merge touches only
    /// the per-shard skylines).
    size_t data_shards = 0;
    /// Rows below which the sharded route is never taken (fan-out + merge
    /// overhead dominates small data).
    size_t sharded_min_rows = kDefaultShardedMinRows;
    /// Observed workload; when it has recorded queries, its popular values
    /// replace the data-frequency top-k as the coverage lists.
    const QueryHistory* history = nullptr;
  };

  QueryPlanner(const Dataset& data, const PreferenceProfile& tmpl,
               Options options);

  /// \brief Routing verdict for one query (static cost model only).
  PlanDecision Choose(const PreferenceProfile& query) const;

  /// \brief Latency-fed verdict: while any eligible route's cell is short
  /// of RouteLatencyTable::kWarmupSamples the least-sampled route is
  /// chosen (ties prefer the static verdict), after that the lowest
  /// observed EWMA wins. Queries that conflict with the template fall back
  /// to Choose()'s error route.
  PlanDecision ChooseAdaptive(const PreferenceProfile& query,
                              const RouteLatencyTable& latencies) const;

  /// \brief Per-dimension value lists assumed materialized (sorted).
  const std::vector<std::vector<ValueId>>& popular_plan() const {
    return popular_plan_;
  }

 private:
  bool TreeCovered(const PreferenceProfile& effective) const;

  const Dataset* data_;
  const PreferenceProfile* template_;
  Options options_;
  std::vector<std::vector<ValueId>> popular_plan_;
};

/// \brief Planner-routed engine: builds one Hybrid (IPO-Tree-k with an
/// Adaptive SFS fallback — the ASFS instance inside doubles as the "asfs"
/// route) plus the parallel SFS-D baseline, and dispatches each query per
/// QueryPlanner::Choose. When EngineOptions::data_shards > 1 it also
/// builds the sharded fan-out/merge engine (sharded:sfsd) and scan-bound
/// queries over large data route there. Query is const-thread-safe like
/// every engine.
class AutoEngine : public SkylineEngine {
 public:
  AutoEngine(const Dataset& data, const PreferenceProfile& tmpl,
             const EngineOptions& options);

  const char* name() const override { return "Auto"; }

  Result<std::vector<RowId>> Query(
      const PreferenceProfile& query) const override;

  /// \brief Query plus the routing verdict that produced the answer.
  Result<std::vector<RowId>> QueryExplained(const PreferenceProfile& query,
                                            PlanDecision* decision) const;

  size_t MemoryUsage() const override {
    return hybrid_.MemoryUsage() +
           (sharded_ != nullptr ? sharded_->MemoryUsage() : 0);
  }
  double preprocessing_seconds() const override {
    return hybrid_.preprocessing_seconds();
  }

  const QueryPlanner& planner() const { return planner_; }

  /// \brief Measured per-route latencies feeding ChooseAdaptive.
  const RouteLatencyTable& route_latencies() const { return latencies_; }

  /// \brief Whether dispatch runs on measured latencies (EngineOptions::
  /// adaptive_routing) or pins the static cost model.
  bool adaptive_routing() const { return adaptive_; }

  /// \brief Queries dispatched to each route so far.
  struct DispatchCounts {
    size_t hybrid = 0;
    size_t asfs = 0;
    size_t sfsd = 0;
    size_t sharded = 0;
  };
  DispatchCounts dispatch_counts() const {
    return DispatchCounts{hybrid_hits_.load(std::memory_order_relaxed),
                          asfs_hits_.load(std::memory_order_relaxed),
                          sfsd_hits_.load(std::memory_order_relaxed),
                          sharded_hits_.load(std::memory_order_relaxed)};
  }

  /// \brief The sharded route's engine, or null when data_shards <= 1.
  const SkylineEngine* sharded_engine() const { return sharded_.get(); }

 private:
  static QueryPlanner::Options PlannerOptions(const EngineOptions& options);

  HybridEngine hybrid_;
  SfsDirectEngine sfsd_;
  std::unique_ptr<SkylineEngine> sharded_;  // built iff data_shards > 1
  QueryPlanner planner_;
  bool adaptive_;
  mutable RouteLatencyTable latencies_;
  mutable std::atomic<size_t> hybrid_hits_{0};
  mutable std::atomic<size_t> asfs_hits_{0};
  mutable std::atomic<size_t> sfsd_hits_{0};
  mutable std::atomic<size_t> sharded_hits_{0};
};

}  // namespace nomsky

#endif  // NOMSKY_EXEC_PLANNER_H_
