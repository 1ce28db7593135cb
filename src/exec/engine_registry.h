// EngineRegistry: the single place skyline engines are enumerated and
// constructed by name. Replaces hand-rolled if/else engine selection (the
// CLI, benches and tests all build engines through it), so adding an engine
// means one Register call — every name-based surface picks it up, including
// the cross-engine equivalence tests.
//
// The global registry is pre-populated with the built-in engines:
//   sfsd    SFS-D re-sort baseline (parallel partition-merge capable)
//   asfs    Adaptive SFS (Section 4)
//   ipo     IPO-Tree semi-materialization (Section 3)
//   hybrid  IPO-Tree-k + Adaptive SFS fallback (Section 5.3)
//   auto    per-query planner routing among the above (exec/planner.h)
//   sharded per-shard engines + skyline merge (exec/sharded_engine.h)
//
// Sharded engines compose by name: "sharded:<inner>" partitions the
// dataset into EngineOptions::data_shards shards and builds one <inner>
// engine per shard ("sharded" alone defaults the inner engine to sfsd).
// The composition is resolved by Create, so it works with any registered
// inner engine without a combinatorial registry.

#ifndef NOMSKY_EXEC_ENGINE_REGISTRY_H_
#define NOMSKY_EXEC_ENGINE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "core/ipo_tree.h"
#include "core/query_history.h"
#include "exec/sharded_dataset.h"

namespace nomsky {

class ThreadPool;

/// \brief Default row threshold for the auto planner's sharded route —
/// ONE constant shared by EngineOptions and QueryPlanner::Options so the
/// two surfaces cannot silently diverge.
inline constexpr size_t kDefaultShardedMinRows = 50'000;

/// \brief Construction knobs shared by every engine factory. Factories use
/// the fields that apply to them and ignore the rest.
struct EngineOptions {
  /// Values materialized per nominal dimension (hybrid / IPO-Tree-k).
  size_t topk = 10;
  /// Worker threads for IPO-tree construction (0 = hardware concurrency).
  size_t build_threads = 1;
  /// Partition-merge shards for SFS-D queries (1 = sequential).
  size_t query_shards = 1;
  /// Dataset shards for the sharded:<inner> path (0 = the ShardedDataset
  /// default). Also arms AutoEngine's sharded route when > 1.
  size_t data_shards = 0;
  /// Row-placement policy of the sharded path.
  ShardPolicy shard_policy = ShardPolicy::kHash;
  /// When non-empty, the sharded path loads this shard image
  /// (exec/shard_image.h) instead of partitioning + packing the dataset;
  /// the image must match the dataset's schema and row count. Ignored by
  /// non-sharded engines.
  std::string shard_image_path;
  /// Rows below which AutoEngine never routes to the sharded path even
  /// when data_shards > 1 (fan-out + merge overhead dominates small data).
  size_t sharded_min_rows = kDefaultShardedMinRows;
  /// Pool for parallel query paths; shared, never owned. May be null.
  ThreadPool* pool = nullptr;
  /// Observed workload, if any: "auto" plans with it and hybrid/ipo
  /// materialize its popular values instead of the data-frequency top-k.
  const QueryHistory* history = nullptr;
  /// Profile-subsumption result-cache entries on the sharded engine's
  /// serving path (exec/result_cache.h); 0 disables the cache. Ignored by
  /// engines without a serving tier.
  size_t result_cache_capacity = 0;
  /// AutoEngine dispatch: route by measured per-route EWMA latencies
  /// (with a warmup seeded by the static cost model) rather than by the
  /// static estimates alone. OFF by default: feedback routing makes the
  /// route — and therefore the answer's emission ORDER — depend on what
  /// ran before, so concurrent batches are no longer byte-reproducible;
  /// surfaces that want the loop (the CLI, bench_result_cache) arm it
  /// explicitly.
  bool adaptive_routing = false;
  /// Arms history-driven IPO-Tree-k re-materialization on the sharded
  /// path (exec/materialization_controller.h): when > 0 and a `history`
  /// is supplied with a "sharded:hybrid" engine, a controller watches the
  /// observed tree-hit EWMA and rebuilds the per-shard trees off-line
  /// (epoch-published, answers unchanged) once it drops below this
  /// threshold. 0 disables the controller.
  double rematerialize_threshold = 0.0;
  /// Minimum answered queries between re-materialization decisions.
  size_t rematerialize_cooldown = 64;
};

/// \brief Maps the shared options onto IPO-tree construction options — the
/// one place the mapping lives, used by the "ipo"/"hybrid" factories and by
/// AutoEngine so all tree-backed engines configure their trees identically.
/// `truncate` selects the IPO-Tree-k form: top-k values per dimension, or
/// the query-history materialization plan when a warm history is supplied.
IpoTreeEngine::Options TreeOptionsFrom(const EngineOptions& options,
                                       bool truncate);

/// \brief String-keyed engine factory table. All methods are thread-safe.
class EngineRegistry {
 public:
  using Factory = std::function<Result<std::unique_ptr<SkylineEngine>>(
      const Dataset& data, const PreferenceProfile& tmpl,
      const EngineOptions& options)>;

  /// \brief The process-wide registry, with built-in engines registered.
  static EngineRegistry& Global();

  /// \brief Adds an engine. Fails with AlreadyExists on a duplicate name.
  Status Register(const std::string& name, const std::string& description,
                  Factory factory);

  /// \brief Builds the named engine. "sharded:<inner>" composes the
  /// sharded fan-out/merge engine over any registered inner name. Unknown
  /// names fail with an InvalidArgument status that lists every registered
  /// name.
  Result<std::unique_ptr<SkylineEngine>> Create(
      const std::string& name, const Dataset& data,
      const PreferenceProfile& tmpl,
      const EngineOptions& options = EngineOptions()) const;

  /// \brief Registered names, sorted.
  std::vector<std::string> Names() const;

  /// \brief One-line description of a registered engine ("" if unknown).
  std::string Description(const std::string& name) const;

  bool Contains(const std::string& name) const;

 private:
  struct Entry {
    std::string description;
    Factory factory;
  };

  std::string JoinedNamesLocked() const;  // requires mutex_ held

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace nomsky

#endif  // NOMSKY_EXEC_ENGINE_REGISTRY_H_
