// ShardedEngine: epoch-swapped per-shard snapshots, answered by fan-out +
// skyline merge.
//
// Each shard is an immutable ShardSnapshot — its private row store, its
// local→global id map, the rows neutral-packed in the dominance kernel's
// layout (dominance/kernel.h), and the inner engine built over them —
// published through a SnapshotSlot. Queries pin every slot's current
// snapshot once up front and run entirely against those pins; a writer
// rebuilds ONE shard off-line and publishes the replacement under the
// next epoch, so a K-shard table pays 1/K rebuild cost per update and
// queries never wait on a build: in-flight queries keep draining the
// snapshot they pinned (the shared_ptr keeps it alive) while new queries
// see the new epoch. One writer mutex serializes publishers; a reader's
// only synchronization is the slot's pointer-copy critical section.
//
// Construction has two entry points: Create partitions a source Dataset
// (ShardedDataset) and moves each shard's rows into its snapshot, and
// CreateFromImage adopts a deserialized ShardImage — the packed blocks in
// the file ARE the snapshot scratch, so an image load skips PackRow
// entirely. SaveImage writes the current snapshots back out; because
// snapshots are immutable, the save is consistent without stopping writes
// (it captures whatever epochs are current at the acquire loads).
//
// A query fans out to every snapshot's engine, keeps the shard-LOCAL row
// ids, and merges with MergeShardSkylines (skyline/sfs.h) — the
// partition-then-merge argument generalized to shards that own their rows:
// each shard's answer is the exact skyline of its subset, the subsets
// cover the table, so the union is a lossless candidate set and one
// cross-shard pass (packing candidates straight from the snapshots' neutral
// blocks, testing each only against the OTHER shards' accepted rows)
// removes the points only another shard can dominate. With one shard the
// merge is a score sort. No global
// row store is consulted anywhere on the query path, which is what makes
// the per-shard swap sound: there is nothing shared left to go stale.
//
// Query is const-thread-safe like every engine (core/engine.h), and
// additionally safe CONCURRENT WITH RebuildShard — that pairing is the
// point of the epoch design (tests/epoch_swap_test.cc runs it under tsan).

#ifndef NOMSKY_EXEC_SHARDED_ENGINE_H_
#define NOMSKY_EXEC_SHARDED_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "dominance/kernel.h"
#include "exec/engine_registry.h"
#include "exec/materialization_controller.h"
#include "exec/result_cache.h"
#include "exec/shard_image.h"
#include "exec/sharded_dataset.h"

namespace nomsky {

/// \brief One shard's immutable serving state. Never mutated after
/// publication; replaced wholesale by RebuildShard. `data` is declared
/// before `engine` so the engine (which borrows the data) is destroyed
/// first.
struct ShardSnapshot {
  uint64_t epoch = 0;
  Dataset data;
  std::vector<RowId> global_rows;  // local row id -> source-table row id
  PackedBlock packed;              // neutral pack, identity ids
  std::unique_ptr<SkylineEngine> engine;
  double build_seconds = 0.0;  // inner engine build (this snapshot only)

  explicit ShardSnapshot(Schema schema) : data(std::move(schema)) {}

  size_t MemoryUsage() const {
    return data.MemoryUsage() + global_rows.capacity() * sizeof(RowId) +
           packed.MemoryUsage() + engine->MemoryUsage();
  }
};

/// \brief One shard's publication point: a mutex-guarded shared_ptr whose
/// critical section is a pointer copy (load) or a pointer swap (store) —
/// never a build, a pack or a query, so readers pin a snapshot in
/// nanoseconds and are never blocked by a rebuild in progress.
///
/// Deliberately NOT std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic
/// releases its internal lock bit with relaxed ordering after the load's
/// pointer read, so ThreadSanitizer cannot see the reader→writer
/// happens-before edge and reports the swap as a race. The mutual
/// exclusion here is equivalent, and provable by the tool that gates this
/// code in CI.
class SnapshotSlot {
 public:
  std::shared_ptr<const ShardSnapshot> load() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return snapshot_;
  }
  void store(std::shared_ptr<const ShardSnapshot> snapshot) {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot_ = std::move(snapshot);
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const ShardSnapshot> snapshot_;
};

/// \brief Fan-out/merge engine over swappable per-shard snapshots.
class ShardedEngine : public SkylineEngine {
 public:
  /// \brief Partitions `data` into `options.data_shards` shards (0 picks
  /// the default of ShardedDataset::Options) and builds one `inner_name`
  /// engine per shard in parallel on `options.pool`. The inner name must
  /// be a registered non-sharded engine. `tmpl` must outlive the engine;
  /// `data` is only read during construction — the snapshots own their
  /// rows. When `options.shard_image_path` is set, the image is loaded
  /// instead of partitioning and must match `data` (same schema and row
  /// count) — the pre-packed fast path with the raw table as fallback
  /// authority.
  static Result<std::unique_ptr<ShardedEngine>> Create(
      const std::string& inner_name, const Dataset& data,
      const PreferenceProfile& tmpl, const EngineOptions& options);

  /// \brief Adopts a deserialized shard image outright: snapshot row
  /// stores, id maps and packed blocks move straight out of the image (no
  /// re-pack, no source table), then the inner engines build in parallel.
  static Result<std::unique_ptr<ShardedEngine>> CreateFromImage(
      const std::string& inner_name, ShardImage&& image,
      const PreferenceProfile& tmpl, const EngineOptions& options);

  /// \brief Writes the CURRENT snapshots as a shard image. Safe concurrent
  /// with queries and rebuilds; captures the epochs current when it pins
  /// the slots.
  Status SaveImage(const std::string& path) const;

  /// \brief Replaces shard `s`: neutral-packs `rows`, builds a fresh inner
  /// engine off-line, and publishes the result under the next epoch.
  /// Queries are never blocked — they finish on whichever snapshot they
  /// already pinned. Writers serialize on an internal mutex.
  /// `global_rows` maps the new rows to source-table ids (must stay within
  /// the engine's source row bound; one id per row).
  Status RebuildShard(size_t s, Dataset rows, std::vector<RowId> global_rows);

  /// \brief Rebuilds every shard's IPO-Tree-k with `plan` as the
  /// materialized value lists (inner engines must be hybrid) — the
  /// history-driven truncation of paper Section 3.1, applied to a LIVE
  /// engine. Like RebuildShard the replacement trees build off-line and
  /// publish via pointer swaps (per-shard tree epochs), so queries never
  /// wait; unlike RebuildShard the data is untouched and answers are
  /// byte-identical by construction, so the result cache is deliberately
  /// NOT invalidated.
  Status Rematerialize(std::vector<std::vector<ValueId>> plan);

  const char* name() const override { return name_.c_str(); }

  Result<std::vector<RowId>> Query(
      const PreferenceProfile& query) const override;

  /// \brief Query + the answer's row payload: when `neutral_rows` is
  /// non-null it receives the result rows NEUTRAL-packed (schema-derived
  /// pack, ids = global row ids, same order as the returned vector), copied
  /// straight from the pinned snapshots' blocks. This is the wire seam: a
  /// shard server ships the block bytes so the serving front-end can merge
  /// across servers (and print values) without any shared row store.
  /// Epoch-consistent with the ids — both come from the same pinned
  /// snapshots.
  ///
  /// When EngineOptions::result_cache_capacity armed the result cache, the
  /// fan-out is consulted-through it: exact profile repeats return the
  /// cached block, refinements of a cached profile re-filter its rows
  /// (exec/result_cache.h), and every RebuildShard invalidates. A non-null
  /// `cache_verdict` reports how the answer was produced (kMiss when no
  /// cache is armed).
  Result<std::vector<RowId>> QueryServed(
      const PreferenceProfile& query, PackedBlock* neutral_rows,
      CacheVerdict* cache_verdict = nullptr) const;

  /// \brief Snapshot storage (rows, id maps, packed blocks) + every inner
  /// engine's materialized structures.
  size_t MemoryUsage() const override;

  /// \brief Wall seconds of partition/load + parallel shard-engine builds
  /// (NOT the sum of per-shard build times — that is what the parallelism
  /// saves; bench_sharded reports both).
  double preprocessing_seconds() const override { return build_seconds_; }

  const std::string& inner_name() const { return inner_name_; }
  size_t num_shards() const { return slots_.size(); }
  const Schema& schema() const { return schema_; }
  /// \brief Row-id domain of the source table (bounds the global ids).
  uint64_t source_rows() const { return source_rows_; }

  /// \brief The s-th shard's current snapshot. The shared_ptr pins it:
  /// valid indefinitely, possibly superseded a moment later.
  std::shared_ptr<const ShardSnapshot> snapshot(size_t s) const {
    return slots_[s].load();
  }

  /// \brief Current epoch of shard `s` (starts at 0, +1 per rebuild).
  uint64_t shard_epoch(size_t s) const { return snapshot(s)->epoch; }

  /// \brief Wall seconds of the Partition call (0 when image-loaded).
  double partition_seconds() const { return partition_seconds_; }

  /// \brief Sum of the current snapshots' inner-engine build seconds — the
  /// serial-equivalent cost the parallel build is compared against.
  double shard_build_seconds_total() const;

  /// \brief Merge-overhead observability: candidates entering / surviving
  /// the most recent merge pass (union of per-shard skylines vs final
  /// skyline) and the dominance tests it ran (0 with one shard: the merge
  /// is a score sort). The counters are published independently per query, so
  /// under CONCURRENT queries a reader can see values from different
  /// queries paired together — read them only while no batch is in flight
  /// (they are diagnostics, not an invariant-bearing pair).
  size_t last_merge_candidates() const {
    return last_merge_candidates_.load(std::memory_order_relaxed);
  }
  size_t last_merge_survivors() const {
    return last_merge_survivors_.load(std::memory_order_relaxed);
  }
  size_t last_merge_dominance_tests() const {
    return last_merge_dominance_tests_.load(std::memory_order_relaxed);
  }

  /// \brief The armed result cache, or null (result_cache_capacity == 0).
  const ResultCache* result_cache() const { return cache_.get(); }

  /// \brief The armed re-materialization controller, or null (armed iff
  /// EngineOptions::rematerialize_threshold > 0 with a history and hybrid
  /// inner engines).
  const MaterializationController* materialization_controller() const {
    return remat_.get();
  }

  /// \brief Tree-hit / fallback counters summed over the current shard
  /// hybrids (both 0 when the inner engine is not hybrid).
  size_t tree_hits_total() const;
  size_t fallback_hits_total() const;
  /// \brief Mean of the shard hybrids' tree-hit EWMAs (shards see the same
  /// queries, so the rates track); -1 without signal or hybrid inners.
  double tree_hit_ewma() const;
  /// \brief Highest shard tree epoch (they move in lockstep — Rematerialize
  /// swaps every shard).
  uint64_t tree_epoch() const;
  /// \brief Completed re-materializations (max over shard hybrids).
  size_t rematerializations() const;

 private:
  ShardedEngine(Schema schema, ShardPolicy policy, uint64_t source_rows,
                const PreferenceProfile& tmpl, std::string inner_name,
                size_t num_shards, const EngineOptions& options);

  /// \brief Packs (unless `packed` already is the neutral block) and
  /// builds the inner engine of one snapshot-under-construction.
  Status BuildSnapshot(ShardSnapshot* snap) const;

  Schema schema_;
  ShardPolicy policy_;
  uint64_t source_rows_;
  const PreferenceProfile* template_;
  ThreadPool* pool_ = nullptr;  // query fan-out; shared, never owned
  EngineOptions inner_options_;
  std::string inner_name_;
  std::string name_;
  double partition_seconds_ = 0.0;
  double build_seconds_ = 0.0;
  /// One publication slot per shard; sized at construction, never resized
  /// (SnapshotSlot's mutex is immovable).
  std::vector<SnapshotSlot> slots_;
  /// Armed iff EngineOptions::result_cache_capacity > 0; internally
  /// synchronized (const Query paths mutate it through the pointer).
  std::unique_ptr<ResultCache> cache_;
  /// Armed iff rematerialize_threshold > 0 with a history and hybrid
  /// inners; internally synchronized (the const QueryServed path ticks it
  /// through the pointer, like cache_). Declared after slots_ so it is
  /// destroyed first — its destructor syncs any in-flight async rebuild
  /// that still references the slots.
  std::unique_ptr<MaterializationController> remat_;
  std::mutex writer_mutex_;  // serializes RebuildShard/Rematerialize
  mutable std::atomic<size_t> last_merge_candidates_{0};
  mutable std::atomic<size_t> last_merge_survivors_{0};
  mutable std::atomic<size_t> last_merge_dominance_tests_{0};
};

}  // namespace nomsky

#endif  // NOMSKY_EXEC_SHARDED_ENGINE_H_
