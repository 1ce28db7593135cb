#include "exec/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"
#include "core/hybrid.h"
#include "exec/thread_pool.h"
#include "skyline/sfs.h"

namespace nomsky {

namespace {

// Structural schema equality: an image or replacement shard is only
// adoptable when every dimension matches in name, kind, orientation and
// dictionary (the dictionary fixes the ValueId encoding).
bool SameSchema(const Schema& a, const Schema& b) {
  if (a.num_dims() != b.num_dims()) return false;
  for (DimId d = 0; d < a.num_dims(); ++d) {
    const Dimension& x = a.dim(d);
    const Dimension& y = b.dim(d);
    if (x.kind() != y.kind() || x.name() != y.name()) return false;
    if (x.is_numeric() && x.direction() != y.direction()) return false;
    if (x.is_nominal() && x.dictionary() != y.dictionary()) return false;
  }
  return true;
}

Status ValidateInnerName(const std::string& inner_name) {
  if (inner_name.rfind("sharded", 0) == 0) {
    return Status::InvalidArgument(
        "sharded engines cannot nest; inner engine '", inner_name,
        "' must be a plain registered engine");
  }
  if (!EngineRegistry::Global().Contains(inner_name)) {
    return Status::InvalidArgument(
        "unknown inner engine '", inner_name, "' for sharded:<inner>");
  }
  return Status::OK();
}

}  // namespace

ShardedEngine::ShardedEngine(Schema schema, ShardPolicy policy,
                             uint64_t source_rows,
                             const PreferenceProfile& tmpl,
                             std::string inner_name, size_t num_shards,
                             const EngineOptions& options)
    : schema_(std::move(schema)),
      policy_(policy),
      source_rows_(source_rows),
      template_(&tmpl),
      pool_(options.pool),
      inner_options_(options),
      inner_name_(std::move(inner_name)),
      name_("Sharded(" + inner_name_ + " x" + std::to_string(num_shards) +
            ")"),
      slots_(num_shards) {
  // Inner engines must not re-shard their shard (they share the pool for
  // their own internal parallel paths, nesting-safe per thread_pool.h),
  // and must never themselves reach for the image file.
  inner_options_.data_shards = 0;
  inner_options_.shard_image_path.clear();
  inner_options_.result_cache_capacity = 0;  // one cache, in front of fan-out
  inner_options_.rematerialize_threshold = 0.0;  // one controller, out here
  if (options.result_cache_capacity > 0) {
    ResultCache::Options cache_options;
    cache_options.capacity = options.result_cache_capacity;
    cache_options.history = options.history;
    cache_ = std::make_unique<ResultCache>(schema_, cache_options);
  }
  // The re-materialization loop needs a workload signal (history), a
  // threshold, and inner engines with a tree to re-materialize.
  if (options.rematerialize_threshold > 0.0 && options.history != nullptr &&
      inner_name_ == "hybrid") {
    MaterializationController::Options controller_options;
    controller_options.topk = options.topk;
    controller_options.threshold = options.rematerialize_threshold;
    controller_options.cooldown = options.rematerialize_cooldown;
    controller_options.pool = options.pool;
    remat_ = std::make_unique<MaterializationController>(
        options.history, [this] { return tree_hit_ewma(); },
        [this](std::vector<std::vector<ValueId>> plan) {
          return Rematerialize(std::move(plan));
        },
        controller_options);
  }
}

Status ShardedEngine::BuildSnapshot(ShardSnapshot* snap) const {
  WallTimer timer;
  const CompiledProfile neutral(schema_, PreferenceProfile(schema_));
  // Image-adopted snapshots arrive with the neutral block already
  // materialized from disk — the load-skips-PackRow path. Everything else
  // (fresh partitions, rebuilds) packs here, off the serving path.
  if (snap->packed.size() != snap->data.num_rows() ||
      snap->packed.stride() != neutral.row_slots()) {
    snap->packed.PackAll(neutral, snap->data);
  }
  NOMSKY_ASSIGN_OR_RETURN(
      snap->engine, EngineRegistry::Global().Create(inner_name_, snap->data,
                                                    *template_,
                                                    inner_options_));
  snap->build_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    const std::string& inner_name, const Dataset& data,
    const PreferenceProfile& tmpl, const EngineOptions& options) {
  NOMSKY_RETURN_NOT_OK(ValidateInnerName(inner_name));

  if (!options.shard_image_path.empty()) {
    NOMSKY_ASSIGN_OR_RETURN(ShardImage image,
                            ShardImage::Load(options.shard_image_path));
    if (image.source_rows != data.num_rows()) {
      return Status::InvalidArgument(
          "shard image '", options.shard_image_path, "' covers ",
          image.source_rows, " rows, dataset has ", data.num_rows());
    }
    if (!SameSchema(image.schema, data.schema())) {
      return Status::InvalidArgument(
          "shard image '", options.shard_image_path,
          "' was built over a different schema");
    }
    return CreateFromImage(inner_name, std::move(image), tmpl, options);
  }

  WallTimer timer;
  ShardedDataset::Options shard_options;
  if (options.data_shards > 0) shard_options.num_shards = options.data_shards;
  shard_options.policy = options.shard_policy;
  shard_options.pool = options.pool;
  NOMSKY_ASSIGN_OR_RETURN(ShardedDataset sharded,
                          ShardedDataset::Partition(data, shard_options));

  const size_t k = sharded.num_shards();
  auto engine = std::unique_ptr<ShardedEngine>(
      new ShardedEngine(data.schema(), shard_options.policy, data.num_rows(),
                        tmpl, inner_name, k, options));
  engine->partition_seconds_ = sharded.partition_seconds();

  // Each snapshot takes ownership of its shard's rows; the partition (and
  // the source, from this engine's point of view) is dropped afterwards.
  std::vector<std::shared_ptr<ShardSnapshot>> snaps(k);
  for (size_t s = 0; s < k; ++s) {
    snaps[s] = std::make_shared<ShardSnapshot>(data.schema());
    auto [shard_data, global_rows] = sharded.TakeShard(s);
    snaps[s]->data = std::move(shard_data);
    snaps[s]->global_rows = std::move(global_rows);
  }
  std::vector<Status> statuses(k);
  ParallelFor(options.pool, k, [&](size_t s) {
    statuses[s] = engine->BuildSnapshot(snaps[s].get());
  });
  for (const Status& status : statuses) {
    NOMSKY_RETURN_NOT_OK(status);
  }
  for (size_t s = 0; s < k; ++s) {
    engine->slots_[s].store(std::move(snaps[s]));
  }
  engine->build_seconds_ = timer.ElapsedSeconds();
  return engine;
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::CreateFromImage(
    const std::string& inner_name, ShardImage&& image,
    const PreferenceProfile& tmpl, const EngineOptions& options) {
  NOMSKY_RETURN_NOT_OK(ValidateInnerName(inner_name));
  if (tmpl.num_nominal() != image.schema.num_nominal()) {
    return Status::InvalidArgument(
        "template arity does not match the shard image schema");
  }

  WallTimer timer;
  const size_t k = image.num_shards();
  auto engine = std::unique_ptr<ShardedEngine>(
      new ShardedEngine(image.schema, image.policy, image.source_rows, tmpl,
                        inner_name, k, options));

  std::vector<std::shared_ptr<ShardSnapshot>> snaps(k);
  for (size_t s = 0; s < k; ++s) {
    snaps[s] = std::make_shared<ShardSnapshot>(engine->schema_);
    snaps[s]->data = std::move(image.shards[s].data);
    snaps[s]->global_rows = std::move(image.shards[s].global_rows);
    snaps[s]->packed = std::move(image.shards[s].packed);
  }
  std::vector<Status> statuses(k);
  ParallelFor(options.pool, k, [&](size_t s) {
    statuses[s] = engine->BuildSnapshot(snaps[s].get());
  });
  for (const Status& status : statuses) {
    NOMSKY_RETURN_NOT_OK(status);
  }
  for (size_t s = 0; s < k; ++s) {
    engine->slots_[s].store(std::move(snaps[s]));
  }
  engine->build_seconds_ = timer.ElapsedSeconds();
  return engine;
}

Status ShardedEngine::SaveImage(const std::string& path) const {
  const size_t k = slots_.size();
  std::vector<std::shared_ptr<const ShardSnapshot>> snaps(k);
  std::vector<ShardImage::ShardRef> refs(k);
  for (size_t s = 0; s < k; ++s) {
    snaps[s] = snapshot(s);
    refs[s] = ShardImage::ShardRef{&snaps[s]->data, &snaps[s]->global_rows,
                                   &snaps[s]->packed};
  }
  return ShardImage::Save(path, schema_, policy_, source_rows_, refs);
}

Status ShardedEngine::RebuildShard(size_t s, Dataset rows,
                                   std::vector<RowId> global_rows) {
  if (s >= slots_.size()) {
    return Status::OutOfRange("shard ", s, " out of range (engine has ",
                              slots_.size(), " shards)");
  }
  if (!SameSchema(rows.schema(), schema_)) {
    return Status::InvalidArgument(
        "replacement rows for shard ", s, " have a different schema");
  }
  if (rows.num_rows() != global_rows.size()) {
    return Status::InvalidArgument(
        "shard ", s, ": ", rows.num_rows(), " rows but ", global_rows.size(),
        " global ids");
  }
  for (RowId g : global_rows) {
    if (g >= source_rows_) {
      return Status::OutOfRange("shard ", s, ": global row id ", g,
                                " outside the source bound ", source_rows_);
    }
  }
  auto snap = std::make_shared<ShardSnapshot>(schema_);
  snap->data = std::move(rows);
  snap->global_rows = std::move(global_rows);

  // Pack + build OFF-LINE under the writer mutex: concurrent readers keep
  // serving the published snapshot the whole time; the store below is the
  // only point where new queries start seeing the new epoch.
  std::lock_guard<std::mutex> lock(writer_mutex_);
  snap->epoch = slots_[s].load()->epoch + 1;
  NOMSKY_RETURN_NOT_OK(BuildSnapshot(snap.get()));
  slots_[s].store(std::move(snap));
  // Invalidate AFTER the store: any result computed against the retired
  // snapshot read the cache generation before pinning it, i.e. before this
  // bump, so its Insert is dropped — and any entry already cached came
  // from a pin that also predates the bump, so the clear retires it. (An
  // invalidate BEFORE the store would leave a window where a reader tags
  // the new generation but still pins the old snapshot.)
  if (cache_ != nullptr) cache_->Invalidate();
  return Status::OK();
}

Status ShardedEngine::Rematerialize(std::vector<std::vector<ValueId>> plan) {
  // Writer-serialized with RebuildShard: at most one publisher touches the
  // slot set at a time, so every shard's hybrid is re-materialized exactly
  // once per call and a racing shard rebuild cannot interleave.
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const size_t k = slots_.size();
  std::vector<std::shared_ptr<const ShardSnapshot>> snaps(k);
  std::vector<HybridEngine*> hybrids(k);
  for (size_t s = 0; s < k; ++s) {
    snaps[s] = snapshot(s);
    // const unique_ptr<SkylineEngine>::get() hands out the non-const
    // engine: snapshot immutability covers the data/rows/packed block, and
    // the hybrid's own tree slot is the engine's internal publication
    // point (pointer-copy, like ours).
    hybrids[s] = dynamic_cast<HybridEngine*>(snaps[s]->engine.get());
    if (hybrids[s] == nullptr) {
      return Status::InvalidArgument(
          "inner engine '", inner_name_, "' of shard ", s,
          " has no re-materializable IPO-Tree-k (use sharded:hybrid)");
    }
  }
  // Each shard builds its replacement tree off-line and swaps under its
  // hybrid's next tree epoch; readers keep draining whatever tree they
  // pinned. All shards get the SAME plan — the history that produced it
  // observed the full (unsharded) workload.
  std::vector<Status> statuses(k);
  ParallelFor(pool_, k, [&](size_t s) {
    statuses[s] = hybrids[s]->Rematerialize(plan);
  });
  for (const Status& status : statuses) {
    NOMSKY_RETURN_NOT_OK(status);
  }
  // Deliberately NO cache invalidation (contrast RebuildShard): a
  // re-materialization changes WHICH sub-engine answers, never the answer
  // itself, so every cached entry is still byte-identical to a fresh scan
  // (pinned by tests/rematerialize_test.cc).
  return Status::OK();
}

Result<std::vector<RowId>> ShardedEngine::Query(
    const PreferenceProfile& query) const {
  return QueryServed(query, nullptr);
}

Result<std::vector<RowId>> ShardedEngine::QueryServed(
    const PreferenceProfile& query, PackedBlock* neutral_rows,
    CacheVerdict* cache_verdict) const {
  if (cache_verdict != nullptr) *cache_verdict = CacheVerdict::kMiss;
  NOMSKY_ASSIGN_OR_RETURN(PreferenceProfile effective,
                          query.CombineWithTemplate(*template_));

  // The cache is consulted (and its generation snapshotted) BEFORE any
  // snapshot pin: a rebuild publishing between this read and the pins
  // bumps the generation and the Insert below is dropped, so the cache can
  // never serve rows from a snapshot retired before the query pinned it.
  uint64_t cache_generation = 0;
  if (cache_ != nullptr) {
    cache_generation = cache_->generation();
    if (std::optional<ResultCache::Answer> answer = cache_->Lookup(effective)) {
      if (cache_verdict != nullptr) *cache_verdict = answer->verdict;
      if (neutral_rows != nullptr) AnswerNeutralRows(*answer, neutral_rows);
      return std::move(answer->rows);
    }
  }

  // Acquire every shard's snapshot ONCE up front: the query runs against a
  // consistent set of pinned snapshots even if a writer publishes new
  // epochs mid-flight (per-shard consistency; the fan-out never mixes two
  // epochs of the same shard).
  const size_t k = slots_.size();
  std::vector<std::shared_ptr<const ShardSnapshot>> snaps(k);
  for (size_t s = 0; s < k; ++s) snaps[s] = snapshot(s);

  // Fan-out: every shard engine answers the same query independently.
  // Results stay shard-LOCAL; the merge maps them to global ids itself.
  std::vector<std::vector<RowId>> locals(k);
  std::vector<Status> statuses(k);
  ParallelFor(pool_, k, [&](size_t s) {
    Result<std::vector<RowId>> rows = snaps[s]->engine->Query(query);
    if (rows.ok()) {
      locals[s] = std::move(rows).ValueOrDie();
    } else {
      statuses[s] = rows.status();
    }
  });
  for (const Status& status : statuses) {
    NOMSKY_RETURN_NOT_OK(status);
  }

  // Merge: the union of per-shard skylines is a lossless candidate set
  // (see header); one cross-shard pass over the snapshots' own rows —
  // packing candidates straight from their neutral blocks — removes the
  // points only another shard can dominate. Each shard's answer is its
  // exact local skyline, which is the merge's precondition.
  size_t candidates = 0;
  std::vector<ShardSpan> spans(k);
  for (size_t s = 0; s < k; ++s) {
    candidates += locals[s].size();
    spans[s] = ShardSpan{&snaps[s]->data, &snaps[s]->packed, &locals[s],
                         &snaps[s]->global_rows};
  }
  // The winners' neutral bytes are needed by the wire seam (neutral_rows)
  // and by the cache insert; both copy from the SAME pinned snapshots the
  // query ran on, so ids and bytes are epoch-consistent by construction.
  PackedBlock cache_scratch;
  PackedBlock* winners =
      neutral_rows != nullptr ? neutral_rows
                              : (cache_ != nullptr ? &cache_scratch : nullptr);
  std::vector<SpanRow> sources;
  SfsStats merge_stats;
  std::vector<RowId> skyline =
      MergeShardSkylines(effective, spans, &merge_stats,
                         winners != nullptr ? &sources : nullptr);
  last_merge_candidates_.store(candidates, std::memory_order_relaxed);
  last_merge_survivors_.store(skyline.size(), std::memory_order_relaxed);
  last_merge_dominance_tests_.store(merge_stats.dominance_tests,
                                    std::memory_order_relaxed);
  if (winners != nullptr) {
    const CompiledProfile neutral(schema_, PreferenceProfile(schema_));
    winners->Reset(neutral.row_slots());
    for (size_t i = 0; i < skyline.size(); ++i) {
      winners->AppendRaw(snaps[sources[i].span]->packed.row(sources[i].local),
                         skyline[i]);
    }
  }
  if (cache_ != nullptr) {
    cache_->Insert(effective, cache_generation, skyline, *winners);
  }
  // Feed the re-materialization loop: one tick per query that actually
  // reached the shard engines (cache hits carry no tree-hit signal). A due
  // decision dispatches the rebuild to the pool — this query is done
  // either way.
  if (remat_ != nullptr) remat_->Tick();
  return skyline;
}

size_t ShardedEngine::tree_hits_total() const {
  size_t total = 0;
  for (size_t s = 0; s < slots_.size(); ++s) {
    const std::shared_ptr<const ShardSnapshot> snap = snapshot(s);
    if (snap == nullptr) continue;
    if (const auto* hybrid =
            dynamic_cast<const HybridEngine*>(snap->engine.get())) {
      total += hybrid->tree_hits();
    }
  }
  return total;
}

size_t ShardedEngine::fallback_hits_total() const {
  size_t total = 0;
  for (size_t s = 0; s < slots_.size(); ++s) {
    const std::shared_ptr<const ShardSnapshot> snap = snapshot(s);
    if (snap == nullptr) continue;
    if (const auto* hybrid =
            dynamic_cast<const HybridEngine*>(snap->engine.get())) {
      total += hybrid->fallback_hits();
    }
  }
  return total;
}

double ShardedEngine::tree_hit_ewma() const {
  double sum = 0.0;
  size_t with_signal = 0;
  for (size_t s = 0; s < slots_.size(); ++s) {
    const std::shared_ptr<const ShardSnapshot> snap = snapshot(s);
    if (snap == nullptr) continue;  // mid-construction probe
    const auto* hybrid = dynamic_cast<const HybridEngine*>(snap->engine.get());
    if (hybrid == nullptr) continue;
    const double ewma = hybrid->tree_hit_ewma();
    if (ewma < 0.0) continue;  // freshly swapped, no samples yet
    sum += ewma;
    ++with_signal;
  }
  return with_signal > 0 ? sum / static_cast<double>(with_signal) : -1.0;
}

uint64_t ShardedEngine::tree_epoch() const {
  uint64_t epoch = 0;
  for (size_t s = 0; s < slots_.size(); ++s) {
    const std::shared_ptr<const ShardSnapshot> snap = snapshot(s);
    if (snap == nullptr) continue;
    if (const auto* hybrid =
            dynamic_cast<const HybridEngine*>(snap->engine.get())) {
      epoch = std::max(epoch, hybrid->tree_epoch());
    }
  }
  return epoch;
}

size_t ShardedEngine::rematerializations() const {
  size_t count = 0;
  for (size_t s = 0; s < slots_.size(); ++s) {
    const std::shared_ptr<const ShardSnapshot> snap = snapshot(s);
    if (snap == nullptr) continue;
    if (const auto* hybrid =
            dynamic_cast<const HybridEngine*>(snap->engine.get())) {
      count = std::max(count, hybrid->rematerializations());
    }
  }
  return count;
}

size_t ShardedEngine::MemoryUsage() const {
  size_t bytes = 0;
  for (size_t s = 0; s < slots_.size(); ++s) bytes += snapshot(s)->MemoryUsage();
  return bytes;
}

double ShardedEngine::shard_build_seconds_total() const {
  double total = 0.0;
  for (size_t s = 0; s < slots_.size(); ++s) {
    total += snapshot(s)->build_seconds;
  }
  return total;
}

}  // namespace nomsky
