#include "exec/engine_registry.h"

#include <utility>

#include "core/adaptive_sfs.h"
#include "core/hybrid.h"
#include "core/ipo_tree.h"
#include "exec/planner.h"
#include "exec/sharded_engine.h"

namespace nomsky {

IpoTreeEngine::Options TreeOptionsFrom(const EngineOptions& options,
                                       bool truncate) {
  IpoTreeEngine::Options tree;
  tree.num_threads = options.build_threads;
  if (truncate) {
    tree.max_values_per_dim = options.topk;
    if (options.history != nullptr && options.history->num_recorded() > 0) {
      tree.materialize_values =
          options.history->MaterializationPlan(options.topk);
    }
  }
  return tree;
}

namespace {

void RegisterBuiltins(EngineRegistry* registry) {
  auto must = [](Status status) {
    NOMSKY_CHECK(status.ok()) << status.ToString();
  };
  must(registry->Register(
      "sfsd",
      "SFS-D baseline: per-query re-sort + extraction; no preprocessing "
      "(partition-merge parallel with --threads)",
      [](const Dataset& data, const PreferenceProfile& tmpl,
         const EngineOptions& options)
          -> Result<std::unique_ptr<SkylineEngine>> {
        return std::unique_ptr<SkylineEngine>(std::make_unique<SfsDirectEngine>(
            data, tmpl, options.pool,
            options.query_shards == 0 ? 1 : options.query_shards));
      }));
  must(registry->Register(
      "asfs",
      "Adaptive SFS: presorted template skyline + per-query re-rank of the "
      "affected list (paper Section 4)",
      [](const Dataset& data, const PreferenceProfile& tmpl,
         const EngineOptions&) -> Result<std::unique_ptr<SkylineEngine>> {
        return std::unique_ptr<SkylineEngine>(
            std::make_unique<AdaptiveSfsEngine>(data, tmpl));
      }));
  must(registry->Register(
      "ipo",
      "IPO-Tree: full semi-materialization of first-order skylines "
      "(paper Section 3)",
      [](const Dataset& data, const PreferenceProfile& tmpl,
         const EngineOptions& options)
          -> Result<std::unique_ptr<SkylineEngine>> {
        return std::unique_ptr<SkylineEngine>(std::make_unique<IpoTreeEngine>(
            data, tmpl, TreeOptionsFrom(options, /*truncate=*/false)));
      }));
  must(registry->Register(
      "hybrid",
      "IPO-Tree-k over popular values with Adaptive SFS fallback "
      "(paper Section 5.3)",
      [](const Dataset& data, const PreferenceProfile& tmpl,
         const EngineOptions& options)
          -> Result<std::unique_ptr<SkylineEngine>> {
        return std::unique_ptr<SkylineEngine>(std::make_unique<HybridEngine>(
            data, tmpl, options.topk,
            TreeOptionsFrom(options, /*truncate=*/true)));
      }));
  must(registry->Register(
      "sharded",
      "epoch-swapped per-shard snapshots + skyline merge; sharded:<inner> "
      "picks the per-shard engine (default sfsd), --shards=K the shard "
      "count, --load-shards reuses a saved shard image",
      [](const Dataset& data, const PreferenceProfile& tmpl,
         const EngineOptions& options)
          -> Result<std::unique_ptr<SkylineEngine>> {
        NOMSKY_ASSIGN_OR_RETURN(
            std::unique_ptr<ShardedEngine> engine,
            ShardedEngine::Create("sfsd", data, tmpl, options));
        return std::unique_ptr<SkylineEngine>(std::move(engine));
      }));
  must(registry->Register(
      "auto",
      "per-query planner: routes to hybrid / asfs / parallel sfsd using "
      "cardinality estimates and query-history popularity",
      [](const Dataset& data, const PreferenceProfile& tmpl,
         const EngineOptions& options)
          -> Result<std::unique_ptr<SkylineEngine>> {
        return std::unique_ptr<SkylineEngine>(
            std::make_unique<AutoEngine>(data, tmpl, options));
      }));
}

}  // namespace

EngineRegistry& EngineRegistry::Global() {
  static EngineRegistry* registry = [] {
    auto* r = new EngineRegistry();
    RegisterBuiltins(r);
    return r;
  }();
  return *registry;
}

Status EngineRegistry::Register(const std::string& name,
                                const std::string& description,
                                Factory factory) {
  if (name.empty()) return Status::InvalidArgument("empty engine name");
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] =
      entries_.emplace(name, Entry{description, std::move(factory)});
  if (!inserted) {
    return Status::AlreadyExists("engine '", name, "' is already registered");
  }
  return Status::OK();
}

Result<std::unique_ptr<SkylineEngine>> EngineRegistry::Create(
    const std::string& name, const Dataset& data,
    const PreferenceProfile& tmpl, const EngineOptions& options) const {
  // "sharded:<inner>" composes the fan-out/merge engine over any
  // registered inner engine — resolved here instead of registering every
  // combination. ShardedEngine::Create validates the inner name (and
  // rejects nesting).
  constexpr const char kShardedPrefix[] = "sharded:";
  if (name.rfind(kShardedPrefix, 0) == 0) {
    NOMSKY_ASSIGN_OR_RETURN(
        std::unique_ptr<ShardedEngine> engine,
        ShardedEngine::Create(name.substr(sizeof(kShardedPrefix) - 1), data,
                              tmpl, options));
    return std::unique_ptr<SkylineEngine>(std::move(engine));
  }
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Status::InvalidArgument("unknown engine '", name,
                                     "'; valid engines: ",
                                     JoinedNamesLocked(),
                                     ", or sharded:<inner>");
    }
    factory = it->second.factory;
  }
  return factory(data, tmpl, options);
}

std::vector<std::string> EngineRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;  // std::map iterates sorted
}

std::string EngineRegistry::Description(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  return it == entries_.end() ? "" : it->second.description;
}

bool EngineRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.find(name) != entries_.end();
}

std::string EngineRegistry::JoinedNamesLocked() const {
  std::string joined;
  for (const auto& [name, entry] : entries_) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

}  // namespace nomsky
