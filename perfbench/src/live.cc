// Set-up and the closed-loop timed window: the served stack (two in-process
// ShardServers on loopback behind one ServingExecutor, as `--serve --engine
// sharded:hybrid` plus `--connect` runs it) and the CLI's local `--batch`
// path (QueryExecutor::RunBatch over the registry's `auto` engine). One
// caller sends one request at a time, so the process's CPU time over a
// request is what that request cost.

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>

#include "core/query_history.h"
#include "exec/engine_registry.h"
#include "exec/planner.h"
#include "exec/query_executor.h"
#include "exec/shard_image.h"
#include "exec/thread_pool.h"
#include "perfbench.h"
#include "serve/serving_executor.h"
#include "serve/shard_server.h"

namespace perfbench {

using namespace nomsky;

namespace {

struct Cluster {
  std::vector<std::unique_ptr<serve::ShardServer>> servers;
  std::unique_ptr<serve::ServingExecutor> executor;

  ~Cluster() {
    executor.reset();
    for (auto& server : servers) {
      if (server != nullptr) server->Stop();
    }
  }
};

// From ready image bytes to a connected front-end: each server loads its
// image and builds its hybrid engine on its own thread, as separate server
// processes would, then the front-end connects to both.
Result<std::unique_ptr<Cluster>> StartCluster(const Inputs& in,
                                              Tracer* tracer) {
  auto cluster = std::make_unique<Cluster>();
  cluster->servers.resize(kServers);
  std::vector<Status> statuses(kServers);
  std::vector<std::thread> starters;
  for (size_t s = 0; s < kServers; ++s) {
    starters.emplace_back([&, s] {
      std::istringstream bytes(in.images[s]);
      auto image = ShardImage::Load(bytes, "shard image");
      if (!image.ok()) {
        statuses[s] = image.status();
        return;
      }
      // The CLI's --serve defaults: 1 engine thread, parse cache 256,
      // top-10 trees, no re-materialization controller.
      serve::ShardServer::Options options;
      options.inner_engine = "hybrid";
      auto server = std::make_unique<serve::ShardServer>(options);
      {
        ScopedSpan span(tracer, "setup.bootstrap", s);
        statuses[s] = server->Bootstrap(std::move(image).ValueOrDie());
      }
      if (statuses[s].ok()) statuses[s] = server->Start();
      cluster->servers[s] = std::move(server);
    });
  }
  for (auto& t : starters) t.join();
  for (const Status& status : statuses) NOMSKY_RETURN_NOT_OK(status);

  std::vector<serve::Endpoint> endpoints;
  for (const auto& server : cluster->servers) {
    endpoints.push_back(serve::Endpoint{"127.0.0.1", server->port()});
  }
  ScopedSpan span(tracer, "setup.connect", 0);
  NOMSKY_ASSIGN_OR_RETURN(
      cluster->executor,
      serve::ServingExecutor::Connect(endpoints,
                                      serve::ServingExecutor::Options{}));
  return cluster;
}

struct LocalStack {
  explicit LocalStack(const Schema& schema)
      : pool(kBatchThreads), history(schema, /*window=*/512) {}

  ThreadPool pool;
  QueryHistory history;
  std::unique_ptr<SkylineEngine> engine;
  std::unique_ptr<ResultCache> cache;
  std::unique_ptr<QueryExecutor> executor;
};

// The CLI's `--engine auto --threads 2 --batch` construction.
Result<std::unique_ptr<LocalStack>> StartLocal(const Inputs& in,
                                               Tracer* tracer) {
  auto local = std::make_unique<LocalStack>(in.data.schema());
  const EngineOptions options =
      LocalEngineOptions(&local->pool, &local->history);
  {
    ScopedSpan span(tracer, "setup.build", 0);
    NOMSKY_ASSIGN_OR_RETURN(
        local->engine,
        EngineRegistry::Global().Create("auto", in.data, in.tmpl, options));
  }
  ResultCache::Options cache_options;
  cache_options.capacity = kLocalCacheCapacity;
  local->cache =
      std::make_unique<ResultCache>(in.data.schema(), cache_options);
  local->executor =
      std::make_unique<QueryExecutor>(*local->engine, &local->pool);
  local->executor->set_result_cache(local->cache.get(), &in.data, &in.tmpl);
  return local;
}

// One refresh of server 0's shard through the front-end, with the image
// the server already holds: the image ships, the server rebuilds its shard
// under backend 0's lease, and the front-end's result cache is invalidated.
Status RefreshOnce(const Inputs& in, Cluster* cluster, Tracer* tracer) {
  ScopedSpan span(tracer, "refresh.live", 0);
  return cluster->executor->Refresh(0, 0, in.images[0]);
}

// Median latency of the requests whose live call was (not) traced.
double MedianLatencyMs(const std::vector<Request>& requests, bool traced) {
  std::vector<double> ms;
  for (const Request& r : requests) {
    if (r.traced == traced) ms.push_back(r.latency_ms());
  }
  return Percentile(std::move(ms), 0.5);
}

double LastEnd(const std::vector<Request>& requests) {
  double end = 0;
  for (const Request& r : requests) end = std::max(end, r.end_us);
  return end;
}

LiveCounters Counters(const Cluster& cluster) {
  const serve::ServingExecutorStats s = cluster.executor->stats();
  LiveCounters c;
  c.lookups = s.result_exact_hits + s.result_subsumed_hits + s.result_misses;
  c.exact_hits = s.result_exact_hits;
  c.subsumed_hits = s.result_subsumed_hits;
  c.evictions = s.result_evictions;
  c.invalidations = s.result_invalidations;
  c.shed = s.shed;
  c.retries = s.retries;
  c.failures = s.failures;
  for (const auto& server : cluster.servers) {
    const serve::ShardServerStats stats = server->stats();
    c.server_parse_hits += stats.cache_hits;
    c.server_parse_misses += stats.cache_misses;
  }
  return c;
}

// Hashes answers for the oracle. With --corrupt-reply it first drops one
// row of the first answer of the timed window, so the self-test can show
// that the oracle catches a wrong answer.
class Corrupter {
 public:
  explicit Corrupter(bool enabled) : enabled_(enabled) {}
  void Arm() { armed_ = enabled_; }
  uint64_t Hash(std::vector<RowId>* rows) {
    if (!rows->empty() && armed_.exchange(false)) rows->pop_back();
    return RowSetHash(*rows);
  }

 private:
  const bool enabled_;
  std::atomic<bool> armed_{false};
};

// Runs a reference unit after the first request that ends
// kReferencePeriodUs or more after the last unit, so that units sample the
// whole window without overlapping a request.
class ReferencePacer {
 public:
  explicit ReferencePacer(std::vector<ReferenceUnit>* out)
      : out_(out), next_(NowMicros()) {}
  void AfterRequest() {
    if (out_ == nullptr || NowMicros() < next_) return;
    out_->push_back(TimeReferenceUnit());
    next_ = NowMicros() + kReferencePeriodUs;
  }

 private:
  std::vector<ReferenceUnit>* out_;
  double next_;
};

class ServedLoad {
 public:
  ServedLoad(const Inputs& in, Cluster* cluster, Corrupter* corrupter)
      : in_(in), cluster_(cluster), corrupter_(corrupter) {}

  // Untimed: until the result cache is full (serve-hot), and at least
  // kWarmupRequests.
  std::vector<Request> Warmup() {
    const bool fill = in_.workload == Workload::kServeHot;
    const ResultCache* cache = cluster_->executor->result_cache();
    std::vector<Request> out;
    while (out.size() < kWarmupRequests ||
           (fill && cache->size() < cache->capacity())) {
      out.push_back(One(nullptr));
      if (!out.back().status.ok()) break;
    }
    return out;
  }

  // The timed window. With a tracer, every other request has a live span.
  std::vector<Request> Window(double seconds, Tracer* tracer,
                              std::vector<ReferenceUnit>* reference) {
    std::vector<Request> out;
    const double deadline = NowMicros() + seconds * 1e6;
    ReferencePacer pacer(reference);
    while (NowMicros() < deadline) {
      out.push_back(One(out.size() % 2 == 0 ? tracer : nullptr));
      pacer.AfterRequest();
    }
    return out;
  }

 private:
  Request One(Tracer* tracer) {
    Request r;
    r.id = next_;
    const uint32_t q = in_.At(next_++);
    r.queries = {q};
    r.traced = tracer != nullptr;
    const double cpu = ProcessCpuMicros();
    r.start_us = NowMicros();
    Result<serve::ServeReply> reply = [&] {
      ScopedSpan span(tracer, "serve.execute", r.id);
      return cluster_->executor->Execute(in_.texts[q]);
    }();
    r.end_us = NowMicros();
    r.cpu_us = ProcessCpuMicros() - cpu;
    if (reply.ok()) {
      r.verdicts = {reply->result_verdict};
      r.answers = {corrupter_->Hash(&reply->rows)};
    } else {
      r.status = reply.status();
    }
    return r;
  }

  const Inputs& in_;
  Cluster* cluster_;
  Corrupter* corrupter_;
  size_t next_ = 0;
};

class LocalLoad {
 public:
  LocalLoad(const Inputs& in, LocalStack* local, Corrupter* corrupter)
      : in_(in), local_(local), corrupter_(corrupter) {}

  // With a tracer, every other batch has a live span.
  std::vector<Request> Batches(double seconds, size_t min_batches,
                               Tracer* tracer,
                               std::vector<ReferenceUnit>* reference) {
    std::vector<Request> out;
    const double deadline = NowMicros() + seconds * 1e6;
    ReferencePacer pacer(reference);
    while (out.size() < min_batches || NowMicros() < deadline) {
      out.push_back(One(out.size() % 2 == 0 ? tracer : nullptr));
      pacer.AfterRequest();
    }
    return out;
  }

 private:
  Request One(Tracer* tracer) {
    Request r;
    r.id = next_;
    std::vector<PreferenceProfile> queries;
    for (size_t j = 0; j < kBatchSize; ++j) {
      const uint32_t q = in_.At(next_++);
      r.queries.push_back(q);
      queries.push_back(in_.pool[q]);
    }
    r.traced = tracer != nullptr;
    const double cpu = ProcessCpuMicros();
    r.start_us = NowMicros();
    BatchResult batch = [&] {
      ScopedSpan span(tracer, "serve.execute", r.id);
      return local_->executor->RunBatch(queries, &local_->history);
    }();
    r.end_us = NowMicros();
    r.cpu_us = ProcessCpuMicros() - cpu;
    for (const Status& status : batch.statuses) {
      if (!status.ok() && r.status.ok()) r.status = status;
    }
    for (std::vector<RowId>& rows : batch.rows) {
      r.answers.push_back(corrupter_->Hash(&rows));
    }
    r.verdicts = std::move(batch.cache_verdicts);
    return r;
  }

  const Inputs& in_;
  LocalStack* local_;
  Corrupter* corrupter_;
  size_t next_ = 0;
};

LiveCounters Counters(const LocalStack& local) {
  const ResultCache::Stats s = local.cache->stats();
  LiveCounters c;
  c.lookups = s.exact_hits + s.subsumed_hits + s.misses;
  c.exact_hits = s.exact_hits;
  c.subsumed_hits = s.subsumed_hits;
  c.evictions = s.evictions;
  c.invalidations = s.invalidations;
  const auto* engine = dynamic_cast<const AutoEngine*>(local.engine.get());
  if (engine != nullptr) {
    const AutoEngine::DispatchCounts d = engine->dispatch_counts();
    c.dispatch_hybrid = d.hybrid;
    c.dispatch_asfs = d.asfs;
    c.dispatch_sfsd = d.sfsd;
    c.dispatch_sharded = d.sharded;
  }
  return c;
}

LiveCounters operator-(LiveCounters a, const LiveCounters& b) {
  for (uint64_t LiveCounters::*field :
       {&LiveCounters::lookups, &LiveCounters::exact_hits,
        &LiveCounters::subsumed_hits, &LiveCounters::evictions,
        &LiveCounters::invalidations, &LiveCounters::shed,
        &LiveCounters::retries, &LiveCounters::failures,
        &LiveCounters::server_parse_hits, &LiveCounters::server_parse_misses,
        &LiveCounters::dispatch_hybrid, &LiveCounters::dispatch_asfs,
        &LiveCounters::dispatch_sfsd, &LiveCounters::dispatch_sharded}) {
    a.*field -= b.*field;
  }
  return a;
}

// Times kSetupRepeats set-ups, keeping the last one; only the kept one is
// traced.
template <typename Start>
auto TimedSetups(const Start& start, Tracer* tracer, LiveResult* out)
    -> decltype(start(tracer)) {
  for (size_t i = 0;; ++i) {
    const bool last = i + 1 == kSetupRepeats;
    const double t = NowMicros();
    auto stack = start(last ? tracer : nullptr);
    out->setup_seconds.push_back((NowMicros() - t) / 1e6);
    if (!stack.ok() || last) return stack;
  }
}

}  // namespace

EngineOptions LocalEngineOptions(ThreadPool* pool,
                                 const QueryHistory* history) {
  EngineOptions options;
  options.topk = 10;
  options.build_threads = 0;
  options.query_shards = kBatchThreads;
  options.pool = pool;
  options.adaptive_routing = true;
  options.history = history;
  options.result_cache_capacity = kLocalCacheCapacity;
  return options;
}

EngineOptions ServerEngineOptions(ThreadPool* pool) {
  // Without the server's (empty at bootstrap) query history, which only
  // steers later re-materializations; the controller is off by default.
  EngineOptions options;
  options.build_threads = 0;
  options.query_shards = 1;
  options.pool = pool;
  options.topk = 10;
  return options;
}

Status ProbeClusterSetup(const Inputs& in, Tracer* tracer) {
  NOMSKY_ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                          StartCluster(in, tracer));
  return RefreshOnce(in, cluster.get(), tracer);
}

Result<LiveResult> RunLive(const Inputs& in, const RunOptions& options,
                           Tracer* tracer) {
  LiveResult out;
  Corrupter corrupter(options.corrupt_reply);
  if (Served(in.workload)) {
    NOMSKY_ASSIGN_OR_RETURN(
        std::unique_ptr<Cluster> cluster,
        TimedSetups([&](Tracer* t) { return StartCluster(in, t); }, tracer,
                    &out));
    ServedLoad load(in, cluster.get(), &corrupter);
    out.warmup = load.Warmup();
    const LiveCounters before = Counters(*cluster);
    corrupter.Arm();
    const double t0 = NowMicros();
    out.requests = load.Window(options.seconds, tracer, &out.reference);
    out.window_seconds = (LastEnd(out.requests) - t0) / 1e6;
    if (tracer != nullptr) {
      NOMSKY_RETURN_NOT_OK(RefreshOnce(in, cluster.get(), tracer));
    }
    out.counters = Counters(*cluster) - before;
  } else {
    NOMSKY_ASSIGN_OR_RETURN(
        std::unique_ptr<LocalStack> local,
        TimedSetups([&](Tracer* t) { return StartLocal(in, t); }, tracer,
                    &out));
    out.index_mb = static_cast<double>(local->engine->MemoryUsage()) / 1e6;
    LocalLoad load(in, local.get(), &corrupter);
    out.warmup = load.Batches(0, /*min_batches=*/4, nullptr, nullptr);
    const LiveCounters before = Counters(*local);
    corrupter.Arm();
    const double t0 = NowMicros();
    out.requests = load.Batches(options.seconds, /*min_batches=*/2, tracer,
                                &out.reference);
    out.window_seconds = (LastEnd(out.requests) - t0) / 1e6;
    out.counters = Counters(*local) - before;
  }
  if (tracer != nullptr) {
    out.traced_p50_ms = MedianLatencyMs(out.requests, true);
    out.untraced_p50_ms = MedianLatencyMs(out.requests, false);
  }
  return out;
}

}  // namespace perfbench
