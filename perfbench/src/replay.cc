// The traced run's layer replay: the live request stream once more,
// single-threaded, through each layer's public calls in the order the
// served path makes them, with a span around every call.
//
// Served path per request: parse -> result cache -> per backend (shard
// query, wire encode, loopback round trip, wire decode) -> merge -> cache
// insert. Those spans are the children of the request's replay span, so
// the live Execute minus them is what the replay does not reproduce
// (sockets, lease waits, scheduling). On local-batch the children are the
// local path instead: cache lookup, the `auto` engine's dispatch, cache
// insert; its residual compares the live batch with the same path replayed
// on a pool of the executor's size. Every layer is replayed on every
// workload, so each per-layer metric exists everywhere; off-path layers
// are probes.

#include <algorithm>
#include <map>
#include <sstream>
#include <thread>

#include "common/serialize.h"
#include "core/query_history.h"
#include "dominance/kernel.h"
#include "exec/engine_registry.h"
#include "exec/planner.h"
#include "exec/shard_image.h"
#include "exec/sharded_engine.h"
#include "exec/thread_pool.h"
#include "net/frame.h"
#include "net/socket.h"
#include "perfbench.h"
#include "serve/query_cache.h"
#include "skyline/sfs.h"

namespace perfbench {

using namespace nomsky;

namespace {

// The replay covers the kReplayPrefix queries before the traced window, so
// that the replica cache holds about what the live one held, and then the
// window's first kReplayQueries queries, with spans. The first kRouteQueries
// misses among those are then timed on every planner route.
constexpr size_t kReplayPrefix = 300;
constexpr size_t kReplayQueries = 300;
constexpr size_t kRouteQueries = 100;

// Echoes frames back on a loopback connection: the wire round trip of a
// reply-sized payload.
class Echo {
 public:
  Echo() {
    auto listener = net::TcpListener::Listen(0);
    NOMSKY_CHECK_OK(listener.status());
    listener_ = std::move(listener).ValueOrDie();
    thread_ = std::thread([this] {
      auto peer = listener_.Accept(/*timeout_ms=*/10'000);
      if (!peer.ok()) return;
      for (;;) {
        auto frame = net::RecvFrame(*peer, /*deadline_ms=*/600'000);
        if (!frame.ok() || frame->type == net::FrameType::kShutdown) return;
        if (!net::SendFrame(*peer, net::FrameType::kQueryResult,
                            frame->payload)
                 .ok()) {
          return;
        }
      }
    });
    auto socket = net::TcpSocket::Connect("127.0.0.1", listener_.port());
    NOMSKY_CHECK_OK(socket.status());
    socket_ = std::move(socket).ValueOrDie();
  }
  ~Echo() {
    (void)net::SendFrame(socket_, net::FrameType::kShutdown, "");
    thread_.join();
    listener_.Close();
  }
  Echo(const Echo&) = delete;
  Echo& operator=(const Echo&) = delete;

  Status RoundTrip(const std::string& payload) {
    NOMSKY_RETURN_NOT_OK(
        net::SendFrame(socket_, net::FrameType::kQuery, payload));
    NOMSKY_ASSIGN_OR_RETURN(net::Frame reply,
                            net::RecvFrame(socket_, /*deadline_ms=*/10'000));
    if (reply.payload.size() != payload.size()) {
      return Status::Internal("echo returned ", reply.payload.size(),
                              " bytes for ", payload.size());
    }
    return Status::OK();
  }

 private:
  net::TcpListener listener_;
  std::thread thread_;
  net::TcpSocket socket_;
};

// One more value per nominal dimension: a one-step refinement of `p`.
std::optional<PreferenceProfile> Refined(const PreferenceProfile& p) {
  PreferenceProfile out = p;
  for (size_t j = 0; j < p.num_nominal(); ++j) {
    const ImplicitPreference& pref = p.pref(j);
    std::vector<ValueId> choices = pref.choices();
    for (ValueId v = 0; v < pref.cardinality(); ++v) {
      if (!pref.ContainsValue(v)) {
        choices.push_back(v);
        break;
      }
    }
    if (choices.size() == pref.order()) return std::nullopt;
    auto made = ImplicitPreference::Make(pref.cardinality(), choices);
    if (!made.ok() || !out.SetPref(j, std::move(made).ValueOrDie()).ok()) {
      return std::nullopt;
    }
  }
  return out;
}

constexpr const char* kRoutes[3] = {"hybrid", "asfs", "sfsd"};

struct Samples {
  std::map<std::string, std::vector<double>> values;
  void Add(const std::string& name, double v) { values[name].push_back(v); }
  double P(const std::string& name, double p) const {
    auto it = values.find(name);
    return it == values.end() ? 0 : Percentile(it->second, p);
  }
  size_t N(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? 0 : it->second.size();
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

Result<std::vector<std::unique_ptr<Replica>>> BuildReplicas(
    const Inputs& in) {
  std::vector<std::unique_ptr<Replica>> out(kServers);
  std::vector<Status> statuses(kServers);
  std::vector<std::thread> builders;
  for (size_t s = 0; s < kServers; ++s) {
    builders.emplace_back([&, s] {
      auto replica = std::make_unique<Replica>();
      std::istringstream bytes(in.images[s]);
      auto image = ShardImage::Load(bytes, "shard image");
      if (!image.ok()) {
        statuses[s] = image.status();
        return;
      }
      replica->tmpl = std::make_unique<PreferenceProfile>(image->schema);
      replica->pool = std::make_unique<ThreadPool>(1);
      auto engine = ShardedEngine::CreateFromImage(
          "hybrid", std::move(image).ValueOrDie(), *replica->tmpl,
          ServerEngineOptions(replica->pool.get()));
      statuses[s] = engine.status();
      if (engine.ok()) replica->engine = std::move(engine).ValueOrDie();
      out[s] = std::move(replica);
    });
  }
  for (auto& t : builders) t.join();
  for (const Status& status : statuses) NOMSKY_RETURN_NOT_OK(status);
  return out;
}

Result<std::vector<Metric>> ReplayLayers(
    const Inputs& in, const LiveResult& live,
    const std::vector<std::unique_ptr<Replica>>& replicas, Tracer* tracer) {
  const Schema& schema = in.data.schema();
  const bool served = Served(in.workload);

  // The set-up figures this workload's live path does not make: the
  // served stack's bootstrap, connect and live refresh on local-batch, and
  // the `auto` engine build (below) on the served workloads.
  if (!served) NOMSKY_RETURN_NOT_OK(ProbeClusterSetup(in, tracer));

  // Planner and route engines over the full table, with the CLI's options.
  ThreadPool pool(kBatchThreads);
  QueryHistory history(schema, /*window=*/512);
  const EngineOptions options = LocalEngineOptions(&pool, &history);
  std::unique_ptr<SkylineEngine> auto_engine;
  {
    ScopedSpan span(served ? tracer : nullptr, "setup.build", 0);
    NOMSKY_ASSIGN_OR_RETURN(
        auto_engine,
        EngineRegistry::Global().Create("auto", in.data, in.tmpl, options));
  }
  const auto* planner_engine =
      dynamic_cast<const AutoEngine*>(auto_engine.get());
  if (planner_engine == nullptr) {
    return Status::Internal("registry 'auto' is not an AutoEngine");
  }
  std::unique_ptr<SkylineEngine> routes[3];
  for (size_t r = 0; r < 3; ++r) {
    NOMSKY_ASSIGN_OR_RETURN(
        routes[r], EngineRegistry::Global().Create(kRoutes[r], in.data,
                                                   in.tmpl, options));
  }

  ResultCache::Options cache_options;
  cache_options.capacity = served ? kServedCacheCapacity : kLocalCacheCapacity;
  ResultCache cache(schema, cache_options);
  Echo echo;
  Samples samples;
  size_t tree_hits = 0, fallbacks = 0;
  struct Probe {
    PreferenceProfile query;
    std::string route;  // the local path's route; empty when served
  };
  std::vector<Probe> probed;  // the first kRouteQueries replayed misses
  struct Covered {
    const Request* request;
    int64_t span;  // its replay.request span
  };
  std::vector<Covered> covered_requests;

  std::vector<const Request*> stream;
  size_t queries = 0;
  for (auto it = live.warmup.rbegin();
       it != live.warmup.rend() && queries < kReplayPrefix; ++it) {
    stream.push_back(&*it);
    queries += it->queries.size();
  }
  std::reverse(stream.begin(), stream.end());
  const size_t warmup = stream.size();
  queries = 0;
  for (const Request& r : live.requests) {
    if (queries >= kReplayQueries) break;
    stream.push_back(&r);
    queries += r.queries.size();
  }

  for (size_t i = 0; i < stream.size(); ++i) {
    const Request& r = *stream[i];
    if (!r.status.ok()) continue;
    const bool traced = i >= warmup;
    Tracer* t = traced ? tracer : nullptr;
    ScopedSpan request_span(t, "replay.request", r.id);
    // Children of the request are the calls on this workload's own path.
    const int64_t parent = request_span.id();
    const int64_t served_parent = served ? parent : -1;

    for (size_t j = 0; j < r.queries.size(); ++j) {
      const uint32_t q = r.queries[j];

      Result<PreferenceProfile> parsed = [&] {
        ScopedSpan span(t, "order.parse", r.id, served_parent);
        return PreferenceProfile::ParseText(
            schema, serve::CanonicalQueryText(in.texts[q]));
      }();
      NOMSKY_RETURN_NOT_OK(parsed.status());
      NOMSKY_ASSIGN_OR_RETURN(PreferenceProfile effective,
                              parsed->CombineWithTemplate(in.tmpl));
      history.Record(*parsed);

      const uint64_t generation = cache.generation();
      double start = NowMicros();
      std::optional<ResultCache::Answer> answer = cache.Lookup(effective);
      double end = NowMicros();
      const CacheVerdict verdict =
          answer.has_value() ? answer->verdict : CacheVerdict::kMiss;
      if (t != nullptr) {
        t->Record(std::string("cache.lookup_") + CacheVerdictName(verdict),
                  r.id, parent, start, end);
      }

      {
        ScopedSpan span(t, "planner.choose", r.id, -1);
        (void)planner_engine->planner().Choose(*parsed);
      }
      if (verdict != CacheVerdict::kMiss) continue;
      if (!served) {
        // The local path's engine call: the `auto` engine routes (adaptive,
        // as the CLI runs it) and answers.
        PlanDecision decision;
        {
          ScopedSpan span(t, "planner.dispatch", r.id, parent);
          NOMSKY_RETURN_NOT_OK(
              planner_engine->QueryExplained(*parsed, &decision).status());
        }
        if (traced && probed.size() < kRouteQueries) {
          probed.push_back({*parsed, decision.engine});
        }
      } else if (traced && probed.size() < kRouteQueries) {
        probed.push_back({*parsed, ""});
      }

      // The served fan-out: each backend's shard query and its reply
      // through the wire, then the cross-backend merge.
      struct Reply {
        PackedBlock block;
        std::optional<Dataset> data;
        std::vector<RowId> ids, identity;
      };
      std::vector<Reply> replies(kServers);
      for (size_t s = 0; s < kServers; ++s) {
        const ShardedEngine& engine = *replicas[s]->engine;
        const size_t hits_before = engine.tree_hits_total();
        PackedBlock rows;
        start = NowMicros();
        NOMSKY_RETURN_NOT_OK(engine.QueryServed(effective, &rows).status());
        end = NowMicros();
        const bool tree = engine.tree_hits_total() > hits_before;
        (tree ? tree_hits : fallbacks) += 1;
        if (t != nullptr) {
          t->Record("shard.query", r.id, served_parent, start, end);
          t->Record(tree ? "core.tree_query" : "core.fallback_query", r.id,
                    -1, start, end);
          samples.Add("shard.answer_rows", static_cast<double>(rows.size()));
        }
        std::string payload;
        {
          ScopedSpan span(t, "wire.encode", r.id, served_parent);
          std::ostringstream out;
          BinaryWriter writer(out);
          rows.WriteTo(writer);
          payload = std::move(out).str();
        }
        if (t != nullptr) {
          samples.Add("wire.reply_bytes", static_cast<double>(payload.size()));
          ScopedSpan span(t, "wire.rtt", r.id, served_parent);
          NOMSKY_RETURN_NOT_OK(echo.RoundTrip(payload));
        }
        {
          ScopedSpan span(t, "wire.decode", r.id, served_parent);
          std::istringstream bytes(payload);
          BinaryReader reader(bytes);
          if (!replies[s].block.ReadFrom(reader, kRows, 0)) {
            return Status::Internal("replayed reply does not decode");
          }
          NOMSKY_ASSIGN_OR_RETURN(
              Dataset values,
              DatasetFromNeutralPacked(schema, replies[s].block, "reply"));
          replies[s].data.emplace(std::move(values));
        }
        for (size_t k = 0; k < replies[s].block.size(); ++k) {
          replies[s].ids.push_back(replies[s].block.row_id(k));
          replies[s].identity.push_back(static_cast<RowId>(k));
        }
      }
      std::vector<ShardSpan> spans;
      size_t candidates = 0;
      for (const Reply& reply : replies) {
        spans.push_back(ShardSpan{&*reply.data, &reply.block,
                                  &reply.identity, &reply.ids});
        candidates += reply.ids.size();
      }
      std::vector<RowId> merged;
      {
        ScopedSpan span(t, "merge", r.id, served_parent);
        merged = MergeShardSkylines(effective, spans);
      }
      if (t != nullptr) {
        samples.Add("merge.candidates", static_cast<double>(candidates));
        samples.Add("merge.survivors", static_cast<double>(merged.size()));
      }
      PackedBlock winners;
      {
        ScopedSpan span(t, "merge.gather", r.id, served_parent);
        std::map<RowId, std::pair<size_t, size_t>> where;
        for (size_t s = 0; s < kServers; ++s) {
          for (size_t k = 0; k < replies[s].ids.size(); ++k) {
            where[replies[s].ids[k]] = {s, k};
          }
        }
        winners.Reset(replies[0].block.stride());
        for (RowId g : merged) {
          const auto& [s, k] = where.at(g);
          winners.AppendRaw(replies[s].block.row(k), g);
        }
      }
      {
        ScopedSpan span(t, "cache.insert", r.id, parent);
        cache.Insert(effective, generation, merged, winners);
      }
      if (t != nullptr) {
        // Probes on a private cache holding only this answer: an exact
        // hit, and a one-step refinement answered by refiltering it.
        ResultCache probe(schema, ResultCache::Options{});
        probe.Insert(effective, probe.generation(), merged, winners);
        {
          ScopedSpan span(t, "cache.probe_hit", r.id, -1);
          (void)probe.Lookup(effective);
        }
        if (auto refined = Refined(effective)) {
          ScopedSpan span(t, "cache.probe_refilter", r.id, -1);
          (void)probe.Lookup(*refined);
        }
      }
    }
    if (traced) covered_requests.push_back({&r, parent});
  }

  // Planner probe, after the replay so that it does not disturb the caches
  // the replayed calls run in: each probed query on every route. The route
  // taken is the local path's own on local-batch, and the `auto` engine's
  // (adaptive, as the CLI runs it) elsewhere; the planner's regret is its
  // time over the fastest route's.
  std::map<std::string, size_t> chosen;
  std::vector<double> regrets;
  for (Probe& probe : probed) {
    if (served) {
      PlanDecision decision;
      NOMSKY_RETURN_NOT_OK(
          planner_engine->QueryExplained(probe.query, &decision).status());
      probe.route = decision.engine;
    }
    ++chosen[probe.route];
    double times[3] = {0, 0, 0};
    for (size_t k = 0; k < 3; ++k) {
      ScopedSpan span(tracer, std::string("route.") + kRoutes[k], k);
      const double start = NowMicros();
      NOMSKY_RETURN_NOT_OK(routes[k]->Query(probe.query).status());
      times[k] = NowMicros() - start;
    }
    const double fastest = *std::min_element(times, times + 3);
    for (size_t k = 0; k < 3; ++k) {
      if (probe.route == kRoutes[k] && fastest > 0) {
        regrets.push_back(times[k] / fastest);
      }
    }
  }

  // Refresh probes on replica 0: the image load and the rebuild a kRefresh
  // frame makes the server do.
  for (size_t k = 0; k < 2; ++k) {
    const std::string& bytes = in.images[0];
    samples.Add("refresh.image_bytes", static_cast<double>(bytes.size()));
    Result<ShardImage> image = [&] {
      ScopedSpan span(tracer, "refresh.image_load", k);
      std::istringstream stream_bytes(bytes);
      return ShardImage::Load(stream_bytes, "refresh image");
    }();
    NOMSKY_RETURN_NOT_OK(image.status());
    ShardImage::Shard& shard = image->shards[0];
    ScopedSpan span(tracer, "refresh.rebuild", k);
    NOMSKY_RETURN_NOT_OK(replicas[0]->engine->RebuildShard(
        0, std::move(shard.data), std::move(shard.global_rows)));
  }

  // Per-request residual: the live span minus what the replay reproduced.
  // Served, that is the time the request's replayed children cover. On
  // local-batch a batch's queries run on the executor's pool, so it is the
  // wall time of the batch's local path (cache lookup, the `auto` engine,
  // pack and insert into a cache of the live capacity) replayed on a pool
  // of the same size, as RunBatch runs it.
  std::map<uint64_t, double> live_us;
  for (const Span& span : tracer->spans()) {
    if (span.name == "serve.execute") live_us[span.request] =
        span.duration_us();
  }
  std::map<uint64_t, double> batch_us;
  if (!served) {
    ResultCache batch_cache(schema, cache_options);
    const CompiledProfile neutral(schema, PreferenceProfile(schema));
    for (const Covered& c : covered_requests) {
      if (live_us.count(c.request->id) == 0) continue;
      const std::vector<uint32_t>& qs = c.request->queries;
      std::vector<Status> statuses(qs.size());
      const double start = NowMicros();
      ParallelFor(&pool, qs.size(), [&](size_t j) {
        const PreferenceProfile& query = in.pool[qs[j]];
        Result<PreferenceProfile> effective =
            query.CombineWithTemplate(in.tmpl);
        if (!effective.ok()) {
          statuses[j] = effective.status();
          return;
        }
        const uint64_t generation = batch_cache.generation();
        if (batch_cache.Lookup(*effective).has_value()) return;
        Result<std::vector<RowId>> rows = auto_engine->Query(query);
        if (!rows.ok()) {
          statuses[j] = rows.status();
          return;
        }
        PackedBlock winners;
        winners.Pack(neutral, in.data, *rows);
        batch_cache.Insert(*effective, generation, *rows, winners);
        history.Record(query);
      });
      const double end = NowMicros();
      for (const Status& status : statuses) NOMSKY_RETURN_NOT_OK(status);
      tracer->Record("replay.batch", c.request->id, -1, start, end);
      batch_us[c.request->id] = end - start;
    }
  }
  const std::vector<double> coverage = tracer->ChildCoverage();
  for (const Covered& c : covered_requests) {
    auto it = live_us.find(c.request->id);
    if (it == live_us.end()) continue;
    const double reproduced =
        served ? coverage[static_cast<size_t>(c.span)]
               : batch_us[c.request->id];
    samples.Add("serve.residual_us", it->second - reproduced);
  }

  size_t answered = 0, from_cache = 0;
  for (const Request& r : live.requests) {
    for (CacheVerdict v : r.verdicts) {
      ++answered;
      if (v != CacheVerdict::kMiss) ++from_cache;
    }
  }

  std::vector<Metric> m;
  auto p50 = [&](const std::string& metric, const std::string& span,
                 double scale, const std::string& unit) {
    const std::vector<double> d = tracer->Durations(span);
    m.push_back({metric, Percentile(d, 0.5) * scale, unit, d.size()});
  };
  auto sample = [&](const std::string& metric, const std::string& unit,
                    double p = 0.5) {
    m.push_back({metric, samples.P(metric, p), unit, samples.N(metric)});
  };
  const LiveCounters& c = live.counters;
  const double lookups = static_cast<double>(c.lookups);

  p50("order.parse_us", "order.parse", 1, "us");
  m.push_back({"cache.exact_hit_ratio", Ratio(c.exact_hits, lookups),
               "ratio", c.lookups});
  m.push_back({"cache.subsumed_hit_ratio", Ratio(c.subsumed_hits, lookups),
               "ratio", c.lookups});
  p50("cache.hit_us", "cache.probe_hit", 1, "us");
  p50("cache.refilter_us", "cache.probe_refilter", 1, "us");
  p50("cache.miss_us", "cache.lookup_miss", 1, "us");
  p50("cache.insert_us", "cache.insert", 1, "us");
  m.push_back({"cache.evictions_per_1k", 1e3 * Ratio(c.evictions, lookups),
               "per_1k", c.lookups});
  m.push_back({"cache.invalidations", static_cast<double>(c.invalidations),
               "count", 1});
  p50("shard.query_us", "shard.query", 1, "us");
  {
    const std::vector<double> d = tracer->Durations("shard.query");
    m.push_back({"shard.query_p99_us", Percentile(d, 0.99), "us", d.size()});
  }
  sample("shard.answer_rows", "rows");
  m.push_back({"core.tree_hit_ratio",
               Ratio(tree_hits, static_cast<double>(tree_hits + fallbacks)),
               "ratio", tree_hits + fallbacks});
  p50("core.tree_query_us", "core.tree_query", 1, "us");
  p50("core.fallback_query_us", "core.fallback_query", 1, "us");
  sample("wire.reply_bytes", "bytes");
  p50("wire.encode_us", "wire.encode", 1, "us");
  p50("wire.decode_us", "wire.decode", 1, "us");
  p50("wire.rtt_us", "wire.rtt", 1, "us");
  p50("merge.us", "merge", 1, "us");
  sample("merge.candidates", "rows");
  sample("merge.survivors", "rows");
  p50("serve.execute_us", "serve.execute", 1, "us");
  sample("serve.residual_us", "us");
  m.push_back({"serve.shed", static_cast<double>(c.shed), "count", 1});
  m.push_back({"serve.retries", static_cast<double>(c.retries), "count", 1});
  m.push_back(
      {"serve.failures", static_cast<double>(c.failures), "count", 1});
  m.push_back({"server.parse_cache_hit_ratio",
               Ratio(c.server_parse_hits,
                     c.server_parse_hits + c.server_parse_misses),
               "ratio", c.server_parse_hits + c.server_parse_misses});
  sample("refresh.image_bytes", "bytes");
  p50("refresh.image_load_ms", "refresh.image_load", 1e-3, "ms");
  p50("refresh.rebuild_ms", "refresh.rebuild", 1e-3, "ms");
  p50("refresh.live_ms", "refresh.live", 1e-3, "ms");
  p50("setup.bootstrap_ms", "setup.bootstrap", 1e-3, "ms");
  p50("setup.connect_ms", "setup.connect", 1e-3, "ms");
  p50("setup.build_ms", "setup.build", 1e-3, "ms");
  p50("planner.choose_us", "planner.choose", 1, "us");
  // Route shares: live dispatch on local-batch; the replayed `auto`
  // engine's routes where no planner is on the served path.
  const double dispatched = static_cast<double>(
      c.dispatch_hybrid + c.dispatch_asfs + c.dispatch_sfsd +
      c.dispatch_sharded);
  size_t routed_count = 0;
  for (const auto& [route, n] : chosen) routed_count += n;
  const double routed = static_cast<double>(routed_count);
  auto share = [&](const char* route, uint64_t live_count) {
    const double v = served ? Ratio(chosen[route], routed)
                            : Ratio(live_count, dispatched);
    m.push_back({std::string("planner.share.") + route, v, "ratio",
                 served ? routed_count : static_cast<size_t>(dispatched)});
  };
  share("hybrid", c.dispatch_hybrid);
  share("asfs", c.dispatch_asfs);
  share("sfsd", c.dispatch_sfsd);
  share("sharded", c.dispatch_sharded);
  for (const char* route : kRoutes) {
    p50(std::string("route.") + route + "_us", std::string("route.") + route,
        1, "us");
  }
  // The mean, not the median: a planner that is usually right and sometimes
  // far off should read worse than one that is always right.
  double regret_sum = 0;
  for (double r : regrets) regret_sum += r;
  m.push_back({"planner.regret", Ratio(regret_sum, regrets.size()), "ratio",
               regrets.size()});
  m.push_back({"executor.cache_hit_ratio",
               Ratio(from_cache, static_cast<double>(answered)), "ratio",
               answered});
  // Tracing overhead: the window's requests alternate between a live span
  // and none, so both groups share the window; and the cost of one span,
  // opened and closed in a tight loop.
  m.push_back({"trace.overhead_pct",
               100 * Ratio(live.traced_p50_ms - live.untraced_p50_ms,
                           live.untraced_p50_ms),
               "pct", live.requests.size()});
  {
    constexpr size_t kSpans = 100'000;
    Tracer loop;
    const double start = NowMicros();
    for (size_t k = 0; k < kSpans; ++k) {
      ScopedSpan span(&loop, "serve.execute", k);
    }
    m.push_back({"trace.span_ns", 1e3 * (NowMicros() - start) / kSpans, "ns",
                 kSpans});
  }
  return m;
}

}  // namespace perfbench
