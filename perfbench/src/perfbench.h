// Shared declarations of the end-to-end benchmark (see perfbench/README.md
// for the workloads, the metrics and what each metric should move).
//
// A run is one process: it derives every input from (workload, seed), sets
// the system up, drives it closed-loop for a fixed time with one request in
// flight, so that the process's CPU time over a request is that request's
// cost, checks every answer against an SFS-D oracle over the full table, and
// prints one JSON line.
// With tracing on, a separate run also replays the same request stream
// through each layer's public calls and reports per-layer figures.

#ifndef NOMSKY_PERFBENCH_PERFBENCH_H_
#define NOMSKY_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/status.h"
#include "core/query_history.h"
#include "exec/engine_registry.h"
#include "exec/result_cache.h"
#include "exec/sharded_engine.h"
#include "exec/thread_pool.h"
#include "order/preference_profile.h"
#include "trace.h"

namespace perfbench {

using nomsky::RowId;

enum class Workload { kServeHot, kServeCold, kLocalBatch };

const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* workload);
inline bool Served(Workload w) { return w != Workload::kLocalBatch; }

// Sizing. The table is the paper's Table 4 generator default (gen::GenConfig)
// at kRows rows; everything else is fixed here so that a run's traffic is a
// function of the workload and the seed alone.
inline constexpr size_t kRows = 40'000;
inline constexpr size_t kServers = 2;
inline constexpr size_t kHotPool = 512;        // serve-hot, 4x the cache
inline constexpr size_t kColdPool = 1024;      // serve-cold, 8x the cache
inline constexpr size_t kBatchPool = 1024;     // local-batch, 16x the cache
inline constexpr size_t kBatchSize = 16;
inline constexpr size_t kBatchThreads = 2;
inline constexpr size_t kLocalCacheCapacity = 64;   // the CLI's local default
inline constexpr size_t kServedCacheCapacity = 128; // ServingExecutor default
inline constexpr size_t kHotBlock = 512;            // serve-hot stream block
inline constexpr size_t kStreamLength = 1 << 16;    // serve-hot, reused
inline constexpr size_t kSetupRepeats = 3;
inline constexpr size_t kWarmupRequests = 32;       // served workloads
inline constexpr double kReferencePeriodUs = 50'000;  // see TimeReferenceUnit

/// \brief The CLI's `--engine auto --threads 2` options: the local-batch
/// engine, and the replay's planner and route engines.
nomsky::EngineOptions LocalEngineOptions(nomsky::ThreadPool* pool,
                                         const nomsky::QueryHistory* history);

/// \brief The options ShardServer::Bootstrap builds a server's engine with
/// (the CLI's `--serve` defaults): the replay's replica engines.
nomsky::EngineOptions ServerEngineOptions(nomsky::ThreadPool* pool);

/// \brief Everything a run sends, derived from (workload, seed) only.
struct Inputs {
  Workload workload = Workload::kServeHot;
  nomsky::Dataset data;  // the table
  nomsky::PreferenceProfile tmpl;  // empty when served; paper default local
  std::vector<nomsky::PreferenceProfile> pool;  // distinct queries
  std::vector<std::string> texts;               // canonical text of pool[i]
  /// stream[k] = pool index of the k-th query sent (wraps around).
  std::vector<uint32_t> stream;
  std::vector<std::string> images;  // per-server single-shard image bytes
  uint64_t fingerprint = 0;         // over data, pool, stream, images

  uint32_t At(size_t k) const { return stream[k % stream.size()]; }

  explicit Inputs(const nomsky::Schema& schema) : data(schema) {}
};

std::unique_ptr<Inputs> MakeInputs(Workload workload, uint64_t seed);

/// \brief One closed-loop request: one Execute, or one RunBatch.
struct Request {
  uint64_t id = 0;  // its position among the run's requests
  double start_us = 0, end_us = 0;
  double cpu_us = 0;  // the process's CPU time over the request
  nomsky::Status status;
  bool traced = false;  // its live call has a span (traced runs)
  std::vector<uint32_t> queries;              // pool indices
  std::vector<uint64_t> answers;              // RowSetHash per query when ok
  std::vector<nomsky::CacheVerdict> verdicts; // one per query when ok
  double latency_ms() const { return (end_us - start_us) / 1e3; }
  /// CPU time per query (a batch's is shared equally by its queries).
  double cpu_ms_per_query() const {
    return cpu_us / 1e3 / static_cast<double>(queries.size());
  }
};

/// \brief CPU time (µs) of one unit of the host-speed reference.
struct ReferenceUnit {
  double compute_us = 0, small_ops_us = 0;
  double total_us() const { return compute_us + small_ops_us; }
};

/// \brief Runs one unit of the host-speed reference, fixed work that is
/// part of the benchmark (src/reference.cc). Timed between the window's
/// requests, it tracks how fast the host runs at the time, which on a
/// shared host swings by 2x within minutes; the gated read costs are
/// expressed in its units.
ReferenceUnit TimeReferenceUnit();

/// \brief Layer counters sampled around the timed window.
struct LiveCounters {
  uint64_t lookups = 0, exact_hits = 0, subsumed_hits = 0, evictions = 0,
           invalidations = 0;
  uint64_t shed = 0, retries = 0, failures = 0;
  uint64_t server_parse_hits = 0, server_parse_misses = 0;
  uint64_t dispatch_hybrid = 0, dispatch_asfs = 0, dispatch_sfsd = 0,
           dispatch_sharded = 0;
};

/// \brief What a live phase produced.
struct LiveResult {
  std::vector<double> setup_seconds;  // one per setup repeat
  double index_mb = 0;
  double window_seconds = 0;  // window start to the last reply
  std::vector<Request> requests;  // timed window only, in order
  std::vector<Request> warmup;    // before the window, in order
  /// CPU time (µs) of each reference unit run in the window, one after the
  /// first request that ends kReferencePeriodUs or more after the last.
  std::vector<ReferenceUnit> reference;
  LiveCounters counters;
  // Traced runs: median latency of the window's requests with and
  // without a live span (they alternate).
  double traced_p50_ms = 0, untraced_p50_ms = 0;
};

struct RunOptions {
  double seconds = 10;
  bool trace = false;
  bool corrupt_reply = false;  // self-test: the oracle must catch this
};

/// \brief Sets the system up (kSetupRepeats times), warms it, and drives
/// the timed window. With tracing, every other request has a live span, so
/// the run can report tracing overhead, and a served run then refreshes
/// server 0 once through the live front-end (span "refresh.live").
nomsky::Result<LiveResult> RunLive(const Inputs& inputs,
                                   const RunOptions& options, Tracer* tracer);

/// \brief Compares every answer with the SFS-D answer over the full table.
/// Returns, per request, how many of its answers are wrong.
std::vector<size_t> WrongAnswers(const Inputs& inputs,
                                 const std::vector<Request>& requests);

/// \brief Starts the served stack once more (spans only), refreshes server
/// 0 through it and stops it: the set-up and refresh figures of a workload
/// whose live path has no servers.
nomsky::Status ProbeClusterSetup(const Inputs& inputs, Tracer* tracer);

/// \brief One server's engine, rebuilt from the same image with the
/// options ShardServer::Bootstrap uses: the replay's shard layer, and the
/// served workloads' index size.
struct Replica {
  std::unique_ptr<nomsky::PreferenceProfile> tmpl;  // outlives the engine
  std::unique_ptr<nomsky::ThreadPool> pool;
  std::unique_ptr<nomsky::ShardedEngine> engine;
};

nomsky::Result<std::vector<std::unique_ptr<Replica>>> BuildReplicas(
    const Inputs& inputs);

/// \brief A named figure with its unit and the samples behind it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

/// \brief Replays the live stream through each layer's public calls and
/// derives the per-layer metrics.
nomsky::Result<std::vector<Metric>> ReplayLayers(
    const Inputs& inputs, const LiveResult& live,
    const std::vector<std::unique_ptr<Replica>>& replicas, Tracer* tracer);

/// \brief Linear-interpolation-free percentile: the value at rank
/// ceil(p * n) of the sorted samples (0 for no samples).
double Percentile(std::vector<double> values, double p);

/// \brief Order-free hash of an answer's row set (a sum of mixed ids), so
/// every reply can be kept for the oracle without keeping its rows.
uint64_t RowSetHash(const std::vector<RowId>& rows);

/// \brief 64-bit FNV-1a, chainable.
uint64_t Fnv(const void* data, size_t bytes,
             uint64_t hash = 0xcbf29ce484222325ULL);

}  // namespace perfbench

#endif  // NOMSKY_PERFBENCH_PERFBENCH_H_
