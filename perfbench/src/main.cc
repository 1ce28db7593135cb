// nomsky_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE] [--corrupt-reply]
//
// Prints the run's metadata and every metric with its unit and sample
// count, then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when any answer is wrong, 2 on a usage or set-up
// error (without a JSON line).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>

#include "dominance/kernel_simd.h"
#include "perfbench.h"

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Args {
  Workload workload = Workload::kServeHot;
  uint64_t seed = 1;
  RunOptions run;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      if (!ParseWorkload(argv[++i], &args->workload)) return false;
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args->run.seconds = std::atof(argv[++i]);
      if (!(args->run.seconds > 0)) return false;
    } else if (arg == "--trace" && has_value) {
      args->run.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      args->trace_out = argv[++i];
    } else if (arg == "--corrupt-reply") {
      args->run.corrupt_reply = true;
    } else {
      return false;
    }
  }
  return have_workload;
}

// One value per query (a failed or wrong answer counts as +inf): `of` of
// the Execute, or of the RunBatch that carried it.
template <typename Of>
std::vector<double> PerRead(const std::vector<Request>& requests,
                            const std::vector<size_t>& wrong, const Of& of) {
  std::vector<double> out;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    const bool failed = !r.status.ok() || wrong[i] > 0;
    for (size_t j = 0; j < r.queries.size(); ++j) {
      out.push_back(failed ? kInf : of(r));
    }
  }
  return out;
}

size_t Answered(const std::vector<Request>& requests,
                const std::vector<size_t>& wrong) {
  size_t answered = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (r.status.ok()) answered += r.queries.size() - wrong[i];
  }
  return answered;
}

// CPU time of every query (ms), and the median CPU time of one reference
// unit in the window (ms).
struct ReadCosts {
  std::vector<double> cpu_ms;
  double cpu_seconds = 0;  // of the window's requests
  size_t answered = 0;
  double reference_ms = 0;
};

ReadCosts Costs(const LiveResult& live, const std::vector<size_t>& wrong) {
  ReadCosts c;
  c.cpu_ms = PerRead(live.requests, wrong,
                     [](const Request& r) { return r.cpu_ms_per_query(); });
  for (const Request& r : live.requests) c.cpu_seconds += r.cpu_us / 1e6;
  c.answered = Answered(live.requests, wrong);
  std::vector<double> units;
  for (const ReferenceUnit& u : live.reference) units.push_back(u.total_us());
  c.reference_ms = Percentile(units, 0.5) / 1e3;
  return c;
}

// The gated metrics. A read's cost is its CPU time in units of the
// host-speed reference timed in the same window (TimeReferenceUnit): on a
// shared host the CPU time of the same work swings by 2x within minutes,
// and the reference swings with it. Raw CPU and wall-clock figures are
// printed, not gated.
std::vector<Metric> EndToEnd(const LiveResult& live, double index_mb,
                             const std::vector<size_t>& wrong) {
  const ReadCosts c = Costs(live, wrong);
  const double ref = c.reference_ms;
  return {
      {"setup_s", Percentile(live.setup_seconds, 0.5), "s",
       live.setup_seconds.size()},
      {"index_mb", index_mb, "MB", 1},
      {"read_cpu_p50_ref", Percentile(c.cpu_ms, 0.5) / ref, "ref",
       c.cpu_ms.size()},
      {"read_cpu_p95_ref", Percentile(c.cpu_ms, 0.95) / ref, "ref",
       c.cpu_ms.size()},
      {"read_cpu_mean_ref",
       1e3 * c.cpu_seconds / static_cast<double>(c.answered) / ref, "ref",
       c.answered},
  };
}

// Median CPU time (ms) of one part of the reference unit.
double Part(const LiveResult& live, double ReferenceUnit::*part) {
  std::vector<double> us;
  for (const ReferenceUnit& u : live.reference) us.push_back(u.*part);
  return Percentile(us, 0.5) / 1e3;
}

// Raw CPU time, and the reference unit it is divided by.
std::vector<Metric> RawCpu(const LiveResult& live,
                           const std::vector<size_t>& wrong) {
  const ReadCosts c = Costs(live, wrong);
  return {
      {"read_cpu_p50_ms", Percentile(c.cpu_ms, 0.5), "ms", c.cpu_ms.size()},
      {"read_cpu_p95_ms", Percentile(c.cpu_ms, 0.95), "ms", c.cpu_ms.size()},
      {"reads_per_cpu_s", static_cast<double>(c.answered) / c.cpu_seconds,
       "1/s", c.answered},
      {"reference_ms", c.reference_ms, "ms", live.reference.size()},
      {"reference.compute_ms", Part(live, &ReferenceUnit::compute_us), "ms",
       live.reference.size()},
      {"reference.small_ops_ms", Part(live, &ReferenceUnit::small_ops_us),
       "ms", live.reference.size()},
  };
}

// Wall-clock figures: what a caller waits for on this host at this time.
std::vector<Metric> WallClock(const LiveResult& live,
                              const std::vector<size_t>& wrong) {
  const std::vector<double> ms = PerRead(
      live.requests, wrong, [](const Request& r) { return r.latency_ms(); });
  const size_t answered = Answered(live.requests, wrong);
  return {
      {"read_p50_ms", Percentile(ms, 0.5), "ms", ms.size()},
      {"read_p95_ms", Percentile(ms, 0.95), "ms", ms.size()},
      {"read_qps", static_cast<double>(answered) / live.window_seconds, "1/s",
       answered},
  };
}

// JSON has no infinity; a metric that is +inf means most requests failed,
// and such a run is already marked failed.
double Finite(double v) { return std::isfinite(v) ? v : 1e300; }

void PrintJson(bool correct, size_t attempted, size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                Finite(metrics[i].value), metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  const Workload workload = args.workload;
  std::unique_ptr<Inputs> in = MakeInputs(workload, args.seed);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              WorkloadName(workload),
              static_cast<unsigned long long>(args.seed), args.run.seconds,
              args.run.trace ? 1 : 0);
  std::printf(
      "meta kernel_tier=%s nproc=%u rows=%zu numeric=3 nominal=2 "
      "cardinality=20 zipf_theta=1 distribution=anticorrelated servers=%zu "
      "clients=1 served_result_cache=%zu server_parse_cache=256 "
      "local_result_cache=%zu batch=%zu batch_threads=%zu pool=%zu "
      "stream_fingerprint=%016llx\n",
      nomsky::KernelTierName(nomsky::ActiveKernelTier()),
      std::thread::hardware_concurrency(), in->data.num_rows(), kServers,
      kServedCacheCapacity,
      kLocalCacheCapacity, kBatchSize, kBatchThreads, in->pool.size(),
      static_cast<unsigned long long>(in->fingerprint));
  std::fflush(stdout);

  Tracer tracer;
  Tracer* t = args.run.trace ? &tracer : nullptr;
  auto live = RunLive(*in, args.run, t);
  if (!live.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", live.status().ToString().c_str());
    return 2;
  }

  double index_mb = live->index_mb;
  std::vector<std::unique_ptr<Replica>> replicas;
  if (Served(workload) || args.run.trace) {
    auto built = BuildReplicas(*in);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   built.status().ToString().c_str());
      return 2;
    }
    replicas = std::move(built).ValueOrDie();
  }
  if (Served(workload)) {
    size_t bytes = 0;
    for (const auto& replica : replicas) {
      bytes += replica->engine->MemoryUsage();
    }
    index_mb = static_cast<double>(bytes) / 1e6;
  }

  const std::vector<size_t> wrong = WrongAnswers(*in, live->requests);
  const std::vector<size_t> wrong_warmup = WrongAnswers(*in, live->warmup);

  // attempted and failed count the timed window; a wrong answer anywhere,
  // warm-up included, makes the run incorrect.
  size_t attempted = 0, errors = 0, wrong_window = 0, wrong_total = 0;
  for (size_t i = 0; i < live->requests.size(); ++i) {
    const Request& r = live->requests[i];
    attempted += r.queries.size();
    if (!r.status.ok()) errors += r.queries.size();
    wrong_window += wrong[i];
  }
  wrong_total = wrong_window;
  for (size_t w : wrong_warmup) wrong_total += w;
  const size_t failed = errors + wrong_window;
  const bool correct = wrong_total == 0;

  std::vector<Metric> metrics;
  if (!args.run.trace) {
    metrics = EndToEnd(*live, index_mb, wrong);
  } else {
    auto layers = ReplayLayers(*in, *live, replicas, &tracer);
    if (!layers.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   layers.status().ToString().c_str());
      return 2;
    }
    metrics = std::move(layers).ValueOrDie();
    if (!args.trace_out.empty() && !tracer.WriteCsv(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 2;
    }
  }

  for (const Metric& m : metrics) {
    std::printf("metric %-32s %14.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  if (!args.run.trace) {
    std::vector<Metric> printed = RawCpu(*live, wrong);
    for (Metric& m : WallClock(*live, wrong)) printed.push_back(std::move(m));
    for (const Metric& m : printed) {
      std::printf("metric %-32s %14.6g %-6s n=%zu\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.samples);
    }
  }
  std::printf("metric %-32s %14.6g %-6s n=%zu (%zu errors, %zu wrong)\n",
              "failed_ratio",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              "ratio", attempted, errors, wrong_total);
  // Figures that exist on one workload only, so they are reported but not
  // part of the JSON, whose metrics every workload must have.
  if (workload == Workload::kLocalBatch) {
    std::vector<double> ms;
    for (size_t i = 0; i < live->requests.size(); ++i) {
      const Request& r = live->requests[i];
      ms.push_back(r.status.ok() && wrong[i] == 0 ? r.latency_ms() : kInf);
    }
    std::printf("metric %-32s %14.6g %-6s n=%zu\n", "batch_p50_ms",
                Percentile(ms, 0.5), "ms", ms.size());
    std::printf("metric %-32s %14.6g %-6s n=%zu\n", "batch_p95_ms",
                Percentile(ms, 0.95), "ms", ms.size());
  }
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nomsky_perfbench --workload serve-hot|serve-cold|"
                 "local-batch --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--corrupt-reply]\n");
    return 2;
  }
  return perfbench::Run(args);
}
