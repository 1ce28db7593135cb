// Sharded dataset layer: shard-count sweep of sharded:<inner> against the
// unsharded inner engine, recording
//   * build: partition + parallel per-shard index construction wall time
//     vs the serial-equivalent cost (the sum of the per-shard builds; the
//     ratio is the parallel index-build speedup the layer exists for), and
//   * query: mean per-query time, whose delta vs the unsharded engine is
//     the fan-out + skyline-merge overhead, split in the sharded engine's
//     JSON extras into the mean fan-out wall time (fanout_ms), the mean
//     sum of the per-shard engine query times (shard_query_ms; both
//     timings, not gated), and the merge's dominance tests over the query
//     set (merge_dominance_tests, a deterministic work counter that
//     scripts/check_bench_regression.py gates exactly).
//
// Each sweep point lands in BENCH_sharded.json as one PointMetrics with
// two engines: the sharded engine (threads = shard count, since the build
// and fan-out parallelism is per shard) and the unsharded reference.
// Speedup tops out at the machine's core count, recorded in the title.
//
// NOMSKY_SCALE scales the dataset; NOMSKY_QUERIES the queries averaged.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "datagen/generator.h"
#include "exec/engine_registry.h"
#include "exec/sharded_engine.h"
#include "exec/thread_pool.h"
#include "harness.h"

using namespace nomsky;

int main() {
  const uint64_t kDatasetSeed = 42;
  gen::GenConfig config;
  config.num_rows = bench::ScaledRows(40000);
  config.num_numeric = 2;
  config.num_nominal = 3;
  config.cardinality = 10;
  config.distribution = gen::Distribution::kAnticorrelated;
  config.seed = kDatasetSeed;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);

  const size_t num_queries = bench::EnvQueries(8);
  Rng rng(7);
  std::vector<PreferenceProfile> queries;
  queries.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    queries.push_back(gen::RandomImplicitQuery(data, tmpl, /*order=*/2, &rng));
  }

  // Mean per-query seconds; `on_query` (optional) runs after each query.
  auto measure_queries = [&](const SkylineEngine& engine,
                             const std::function<void()>& on_query = {}) {
    double total = 0.0;
    for (const PreferenceProfile& q : queries) {
      WallTimer timer;
      auto rows = engine.Query(q);
      total += timer.ElapsedSeconds();
      if (!rows.ok()) {
        std::fprintf(stderr, "%s: %s\n", engine.name(),
                     rows.status().ToString().c_str());
        std::exit(1);
      }
      if (on_query) on_query();
    }
    return total / static_cast<double>(queries.size());
  };

  std::vector<bench::PointMetrics> points;
  for (const std::string& inner : {std::string("asfs"),
                                   std::string("sfsd")}) {
    // Unsharded reference: one engine over the full table, built serially.
    EngineOptions plain_options;
    auto plain = EngineRegistry::Global().Create(inner, data, tmpl,
                                                 plain_options);
    if (!plain.ok()) {
      std::fprintf(stderr, "%s: %s\n", inner.c_str(),
                   plain.status().ToString().c_str());
      return 1;
    }
    const double plain_build = (*plain)->preprocessing_seconds();
    const double plain_query = measure_queries(**plain);

    for (size_t shards : {1, 2, 4, 8}) {
      ThreadPool pool(shards);
      EngineOptions options;
      options.pool = &pool;
      options.data_shards = shards;
      auto created = ShardedEngine::Create(inner, data, tmpl, options);
      if (!created.ok()) {
        std::fprintf(stderr, "sharded:%s: %s\n", inner.c_str(),
                     created.status().ToString().c_str());
        return 1;
      }
      std::unique_ptr<ShardedEngine> engine = std::move(created).ValueOrDie();
      const double wall_build = engine->preprocessing_seconds();
      const double serial_equiv = engine->shard_build_seconds_total() +
                                  engine->partition_seconds();
      // The merge's dominance tests over the query set (a deterministic
      // work counter) and the fan-out's wall and per-shard engine times.
      size_t merge_tests = 0;
      double fanout_s = 0.0, shard_query_s = 0.0;
      const double avg_query = measure_queries(*engine, [&] {
        merge_tests += engine->last_merge_dominance_tests();
        fanout_s += engine->last_fanout_seconds();
        shard_query_s += engine->last_shard_query_seconds();
      });
      const double n = static_cast<double>(queries.size());

      std::printf(
          "sharded:%-5s x%zu: build %7.1f ms wall (serial-equiv %7.1f ms, "
          "%.2fx), query %8.3f ms vs %8.3f ms unsharded (fan-out %.3f ms "
          "wall, shard engines %.3f ms summed; merge %zu -> %zu rows, %zu "
          "dominance tests over the queries)\n",
          inner.c_str(), shards, 1e3 * wall_build, 1e3 * serial_equiv,
          wall_build > 0.0 ? serial_equiv / wall_build : 0.0,
          1e3 * avg_query, 1e3 * plain_query, 1e3 * fanout_s / n,
          1e3 * shard_query_s / n, engine->last_merge_candidates(),
          engine->last_merge_survivors(), merge_tests);

      bench::PointMetrics point;
      point.label = inner + "/x" + std::to_string(shards);
      point.dataset_seed = kDatasetSeed;

      bench::EngineMetrics sharded_metrics;
      sharded_metrics.name = engine->name();
      sharded_metrics.threads = shards;
      sharded_metrics.preprocess_s = wall_build;
      sharded_metrics.storage_bytes = engine->MemoryUsage();
      sharded_metrics.avg_query_s = avg_query;
      sharded_metrics.extras.emplace_back(
          "merge_dominance_tests", static_cast<double>(merge_tests));
      sharded_metrics.extras.emplace_back("fanout_ms", 1e3 * fanout_s / n);
      sharded_metrics.extras.emplace_back("shard_query_ms",
                                          1e3 * shard_query_s / n);
      point.engines.push_back(sharded_metrics);

      bench::EngineMetrics plain_metrics;
      plain_metrics.name = (*plain)->name();
      plain_metrics.threads = 1;
      plain_metrics.preprocess_s = plain_build;
      plain_metrics.storage_bytes = (*plain)->MemoryUsage();
      plain_metrics.avg_query_s = plain_query;
      point.engines.push_back(plain_metrics);

      points.push_back(point);
    }
  }
  bench::PrintFigure(
      "Sharded datasets: build speedup and merge overhead vs shard count, " +
          std::to_string(data.num_rows()) + " rows, " +
          std::to_string(num_queries) + " queries, " +
          std::to_string(ThreadPool::DefaultThreads()) + " hardware threads",
      points);
  return 0;
}
