#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/adaptive_sfs.h"
#include "core/ipo_tree.h"
#include "datagen/generator.h"
#include "dominance/kernel_simd.h"
#include "skyline/sfs_direct.h"

namespace nomsky {
namespace bench {

double EnvScale() {
  const char* env = std::getenv("NOMSKY_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

size_t EnvQueries(size_t fallback) {
  const char* env = std::getenv("NOMSKY_QUERIES");
  if (env == nullptr) return fallback;
  long q = std::atol(env);
  return q > 0 ? static_cast<size_t>(q) : fallback;
}

size_t ScaledRows(size_t base) {
  double scaled = static_cast<double>(base) * EnvScale();
  return scaled < 500.0 ? 500 : static_cast<size_t>(scaled);
}

namespace {

std::vector<PreferenceProfile> MakeQueries(const Dataset& data,
                                           const PreferenceProfile& tmpl,
                                           const HarnessOptions& opts) {
  Rng rng(opts.query_seed);
  std::vector<PreferenceProfile> queries;
  queries.reserve(opts.num_queries);
  for (size_t i = 0; i < opts.num_queries; ++i) {
    queries.push_back(gen::RandomImplicitQuery(data, tmpl, opts.order, &rng));
  }
  return queries;
}

template <typename Engine>
EngineMetrics MeasureQueries(const Engine& engine, const char* name,
                             double preprocess_s, size_t storage,
                             const std::vector<PreferenceProfile>& queries,
                             size_t limit, double* avg_sky_size) {
  EngineMetrics metrics;
  metrics.name = name;
  metrics.preprocess_s = preprocess_s;
  metrics.storage_bytes = storage;
  size_t runs = std::min(limit, queries.size());
  if (runs == 0) return metrics;
  double total = 0.0, total_size = 0.0;
  for (size_t i = 0; i < runs; ++i) {
    WallTimer timer;
    auto result = engine.Query(queries[i]);
    total += timer.ElapsedSeconds();
    NOMSKY_CHECK(result.ok()) << name << ": " << result.status().ToString();
    total_size += static_cast<double>(result->size());
  }
  metrics.avg_query_s = total / static_cast<double>(runs);
  if (avg_sky_size != nullptr) {
    *avg_sky_size = total_size / static_cast<double>(runs);
  }
  return metrics;
}

}  // namespace

PointMetrics RunPoint(const Dataset& data, const PreferenceProfile& tmpl,
                      const std::string& label, const HarnessOptions& opts) {
  PointMetrics point;
  point.label = label;
  point.dataset_seed = opts.dataset_seed;
  std::vector<PreferenceProfile> queries = MakeQueries(data, tmpl, opts);

  // SFS-A is always built: it provides SKY(R̃) and the panel-(d) metrics.
  AdaptiveSfsEngine asfs(data, tmpl);
  const size_t sky_size = asfs.sorted_skyline().size();
  point.sky_ratio =
      static_cast<double>(sky_size) / static_cast<double>(data.num_rows());

  double affect_total = 0.0;
  for (const PreferenceProfile& q : queries) {
    affect_total += static_cast<double>(asfs.CountAffected(q).ValueOrDie());
  }
  if (!queries.empty() && sky_size > 0) {
    point.affect_ratio =
        affect_total / static_cast<double>(queries.size() * sky_size);
  }

  double avg_query_sky = 0.0;
  if (opts.run_ipo_full) {
    IpoTreeEngine tree(data, tmpl);
    point.engines.push_back(MeasureQueries(
        tree, "IPO Tree", tree.preprocessing_seconds(), tree.MemoryUsage(),
        queries, queries.size(), nullptr));
  }
  if (opts.run_ipo_topk) {
    IpoTreeEngine::Options tree_opts;
    tree_opts.max_values_per_dim = opts.topk;
    IpoTreeEngine tree(data, tmpl, tree_opts);
    // Queries may reference unmaterialized values; measure only supported
    // ones (the hybrid bench covers the fallback behaviour). Top up with
    // extra random queries so the average is over a real sample.
    std::vector<PreferenceProfile> supported;
    for (const PreferenceProfile& q : queries) {
      if (tree.Query(q).ok()) supported.push_back(q);
    }
    Rng topup_rng(opts.query_seed + 1);
    for (int attempts = 0;
         supported.size() < std::max<size_t>(opts.num_queries / 2, 3) &&
         attempts < 300;
         ++attempts) {
      PreferenceProfile q =
          gen::RandomImplicitQuery(data, tmpl, opts.order, &topup_rng);
      if (tree.Query(q).ok()) supported.push_back(q);
    }
    std::string name = "IPO Tree-" + std::to_string(opts.topk);
    EngineMetrics m = MeasureQueries(tree, name.c_str(),
                                     tree.preprocessing_seconds(),
                                     tree.MemoryUsage(), supported,
                                     supported.size(), nullptr);
    point.engines.push_back(std::move(m));
  }
  if (opts.run_sfsa) {
    point.engines.push_back(MeasureQueries(
        asfs, "SFS-A", asfs.preprocessing_seconds(), asfs.MemoryUsage(),
        queries, queries.size(), &avg_query_sky));
  }
  if (opts.run_sfsd) {
    SfsDirectEngine sfsd(data, tmpl);
    point.engines.push_back(MeasureQueries(sfsd, "SFS-D", 0.0, 0, queries,
                                           opts.sfsd_queries, nullptr));
  }
  if (avg_query_sky == 0.0 && !queries.empty()) {
    // SFS-A disabled: fall back to counting via the first enabled engine.
    avg_query_sky = static_cast<double>(sky_size);
  }
  if (sky_size > 0) {
    point.skyq_ratio = avg_query_sky / static_cast<double>(sky_size);
  }
  return point;
}

namespace {

void PrintPanel(const char* panel_title, const char* unit,
                const std::vector<PointMetrics>& points,
                double (*get)(const EngineMetrics&)) {
  // Column set: union of engine names across points (a point may skip an
  // engine, e.g. the full IPO tree at high dimensionality).
  std::vector<std::string> names;
  for (const auto& p : points) {
    for (const auto& e : p.engines) {
      if (std::find(names.begin(), names.end(), e.name) == names.end()) {
        names.push_back(e.name);
      }
    }
  }
  std::printf("\n  %s\n", panel_title);
  std::printf("    %-12s", "x");
  for (const auto& name : names) std::printf(" %14s", name.c_str());
  std::printf("   [%s]\n", unit);
  for (const auto& p : points) {
    std::printf("    %-12s", p.label.c_str());
    for (const auto& name : names) {
      auto it = std::find_if(p.engines.begin(), p.engines.end(),
                             [&](const EngineMetrics& e) {
                               return e.name == name;
                             });
      if (it == p.engines.end()) {
        std::printf(" %14s", "-");
      } else {
        std::printf(" %14.6g", get(*it));
      }
    }
    std::printf("\n");
  }
}

// Accumulates every figure printed by this process; rewriting the whole
// array on each call keeps the NOMSKY_JSON file valid JSON at all times.
struct RecordedFigure {
  std::string title;
  std::vector<PointMetrics> points;
};

std::vector<RecordedFigure>& RecordedFigures() {
  static std::vector<RecordedFigure> figures;
  return figures;
}

void JsonEscaped(std::FILE* f, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", c);
    } else {
      std::fputc(c, f);
    }
  }
}

void MaybeWriteJson(const std::string& title,
                    const std::vector<PointMetrics>& points) {
  const char* path = std::getenv("NOMSKY_JSON");
  if (path == nullptr || *path == '\0') return;
  RecordedFigures().push_back({title, points});
  // Write-then-rename so the file is never observable half-written.
  const std::string tmp_path = std::string(path) + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "NOMSKY_JSON: cannot open %s for writing\n",
                 tmp_path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  const auto& figures = RecordedFigures();
  for (size_t fi = 0; fi < figures.size(); ++fi) {
    const RecordedFigure& fig = figures[fi];
    std::fprintf(f, "  {\"title\": \"");
    JsonEscaped(f, fig.title);
    // The dispatched dominance kernel tier makes baselines from different
    // hardware recognizable (the regression gate skips cross-tier diffs).
    // "queries" is NOMSKY_QUERIES (0 when unset: each bench's default), so
    // the gate compares query-summed counters only between like runs.
    std::fprintf(f,
                 "\", \"scale\": %.6g, \"queries\": %zu, \"kernel_tier\": "
                 "\"%s\", \"points\": [\n",
                 EnvScale(), EnvQueries(0),
                 KernelTierName(ActiveKernelTier()));
    for (size_t pi = 0; pi < fig.points.size(); ++pi) {
      const PointMetrics& p = fig.points[pi];
      std::fprintf(f, "    {\"label\": \"");
      JsonEscaped(f, p.label);
      std::fprintf(f,
                   "\", \"sky_ratio\": %.9g, \"affect_ratio\": %.9g, "
                   "\"skyq_ratio\": %.9g, \"seed\": %llu, \"engines\": [",
                   p.sky_ratio, p.affect_ratio, p.skyq_ratio,
                   static_cast<unsigned long long>(p.dataset_seed));
      for (size_t ei = 0; ei < p.engines.size(); ++ei) {
        const EngineMetrics& e = p.engines[ei];
        std::fprintf(f, "{\"name\": \"");
        JsonEscaped(f, e.name);
        std::fprintf(f,
                     "\", \"preprocess_s\": %.9g, \"avg_query_s\": %.9g, "
                     "\"storage_bytes\": %zu, \"threads\": %zu",
                     e.preprocess_s, e.avg_query_s, e.storage_bytes,
                     e.threads);
        if (!e.extras.empty()) {
          std::fprintf(f, ", \"extras\": {");
          for (size_t xi = 0; xi < e.extras.size(); ++xi) {
            std::fprintf(f, "\"");
            JsonEscaped(f, e.extras[xi].first);
            std::fprintf(f, "\": %.9g%s", e.extras[xi].second,
                         xi + 1 < e.extras.size() ? ", " : "");
          }
          std::fprintf(f, "}");
        }
        std::fprintf(f, "}%s", ei + 1 < p.engines.size() ? ", " : "");
      }
      std::fprintf(f, "]}%s\n", pi + 1 < fig.points.size() ? "," : "");
    }
    std::fprintf(f, "  ]}%s\n", fi + 1 < figures.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  if (std::rename(tmp_path.c_str(), path) != 0) {
    std::fprintf(stderr, "NOMSKY_JSON: cannot rename %s to %s\n",
                 tmp_path.c_str(), path);
  }
}

}  // namespace

void PrintFigure(const std::string& title,
                 const std::vector<PointMetrics>& points) {
  if (points.empty()) return;
  MaybeWriteJson(title, points);
  std::printf("\n==================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==================================================================\n");

  PrintPanel("(a) preprocessing time", "s", points,
             [](const EngineMetrics& e) { return e.preprocess_s; });
  PrintPanel("(b) query time", "s", points,
             [](const EngineMetrics& e) { return e.avg_query_s; });
  PrintPanel("(c) storage", "MB", points, [](const EngineMetrics& e) {
    return static_cast<double>(e.storage_bytes) / (1024.0 * 1024.0);
  });

  std::printf("\n  (d) dataset properties\n");
  std::printf("    %-12s %18s %24s %22s\n", "x", "|SKY(R)|/|D| %",
              "|AFFECT(R)|/|SKY(R)| %", "|SKY(R')|/|SKY(R)| %");
  for (const auto& p : points) {
    std::printf("    %-12s %18.2f %24.2f %22.2f\n", p.label.c_str(),
                100.0 * p.sky_ratio, 100.0 * p.affect_ratio,
                100.0 * p.skyq_ratio);
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace bench
}  // namespace nomsky
