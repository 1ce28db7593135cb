// nomsky_cli: command-line skyline querying over CSV data.
//
// Usage:
//   nomsky_cli --csv FILE --schema SPEC [--template PREFS]
//              [--engine NAME|auto|sharded:NAME] [--threads N] [--shards K]
//              [--batch FILE] [--explain] [--topk K] [--limit N]
//              [--result-cache N] [--no-adaptive]
//              [--save-shards FILE] [--load-shards FILE]
//              [--split-shards PREFIX] [QUERY ...]
//   nomsky_cli --load-shards FILE [--template PREFS] [QUERY ...]
//   nomsky_cli --serve PORT [--load-shards FILE] [--engine sharded:NAME]
//              [--rematerialize-threshold X] [--rematerialize-cooldown N]
//   nomsky_cli --connect HOST:PORT[,HOST:PORT...] [--push-image FILE]
//              [--refresh SHARD:FILE] [--rematerialize [K]] [--stats]
//              [--shutdown] [QUERY ...]
//   nomsky_cli --list-engines
//
// SPEC is a comma-separated dimension list:
//   price:min,stars:max,group:nom{T|H|M},airline:nom{G|R|W}
// PREFS / QUERY use the library's preference syntax per dimension,
// separated by ';':
//   "group: T<M<*; airline: G<*"
// Queries come from the command line, from --batch FILE (one per line), or
// from stdin (one per line) when neither is given. For each query the
// matching rows are printed as CSV.
//
// Engines are resolved through the EngineRegistry (--list-engines shows
// them). Command-line / batch-file queries are executed as one batch fanned
// out over --threads worker threads; --engine=auto routes each query
// through the planner, and --explain prints the per-query routing verdict.
// --shards=K partitions the dataset into K shards for the sharded engines
// (--engine=sharded:<inner>, or the auto planner's sharded route).
//
// Shard images (exec/shard_image.h): --save-shards FILE writes a sharded
// engine's snapshots as an immutable image; --load-shards FILE serves
// straight from one. With --csv, the image is validated against the table
// and replaces partition + pack; WITHOUT --csv the image alone is the data
// source — schema, rows and the pre-packed kernel layout all come from the
// file (no --schema, no parse). --split-shards PREFIX writes each shard as
// its own SINGLE-shard image (PREFIX.<s>.nshi) — the per-server slices a
// networked cluster bootstraps from.
//
// Networked serving (serve/shard_server.h, serve/serving_executor.h):
// --serve runs a shard server on 127.0.0.1:PORT (0 = ephemeral; the bound
// address is printed on stdout), optionally preloaded via --load-shards,
// until a Shutdown frame arrives. --connect runs queries against a comma-
// separated server list with ShardedEngine-identical results, or performs
// admin calls: --push-image (bootstrap one server, single endpoint),
// --refresh SHARD:FILE (epoch-swap one shard from a single-shard image),
// --stats (print serving counters), --shutdown (stop every listed server).
//
// Example:
//   nomsky_cli --csv packages.csv --schema "price:min,stars:max,group:nom{T|H|M}" "group: T<M<*"

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/hybrid.h"
#include "core/query_history.h"
#include "datagen/csv.h"
#include "exec/engine_registry.h"
#include "exec/materialization_controller.h"
#include "exec/planner.h"
#include "exec/query_executor.h"
#include "exec/result_cache.h"
#include "exec/shard_image.h"
#include "exec/sharded_engine.h"
#include "exec/thread_pool.h"
#include "net/frame.h"
#include "net/socket.h"
#include "serve/serving_executor.h"
#include "serve/shard_server.h"

namespace nomsky {
namespace {

Result<Schema> ParseSchemaSpec(const std::string& spec) {
  Schema schema;
  for (const std::string& raw : Split(spec, ',')) {
    std::string part = Trim(raw);
    size_t colon = part.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("dimension spec '", part,
                                     "' missing ':kind'");
    }
    std::string name = Trim(part.substr(0, colon));
    std::string kind = Trim(part.substr(colon + 1));
    if (kind == "min") {
      NOMSKY_RETURN_NOT_OK(schema.AddNumeric(name, SortDirection::kMinBetter));
    } else if (kind == "max") {
      NOMSKY_RETURN_NOT_OK(schema.AddNumeric(name, SortDirection::kMaxBetter));
    } else if (kind.rfind("nom{", 0) == 0 && kind.back() == '}') {
      std::string values_text = kind.substr(4, kind.size() - 5);
      std::vector<std::string> values;
      for (const std::string& v : Split(values_text, '|')) {
        values.push_back(Trim(v));
      }
      NOMSKY_RETURN_NOT_OK(schema.AddNominal(name, values));
    } else {
      return Status::InvalidArgument(
          "dimension kind '", kind,
          "' is not one of: min, max, nom{v1|v2|...}");
    }
  }
  if (schema.num_dims() == 0) {
    return Status::InvalidArgument("empty schema spec");
  }
  return schema;
}

Result<std::vector<serve::Endpoint>> ParseEndpoints(const std::string& spec) {
  std::vector<serve::Endpoint> endpoints;
  for (const std::string& raw : Split(spec, ',')) {
    std::string part = Trim(raw);
    if (part.empty()) continue;
    serve::Endpoint endpoint;
    const size_t colon = part.rfind(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("endpoint '", part,
                                     "' is not HOST:PORT");
    }
    endpoint.host = part.substr(0, colon);
    uint64_t port = 0;
    if (endpoint.host.empty() || !ParseU64(part.substr(colon + 1), &port) ||
        port == 0 || port > 65535) {
      return Status::InvalidArgument("endpoint '", part,
                                     "' is not HOST:PORT");
    }
    endpoint.port = static_cast<uint16_t>(port);
    endpoints.push_back(std::move(endpoint));
  }
  if (endpoints.empty()) {
    return Status::InvalidArgument("--connect got no endpoints");
  }
  return endpoints;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open '", path, "'");
  }
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return std::move(bytes).str();
}

// Admin exchanges (push/refresh/stats/shutdown) speak raw frames on a fresh
// connection instead of going through ServingExecutor::Connect — the
// executor's handshake refuses servers with no image loaded, and loading an
// image is exactly what the push path is for.
Result<net::Frame> AdminCall(const serve::Endpoint& endpoint,
                             net::FrameType type, const std::string& payload,
                             net::FrameType expected_reply) {
  NOMSKY_ASSIGN_OR_RETURN(
      net::TcpSocket socket,
      net::TcpSocket::Connect(endpoint.host, endpoint.port));
  NOMSKY_RETURN_NOT_OK(net::SendFrame(socket, type, payload));
  NOMSKY_ASSIGN_OR_RETURN(net::Frame reply,
                          net::RecvFrame(socket, /*deadline_ms=*/30'000));
  if (reply.type == net::FrameType::kError) {
    return Status::Internal(endpoint.host, ":", endpoint.port, ": ",
                            reply.payload);
  }
  if (reply.type != expected_reply) {
    return Status::Internal(endpoint.host, ":", endpoint.port,
                            " answered with a ",
                            net::FrameTypeName(reply.type), " frame");
  }
  return reply;
}

// Where row values are read from for output: the source table when we have
// one, else the sharded engine's snapshots through a global→(shard, local)
// map — the image-only mode has no source table at all.
class RowView {
 public:
  explicit RowView(const Dataset& table) : table_(&table) {}

  RowView(const Schema& schema, const ShardedEngine& engine)
      : schema_(&schema) {
    snaps_.reserve(engine.num_shards());
    where_.assign(static_cast<size_t>(engine.source_rows()), {0, 0});
    for (size_t s = 0; s < engine.num_shards(); ++s) {
      snaps_.push_back(engine.snapshot(s));
      const std::vector<RowId>& globals = snaps_.back()->global_rows;
      for (size_t i = 0; i < globals.size(); ++i) {
        where_[globals[i]] = {s, static_cast<RowId>(i)};
      }
    }
  }

  const Schema& schema() const {
    return table_ != nullptr ? table_->schema() : *schema_;
  }
  double numeric(DimId d, RowId r) const {
    if (table_ != nullptr) return table_->numeric(d, r);
    const auto& [s, local] = where_[r];
    return snaps_[s]->data.numeric(d, local);
  }
  ValueId nominal(DimId d, RowId r) const {
    if (table_ != nullptr) return table_->nominal(d, r);
    const auto& [s, local] = where_[r];
    return snaps_[s]->data.nominal(d, local);
  }

 private:
  const Dataset* table_ = nullptr;
  const Schema* schema_ = nullptr;
  std::vector<std::shared_ptr<const ShardSnapshot>> snaps_;
  std::vector<std::pair<size_t, RowId>> where_;
};

void PrintRows(const RowView& view, const std::vector<RowId>& rows,
               size_t limit) {
  const Schema& schema = view.schema();
  for (DimId d = 0; d < schema.num_dims(); ++d) {
    std::printf("%s%s", d > 0 ? "," : "", schema.dim(d).name().c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < rows.size() && i < limit; ++i) {
    RowId r = rows[i];
    for (DimId d = 0; d < schema.num_dims(); ++d) {
      if (d > 0) std::printf(",");
      const Dimension& dim = schema.dim(d);
      if (dim.is_numeric()) {
        std::printf("%g", view.numeric(d, r));
      } else {
        std::printf("%s", dim.ValueName(view.nominal(d, r)).c_str());
      }
    }
    std::printf("\n");
  }
  if (rows.size() > limit) {
    std::printf("... (%zu more rows; raise --limit)\n", rows.size() - limit);
  }
}

int RunServe(uint16_t port, const std::string& load_shards_path,
             const std::string& engine_name, size_t threads,
             size_t cache_capacity, size_t topk,
             double rematerialize_threshold, size_t rematerialize_cooldown) {
  serve::ShardServer::Options options;
  options.port = port;
  options.threads = threads;
  options.cache_capacity = cache_capacity;
  options.rematerialize_topk = topk;
  options.rematerialize_threshold = rematerialize_threshold;
  options.rematerialize_cooldown = rematerialize_cooldown;
  if (engine_name.rfind("sharded:", 0) == 0) {
    options.inner_engine = engine_name.substr(8);
  }
  serve::ShardServer server(std::move(options));
  if (!load_shards_path.empty()) {
    auto image = ShardImage::Load(load_shards_path);
    if (!image.ok()) {
      std::fprintf(stderr, "shard image: %s\n",
                   image.status().ToString().c_str());
      return 2;
    }
    Status boot = server.Bootstrap(std::move(image).ValueOrDie());
    if (!boot.ok()) {
      std::fprintf(stderr, "bootstrap: %s\n", boot.ToString().c_str());
      return 2;
    }
  }
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve: %s\n", started.ToString().c_str());
    return 2;
  }
  // The bound address goes to STDOUT so scripts can capture an ephemeral
  // port; everything else the server prints goes to stderr.
  std::printf("listening 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  server.WaitUntilStopped();
  const serve::ShardServerStats stats = server.stats();
  std::fprintf(stderr,
               "server stopped: %llu queries (%llu failed), %llu refreshes, "
               "%llu loads, %llu rejected frames, %llu rematerializations\n",
               static_cast<unsigned long long>(stats.queries),
               static_cast<unsigned long long>(stats.query_failures),
               static_cast<unsigned long long>(stats.refreshes),
               static_cast<unsigned long long>(stats.loads),
               static_cast<unsigned long long>(stats.rejected_frames),
               static_cast<unsigned long long>(stats.rematerializations));
  return 0;
}

struct ConnectArgs {
  std::string endpoints_spec;
  std::string push_image_path;
  std::string refresh_spec;  // "SHARD:FILE"
  bool rematerialize = false;
  uint32_t rematerialize_topk = 0;  // 0 = the server's default width
  bool stats = false;
  bool shutdown = false;
  bool explain = false;
  size_t limit = 20;
  size_t cache_capacity = 256;
  size_t result_cache_capacity = 128;
  std::string batch_path;
  std::vector<std::string> query_texts;
};

int RunConnect(ConnectArgs args) {
  auto parsed = ParseEndpoints(args.endpoints_spec);
  if (!parsed.ok()) {
    std::fprintf(stderr, "--connect: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  std::vector<serve::Endpoint> endpoints = std::move(parsed).ValueOrDie();
  bool did_admin = false;

  if (!args.push_image_path.empty()) {
    if (endpoints.size() != 1) {
      std::fprintf(stderr,
                   "--push-image bootstraps ONE server (each holds its own "
                   "slice); got %zu endpoints\n",
                   endpoints.size());
      return 2;
    }
    auto bytes = ReadFileBytes(args.push_image_path);
    if (!bytes.ok()) {
      std::fprintf(stderr, "--push-image: %s\n",
                   bytes.status().ToString().c_str());
      return 2;
    }
    auto reply = AdminCall(endpoints[0], net::FrameType::kLoadShard, *bytes,
                           net::FrameType::kOk);
    if (!reply.ok()) {
      std::fprintf(stderr, "--push-image: %s\n",
                   reply.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "pushed %zu-byte image to %s:%u\n", bytes->size(),
                 endpoints[0].host.c_str(),
                 static_cast<unsigned>(endpoints[0].port));
    did_admin = true;
  }

  if (!args.refresh_spec.empty()) {
    if (endpoints.size() != 1) {
      std::fprintf(stderr, "--refresh targets ONE server; got %zu\n",
                   endpoints.size());
      return 2;
    }
    const size_t colon = args.refresh_spec.find(':');
    uint64_t shard = 0;
    if (colon == std::string::npos ||
        !ParseU64(args.refresh_spec.substr(0, colon), &shard) ||
        shard > UINT32_MAX || colon + 1 >= args.refresh_spec.size()) {
      std::fprintf(stderr, "--refresh wants SHARD:FILE, got '%s'\n",
                   args.refresh_spec.c_str());
      return 2;
    }
    auto bytes = ReadFileBytes(args.refresh_spec.substr(colon + 1));
    if (!bytes.ok()) {
      std::fprintf(stderr, "--refresh: %s\n",
                   bytes.status().ToString().c_str());
      return 2;
    }
    std::ostringstream payload;
    BinaryWriter writer(payload);
    writer.Pod<uint32_t>(static_cast<uint32_t>(shard));
    writer.Bytes(bytes->data(), bytes->size());
    auto reply = AdminCall(endpoints[0], net::FrameType::kRefresh,
                           std::move(payload).str(), net::FrameType::kOk);
    if (!reply.ok()) {
      std::fprintf(stderr, "--refresh: %s\n",
                   reply.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "refreshed shard %ld on %s:%u\n", shard,
                 endpoints[0].host.c_str(),
                 static_cast<unsigned>(endpoints[0].port));
    did_admin = true;
  }

  if (args.rematerialize) {
    // Every listed server re-tunes from its OWN recorded history — each
    // holds a different slice and may see a different query mix.
    for (const serve::Endpoint& endpoint : endpoints) {
      std::ostringstream payload;
      BinaryWriter writer(payload);
      writer.Pod<uint32_t>(args.rematerialize_topk);
      auto reply = AdminCall(endpoint, net::FrameType::kRematerialize,
                             std::move(payload).str(), net::FrameType::kOk);
      if (!reply.ok()) {
        std::fprintf(stderr, "--rematerialize: %s\n",
                     reply.status().ToString().c_str());
        return 1;
      }
      std::istringstream in(reply->payload);
      BinaryReader reader(in);
      uint64_t tree_epoch = 0;
      if (!reader.Pod(&tree_epoch)) {
        std::fprintf(stderr,
                     "--rematerialize: truncated reply from %s:%u\n",
                     endpoint.host.c_str(),
                     static_cast<unsigned>(endpoint.port));
        return 1;
      }
      std::fprintf(stderr,
                   "rematerialized %s:%u (tree epoch %llu)\n",
                   endpoint.host.c_str(),
                   static_cast<unsigned>(endpoint.port),
                   static_cast<unsigned long long>(tree_epoch));
    }
    did_admin = true;
  }

  if (args.stats) {
    for (const serve::Endpoint& endpoint : endpoints) {
      auto reply = AdminCall(endpoint, net::FrameType::kStats, "",
                             net::FrameType::kStatsResult);
      if (!reply.ok()) {
        std::fprintf(stderr, "--stats: %s\n",
                     reply.status().ToString().c_str());
        return 1;
      }
      std::istringstream in(reply->payload);
      BinaryReader reader(in);
      serve::ShardServerStats stats;
      if (!reader.Pod(&stats.queries) ||
          !reader.Pod(&stats.query_failures) ||
          !reader.Pod(&stats.refreshes) || !reader.Pod(&stats.loads) ||
          !reader.Pod(&stats.rejected_frames) ||
          !reader.Pod(&stats.cache_hits) ||
          !reader.Pod(&stats.cache_misses) ||
          !reader.Pod(&stats.rematerializations)) {
        std::fprintf(stderr, "--stats: truncated reply from %s:%u\n",
                     endpoint.host.c_str(),
                     static_cast<unsigned>(endpoint.port));
        return 1;
      }
      std::printf("server %s:%u: queries=%llu failures=%llu refreshes=%llu "
                  "loads=%llu rejected=%llu cache_hits=%llu "
                  "cache_misses=%llu rematerializations=%llu\n",
                  endpoint.host.c_str(),
                  static_cast<unsigned>(endpoint.port),
                  static_cast<unsigned long long>(stats.queries),
                  static_cast<unsigned long long>(stats.query_failures),
                  static_cast<unsigned long long>(stats.refreshes),
                  static_cast<unsigned long long>(stats.loads),
                  static_cast<unsigned long long>(stats.rejected_frames),
                  static_cast<unsigned long long>(stats.cache_hits),
                  static_cast<unsigned long long>(stats.cache_misses),
                  static_cast<unsigned long long>(stats.rematerializations));
    }
    did_admin = true;
  }

  if (!args.batch_path.empty()) {
    std::ifstream in(args.batch_path);
    if (!in) {
      std::fprintf(stderr, "--batch: cannot open %s\n",
                   args.batch_path.c_str());
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!Trim(line).empty()) args.query_texts.push_back(line);
    }
  }

  int exit_code = 0;
  const bool interactive =
      args.query_texts.empty() && !did_admin && !args.shutdown;
  if (!args.query_texts.empty() || interactive) {
    serve::ServingExecutor::Options options;
    options.cache_capacity = args.cache_capacity;
    options.result_cache_capacity = args.result_cache_capacity;
    auto connected = serve::ServingExecutor::Connect(endpoints, options);
    if (!connected.ok()) {
      std::fprintf(stderr, "connect: %s\n",
                   connected.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<serve::ServingExecutor> executor =
        std::move(connected).ValueOrDie();
    std::fprintf(stderr, "connected to %zu server(s), %llu source rows\n",
                 executor->num_backends(),
                 static_cast<unsigned long long>(executor->source_rows()));

    auto run_one = [&](const std::string& text) {
      WallTimer timer;
      auto reply = executor->Execute(text);
      if (args.explain) {
        std::fprintf(stderr,
                     "serve: %zu backend(s), query cache %s, result cache "
                     "%s\n",
                     executor->num_backends(),
                     reply.ok() && reply->cache_hit ? "hit" : "miss",
                     reply.ok() ? CacheVerdictName(reply->result_verdict)
                                : "miss");
      }
      if (!reply.ok()) {
        std::fprintf(stderr, "query: %s\n",
                     reply.status().ToString().c_str());
        exit_code = 1;
        return;
      }
      std::fprintf(stderr, "%zu skyline rows in %.2f ms\n",
                   reply->rows.size(), timer.ElapsedMillis());
      // The reply's values dataset holds the result rows by POSITION
      // (row i of `values` is reply->rows[i]); print through identity ids.
      std::vector<RowId> identity(reply->rows.size());
      std::iota(identity.begin(), identity.end(), RowId{0});
      PrintRows(RowView(reply->values), identity, args.limit);
    };

    if (!args.query_texts.empty()) {
      for (const std::string& text : args.query_texts) {
        std::fprintf(stderr, "# %s\n", text.c_str());
        run_one(text);
      }
    } else {
      std::string line;
      while (std::getline(std::cin, line)) {
        if (Trim(line).empty()) continue;
        run_one(line);
      }
    }
    const serve::ServingExecutorStats stats = executor->stats();
    const serve::ParsedQueryCache::Stats cache = executor->cache().stats();
    std::fprintf(stderr,
                 "serving: %llu ok, %llu failed, %llu shed, %llu retries; "
                 "query cache: %llu hits, %llu misses, %llu evictions\n",
                 static_cast<unsigned long long>(stats.queries),
                 static_cast<unsigned long long>(stats.failures),
                 static_cast<unsigned long long>(stats.shed),
                 static_cast<unsigned long long>(stats.retries),
                 static_cast<unsigned long long>(cache.hits),
                 static_cast<unsigned long long>(cache.misses),
                 static_cast<unsigned long long>(cache.evictions));
    if (executor->result_cache() != nullptr) {
      std::fprintf(
          stderr,
          "result cache: %llu exact, %llu subsumed, %llu misses, "
          "%llu evictions, %llu invalidations\n",
          static_cast<unsigned long long>(stats.result_exact_hits),
          static_cast<unsigned long long>(stats.result_subsumed_hits),
          static_cast<unsigned long long>(stats.result_misses),
          static_cast<unsigned long long>(stats.result_evictions),
          static_cast<unsigned long long>(stats.result_invalidations));
    }
  }

  if (args.shutdown) {
    for (const serve::Endpoint& endpoint : endpoints) {
      auto reply =
          AdminCall(endpoint, net::FrameType::kShutdown, "",
                    net::FrameType::kOk);
      if (!reply.ok()) {
        std::fprintf(stderr, "--shutdown: %s\n",
                     reply.status().ToString().c_str());
        exit_code = 1;
        continue;
      }
      std::fprintf(stderr, "shutdown acknowledged by %s:%u\n",
                   endpoint.host.c_str(),
                   static_cast<unsigned>(endpoint.port));
    }
  }
  return exit_code;
}

int Run(int argc, char** argv) {
  std::string csv_path, schema_spec, template_text, batch_path;
  std::string save_shards_path, load_shards_path, split_shards_prefix;
  std::string engine_name;  // default resolved after flag parsing
  long serve_port = -1;     // >= 0 arms serve mode
  ConnectArgs connect;
  size_t topk = 10, limit = 20, threads = 1, shards = 0;
  size_t query_cache = 256;
  long result_cache = -1;  // -1 = default (64 local, 128 connect)
  double rematerialize_threshold = 0.0;  // 0 = no adaptive rebuilds
  size_t rematerialize_cooldown = 64;
  bool explain = false;
  bool adaptive = true;
  std::vector<std::string> query_texts;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // Numeric flags parse strictly: the whole value must be a whole number
    // in [min, max], or the CLI exits 2 naming the flag.
    auto need_count = [&](const char* flag, uint64_t min,
                          uint64_t max = UINT64_MAX) -> uint64_t {
      const char* text = need_value(flag);
      uint64_t value = 0;
      if (!ParseU64(text, &value) || value < min || value > max) {
        if (max == UINT64_MAX) {
          std::fprintf(stderr, "%s wants a whole number >= %llu, got '%s'\n",
                       flag, static_cast<unsigned long long>(min), text);
        } else {
          std::fprintf(stderr, "%s wants a whole number in %llu..%llu, "
                       "got '%s'\n", flag,
                       static_cast<unsigned long long>(min),
                       static_cast<unsigned long long>(max), text);
        }
        std::exit(2);
      }
      return value;
    };
    if (arg == "--csv") {
      csv_path = need_value("--csv");
    } else if (arg == "--schema") {
      schema_spec = need_value("--schema");
    } else if (arg == "--template") {
      template_text = need_value("--template");
    } else if (arg == "--engine") {
      engine_name = need_value("--engine");
    } else if (arg == "--threads") {
      threads = need_count("--threads", 0);  // 0 = all cores
    } else if (arg == "--shards") {
      shards = need_count("--shards", 1);
    } else if (arg == "--batch") {
      batch_path = need_value("--batch");
    } else if (arg == "--save-shards") {
      save_shards_path = need_value("--save-shards");
    } else if (arg == "--load-shards") {
      load_shards_path = need_value("--load-shards");
    } else if (arg == "--split-shards") {
      split_shards_prefix = need_value("--split-shards");
    } else if (arg == "--serve") {
      serve_port = static_cast<long>(
          need_count("--serve", 0, 65535));  // 0 = pick a free port
    } else if (arg == "--connect") {
      connect.endpoints_spec = need_value("--connect");
    } else if (arg == "--push-image") {
      connect.push_image_path = need_value("--push-image");
    } else if (arg == "--refresh") {
      connect.refresh_spec = need_value("--refresh");
    } else if (arg == "--stats") {
      connect.stats = true;
    } else if (arg == "--shutdown") {
      connect.shutdown = true;
    } else if (arg == "--query-cache") {
      query_cache = need_count("--query-cache", 1);
    } else if (arg == "--result-cache") {
      result_cache = static_cast<long>(need_count(
          "--result-cache", 0, LONG_MAX));  // 0 disables
    } else if (arg == "--rematerialize") {
      // Optional width: "--rematerialize 20" pins the plan to the top 20
      // values per dimension; bare "--rematerialize" uses the default.
      connect.rematerialize = true;
      if (i + 1 < argc && argv[i + 1][0] != '\0' &&
          std::strspn(argv[i + 1], "0123456789") ==
              std::strlen(argv[i + 1])) {
        connect.rematerialize_topk = static_cast<uint32_t>(
            need_count("--rematerialize", 0, UINT32_MAX));
      }
    } else if (arg == "--rematerialize-threshold") {
      const char* text = need_value("--rematerialize-threshold");
      if (!ParseDouble(text, &rematerialize_threshold) ||
          rematerialize_threshold < 0.0 || rematerialize_threshold > 1.0) {
        std::fprintf(stderr,
                     "--rematerialize-threshold must be a number in "
                     "[0, 1] (0 disables), got '%s'\n",
                     text);
        return 2;
      }
    } else if (arg == "--rematerialize-cooldown") {
      rematerialize_cooldown = need_count("--rematerialize-cooldown", 1);
    } else if (arg == "--no-adaptive") {
      adaptive = false;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--list-engines") {
      EngineRegistry& registry = EngineRegistry::Global();
      for (const std::string& name : registry.Names()) {
        std::printf("%-8s %s\n", name.c_str(),
                    registry.Description(name).c_str());
      }
      return 0;
    } else if (arg == "--topk") {
      topk = need_count("--topk", 0);
    } else if (arg == "--limit") {
      limit = need_count("--limit", 0);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: nomsky_cli --csv FILE --schema SPEC "
                  "[--template PREFS] [--engine NAME|auto|sharded:NAME] "
                  "[--threads N] [--shards K] [--batch FILE] [--explain] "
                  "[--topk K] [--limit N] [--result-cache N] "
                  "[--no-adaptive] [--rematerialize-threshold X] "
                  "[--rematerialize-cooldown N] [--save-shards FILE] "
                  "[--load-shards FILE] [--split-shards PREFIX] "
                  "[QUERY ...]\n"
                  "       nomsky_cli --load-shards FILE [--template PREFS] "
                  "[QUERY ...]\n"
                  "       nomsky_cli --serve PORT [--load-shards FILE] "
                  "[--engine sharded:NAME] [--threads N] "
                  "[--query-cache N] [--rematerialize-threshold X] "
                  "[--rematerialize-cooldown N]\n"
                  "       nomsky_cli --connect HOST:PORT[,...] "
                  "[--push-image FILE] [--refresh SHARD:FILE] "
                  "[--rematerialize [K]] [--stats] "
                  "[--shutdown] [--batch FILE] [--explain] "
                  "[--result-cache N] [QUERY ...]\n"
                  "       nomsky_cli --list-engines\n"
                  "--result-cache N bounds the profile-subsumption result "
                  "cache (0 disables; default 64 local / 128 connect); "
                  "--no-adaptive pins --engine auto to the static cost "
                  "model instead of measured route latencies; "
                  "--rematerialize-threshold X arms history-driven "
                  "IPO-Tree-k rebuilds when the observed tree-hit rate "
                  "drops below X (hybrid engines, 0 disables); "
                  "--rematerialize [K] asks connected servers to re-tune "
                  "their trees now (K values/dim, default server-side)\n");
      return 0;
    } else {
      query_texts.push_back(arg);
    }
  }

  // Networked modes branch off before the local-data requirements: a
  // client needs no data source at all, and a server needs at most an
  // image to preload.
  if (!connect.endpoints_spec.empty()) {
    connect.explain = explain;
    connect.limit = limit;
    connect.cache_capacity = query_cache;
    if (result_cache >= 0) {
      connect.result_cache_capacity = static_cast<size_t>(result_cache);
    }
    connect.batch_path = batch_path;
    connect.query_texts = std::move(query_texts);
    return RunConnect(std::move(connect));
  }
  if (serve_port >= 0) {
    if (!csv_path.empty() || !schema_spec.empty()) {
      std::fprintf(stderr,
                   "--serve feeds from --load-shards (or a pushed image); "
                   "drop --csv/--schema\n");
      return 2;
    }
    if (threads == 0) threads = ThreadPool::DefaultThreads();
    if (engine_name.empty()) engine_name = "sharded";
    return RunServe(static_cast<uint16_t>(serve_port), load_shards_path,
                    engine_name, threads, query_cache, topk,
                    rematerialize_threshold, rematerialize_cooldown);
  }

  const bool image_only = !load_shards_path.empty() && csv_path.empty();
  if (!image_only && (csv_path.empty() || schema_spec.empty())) {
    std::fprintf(stderr,
                 "--csv and --schema are required unless serving from "
                 "--load-shards alone (see --help)\n");
    return 2;
  }
  if (image_only && !schema_spec.empty()) {
    std::fprintf(stderr,
                 "--schema comes from the shard image; drop it or add "
                 "--csv\n");
    return 2;
  }
  if (engine_name.empty()) engine_name = image_only ? "sharded" : "asfs";
  if (!load_shards_path.empty() && engine_name.rfind("sharded", 0) != 0 &&
      (image_only || engine_name != "auto")) {
    std::fprintf(stderr,
                 "--load-shards needs a sharded engine (--engine "
                 "sharded[:<inner>]%s), got '%s'\n",
                 image_only ? "" : " or auto", engine_name.c_str());
    return 2;
  }
  if (threads == 0) threads = ThreadPool::DefaultThreads();

  // Resolve the data source: CSV table, shard image, or both (the image is
  // then validated against the table by the engine).
  Schema schema;
  std::optional<Dataset> data;
  std::optional<ShardImage> image;
  size_t num_rows = 0;
  if (image_only) {
    auto loaded = ShardImage::Load(load_shards_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "shard image: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    image = std::move(loaded).ValueOrDie();
    schema = image->schema;
    num_rows = static_cast<size_t>(image->source_rows);
  } else {
    auto parsed_schema = ParseSchemaSpec(schema_spec);
    if (!parsed_schema.ok()) {
      std::fprintf(stderr, "schema: %s\n",
                   parsed_schema.status().ToString().c_str());
      return 2;
    }
    schema = std::move(parsed_schema).ValueOrDie();
    auto loaded = gen::LoadCsv(schema, csv_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "csv: %s\n", loaded.status().ToString().c_str());
      return 2;
    }
    data = std::move(loaded).ValueOrDie();
    num_rows = data->num_rows();
  }
  PreferenceProfile tmpl(schema);
  if (!template_text.empty()) {
    auto parsed = PreferenceProfile::ParseText(schema, template_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "template: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    tmpl = *parsed;
  }

  // One shared pool powers both the batch fan-out and the engines'
  // internal parallel paths (IPO-tree build, SFS-D partition-merge).
  ThreadPool pool(threads);
  // Answered queries feed the popularity history that re-materialization
  // plans come from (declared before the engine: a sharded engine's
  // controller borrows it).
  QueryHistory history(schema, /*window=*/512);
  EngineOptions engine_options;
  engine_options.topk = topk;
  engine_options.build_threads = 0;  // construction always uses all cores
  engine_options.query_shards = threads;
  engine_options.data_shards = shards;
  engine_options.pool = &pool;
  engine_options.adaptive_routing = adaptive;
  engine_options.history = &history;
  engine_options.rematerialize_threshold = rematerialize_threshold;
  engine_options.rematerialize_cooldown = rematerialize_cooldown;
  // Sharded engines carry their own result cache on the serving path;
  // non-sharded engines get one at the executor below.
  const size_t result_cache_capacity =
      result_cache < 0 ? 64 : static_cast<size_t>(result_cache);
  engine_options.result_cache_capacity = result_cache_capacity;
  if (!image_only) engine_options.shard_image_path = load_shards_path;

  WallTimer build;
  std::unique_ptr<SkylineEngine> engine;
  if (image_only) {
    std::string inner =
        engine_name == "sharded" ? "sfsd" : engine_name.substr(8);
    auto created = ShardedEngine::CreateFromImage(inner, std::move(*image),
                                                  tmpl, engine_options);
    if (!created.ok()) {
      std::fprintf(stderr, "engine: %s\n",
                   created.status().ToString().c_str());
      return 2;
    }
    engine = std::move(created).ValueOrDie();
  } else {
    auto created = EngineRegistry::Global().Create(engine_name, *data, tmpl,
                                                   engine_options);
    if (!created.ok()) {
      std::fprintf(stderr, "engine: %s\n",
                   created.status().ToString().c_str());
      return 2;
    }
    engine = std::move(created).ValueOrDie();
  }
  const auto* auto_engine = dynamic_cast<const AutoEngine*>(engine.get());
  // A bare hybrid engine gets its adaptive controller here at the CLI seam
  // (the sharded engine arms its own internally from EngineOptions).
  auto* hybrid_local = dynamic_cast<HybridEngine*>(engine.get());
  std::unique_ptr<MaterializationController> hybrid_remat;
  if (rematerialize_threshold > 0.0 && hybrid_local != nullptr) {
    MaterializationController::Options remat_options;
    remat_options.topk = topk;
    remat_options.threshold = rematerialize_threshold;
    remat_options.cooldown = rematerialize_cooldown;
    remat_options.pool = &pool;
    hybrid_remat = std::make_unique<MaterializationController>(
        &history, [hybrid_local] { return hybrid_local->tree_hit_ewma(); },
        [hybrid_local](std::vector<std::vector<ValueId>> plan) {
          return hybrid_local->Rematerialize(std::move(plan));
        },
        remat_options);
  }
  std::fprintf(stderr, "loaded %zu rows; %s ready in %.2f s\n", num_rows,
               engine_name.c_str(), build.ElapsedSeconds());

  if (!save_shards_path.empty()) {
    auto* sharded = dynamic_cast<ShardedEngine*>(engine.get());
    if (sharded == nullptr) {
      std::fprintf(stderr,
                   "--save-shards needs a sharded engine "
                   "(--engine sharded[:<inner>]), got '%s'\n",
                   engine_name.c_str());
      return 2;
    }
    Status saved = sharded->SaveImage(save_shards_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "--save-shards: %s\n", saved.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "saved %zu shards to %s\n", sharded->num_shards(),
                 save_shards_path.c_str());
  }

  if (!split_shards_prefix.empty()) {
    auto* sharded = dynamic_cast<ShardedEngine*>(engine.get());
    if (sharded == nullptr) {
      std::fprintf(stderr,
                   "--split-shards needs a sharded engine "
                   "(--engine sharded[:<inner>]), got '%s'\n",
                   engine_name.c_str());
      return 2;
    }
    // One SINGLE-shard image per shard, all sharing the source-table row
    // bound: the per-server slices of a networked cluster. Any one of them
    // also is a valid --refresh payload for its shard.
    for (size_t s = 0; s < sharded->num_shards(); ++s) {
      auto snap = sharded->snapshot(s);
      const std::string path =
          split_shards_prefix + "." + std::to_string(s) + ".nshi";
      Status saved = ShardImage::Save(
          path, sharded->schema(), engine_options.shard_policy,
          sharded->source_rows(),
          {ShardImage::ShardRef{&snap->data, &snap->global_rows,
                                &snap->packed}});
      if (!saved.ok()) {
        std::fprintf(stderr, "--split-shards: %s\n",
                     saved.ToString().c_str());
        return 2;
      }
    }
    std::fprintf(stderr, "split %zu shards to %s.<s>.nshi\n",
                 sharded->num_shards(), split_shards_prefix.c_str());
  }

  // Row values for output come from the table when we have one, else from
  // the engine's snapshots.
  std::optional<RowView> view;
  if (data.has_value()) {
    view.emplace(*data);
  } else {
    view.emplace(schema, *dynamic_cast<const ShardedEngine*>(engine.get()));
  }

  auto print_plan = [](const PlanDecision& decision) {
    std::fprintf(stderr, "plan: %s [%s] (%s) kernel=%s\n",
                 decision.engine.c_str(), decision.policy.c_str(),
                 decision.reason.c_str(), decision.kernel_tier.c_str());
  };
  auto print_auto_stats = [&] {
    if (auto_engine == nullptr) return;
    AutoEngine::DispatchCounts counts = auto_engine->dispatch_counts();
    std::fprintf(stderr,
                 "auto dispatch: hybrid=%zu asfs=%zu sfsd=%zu sharded=%zu "
                 "(%s routing)\n",
                 counts.hybrid, counts.asfs, counts.sfsd, counts.sharded,
                 auto_engine->adaptive_routing() ? "adaptive" : "static");
    if (!auto_engine->adaptive_routing()) return;
    const RouteLatencyTable& table = auto_engine->route_latencies();
    for (bool covered : {true, false}) {
      std::string line;
      for (size_t r = 0; r < RouteLatencyTable::kNumRoutes; ++r) {
        const uint64_t samples = table.Samples(covered, r);
        if (samples == 0) continue;
        char cell[64];
        std::snprintf(cell, sizeof(cell), " %s=%.3fms/%llu",
                      RouteLatencyTable::RouteName(r),
                      1e3 * table.MeanSeconds(covered, r),
                      static_cast<unsigned long long>(samples));
        line += cell;
      }
      if (!line.empty()) {
        std::fprintf(stderr, "route ewma (%s):%s\n",
                     covered ? "tree-covered" : "uncovered", line.c_str());
      }
    }
  };
  auto print_remat_stats = [&] {
    // Tree-hit accounting exists on a bare hybrid engine and on a sharded
    // engine whose inner engines are hybrid; anything else has no tree.
    const auto* sharded = dynamic_cast<const ShardedEngine*>(engine.get());
    size_t tree_hits = 0, fallback_hits = 0, rebuilds = 0;
    double ewma = -1.0;
    uint64_t tree_epoch = 0;
    const MaterializationController* controller = nullptr;
    if (hybrid_local != nullptr) {
      tree_hits = hybrid_local->tree_hits();
      fallback_hits = hybrid_local->fallback_hits();
      rebuilds = hybrid_local->rematerializations();
      ewma = hybrid_local->tree_hit_ewma();
      tree_epoch = hybrid_local->tree_epoch();
      controller = hybrid_remat.get();
    } else if (sharded != nullptr) {
      tree_hits = sharded->tree_hits_total();
      fallback_hits = sharded->fallback_hits_total();
      rebuilds = sharded->rematerializations();
      ewma = sharded->tree_hit_ewma();
      tree_epoch = sharded->tree_epoch();
      controller = sharded->materialization_controller();
    } else {
      return;
    }
    if (tree_hits == 0 && fallback_hits == 0 && controller == nullptr) {
      return;  // non-hybrid inner engines: nothing to report
    }
    std::fprintf(stderr,
                 "materialization: tree_hits=%zu fallbacks=%zu "
                 "hit_ewma=%.3f tree_epoch=%llu rebuilds=%zu\n",
                 tree_hits, fallback_hits, ewma,
                 static_cast<unsigned long long>(tree_epoch), rebuilds);
    if (controller != nullptr) {
      const MaterializationController::Stats s = controller->stats();
      std::fprintf(stderr,
                   "rematerialization controller: observations=%zu "
                   "decisions=%zu rebuilds=%zu failures=%zu "
                   "planned_coverage=%.3f\n",
                   s.observations, s.decisions, s.rebuilds,
                   s.rebuild_failures, s.planned_coverage);
    }
  };
  auto print_result_cache_stats = [](const ResultCache* cache) {
    if (cache == nullptr) return;
    const ResultCache::Stats s = cache->stats();
    std::fprintf(stderr,
                 "result cache: %llu exact, %llu subsumed, %llu misses, "
                 "%llu evictions\n",
                 static_cast<unsigned long long>(s.exact_hits),
                 static_cast<unsigned long long>(s.subsumed_hits),
                 static_cast<unsigned long long>(s.misses),
                 static_cast<unsigned long long>(s.evictions));
  };

  if (!batch_path.empty()) {
    std::ifstream in(batch_path);
    if (!in) {
      std::fprintf(stderr, "--batch: cannot open %s\n", batch_path.c_str());
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!Trim(line).empty()) query_texts.push_back(line);
    }
  }

  if (!query_texts.empty()) {
    // Parse everything up front, then fan the batch out across the pool.
    std::vector<PreferenceProfile> queries;
    queries.reserve(query_texts.size());
    for (const std::string& text : query_texts) {
      auto query = PreferenceProfile::ParseText(schema, text);
      if (!query.ok()) {
        std::fprintf(stderr, "query '%s': %s\n", text.c_str(),
                     query.status().ToString().c_str());
        return 2;
      }
      queries.push_back(std::move(query).ValueOrDie());
    }
    QueryExecutor executor(*engine, &pool);
    // Sharded engines answer through their own internal cache; every other
    // engine gets one at the executor seam (needs the source table for the
    // neutral pack on insert).
    auto* sharded_local = dynamic_cast<ShardedEngine*>(engine.get());
    std::unique_ptr<ResultCache> batch_cache;
    if (result_cache_capacity > 0 && sharded_local == nullptr &&
        data.has_value()) {
      ResultCache::Options cache_options;
      cache_options.capacity = result_cache_capacity;
      batch_cache = std::make_unique<ResultCache>(schema, cache_options);
      executor.set_result_cache(batch_cache.get(), &*data, &tmpl);
    }
    if (hybrid_remat != nullptr) {
      executor.set_materialization_controller(hybrid_remat.get());
    }
    BatchResult batch = executor.RunBatch(queries, &history);
    for (size_t i = 0; i < queries.size(); ++i) {
      std::fprintf(stderr, "# %s\n", query_texts[i].c_str());
      // The batch already ran; the verdict is re-derived after the fact
      // (against the post-batch latency table when routing adaptively — an
      // approximation of the mid-batch state each query actually saw).
      if (explain && auto_engine != nullptr) {
        print_plan(auto_engine->adaptive_routing()
                       ? auto_engine->planner().ChooseAdaptive(
                             queries[i], auto_engine->route_latencies())
                       : auto_engine->planner().Choose(queries[i]));
      }
      if (explain && batch_cache != nullptr) {
        std::fprintf(stderr, "result cache: %s\n",
                     CacheVerdictName(batch.cache_verdicts[i]));
      }
      if (!batch.statuses[i].ok()) {
        std::fprintf(stderr, "query: %s\n",
                     batch.statuses[i].ToString().c_str());
        continue;
      }
      std::fprintf(stderr, "%zu skyline rows\n", batch.rows[i].size());
      PrintRows(*view, batch.rows[i], limit);
    }
    std::fprintf(stderr,
                 "batch: %zu queries, %zu failed, %.2f ms total, "
                 "%.0f queries/s on %zu threads\n",
                 queries.size(), batch.failures, 1e3 * batch.seconds,
                 batch.QueriesPerSecond(), pool.num_threads());
    print_auto_stats();
    if (hybrid_remat != nullptr) hybrid_remat->Sync();
    print_remat_stats();
    print_result_cache_stats(batch_cache != nullptr
                                 ? batch_cache.get()
                                 : (sharded_local != nullptr
                                        ? sharded_local->result_cache()
                                        : nullptr));
    return batch.failures == 0 ? 0 : 1;
  }

  // Interactive: answer stdin line by line.
  const auto* sharded_interactive =
      dynamic_cast<const ShardedEngine*>(engine.get());
  std::string line;
  while (std::getline(std::cin, line)) {
    if (Trim(line).empty()) continue;
    auto query = PreferenceProfile::ParseText(schema, line);
    if (!query.ok()) {
      std::fprintf(stderr, "query: %s\n", query.status().ToString().c_str());
      continue;
    }
    WallTimer timer;
    PlanDecision decision;
    CacheVerdict verdict = CacheVerdict::kMiss;
    const bool explained = explain && auto_engine != nullptr;
    Result<std::vector<RowId>> rows =
        explained ? auto_engine->QueryExplained(*query, &decision)
        : sharded_interactive != nullptr
            ? sharded_interactive->QueryServed(*query, nullptr, &verdict)
            : engine->Query(*query);
    if (rows.ok()) {
      history.Record(*query);
      if (hybrid_remat != nullptr) hybrid_remat->Tick();
    }
    if (explained) print_plan(decision);
    if (explain && sharded_interactive != nullptr &&
        sharded_interactive->result_cache() != nullptr) {
      std::fprintf(stderr, "result cache: %s\n", CacheVerdictName(verdict));
    }
    if (!rows.ok()) {
      std::fprintf(stderr, "query: %s\n", rows.status().ToString().c_str());
      continue;
    }
    std::fprintf(stderr, "%zu skyline rows in %.2f ms\n", rows->size(),
                 timer.ElapsedMillis());
    PrintRows(*view, *rows, limit);
  }
  print_auto_stats();
  if (hybrid_remat != nullptr) hybrid_remat->Sync();
  print_remat_stats();
  if (sharded_interactive != nullptr) {
    print_result_cache_stats(sharded_interactive->result_cache());
  }
  return 0;
}

}  // namespace
}  // namespace nomsky

int main(int argc, char** argv) { return nomsky::Run(argc, argv); }
