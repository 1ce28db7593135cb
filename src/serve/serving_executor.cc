#include "serve/serving_executor.h"

#include <numeric>
#include <optional>
#include <sstream>
#include <utility>

#include "common/serialize.h"
#include "exec/shard_image.h"
#include "skyline/sfs.h"

namespace nomsky {
namespace serve {

using net::Frame;
using net::FrameType;

namespace {

std::string SerializeSchema(const Schema& schema) {
  std::ostringstream out;
  BinaryWriter writer(out);
  WriteSchema(writer, schema);
  return std::move(out).str();
}

std::string Where(const Endpoint& endpoint) {
  return endpoint.host + ":" + std::to_string(endpoint.port);
}

}  // namespace

ServingExecutor::ServingExecutor(Schema schema, uint64_t source_rows,
                                 const Options& options)
    : schema_(std::move(schema)), source_rows_(source_rows),
      options_(options) {
  if (options_.max_inflight == 0) options_.max_inflight = 1;
  cache_ =
      std::make_unique<ParsedQueryCache>(schema_, options_.cache_capacity);
  if (options_.result_cache_capacity > 0) {
    ResultCache::Options cache_options;
    cache_options.capacity = options_.result_cache_capacity;
    result_cache_ = std::make_unique<ResultCache>(schema_, cache_options);
  }
}

Result<std::unique_ptr<ServingExecutor>> ServingExecutor::Connect(
    std::vector<Endpoint> endpoints, const Options& options) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("serving front-end needs at least one "
                                   "endpoint");
  }

  // Handshake every backend up front: connect, kHello, parse the ack.
  // Readiness and schema agreement are connect-time invariants, not
  // per-query checks.
  std::unique_ptr<ServingExecutor> executor;
  std::string schema_bytes;
  for (size_t i = 0; i < endpoints.size(); ++i) {
    const Endpoint& endpoint = endpoints[i];
    NOMSKY_ASSIGN_OR_RETURN(
        net::TcpSocket socket,
        net::TcpSocket::Connect(endpoint.host, endpoint.port));
    NOMSKY_RETURN_NOT_OK(net::SendFrame(socket, FrameType::kHello, ""));
    NOMSKY_ASSIGN_OR_RETURN(
        Frame ack,
        net::RecvFrame(socket, options.deadline_ms, options.max_payload));
    if (ack.type != FrameType::kHelloAck) {
      return Status::Internal("backend ", Where(endpoint), " answered Hello "
                              "with a ", net::FrameTypeName(ack.type),
                              " frame");
    }
    std::istringstream in(ack.payload);
    BinaryReader reader(in);
    uint8_t ready = 0;
    if (!reader.Pod(&ready)) {
      return Status::Internal("backend ", Where(endpoint),
                              ": truncated HelloAck");
    }
    if (ready == 0) {
      return Status::Unavailable("backend ", Where(endpoint),
                                 " has no shard image loaded");
    }
    NOMSKY_ASSIGN_OR_RETURN(Schema schema, ReadSchema(reader));
    uint32_t num_shards = 0;
    uint64_t source_rows = 0;
    if (!reader.Pod(&num_shards) || !reader.Pod(&source_rows)) {
      return Status::Internal("backend ", Where(endpoint),
                              ": truncated HelloAck");
    }
    if (executor == nullptr) {
      schema_bytes = SerializeSchema(schema);
      executor.reset(
          new ServingExecutor(std::move(schema), source_rows, options));
    } else {
      if (SerializeSchema(schema) != schema_bytes) {
        return Status::InvalidArgument(
            "backend ", Where(endpoint),
            " serves a different schema than ",
            Where(endpoints.front()));
      }
      if (source_rows != executor->source_rows_) {
        return Status::InvalidArgument(
            "backend ", Where(endpoint), " covers a source table of ",
            source_rows, " rows; ", Where(endpoints.front()), " says ",
            executor->source_rows_,
            " — the backends do not partition one table");
      }
    }
    auto backend = std::make_unique<Backend>();
    backend->endpoint = endpoint;
    backend->socket = std::move(socket);
    backend->num_shards = num_shards;
    executor->backends_.push_back(std::move(backend));
  }
  return executor;
}

Result<Frame> ServingExecutor::Call(Backend& b, FrameType type,
                                    const std::string& payload,
                                    FrameType expected_reply) {
  std::lock_guard<std::mutex> lock(b.mutex);
  for (int attempt = 0;; ++attempt) {
    Status status;
    if (!b.socket.valid()) {
      auto reconnected =
          net::TcpSocket::Connect(b.endpoint.host, b.endpoint.port);
      if (reconnected.ok()) {
        b.socket = std::move(reconnected).ValueOrDie();
      } else {
        status = reconnected.status();
      }
    }
    if (status.ok()) {
      status = net::SendFrame(b.socket, type, payload);
    }
    if (status.ok()) {
      auto reply = net::RecvFrame(b.socket, options_.deadline_ms,
                                  options_.max_payload);
      if (reply.ok()) {
        Frame frame = std::move(reply).ValueOrDie();
        if (frame.type == FrameType::kError) {
          return Status::Internal("backend ", Where(b.endpoint), ": ",
                                  frame.payload);
        }
        if (frame.type != expected_reply) {
          b.socket.Close();
          return Status::Internal("backend ", Where(b.endpoint),
                                  " answered with a ",
                                  net::FrameTypeName(frame.type),
                                  " frame, expected ",
                                  net::FrameTypeName(expected_reply));
        }
        return frame;
      }
      status = reply.status();
    }
    // The connection's framing state is unknown after any failure; drop it
    // so the next exchange starts clean.
    b.socket.Close();
    if (status.IsUnavailable() && attempt == 0) {
      // The peer vanished (reset/EOF/refused). The exchange is idempotent
      // from the protocol's point of view, so reconnect and resend ONCE.
      // DeadlineExceeded is deliberately NOT here: the server may still be
      // executing the request, and a resend would double-run it.
      retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    return status;
  }
}

Result<ServeReply> ServingExecutor::Execute(const std::string& query_text) {
  // Admission: increment-then-check keeps the gate a single atomic; the
  // shed path undoes its increment before rejecting.
  if (inflight_.fetch_add(1, std::memory_order_acq_rel) + 1 >
      options_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    shed_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "serving front-end is at its in-flight bound (",
        options_.max_inflight, "); request shed");
  }
  struct InflightGuard {
    std::atomic<size_t>* counter;
    ~InflightGuard() { counter->fetch_sub(1, std::memory_order_acq_rel); }
  } guard{&inflight_};

  auto admitted = [&]() -> Result<ServeReply> {
    // One canonicalization serves three purposes: the local cache key, the
    // bytes on the wire (so the servers' caches see one spelling), and the
    // profile the merge pass scores with.
    const std::string canonical = CanonicalQueryText(query_text);
    bool cache_hit = false;
    NOMSKY_ASSIGN_OR_RETURN(std::shared_ptr<const PreferenceProfile> profile,
                            cache_->Get(canonical, &cache_hit));

    // Result cache in front of the fan-out: a hit (exact or by
    // subsumption refilter) answers with ZERO backend round-trips. The
    // generation is read before any backend is called, so a refresh that
    // lands mid-request invalidates the Insert below.
    uint64_t result_generation = 0;
    if (result_cache_ != nullptr) {
      result_generation = result_cache_->generation();
      if (std::optional<ResultCache::Answer> answer =
              result_cache_->Lookup(*profile)) {
        ServeReply out(schema_);
        out.cache_hit = cache_hit;
        out.result_verdict = answer->verdict;
        if (answer->verdict == CacheVerdict::kHit) {
          out.values = answer->entry->values;  // rows align 1:1
        } else {
          PackedBlock winners;
          AnswerNeutralRows(*answer, &winners);
          NOMSKY_ASSIGN_OR_RETURN(
              out.values,
              DatasetFromNeutralPacked(schema_, winners, "cached result"));
        }
        out.rows = std::move(answer->rows);
        return out;
      }
    }

    const size_t n = backends_.size();
    struct BackendRows {
      PackedBlock block;            // neutral-packed winners, global ids
      std::optional<Dataset> data;  // the same rows as columns
      std::vector<RowId> ids;
    };
    std::vector<BackendRows> shard_rows(n);
    std::vector<Status> statuses(n);
    ParallelFor(options_.pool, n, [&](size_t i) {
      auto reply = Call(*backends_[i], FrameType::kQuery, canonical,
                        FrameType::kQueryResult);
      if (!reply.ok()) {
        statuses[i] = reply.status();
        return;
      }
      std::istringstream in(reply->payload);
      BinaryReader reader(in);
      BackendRows& rows = shard_rows[i];
      if (!rows.block.ReadFrom(reader, /*max_rows=*/source_rows_,
                               /*expected_stride=*/0)) {
        statuses[i] = Status::Internal("backend ",
                                       Where(backends_[i]->endpoint),
                                       ": malformed query result");
        return;
      }
      auto data = DatasetFromNeutralPacked(
          schema_, rows.block,
          "query result from " + Where(backends_[i]->endpoint));
      if (!data.ok()) {
        statuses[i] = data.status();
        return;
      }
      rows.data.emplace(std::move(data).ValueOrDie());
      rows.ids.resize(rows.block.size());
      for (size_t r = 0; r < rows.ids.size(); ++r) {
        rows.ids[r] = rows.block.row_id(r);
      }
    });
    for (const Status& status : statuses) {
      NOMSKY_RETURN_NOT_OK(status);
    }

    ServeReply out(schema_);
    out.cache_hit = cache_hit;
    if (n == 1) {
      // One backend answers with the exact skyline already — its reply IS
      // the result.
      out.rows = std::move(shard_rows[0].ids);
      out.values = std::move(*shard_rows[0].data);
      if (result_cache_ != nullptr) {
        result_cache_->Insert(*profile, result_generation, out.rows,
                              shard_rows[0].block);
      }
      return out;
    }

    // Cross-backend merge: each backend is one "shard" whose local skyline
    // is everything it returned (identity ids into its mini dataset), with
    // the received global ids as the local→global map. Same candidate set,
    // same (score, global id) order, same cross-shard pass as a local
    // ShardedEngine — hence byte-identical results.
    std::vector<std::vector<RowId>> identity(n);
    std::vector<ShardSpan> spans(n);
    for (size_t i = 0; i < n; ++i) {
      identity[i].resize(shard_rows[i].ids.size());
      std::iota(identity[i].begin(), identity[i].end(), RowId{0});
      spans[i] = ShardSpan{&*shard_rows[i].data, &shard_rows[i].block,
                           &identity[i], &shard_rows[i].ids};
    }
    std::vector<SpanRow> sources;
    out.rows = MergeShardSkylines(*profile, spans, nullptr, &sources);

    // Splice the winners' neutral bytes into one block, transpose once.
    PackedBlock winners;
    winners.Reset(shard_rows[0].block.stride());
    for (size_t w = 0; w < out.rows.size(); ++w) {
      winners.AppendRaw(
          shard_rows[sources[w].span].block.row(sources[w].local),
          out.rows[w]);
    }
    NOMSKY_ASSIGN_OR_RETURN(
        out.values,
        DatasetFromNeutralPacked(schema_, winners, "merged query result"));
    if (result_cache_ != nullptr) {
      result_cache_->Insert(*profile, result_generation, out.rows, winners);
    }
    return out;
  };

  Result<ServeReply> result = admitted();
  if (result.ok()) {
    queries_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failures_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

Status ServingExecutor::Refresh(size_t b, uint32_t shard,
                                const std::string& image_bytes) {
  if (b >= backends_.size()) {
    return Status::OutOfRange("backend ", b, " out of range (",
                              backends_.size(), " connected)");
  }
  std::ostringstream out;
  BinaryWriter writer(out);
  writer.Pod<uint32_t>(shard);
  writer.Bytes(image_bytes.data(), image_bytes.size());
  NOMSKY_ASSIGN_OR_RETURN(Frame reply,
                          Call(*backends_[b], FrameType::kRefresh,
                               std::move(out).str(), FrameType::kOk));
  (void)reply;
  // Invalidate AFTER the backend acknowledged the swap: any cached entry —
  // even one inserted from a query racing the refresh — predates this bump
  // and dies; a later query re-fans-out and sees the new shard.
  if (result_cache_ != nullptr) result_cache_->Invalidate();
  return Status::OK();
}

Result<uint64_t> ServingExecutor::Rematerialize(size_t b, uint32_t topk) {
  if (b >= backends_.size()) {
    return Status::OutOfRange("backend ", b, " out of range (",
                              backends_.size(), " connected)");
  }
  std::ostringstream out;
  BinaryWriter writer(out);
  writer.Pod<uint32_t>(topk);
  NOMSKY_ASSIGN_OR_RETURN(Frame reply,
                          Call(*backends_[b], FrameType::kRematerialize,
                               std::move(out).str(), FrameType::kOk));
  // Deliberately NO result-cache invalidation (contrast Refresh): a
  // re-materialization re-tunes WHICH sub-engine answers on the backend,
  // never the answer itself, so every cached entry stays byte-identical to
  // a fresh fan-out.
  std::istringstream in(reply.payload);
  BinaryReader reader(in);
  uint64_t tree_epoch = 0;
  if (!reader.Pod(&tree_epoch)) {
    return Status::Internal("backend ", Where(backends_[b]->endpoint),
                            ": truncated rematerialize reply");
  }
  return tree_epoch;
}

Status ServingExecutor::PushImage(size_t b, const std::string& image_bytes) {
  if (b >= backends_.size()) {
    return Status::OutOfRange("backend ", b, " out of range (",
                              backends_.size(), " connected)");
  }
  NOMSKY_ASSIGN_OR_RETURN(Frame reply,
                          Call(*backends_[b], FrameType::kLoadShard,
                               image_bytes, FrameType::kOk));
  (void)reply;
  if (result_cache_ != nullptr) result_cache_->Invalidate();
  return Status::OK();
}

Result<ShardServerStats> ServingExecutor::ServerStats(size_t b) {
  if (b >= backends_.size()) {
    return Status::OutOfRange("backend ", b, " out of range (",
                              backends_.size(), " connected)");
  }
  NOMSKY_ASSIGN_OR_RETURN(Frame reply,
                          Call(*backends_[b], FrameType::kStats, "",
                               FrameType::kStatsResult));
  std::istringstream in(reply.payload);
  BinaryReader reader(in);
  ShardServerStats stats;
  if (!reader.Pod(&stats.queries) || !reader.Pod(&stats.query_failures) ||
      !reader.Pod(&stats.refreshes) || !reader.Pod(&stats.loads) ||
      !reader.Pod(&stats.rejected_frames) || !reader.Pod(&stats.cache_hits) ||
      !reader.Pod(&stats.cache_misses) ||
      !reader.Pod(&stats.rematerializations)) {
    return Status::Internal("backend ", Where(backends_[b]->endpoint),
                            ": truncated stats reply");
  }
  return stats;
}

Status ServingExecutor::ShutdownAll() {
  Status first_error;
  for (auto& backend : backends_) {
    auto reply =
        Call(*backend, FrameType::kShutdown, "", FrameType::kOk);
    if (!reply.ok() && first_error.ok()) first_error = reply.status();
    // The server closes the connection right after the ack; drop ours too.
    std::lock_guard<std::mutex> lock(backend->mutex);
    backend->socket.Close();
  }
  return first_error;
}

ServingExecutorStats ServingExecutor::stats() const {
  ServingExecutorStats stats;
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.failures = failures_.load(std::memory_order_relaxed);
  const ParsedQueryCache::Stats cache = cache_->stats();
  stats.cache_hits = cache.hits;
  stats.cache_misses = cache.misses;
  if (result_cache_ != nullptr) {
    const ResultCache::Stats rc = result_cache_->stats();
    stats.result_exact_hits = rc.exact_hits;
    stats.result_subsumed_hits = rc.subsumed_hits;
    stats.result_misses = rc.misses;
    stats.result_evictions = rc.evictions;
    stats.result_invalidations = rc.invalidations;
  }
  return stats;
}

}  // namespace serve
}  // namespace nomsky
