// Workload inputs and the answer oracle.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <sstream>
#include <unordered_set>

#include "common/logging.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "exec/shard_image.h"
#include "exec/sharded_dataset.h"
#include "exec/thread_pool.h"
#include "perfbench.h"
#include "skyline/sfs_direct.h"

namespace perfbench {

using namespace nomsky;

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Independent sub-seeds for the query pool and the request stream.
uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  return SplitMix(SplitMix(seed) ^ purpose);
}

gen::GenConfig TableConfig() {
  gen::GenConfig config;  // Table 4 defaults: 3 numeric, 2 nominal, c=20,
  config.num_rows = kRows;  // Zipf 1, anti-correlated, seed 42
  return config;
}

PreferenceProfile WithPrefix(const Schema& schema,
                             const PreferenceProfile& profile, size_t x) {
  PreferenceProfile out(schema);
  for (size_t j = 0; j < profile.num_nominal(); ++j) {
    NOMSKY_CHECK_OK(out.SetPref(j, profile.pref(j).Prefix(x)));
  }
  return out;
}

// Adds `profile` unless an equal one is already pooled.
bool AddDistinct(Inputs* in, std::unordered_set<std::string>* seen,
                 PreferenceProfile profile) {
  std::string text = profile.ToString(in->data.schema());
  if (!seen->insert(text).second) return false;
  in->pool.push_back(std::move(profile));
  in->texts.push_back(std::move(text));
  return true;
}

std::string SingleShardImage(const Schema& schema, const Dataset& rows,
                             const std::vector<RowId>& global_rows) {
  std::ostringstream out;
  NOMSKY_CHECK_OK(ShardImage::Save(
      out, "perfbench shard", schema, ShardPolicy::kHash, kRows,
      {ShardImage::ShardRef{&rows, &global_rows, nullptr}}));
  return std::move(out).str();
}

uint64_t HashDataset(const Dataset& data, uint64_t hash) {
  const Schema& schema = data.schema();
  for (size_t i = 0; i < schema.num_numeric(); ++i) {
    const auto& col = data.numeric_column(i);
    hash = Fnv(col.data(), col.size() * sizeof(double), hash);
  }
  for (size_t j = 0; j < schema.num_nominal(); ++j) {
    const auto& col = data.nominal_column(j);
    hash = Fnv(col.data(), col.size() * sizeof(ValueId), hash);
  }
  return hash;
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kServeHot: return "serve-hot";
    case Workload::kServeCold: return "serve-cold";
    case Workload::kLocalBatch: return "local-batch";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* workload) {
  for (Workload w :
       {Workload::kServeHot, Workload::kServeCold, Workload::kLocalBatch}) {
    if (name == WorkloadName(w)) {
      *workload = w;
      return true;
    }
  }
  return false;
}

uint64_t Fnv(const void* data, size_t bytes, uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t RowSetHash(const std::vector<RowId>& rows) {
  uint64_t hash = rows.size();
  for (RowId row : rows) hash += SplitMix(row);
  return hash;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

std::unique_ptr<Inputs> MakeInputs(Workload workload, uint64_t seed) {
  // What the seed drives: the query pool (except serve-hot's) and the
  // request stream. The table is GenConfig's default one on every workload:
  // a query's cost tracks the size of its skyline, which differs between
  // generated tables (local-batch's throughput moved ±30% across seeds).
  // serve-hot's per-query costs are heavy-tailed and a Zipf head of a few
  // profiles takes most requests, so a new pool per seed moved its tail by
  // up to ±30%; its pool is fixed too and the seed drives its Zipf draws.
  const uint64_t fixed = gen::GenConfig{}.seed;
  Dataset data = gen::Generate(TableConfig());
  auto in = std::make_unique<Inputs>(data.schema());
  in->workload = workload;
  in->data = std::move(data);
  const Schema& schema = in->data.schema();
  in->tmpl = workload == Workload::kLocalBatch
                 ? gen::MostFrequentTemplate(in->data)
                 : PreferenceProfile(schema);

  // Query pool.
  Rng rng(SubSeed(workload == Workload::kServeHot ? fixed : seed, 2));
  std::unordered_set<std::string> seen;
  if (workload == Workload::kServeHot) {
    // Refinement chains q1 -> q2 -> q3 (each a prefix of the next), so
    // the pool holds subsumption pairs; shuffled so that popularity does
    // not follow chain position.
    while (in->pool.size() < kHotPool) {
      const PreferenceProfile q3 =
          gen::RandomImplicitQuery(in->data, in->tmpl, 3, &rng);
      for (size_t x = 1; x <= 3 && in->pool.size() < kHotPool; ++x) {
        AddDistinct(in.get(), &seen, WithPrefix(schema, q3, x));
      }
    }
    std::vector<size_t> order(in->pool.size());
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(&order);
    std::vector<PreferenceProfile> pool;
    std::vector<std::string> texts;
    for (size_t i : order) {
      pool.push_back(std::move(in->pool[i]));
      texts.push_back(std::move(in->texts[i]));
    }
    in->pool = std::move(pool);
    in->texts = std::move(texts);
  } else {
    // Distinct order-3 queries: equal-order profiles never refine one
    // another, so no cache entry can answer another pool member.
    const size_t size =
        workload == Workload::kLocalBatch ? kBatchPool : kColdPool;
    while (in->pool.size() < size) {
      AddDistinct(in.get(), &seen,
                  gen::RandomImplicitQuery(in->data, in->tmpl, 3, &rng));
    }
  }

  // The request stream. serve-hot sends the pool at Zipf(1) frequencies in
  // blocks of about kHotBlock requests, each block shuffled by the seed.
  // Profile i's count up to the end of block b is its Zipf share of
  // (b + 1) * kHotBlock, rounded, so any run of whole blocks sends the same
  // mix to within one request per profile; independent draws let a
  // window's mix of cheap and costly misses, and with it the tail and the
  // CPU per read, move ±15% across seeds. Elsewhere the stream is the
  // (seeded, random) pool in order, so any prefix of it is a random sample.
  const size_t n = in->pool.size();
  if (workload == Workload::kServeHot) {
    Rng order(SubSeed(seed, 100));
    double harmonic = 0;
    for (size_t i = 0; i < n; ++i) {
      harmonic += 1.0 / static_cast<double>(i + 1);
    }
    for (size_t b = 0; in->stream.size() < kStreamLength; ++b) {
      std::vector<uint32_t> block;
      for (size_t i = 0; i < n; ++i) {
        const double share =
            kHotBlock / (static_cast<double>(i + 1) * harmonic);
        const auto sent = std::llround(static_cast<double>(b) * share);
        const auto due = std::llround(static_cast<double>(b + 1) * share);
        block.insert(block.end(), static_cast<size_t>(due - sent),
                     static_cast<uint32_t>(i));
      }
      order.Shuffle(&block);
      in->stream.insert(in->stream.end(), block.begin(), block.end());
    }
  } else {
    in->stream.resize(n);
    std::iota(in->stream.begin(), in->stream.end(), 0u);
  }

  // Shard images: the hash partition a sharded engine would make, one
  // single-shard image per server.
  ShardedDataset::Options partition;
  partition.num_shards = kServers;
  partition.policy = ShardPolicy::kHash;
  auto parts = ShardedDataset::Partition(in->data, partition);
  NOMSKY_CHECK_OK(parts.status());
  for (size_t s = 0; s < kServers; ++s) {
    in->images.push_back(SingleShardImage(schema, parts->shard(s),
                                          parts->shard_rows(s)));
  }

  uint64_t hash = HashDataset(in->data, Fnv("perfbench", 9));
  for (const std::string& text : in->texts) {
    hash = Fnv(text.data(), text.size() + 1, hash);
  }
  hash = Fnv(in->stream.data(), in->stream.size() * sizeof(uint32_t), hash);
  for (const std::string& image : in->images) {
    hash = Fnv(image.data(), image.size(), hash);
  }
  in->fingerprint = hash;
  return in;
}

std::vector<size_t> WrongAnswers(const Inputs& inputs,
                                 const std::vector<Request>& requests) {
  std::set<uint32_t> distinct;
  for (const Request& r : requests) {
    if (r.status.ok()) distinct.insert(r.queries.begin(), r.queries.end());
  }
  const std::vector<uint32_t> ids(distinct.begin(), distinct.end());

  // expected[i]: hash of the SFS-D answer of ids[i] over the table.
  std::vector<uint64_t> expected(ids.size());
  ThreadPool pool(4);
  const SfsDirect oracle(inputs.data, inputs.tmpl);
  ParallelFor(&pool, ids.size(), [&](size_t i) {
    auto answer = oracle.Query(inputs.pool[ids[i]]);
    NOMSKY_CHECK_OK(answer.status());
    expected[i] = RowSetHash(*answer);
  });

  std::vector<size_t> wrong(requests.size(), 0);
  for (size_t n = 0; n < requests.size(); ++n) {
    const Request& r = requests[n];
    if (!r.status.ok()) continue;
    for (size_t j = 0; j < r.queries.size(); ++j) {
      const size_t i = static_cast<size_t>(
          std::lower_bound(ids.begin(), ids.end(), r.queries[j]) -
          ids.begin());
      if (r.answers[j] != expected[i]) ++wrong[n];
    }
  }
  return wrong;
}

}  // namespace perfbench
