#include "core/ipo_tree.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "common/timer.h"
#include "dominance/kernel.h"
#include "skyline/naive.h"
#include "skyline/sfs.h"

namespace nomsky {

IpoTreeEngine::IpoTreeEngine(const Dataset& data, const PreferenceProfile& tmpl,
                             Options options)
    : data_(&data), template_(&tmpl), options_(options) {
  const Schema& schema = data.schema();
  name_ = options_.max_values_per_dim == std::numeric_limits<size_t>::max()
              ? "IPO Tree"
              : "IPO Tree-" + std::to_string(options_.max_values_per_dim);

  WallTimer timer;

  // Root skyline S = SKY(template), kept sorted by row id for set algebra.
  skyline_ = SfsSkyline(data, tmpl, AllRows(data.num_rows()));
  std::sort(skyline_.begin(), skyline_.end());
  row_to_pos_.assign(data.num_rows(), 0);
  for (size_t i = 0; i < skyline_.size(); ++i) row_to_pos_[skyline_[i]] = i;

  // Materialized values per nominal dimension: all, or the k most frequent
  // (IPO-Tree-k). Values are kept in id order; allowed_slot_ maps a value
  // to its child index or -1.
  const size_t num_nominal = schema.num_nominal();
  allowed_.resize(num_nominal);
  allowed_slot_.resize(num_nominal);
  for (size_t j = 0; j < num_nominal; ++j) {
    const DimId d = schema.nominal_dims()[j];
    const size_t c = schema.dim(d).cardinality();
    std::vector<ValueId> values;
    if (!options_.materialize_values.empty()) {
      // Explicit plan (e.g. from query history); template choices are
      // always materialized so refinements of the template stay servable.
      NOMSKY_CHECK(options_.materialize_values.size() == num_nominal)
          << "materialize_values must list every nominal dimension";
      values = options_.materialize_values[j];
      for (ValueId t : tmpl.pref(j).choices()) values.push_back(t);
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      for (ValueId v : values) {
        NOMSKY_CHECK(v < c) << "materialize_values out of domain";
      }
    } else {
      values.resize(c);
      std::iota(values.begin(), values.end(), ValueId{0});
      if (options_.max_values_per_dim < c) {
        std::vector<size_t> counts = data.ValueCounts(d);
        std::stable_sort(values.begin(), values.end(), [&](ValueId a, ValueId b) {
          return counts[a] > counts[b];
        });
        values.resize(options_.max_values_per_dim);
        std::sort(values.begin(), values.end());
      }
    }
    allowed_[j] = values;
    allowed_slot_[j].assign(c, -1);
    for (size_t k = 0; k < values.size(); ++k) {
      allowed_slot_[j][values[k]] = static_cast<int32_t>(k);
    }
  }

  dominator_pool_ = MdcIndex::BuildDominatorPool(data);

  std::unique_ptr<MdcIndex> mdc;
  if (options_.construction == Construction::kMdc) {
    mdc = std::make_unique<MdcIndex>(data, tmpl, skyline_, dominator_pool_);
    build_stats_.mdc_conditions = mdc->TotalConditions();
  }
  bitmap_index_ = std::make_unique<NominalBitmapIndex>(data, skyline_);

  // Phase 1: materialize the tree shape and collect one fill job per
  // choice node; Phase 2: fill the (independent) disqualified sets, in
  // parallel when asked to.
  root_ = std::make_unique<Node>();
  EffectiveChoices choices(num_nominal, kInvalidValue);
  std::vector<FillJob> jobs;
  BuildSubtree(root_.get(), 0, &choices, &jobs);
  build_stats_.num_nodes = jobs.size();

  size_t threads = options_.num_threads == 0
                       ? std::max<size_t>(1, std::thread::hardware_concurrency())
                       : options_.num_threads;
  threads = std::min(threads, jobs.size() == 0 ? size_t{1} : jobs.size());
  if (threads <= 1) {
    for (const FillJob& job : jobs) {
      build_stats_.total_disqualified +=
          FillDisqualifiedSet(job.node, job.choices, mdc.get());
    }
  } else {
    std::vector<std::thread> workers;
    std::vector<size_t> disqualified(threads, 0);
    std::atomic<size_t> next_job{0};
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (;;) {
          size_t i = next_job.fetch_add(1, std::memory_order_relaxed);
          if (i >= jobs.size()) break;
          disqualified[t] +=
              FillDisqualifiedSet(jobs[i].node, jobs[i].choices, mdc.get());
        }
      });
    }
    for (auto& w : workers) w.join();
    for (size_t d : disqualified) build_stats_.total_disqualified += d;
  }

  build_stats_.seconds = timer.ElapsedSeconds();
}

void IpoTreeEngine::BuildSubtree(Node* node, size_t depth,
                                 EffectiveChoices* choices,
                                 std::vector<FillJob>* jobs) {
  const size_t num_nominal = data_->schema().num_nominal();
  if (depth == num_nominal) return;
  node->children.resize(allowed_[depth].size() + 1);
  for (size_t k = 0; k < allowed_[depth].size(); ++k) {
    (*choices)[depth] = allowed_[depth][k];
    auto child = std::make_unique<Node>();
    jobs->push_back(FillJob{child.get(), *choices});
    BuildSubtree(child.get(), depth + 1, choices, jobs);
    node->children[k] = std::move(child);
  }
  // φ child: no choice on this dimension (the template keeps governing it),
  // so no disqualified set of its own.
  (*choices)[depth] = kInvalidValue;
  auto phi = std::make_unique<Node>();
  phi->a_bits = DynamicBitset(skyline_.size());
  BuildSubtree(phi.get(), depth + 1, choices, jobs);
  node->children.back() = std::move(phi);
}

size_t IpoTreeEngine::FillDisqualifiedSet(Node* node,
                                          const EffectiveChoices& choices,
                                          const MdcIndex* mdc) const {
  std::vector<RowId> disqualified;
  if (mdc != nullptr) {
    for (size_t pi = 0; pi < skyline_.size(); ++pi) {
      if (mdc->Disqualified(pi, choices)) disqualified.push_back(skyline_[pi]);
    }
  } else {
    // Direct: dominance scan under the node's effective preference profile
    // (first-order choices replacing the template on chosen dimensions).
    PreferenceProfile eff = *template_;
    for (size_t j = 0; j < choices.size(); ++j) {
      if (choices[j] != kInvalidValue) {
        size_t c = eff.pref(j).cardinality();
        NOMSKY_CHECK_OK(eff.SetPref(
            j, ImplicitPreference::Make(c, {choices[j]}).ValueOrDie()));
      }
    }
    // Compiled-kernel scan: both row sets packed once per node, then the
    // |S| x |pool| sweep touches contiguous tuples only. An empty pool
    // disqualifies nothing — skip before paying the packing cost.
    if (!dominator_pool_.empty()) {
      CompiledProfile kernel(data_->schema(), eff);
      PackedBlock sky_block, pool_block;
      sky_block.Pack(kernel, *data_, skyline_);
      pool_block.Pack(kernel, *data_, dominator_pool_);
      // One-vs-many scan per skyline row. No self-skip needed: a row never
      // strictly dominates its own packed image (Compare(x, x) == kEqual).
      for (size_t pi = 0; pi < sky_block.size(); ++pi) {
        if (kernel.CompareBlock(sky_block.row(pi), pool_block.row(0),
                                pool_block.size(), pool_block.stride()) <
            pool_block.size()) {
          disqualified.push_back(sky_block.row_id(pi));
        }
      }
    }
  }
  node->a_bits = DynamicBitset(skyline_.size());
  for (RowId r : disqualified) node->a_bits.set(row_to_pos_[r]);
  return disqualified.size();
}

Result<std::vector<RowId>> IpoTreeEngine::Query(
    const PreferenceProfile& query) const {
  NOMSKY_ASSIGN_OR_RETURN(PreferenceProfile eff,
                          query.CombineWithTemplate(*template_));
  // Every referenced value must be materialized.
  for (size_t j = 0; j < eff.num_nominal(); ++j) {
    if (eff.pref(j) == template_->pref(j)) continue;  // φ path
    for (ValueId v : eff.pref(j).choices()) {
      if (allowed_slot_[j][v] < 0) {
        return Status::Unsupported(
            "value id ", v, " on nominal dimension ", j,
            " is not materialized in this IPO tree (IPO-Tree-k truncation)");
      }
    }
  }

  QueryStats stats;
  DynamicBitset all(skyline_.size());
  all.SetAll();
  DynamicBitset result = QueryBits(0, root_.get(), std::move(all), eff, &stats);
  std::vector<RowId> rows;
  rows.reserve(result.count());
  result.ForEachSetBit([&](size_t i) { rows.push_back(skyline_[i]); });
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    last_query_stats_ = stats;
  }
  return rows;
}

DynamicBitset IpoTreeEngine::QueryBits(size_t depth, const Node* node,
                                       DynamicBitset x,
                                       const PreferenceProfile& prefs,
                                       QueryStats* stats) const {
  ++stats->nodes_visited;
  const size_t num_nominal = data_->schema().num_nominal();
  if (depth == num_nominal) return x;
  const ImplicitPreference& pref = prefs.pref(depth);
  if (pref == template_->pref(depth)) {
    // No refinement on this dimension: follow the φ child.
    return QueryBits(depth + 1, node->children.back().get(), std::move(x),
                     prefs, stats);
  }
  // Evaluate each first-order subquery "v_i ≺ *" on X − A(child) ...
  std::vector<DynamicBitset> results;
  results.reserve(pref.order());
  for (ValueId v : pref.choices()) {
    const Node* child = node->children[allowed_slot_[depth][v]].get();
    DynamicBitset xi = x;
    xi.AndNot(child->a_bits);
    ++stats->set_ops;
    results.push_back(QueryBits(depth + 1, child, std::move(xi), prefs, stats));
  }
  // ... and fold with the merging property (Algorithm 2 / Theorem 2).
  DynamicBitset merged = std::move(results[0]);
  DynamicBitset prefix_mask(skyline_.size());
  for (size_t i = 1; i < results.size(); ++i) {
    prefix_mask |= bitmap_index_->bitmap(depth, pref.choices()[i - 1]);
    DynamicBitset z = merged;
    z &= prefix_mask;
    merged &= results[i];
    merged |= z;
    stats->set_ops += 2;
  }
  return merged;
}

size_t IpoTreeEngine::NodeMemory(const Node& node) const {
  size_t bytes = sizeof(Node) + node.a_bits.MemoryUsage() +
                 node.children.capacity() * sizeof(std::unique_ptr<Node>);
  for (const auto& child : node.children) {
    if (child != nullptr) bytes += NodeMemory(*child);
  }
  return bytes;
}

size_t IpoTreeEngine::MemoryUsage() const {
  size_t bytes = NodeMemory(*root_) + skyline_.capacity() * sizeof(RowId) +
                 row_to_pos_.capacity() * sizeof(size_t) +
                 dominator_pool_.capacity() * sizeof(RowId);
  for (const auto& values : allowed_) {
    bytes += values.capacity() * sizeof(ValueId);
  }
  for (const auto& slots : allowed_slot_) {
    bytes += slots.capacity() * sizeof(int32_t);
  }
  bytes += bitmap_index_->MemoryUsage();
  return bytes;
}

}  // namespace nomsky
