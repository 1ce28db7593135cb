// IPO-Tree Search (paper Section 3): semi-materialization of first-order
// implicit-preference skylines, combined at query time with the merging
// property (Theorem 2).
//
// Structure. Level d of the tree splits on the d-th nominal dimension: a
// node's path assigns to some prefix of the nominal dimensions either a
// first-order choice "v ≺ *" or φ (no choice). Each choice node stores the
// disqualified set
//
//     A(N) = S − SKY_D(pref_N),   S = SKY(template),
//
// where pref_N applies the path's first-order choices on their dimensions
// (REPLACING the template there — Theorem 2 merges skylines of preferences
// whose i-th dimension order is exactly "v_x ≺ *") and keeps the template
// on all other dimensions. SKY_D is the skyline over the FULL dataset:
// points of S may be disqualified at a node only by points outside S, so
// restricting dominator candidates to S would under-fill A. (Candidates
// are, however, losslessly restricted to the numeric-only skyline pool —
// see MdcIndex::BuildDominatorPool.)
//
// Query (Algorithms 1 + 2). For a query R̃' refining the template, the
// evaluator descends dimension by dimension: on a dimension with
// preference v_1 ≺ ... ≺ v_x ≺ *, it evaluates the subtree of each
// first-order child "v_i ≺ *" on X − A(child), then folds the x results
// with Theorem 2:  X ← (X ∩ Y_i) ∪ {p ∈ X : p.D_d ∈ {v_1..v_{i-1}}}.
// The number of set operations is O(x^{m'}).
//
// A-sets are bitmaps over S (positions within the sorted template
// skyline), so a set operation is a word-parallel AND/OR. Options select
// MDC-based vs. direct construction and support the IPO-Tree-k truncation
// (materialize only the k most frequent values per dimension; queries
// touching other values fail with Unsupported so a hybrid can fall back to
// Adaptive SFS — Section 5.3).

#ifndef NOMSKY_CORE_IPO_TREE_H_
#define NOMSKY_CORE_IPO_TREE_H_

#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "common/bitset.h"
#include "common/dataset.h"
#include "common/result.h"
#include "core/engine.h"
#include "core/ipo_bitmap.h"
#include "mdc/mdc.h"
#include "order/preference_profile.h"

namespace nomsky {

/// \brief Partial materialization engine over first-order preferences.
class IpoTreeEngine : public SkylineEngine {
 public:
  enum class Construction {
    kMdc,    ///< precompute MDC conditions once, test per node (paper impl.)
    kDirect, ///< per node, scan the dominator pool for each skyline point
  };

  struct Options {
    /// Materialize only the k most frequent values per nominal dimension
    /// (paper's IPO-Tree-10). Default: all values.
    size_t max_values_per_dim = std::numeric_limits<size_t>::max();
    Construction construction = Construction::kMdc;
    /// Worker threads for filling the per-node disqualified sets (they are
    /// independent). 1 = sequential; 0 = hardware concurrency.
    size_t num_threads = 1;
    /// Explicit per-dimension value lists to materialize (e.g. from
    /// QueryHistory::MaterializationPlan — paper Section 3.1's
    /// query-pattern-driven truncation). When non-empty this overrides
    /// max_values_per_dim; template choices are always added.
    std::vector<std::vector<ValueId>> materialize_values;
  };

  struct BuildStats {
    double seconds = 0.0;
    size_t num_nodes = 0;          ///< choice nodes (φ nodes are implicit)
    size_t total_disqualified = 0; ///< Σ |A(N)|
    size_t mdc_conditions = 0;     ///< Σ_p |MDC(p)| (kMdc only)
  };

  struct QueryStats {
    size_t set_ops = 0;
    size_t nodes_visited = 0;
  };

  /// Builds the tree. `data` and `tmpl` must outlive the engine.
  IpoTreeEngine(const Dataset& data, const PreferenceProfile& tmpl,
                Options options);

  /// Builds with default options (full tree, MDC construction).
  IpoTreeEngine(const Dataset& data, const PreferenceProfile& tmpl)
      : IpoTreeEngine(data, tmpl, Options()) {}

  /// \brief Persists the materialized tree (skyline, allowed values and
  /// all disqualified sets) to a binary file, so a server can reload it
  /// without paying the preprocessing cost again.
  Status Save(const std::string& path) const;

  /// \brief Reloads a tree saved by Save(). `data` and `tmpl` must be the
  /// same dataset/template the tree was built from (validated by
  /// fingerprint: row count, nominal arities, template choices).
  static Result<std::unique_ptr<IpoTreeEngine>> Load(
      const Dataset& data, const PreferenceProfile& tmpl,
      const std::string& path);

  const char* name() const override { return name_.c_str(); }

  /// Const and safe to call concurrently: the tree is read-only after
  /// construction and per-query statistics are published under a mutex
  /// (last_query_stats() reports the most recently finished query).
  Result<std::vector<RowId>> Query(
      const PreferenceProfile& query) const override;

  /// \brief S = SKY(template), the root skyline, sorted by row id.
  const std::vector<RowId>& template_skyline() const { return skyline_; }

  size_t MemoryUsage() const override;
  double preprocessing_seconds() const override { return build_stats_.seconds; }

  const BuildStats& build_stats() const { return build_stats_; }
  QueryStats last_query_stats() const {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return last_query_stats_;
  }

  /// \brief Values materialized for the j-th nominal dimension.
  const std::vector<ValueId>& allowed_values(size_t nominal_idx) const {
    return allowed_[nominal_idx];
  }

 private:
  struct LoadTag {};  // selects the deserializing constructor

  /// Constructs an empty engine shell for Load() to fill.
  IpoTreeEngine(const Dataset& data, const PreferenceProfile& tmpl,
                Options options, LoadTag);

  struct Node {
    DynamicBitset a_bits;  // disqualified set: positions within skyline_
    // children[k] = subtree for the k-th allowed value of the NEXT nominal
    // dimension; children[num_allowed] = the φ subtree. Leaf nodes (depth
    // == m') have no children.
    std::vector<std::unique_ptr<Node>> children;
  };

  struct FillJob {
    Node* node;
    EffectiveChoices choices;
  };

  void BuildSubtree(Node* node, size_t depth, EffectiveChoices* choices,
                    std::vector<FillJob>* jobs);
  /// Computes the node's A-set; thread-safe (mutates only *node).
  /// Returns |A| so callers can accumulate stats.
  size_t FillDisqualifiedSet(Node* node, const EffectiveChoices& choices,
                             const MdcIndex* mdc) const;

  // Evaluates the subtree at `node` on X (positions within skyline_).
  DynamicBitset QueryBits(size_t depth, const Node* node, DynamicBitset x,
                          const PreferenceProfile& prefs,
                          QueryStats* stats) const;

  size_t NodeMemory(const Node& node) const;

  const Dataset* data_;
  const PreferenceProfile* template_;
  Options options_;
  std::string name_;

  std::vector<RowId> skyline_;           // S, sorted by row id
  std::vector<size_t> row_to_pos_;       // row id -> position in skyline_
  std::vector<std::vector<ValueId>> allowed_;       // per dim, materialized
  std::vector<std::vector<int32_t>> allowed_slot_;  // per dim, value -> child
  std::unique_ptr<Node> root_;
  std::unique_ptr<NominalBitmapIndex> bitmap_index_;
  std::vector<RowId> dominator_pool_;

  BuildStats build_stats_;
  mutable std::mutex stats_mutex_;
  mutable QueryStats last_query_stats_;  // guarded by stats_mutex_
};

}  // namespace nomsky

#endif  // NOMSKY_CORE_IPO_TREE_H_
