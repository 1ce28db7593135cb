// Compiled dominance kernel: query-time preference compilation plus
// cache-packed tuple scratch.
//
// DominanceComparator (dominance.h) is the *reference* implementation: per
// pair it re-indexes D separate column vectors through the Dataset and
// re-interprets the preference profile (ImplicitPreference::Compare per
// nominal dimension). Window algorithms call it millions of times per
// query, so the scattered loads and repeated profile interpretation are
// the system's hot path. This header is the compiled counterpart every
// engine runs on:
//
//  * CompiledProfile materializes each nominal dimension's implicit
//    preference into a flat rank[ValueId] array once per query (listed
//    value -> its 0-based choice position, unlisted -> kUnlistedRank) and
//    folds the numeric sign into the packed values, so the per-pair loop
//    never touches the profile again.
//  * Rows are packed row-major into 8-byte slots — sign-folded numeric
//    doubles first, then one uint64 per nominal dimension encoding
//    (rank << 32) | value — padded to a 64-byte cache-line multiple, so a
//    window comparison touches one contiguous tuple per side instead of D
//    column arrays. Padding slots are ZEROED by every pack entry point:
//    full-stride SIMD loads must read defined bytes, and shard images
//    persist packed rows as-is, so deterministic padding is what makes
//    image bytes a pure function of the data.
//  * Compare() returns the same four-way DomResult as the reference via a
//    branch-reduced flag-accumulation loop with early exit. The nominal
//    encoding preserves the paper's semantics exactly: equal slots are the
//    same value; distinct values with equal ranks are two unlisted values,
//    i.e. INCOMPARABLE (Definition 2), never equal.
//
// Property tests (tests/dominance_kernel_test.cc) pin the compiled path
// byte-identical to the reference comparator across all four outcomes.

#ifndef NOMSKY_DOMINANCE_KERNEL_H_
#define NOMSKY_DOMINANCE_KERNEL_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "common/dataset.h"
#include "dominance/dominance.h"
#include "order/preference_profile.h"

namespace nomsky {

class BinaryReader;
class BinaryWriter;

/// \brief Cache-line-aligned storage for packed rows. std::vector only
/// guarantees 16-byte alignment; packed rows are padded to 64-byte strides
/// and want their base on a line boundary so one row is one line fetch.
class AlignedRowBuffer {
 public:
  AlignedRowBuffer() = default;

  /// \brief Ensures capacity for `slots` uint64 slots, preserving the first
  /// `live_slots` on growth. Never shrinks.
  void EnsureCapacity(size_t slots, size_t live_slots) {
    if (slots <= capacity_) return;
    size_t grown = capacity_ == 0 ? 64 : capacity_ * 2;
    if (grown < slots) grown = slots;
    uint64_t* fresh = new (std::align_val_t{64}) uint64_t[grown];
    if (live_slots > 0) {
      std::memcpy(fresh, buf_.get(), live_slots * sizeof(uint64_t));
    }
    buf_.reset(fresh);
    capacity_ = grown;
  }

  uint64_t* data() { return buf_.get(); }
  const uint64_t* data() const { return buf_.get(); }
  size_t capacity() const { return capacity_; }

  size_t MemoryUsage() const { return capacity_ * sizeof(uint64_t); }

 private:
  struct Deleter {
    void operator()(uint64_t* p) const {
      ::operator delete[](p, std::align_val_t{64});
    }
  };

  std::unique_ptr<uint64_t[], Deleter> buf_;
  size_t capacity_ = 0;
};

/// \brief One implicit-preference profile compiled to flat lookup state:
/// per-dimension rank[ValueId] arrays plus numeric signs. Cheap to build
/// (O(sum of cardinalities)) — engines compile once per query.
///
/// Borrows nothing: the schema/profile are read at construction only, so a
/// compiled profile outlives the query's PreferenceProfile freely.
class CompiledProfile {
 public:
  /// Rank of every value not listed by the preference. Listed ranks are
  /// 0-based choice positions, so any listed value outranks (is preferred
  /// to) every unlisted one; two distinct values sharing this sentinel are
  /// incomparable, preserving the unlisted-vs-unlisted semantics.
  static constexpr uint32_t kUnlistedRank = 0xFFFFFFFFu;

  CompiledProfile(const Schema& schema, const PreferenceProfile& profile);

  size_t num_numeric() const { return num_numeric_; }
  size_t num_nominal() const { return num_nominal_; }

  /// \brief Slots (8-byte words) per packed row: numeric + nominal count
  /// padded up to a 64-byte (8-slot) multiple.
  size_t row_slots() const { return row_slots_; }

  /// \brief Compiled rank of value v on the j-th nominal dimension.
  uint32_t rank(size_t j, ValueId v) const {
    return ranks_[rank_offset_[j] + v];
  }

  /// \brief Values in the j-th nominal dimension's dictionary (the rank
  /// array covers every ValueId, listed or not).
  size_t cardinality(size_t j) const {
    const size_t end =
        j + 1 < num_nominal_ ? rank_offset_[j + 1] : ranks_.size();
    return end - rank_offset_[j];
  }

  /// \brief Values the j-th nominal dimension's preference lists, in rank
  /// order: listed(j)[r] is the value of rank r. Every other value of the
  /// dimension has kUnlistedRank.
  std::span<const ValueId> listed(size_t j) const {
    return {listed_.data() + listed_offset_[j],
            listed_offset_[j + 1] - listed_offset_[j]};
  }

  double numeric_sign(size_t i) const { return sign_[i]; }

  /// \brief Packs row `r` of `data` into dest[0, row_slots()): sign-folded
  /// numeric doubles (bit-cast into the slots), then nominal encodings,
  /// then zeroed padding up to the stride.
  /// `data` must match the schema the profile was compiled against.
  /// Inline: window algorithms pack one candidate per outer-loop step.
  void PackRow(const Dataset& data, RowId r, uint64_t* dest) const {
    for (size_t i = 0; i < num_numeric_; ++i) {
      dest[i] = std::bit_cast<uint64_t>(sign_[i] * data.numeric_column(i)[r]);
    }
    uint64_t* nom = dest + num_numeric_;
    for (size_t j = 0; j < num_nominal_; ++j) {
      const ValueId v = data.nominal_column(j)[r];
      nom[j] = (static_cast<uint64_t>(ranks_[rank_offset_[j] + v]) << 32) | v;
    }
    for (size_t k = num_numeric_ + num_nominal_; k < row_slots_; ++k) {
      dest[k] = 0;
    }
  }

  /// \brief Re-derives a packed row under THIS profile from a row packed
  /// under any other CompiledProfile of the same schema. Numeric slots are
  /// profile-independent (signs come from the schema's fixed orientations,
  /// never the query), and a nominal slot's low 32 bits hold the raw
  /// ValueId — so only the nominal rank words need recomputing. This is
  /// what lets shard images store packed rows once and serve every query:
  /// loads skip the Dataset entirely.
  void RepackRow(const uint64_t* src, uint64_t* dest) const {
    std::memcpy(dest, src, num_numeric_ * sizeof(uint64_t));
    const uint64_t* src_nom = src + num_numeric_;
    uint64_t* nom = dest + num_numeric_;
    for (size_t j = 0; j < num_nominal_; ++j) {
      const ValueId v = static_cast<ValueId>(src_nom[j]);
      nom[j] = (static_cast<uint64_t>(ranks_[rank_offset_[j] + v]) << 32) | v;
    }
    // Padding is re-zeroed (never copied): the destination must satisfy the
    // defined-bytes contract even for rows from pre-contract images.
    for (size_t k = num_numeric_ + num_nominal_; k < row_slots_; ++k) {
      dest[k] = 0;
    }
  }

  /// \brief Four-way dominance over two packed rows; byte-identical
  /// outcomes to DominanceComparator::Compare on the unpacked rows.
  DomResult Compare(const uint64_t* a, const uint64_t* b) const {
    unsigned left = 0, right = 0;
    // Numeric section: branchless flag accumulation (no per-dimension
    // branch; the loop auto-vectorizes), one early-exit conflict check
    // before the nominal section.
    for (size_t i = 0; i < num_numeric_; ++i) {
      const double x = std::bit_cast<double>(a[i]);
      const double y = std::bit_cast<double>(b[i]);
      left |= static_cast<unsigned>(x < y);
      right |= static_cast<unsigned>(y < x);
    }
    if (left & right) return DomResult::kIncomparable;
    // Nominal section, also branchless. Rank comparison orders the slots
    // (rank lives in the high word; any listed rank < kUnlistedRank).
    // `clash` collects the paper's key semantic: distinct values with equal
    // ranks are two unlisted values — incomparable, never equal.
    const uint64_t* na = a + num_numeric_;
    const uint64_t* nb = b + num_numeric_;
    unsigned clash = 0;
    for (size_t j = 0; j < num_nominal_; ++j) {
      const uint64_t ea = na[j], eb = nb[j];
      const uint32_t ra = static_cast<uint32_t>(ea >> 32);
      const uint32_t rb = static_cast<uint32_t>(eb >> 32);
      left |= static_cast<unsigned>(ra < rb);
      right |= static_cast<unsigned>(rb < ra);
      clash |= static_cast<unsigned>(ea != eb) &
               static_cast<unsigned>(ra == rb);
    }
    if (clash | (left & right)) return DomResult::kIncomparable;
    if (left) return DomResult::kLeftDominates;
    if (right) return DomResult::kRightDominates;
    return DomResult::kEqual;
  }

  /// \brief One-vs-many scan (kernel_simd.cc, runtime-dispatched SIMD):
  /// index of the first of the n stride-spaced rows at `base` that
  /// DOMINATES `probe`, or n when none does. The probe's vectors load into
  /// registers once for the whole scan — THE window inner loop.
  size_t CompareBlock(const uint64_t* probe, const uint64_t* base, size_t n,
                      size_t stride) const;

  /// \brief BNL's scan: index of the first row strictly related to the
  /// probe either way (row dominates probe, or probe dominates row), or n;
  /// `*result` receives the relation at the returned index. Equal and
  /// incomparable rows are skipped — exactly the entries BNL keeps.
  size_t CompareBlockRelated(const uint64_t* probe, const uint64_t* base,
                             size_t n, size_t stride,
                             DomResult* result) const;

  /// \brief Per-group lane role masks for the AVX2 tier: element g holds
  /// one bit per lane of 4-slot group g flagging it numeric / nominal
  /// (padding lanes are in neither mask). Compiled once so a group
  /// straddling the numeric and nominal sections costs two masked compares
  /// instead of a tail loop.
  const uint8_t* lane4_numeric_masks() const { return lane4_num_.data(); }
  const uint8_t* lane4_nominal_masks() const { return lane4_nom_.data(); }

 private:
  size_t num_numeric_ = 0;
  size_t num_nominal_ = 0;
  size_t row_slots_ = 0;
  std::vector<double> sign_;
  std::vector<uint32_t> ranks_;        // flat rank[ValueId], all dims
  std::vector<size_t> rank_offset_;    // per-dimension offset into ranks_
  std::vector<ValueId> listed_;        // listed values, all dims, rank order
  std::vector<size_t> listed_offset_;  // per-dimension offset, + end sentinel
  std::vector<uint8_t> lane4_num_;     // SIMD lane roles, 4-lane groups
  std::vector<uint8_t> lane4_nom_;
};

/// \brief A batch of candidate rows packed row-major under a compiled
/// profile, with the originating RowIds retained for mapping results back.
class PackedBlock {
 public:
  void Pack(const CompiledProfile& profile, const Dataset& data,
            const RowId* ids, size_t n) {
    stride_ = profile.row_slots();
    ids_.assign(ids, ids + n);
    buf_.EnsureCapacity(n * stride_, 0);
    uint64_t* dest = buf_.data();
    for (size_t i = 0; i < n; ++i, dest += stride_) {
      profile.PackRow(data, ids[i], dest);
    }
  }

  void Pack(const CompiledProfile& profile, const Dataset& data,
            const std::vector<RowId>& ids) {
    Pack(profile, data, ids.data(), ids.size());
  }

  /// \brief Packs every row of `data` in order (ids 0..n-1). Shard images
  /// store whole shards, so the identity id map is the common case.
  void PackAll(const CompiledProfile& profile, const Dataset& data) {
    const size_t n = data.num_rows();
    stride_ = profile.row_slots();
    ids_.resize(n);
    buf_.EnsureCapacity(n * stride_, 0);
    uint64_t* dest = buf_.data();
    for (size_t i = 0; i < n; ++i, dest += stride_) {
      ids_[i] = static_cast<RowId>(i);
      profile.PackRow(data, static_cast<RowId>(i), dest);
    }
  }

  /// \brief Resets to an empty block with the given stride, ready for
  /// AppendRaw. Keeps the buffer (append re-grows from live capacity).
  void Reset(size_t stride) {
    stride_ = stride;
    ids_.clear();
  }

  /// \brief Appends one already-packed row (stride() slots) verbatim. The
  /// serving layer assembles response blocks this way: result rows are
  /// copied straight out of the snapshots' neutral blocks, never re-packed.
  void AppendRaw(const uint64_t* row, RowId id) {
    buf_.EnsureCapacity((ids_.size() + 1) * stride_, ids_.size() * stride_);
    std::memcpy(buf_.data() + ids_.size() * stride_, row,
                stride_ * sizeof(uint64_t));
    ids_.push_back(id);
  }

  /// \brief Serializes stride, row ids and raw slots. Meaningful only for
  /// blocks packed under a profile-independent (neutral) compilation — the
  /// writer persists the bytes as-is.
  void WriteTo(BinaryWriter& writer) const;

  /// \brief Reads a block written by WriteTo. Rejects more than `max_rows`
  /// rows and, when `expected_stride` is non-zero, any other stride.
  /// Returns false on truncated or malformed input.
  bool ReadFrom(BinaryReader& reader, uint64_t max_rows,
                size_t expected_stride);

  size_t size() const { return ids_.size(); }
  size_t stride() const { return stride_; }
  const uint64_t* row(size_t i) const { return buf_.data() + i * stride_; }
  RowId row_id(size_t i) const { return ids_[i]; }

  size_t MemoryUsage() const {
    return buf_.MemoryUsage() + ids_.capacity() * sizeof(RowId);
  }

 private:
  size_t stride_ = 0;
  AlignedRowBuffer buf_;
  std::vector<RowId> ids_;
};

/// \brief Dense window scratch for window algorithms (SFS / BNL / ASFS):
/// accepted tuples are copied contiguously in acceptance order so the
/// per-candidate scan streams sequential cache lines, and BNL's eviction
/// compaction and move-to-front promotion are row memmoves.
class PackedWindow {
 public:
  explicit PackedWindow(size_t row_slots) : stride_(row_slots) {}

  void Append(const uint64_t* row, RowId id) {
    buf_.EnsureCapacity((ids_.size() + 1) * stride_, ids_.size() * stride_);
    std::memcpy(buf_.data() + ids_.size() * stride_, row,
                stride_ * sizeof(uint64_t));
    ids_.push_back(id);
  }

  size_t size() const { return ids_.size(); }
  size_t stride() const { return stride_; }
  const uint64_t* row(size_t i) const { return buf_.data() + i * stride_; }
  /// \brief Base of the packed rows, for hoisted sequential scans. Valid
  /// until the next Append (growth may reallocate).
  const uint64_t* data() const { return buf_.data(); }
  RowId id(size_t i) const { return ids_[i]; }
  const std::vector<RowId>& ids() const { return ids_; }

  /// \brief BNL compaction: moves entry `src` down to `dst` (dst <= src).
  void CopyEntry(size_t src, size_t dst) {
    if (src == dst) return;
    std::memmove(buf_.data() + dst * stride_, buf_.data() + src * stride_,
                 stride_ * sizeof(uint64_t));
    ids_[dst] = ids_[src];
  }

  /// \brief Drops every entry at index >= n.
  void Truncate(size_t n) { ids_.resize(n); }

  /// \brief Move-to-front promotion: swaps entry i with entry 0.
  void PromoteToFront(size_t i) {
    if (i == 0) return;
    swap_tmp_.resize(stride_);
    uint64_t* front = buf_.data();
    uint64_t* other = buf_.data() + i * stride_;
    std::memcpy(swap_tmp_.data(), front, stride_ * sizeof(uint64_t));
    std::memcpy(front, other, stride_ * sizeof(uint64_t));
    std::memcpy(other, swap_tmp_.data(), stride_ * sizeof(uint64_t));
    std::swap(ids_[0], ids_[i]);
  }

  size_t MemoryUsage() const {
    return buf_.MemoryUsage() + ids_.capacity() * sizeof(RowId);
  }

 private:
  size_t stride_;
  AlignedRowBuffer buf_;
  std::vector<RowId> ids_;
  std::vector<uint64_t> swap_tmp_;
};

/// \brief True iff any window row dominates the packed candidate `cand`
/// (the dense-window scan every SFS-shaped extraction runs). One
/// CompareBlock call: the runtime-dispatched SIMD kernel loads the
/// candidate's vectors into registers once and streams the window's
/// contiguous rows. Adds the number of comparisons actually performed
/// (rows examined up to and including the dominator) to *tests when
/// provided — identical counts to the scalar per-pair scan, since every
/// tier stops at the same first dominator.
inline bool WindowDominates(const CompiledProfile& profile,
                            const PackedWindow& window, const uint64_t* cand,
                            size_t* tests = nullptr) {
  const size_t n = window.size();
  const size_t hit = profile.CompareBlock(cand, window.data(), n,
                                          window.stride());
  if (tests != nullptr) *tests += hit < n ? hit + 1 : n;
  return hit < n;
}

}  // namespace nomsky

#endif  // NOMSKY_DOMINANCE_KERNEL_H_
