// Nominal-bucketed dominance window: the accepted-row window of the
// extractions whose windows grow large under one profile (SFS-A's
// progressive pass, the cross-shard merge, the result-cache refilter).
//
// Under an implicit preference (Definition 2) a row w can dominate a
// candidate c only if, on every nominal dimension, w holds c's own value
// or a listed value ranked strictly ahead of it: two distinct unlisted
// values are incomparable, and an unlisted value never beats a listed one.
// A flat window (PackedWindow + WindowDominates) still compares c with
// every accepted row. This window files each accepted row under the tuple
// of its nominal ValueIds, so a candidate visits only the buckets that can
// beat it on every keyed dimension:
//
//  * Keys. The leading nominal dimensions in schema order are keyed while
//    each has at most kMaxKeyedCardinality values and the product of their
//    cardinalities stays at or below kMaxBuckets; the key is the
//    mixed-radix number of the row's values (dimension 0 most
//    significant). Un-keyed nominal dimensions are compared inside the scan
//    with the kernel's rank/clash rule. The cardinality bound lets one
//    machine word hold a value's eligible set, so a probe's set-up is one
//    table load per keyed dimension.
//  * Small windows. An extraction that can append fewer than kMinKeyedRows
//    rows keys no dimension: its whole window is one bucket, every row is
//    eligible, and the kernel's flat block scan (PackedWindow +
//    WindowDominates) is that bucket's scan. A probe's bucket enumeration
//    costs about as much as a flat scan of a few dozen rows, so below
//    this size it saves nothing (SFS-A windows of under 100 rows over
//    bench_sharded's 1000 keys ran a third slower keyed than flat).
//    The choice depends only on the profile and the caller's row bound, so
//    every window of one extraction — and the full pass a merge is
//    compared with, over the same candidates — keys alike.
//  * Storage. A flat header array (one entry per key) points at each
//    bucket's rows in one arena region, in groups of kGroupRows
//    rows stored column-major inside the group: the sign-folded numeric
//    slots, then the un-keyed nominal words, each column kGroupRows slots.
//    A group's numeric test is one load per dimension, and a bucket's rows
//    are contiguous. The header array and the rest of the key state are
//    built on the first Append, so a window that stays empty allocates
//    nothing. One occupancy word per key prefix (every keyed value but the
//    last) marks the buckets that hold rows, one bit per last-dimension
//    value.
//  * Visits. On keyed dimension j the eligible values are c's own value and
//    the listed values ranked ahead of it, precomputed as one bit mask per
//    (dimension, value). When the product of the leading dimensions'
//    eligible counts is at most the number of non-empty prefixes, the
//    eligible prefixes are enumerated directly; otherwise the sorted list of
//    non-empty prefixes is walked and filtered. Either way a prefix's
//    occupancy word, masked by the last dimension's eligible values, gives
//    its buckets, so the non-empty eligible buckets come up in ascending
//    key order, and rows within a bucket in acceptance order; each bucket
//    is scanned as it comes up and the probe stops at the first dominator.
//  * Test. Inside an eligible bucket the keyed relation is known: every
//    keyed value is equal or better, and strictly better somewhere unless
//    the bucket is c's own. A row dominates c iff c is less than it on no
//    numeric dimension, the un-keyed words show no right or clash flag,
//    and — in c's own bucket only — the row is strictly less on some
//    numeric slot or ranked ahead on some un-keyed dimension.
//
// The verdict equals WindowDominates over the same rows (every row of an
// ineligible bucket is incomparable to c or dominated by it), so answers
// and emission order do not change; only the work drops. `tests` counts
// the rows examined, up to and including the first dominator, in visit
// order. The bucket scan has a scalar tier and an AVX2 tier (four rows per
// compare group, masked tail), chosen by ActiveKernelTier() like
// CompiledProfile::CompareBlock; both return the same verdict and count
// (tests/bucket_window_test.cc).

#ifndef NOMSKY_DOMINANCE_BUCKET_WINDOW_H_
#define NOMSKY_DOMINANCE_BUCKET_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "dominance/kernel.h"

namespace nomsky {

class NominalBucketWindow {
 public:
  /// Upper bound on the keyed bucket space (product of the keyed
  /// dimensions' cardinalities).
  static constexpr size_t kMaxBuckets = 4096;
  /// Largest cardinality a keyed dimension may have: one bit per value in
  /// a 64-bit eligibility mask.
  static constexpr size_t kMaxKeyedCardinality = 64;
  /// Rows per storage group: one AVX2 compare covers a group.
  static constexpr uint32_t kGroupRows = 4;
  /// Fewest rows a window must be able to hold to key any dimension.
  static constexpr size_t kMinKeyedRows = 128;

  /// One bucket: `count` rows in an arena region of `cap` rows (whole
  /// groups) starting at slot `offset`.
  struct Bucket {
    uint64_t offset = 0;
    uint32_t count = 0;
    uint32_t cap = 0;
  };

  /// Borrows `profile`, which must outlive the window. Rows appended and
  /// candidates probed must be packed under it. `max_rows` bounds the rows
  /// the caller may append (its candidate count); below kMinKeyedRows the
  /// window keys no dimension.
  NominalBucketWindow(const CompiledProfile& profile, size_t max_rows);

  /// \brief Files one accepted row (packed under the profile).
  void Append(const uint64_t* row, RowId id);

  /// \brief True iff some appended row dominates the packed candidate.
  /// Adds the rows examined (through the first dominator) to *tests when
  /// given. Uses per-window scratch: not safe for concurrent calls on one
  /// window.
  bool Dominates(const uint64_t* cand, size_t* tests = nullptr) const;

  size_t size() const { return ids().size(); }
  /// \brief Appended row ids in acceptance order.
  const std::vector<RowId>& ids() const {
    return keyed_ == 0 ? flat_.ids() : ids_;
  }
  /// \brief Leading nominal dimensions the key covers.
  size_t keyed_dims() const { return keyed_; }

 private:
  friend struct BucketProbe;  // enumeration and tiered scans (.cc)

  // Builds the key and scan state below; runs on the first Append.
  void Init();
  // The key prefix (mixed-radix number of every keyed value but the last)
  // of a row's nominal words.
  uint32_t KeyPrefix(const uint64_t* nom) const;

  const CompiledProfile* profile_;
  size_t keyed_ = 0;             // leading nominal dims in the key
  size_t num_buckets_ = 1;       // product of the keyed cardinalities
  PackedWindow flat_;            // the one bucket when keyed_ == 0
  // Everything below is empty until the first Append to a keyed window.
  size_t columns_ = 0;           // numeric + un-keyed nominal slots
  std::vector<uint32_t> card_;   // per keyed dim: cardinality
  // Per keyed dim but the last: its multiplier in a key prefix (the key is
  // prefix * card_.back() + the last keyed value).
  std::vector<uint32_t> prefix_radix_;
  size_t group_slots_ = 0;  // slots per group of kGroupRows rows
  // Per keyed dim j and value v, at eligible_[eligible_offset_[j] + v]:
  // the values of dim j a row may hold and still dominate a candidate
  // holding v (v itself and the listed values ranked ahead of it).
  std::vector<uint64_t> eligible_;
  std::vector<size_t> eligible_offset_;
  std::vector<Bucket> buckets_;     // num_buckets_ headers
  // One bit per key, set while its bucket holds rows: one word per key
  // prefix, one bit per last-dimension value.
  std::vector<uint64_t> occupied_;
  std::vector<uint32_t> prefixes_;  // prefixes with rows, ascending
  // The leading keyed values of each prefixes_ entry, keyed_dims() - 1 per
  // entry, so the walk filters without dividing prefixes apart.
  std::vector<ValueId> prefix_values_;
  std::vector<uint64_t> arena_;     // bucket groups; zero-initialized
  std::vector<RowId> ids_;
  // Per-probe scratch, one entry per keyed dim: the candidate's eligible
  // mask, and the depth-first enumeration's untaken values and key prefix.
  mutable std::vector<uint64_t> mask_;
  mutable std::vector<uint64_t> rest_;
  mutable std::vector<uint32_t> prefix_;
};

}  // namespace nomsky

#endif  // NOMSKY_DOMINANCE_BUCKET_WINDOW_H_
