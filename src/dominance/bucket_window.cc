// Nominal-bucketed dominance window. See bucket_window.h for the design.
//
// One probe of a keyed window is one pass: the eligible buckets are
// enumerated in ascending key order and each is scanned as it comes up, so
// the enumeration stops at the first dominator. The AVX2 probe carries a
// per-function target attribute, like the kernel tiers in kernel_simd.cc,
// and is reached only when ActiveKernelTier() says the host has AVX2;
// `flatten` inlines the shared enumeration template and the AVX2 bucket
// scan into it.

#include "dominance/bucket_window.h"

#include <algorithm>
#include <bit>

#include "dominance/kernel_simd.h"

#if defined(__x86_64__) || defined(_M_X64)
#define NOMSKY_BUCKET_X86 1
#include <immintrin.h>
#else
#define NOMSKY_BUCKET_X86 0
#endif

namespace nomsky {

namespace {

using Bucket = NominalBucketWindow::Bucket;
constexpr uint32_t kGroup = NominalBucketWindow::kGroupRows;

// One probe's scan state: the candidate's numeric slots and un-keyed
// nominal words, its own key, and the bucket storage.
struct ScanArgs {
  const uint64_t* arena;
  const Bucket* buckets;
  uint32_t own;  // the candidate's own key
  const uint64_t* cand_num;
  size_t num_numeric;
  const uint64_t* cand_nom;  // un-keyed nominal words
  size_t num_unkeyed;
  size_t group_slots;  // slots per group of kGroup rows
};

// The row at `slot` (its columns kGroup slots apart) dominates the
// candidate. Outside the candidate's own bucket a keyed dimension is
// already strictly better.
inline bool ScalarRowDominates(const ScanArgs& a, const uint64_t* slot,
                               bool own) {
  unsigned left = own ? 0u : 1u;
  for (size_t i = 0; i < a.num_numeric; ++i, slot += kGroup) {
    const double x = std::bit_cast<double>(*slot);
    const double y = std::bit_cast<double>(a.cand_num[i]);
    if (y < x) return false;
    left |= static_cast<unsigned>(x < y);
  }
  for (size_t u = 0; u < a.num_unkeyed; ++u, slot += kGroup) {
    const uint64_t er = *slot, ec = a.cand_nom[u];
    const uint32_t rr = static_cast<uint32_t>(er >> 32);
    const uint32_t rc = static_cast<uint32_t>(ec >> 32);
    if (rc < rr || (er != ec && rr == rc)) return false;  // right or clash
    left |= static_cast<unsigned>(rr < rc);
  }
  return left != 0;
}

// Scans bucket `key` row by row; adds the rows examined to *seen and
// returns true at the first dominator.
struct ScalarBucketScan {
  const ScanArgs& a;
  size_t seen = 0;

  bool operator()(uint32_t key) {
    const Bucket& b = a.buckets[key];
    const uint64_t* groups = a.arena + b.offset;
    const bool own = key == a.own;
    for (uint32_t r = 0; r < b.count; ++r) {
      const uint64_t* slot =
          groups + (r / kGroup) * a.group_slots + r % kGroup;
      if (ScalarRowDominates(a, slot, own)) {
        seen += r + 1;
        return true;
      }
    }
    seen += b.count;
    return false;
  }
};

#if NOMSKY_BUCKET_X86

__attribute__((target("avx2"))) inline unsigned Mask4(__m256i v) {
  return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(v)));
}

// Index of the first of a bucket's `count` rows that dominates the
// candidate, or `count`; one group of four rows per compare. `dead`
// collects rows the candidate beats on some numeric slot or that show a
// right/clash flag on an un-keyed word; `left` collects strictly-better
// rows, all of them outside the candidate's own bucket. Lanes past
// `count` read the group's zeroed slots and are masked off. A non-zero
// kNumeric fixes the numeric dimension count at compile time, so the
// column loop unrolls and the candidate's broadcasts stay in registers.
template <size_t kNumeric, bool kOwn>
__attribute__((target("avx2"))) inline uint32_t Avx2FirstHit(
    const ScanArgs& a, const uint64_t* group, uint32_t count) {
  const size_t nn = kNumeric > 0 ? kNumeric : a.num_numeric;
  uint32_t g = 0;
  do {  // visited buckets are non-empty
    __m256d dead_v = _mm256_setzero_pd();
    __m256d left_v = _mm256_setzero_pd();
    const uint64_t* col = group;
    for (size_t i = 0; i < nn; ++i, col += kGroup) {
      const __m256d row = _mm256_loadu_pd(reinterpret_cast<const double*>(col));
      const __m256d c =
          _mm256_broadcast_sd(reinterpret_cast<const double*>(a.cand_num + i));
      dead_v = _mm256_or_pd(dead_v, _mm256_cmp_pd(c, row, _CMP_LT_OQ));
      if (kOwn) {
        left_v = _mm256_or_pd(left_v, _mm256_cmp_pd(row, c, _CMP_LT_OQ));
      }
    }
    unsigned dead = static_cast<unsigned>(_mm256_movemask_pd(dead_v));
    unsigned left =
        kOwn ? static_cast<unsigned>(_mm256_movemask_pd(left_v)) : 0xFu;
    for (size_t u = 0; u < a.num_unkeyed; ++u, col += kGroup) {
      const __m256i w =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col));
      const __m256i cw =
          _mm256_set1_epi64x(static_cast<long long>(a.cand_nom[u]));
      const __m256i rr = _mm256_srli_epi64(w, 32);
      const __m256i rc = _mm256_srli_epi64(cw, 32);
      const unsigned rank_lt = Mask4(_mm256_cmpgt_epi64(rc, rr));
      const unsigned rank_gt = Mask4(_mm256_cmpgt_epi64(rr, rc));
      const unsigned word_eq = Mask4(_mm256_cmpeq_epi64(w, cw));
      left |= rank_lt;
      dead |= rank_gt | ~(rank_lt | rank_gt | word_eq);
    }
    const uint32_t rem = count - g;
    const unsigned lanes = rem >= kGroup ? 0xFu : (1u << rem) - 1u;
    const unsigned hits = left & ~dead & lanes;
    if (hits != 0) return g + static_cast<uint32_t>(std::countr_zero(hits));
    g += kGroup;
    group += a.group_slots;
  } while (g < count);
  return count;
}

template <size_t kNumeric>
struct Avx2BucketScan {
  const ScanArgs& a;
  size_t seen = 0;

  __attribute__((target("avx2"))) bool operator()(uint32_t key) {
    const Bucket& b = a.buckets[key];
    const uint64_t* groups = a.arena + b.offset;
    const uint32_t hit =
        key == a.own ? Avx2FirstHit<kNumeric, true>(a, groups, b.count)
                     : Avx2FirstHit<kNumeric, false>(a, groups, b.count);
    if (hit < b.count) {
      seen += hit + 1;
      return true;
    }
    seen += b.count;
    return false;
  }
};

#endif  // NOMSKY_BUCKET_X86

}  // namespace

// The probe side of the window: bucket enumeration and the tiered scans.
struct BucketProbe {
  // Calls scan(key) on every non-empty bucket eligible for `cand`, in
  // ascending key order, until it returns true; returns whether it did.
  template <typename Scan>
  static bool ForEachEligible(const NominalBucketWindow& w,
                              const uint64_t* cand, Scan& scan);

  static bool Scalar(const NominalBucketWindow& w, const uint64_t* cand,
                     const ScanArgs& args, size_t* seen) {
    ScalarBucketScan scan{args};
    const bool hit = ForEachEligible(w, cand, scan);
    *seen += scan.seen;
    return hit;
  }

#if NOMSKY_BUCKET_X86
  template <size_t kNumeric>
  __attribute__((target("avx2"), flatten)) static bool Avx2(
      const NominalBucketWindow& w, const uint64_t* cand,
      const ScanArgs& args, size_t* seen) {
    Avx2BucketScan<kNumeric> scan{args};
    const bool hit = ForEachEligible(w, cand, scan);
    *seen += scan.seen;
    return hit;
  }
  // Three numeric dimensions get an unrolled scan: on the perfbench table
  // (3 numeric, 2 nominal dimensions) it reads 7-8% less CPU per cold
  // served and local-batch query than the generic scan.
  static bool Avx2(const NominalBucketWindow& w, const uint64_t* cand,
                   const ScanArgs& args, size_t* seen) {
    return args.num_numeric == 3 ? Avx2<3>(w, cand, args, seen)
                                 : Avx2<0>(w, cand, args, seen);
  }
#endif
};

template <typename Scan>
bool BucketProbe::ForEachEligible(const NominalBucketWindow& w,
                                  const uint64_t* cand, Scan& scan) {
  const size_t k = w.keyed_;
  const size_t last = k - 1;
  const uint32_t last_card = w.card_[last];
  // Per keyed dimension, the candidate's eligible values as a bit mask.
  const uint64_t* nom = cand + w.profile_->num_numeric();
  uint64_t* mask = w.mask_.data();
  size_t prefixes = 1;  // eligible key prefixes
  for (size_t j = 0; j < k; ++j) {
    mask[j] = w.eligible_[w.eligible_offset_[j] + static_cast<ValueId>(nom[j])];
    if (j < last) prefixes *= static_cast<size_t>(std::popcount(mask[j]));
  }
  // At each key prefix (the leading keyed values) the occupied
  // last-dimension values are intersected with the last mask and visited
  // in bit order, and prefixes come up ascending, so keys do too.
  if (prefixes > w.prefixes_.size()) {
    // Fewer non-empty prefixes than eligible ones: walk the non-empty
    // list, keeping the prefixes whose every leading value is eligible.
    const ValueId* values = w.prefix_values_.data();
    for (size_t i = 0; i < w.prefixes_.size(); ++i, values += last) {
      uint64_t eligible = 1;
      for (size_t j = 0; j < last; ++j) eligible &= mask[j] >> values[j];
      if ((eligible & 1) == 0) continue;
      const uint32_t p = w.prefixes_[i];
      for (uint64_t bits = w.occupied_[p] & mask[last]; bits != 0;
           bits &= bits - 1) {
        const uint32_t key =
            p * last_card + static_cast<uint32_t>(std::countr_zero(bits));
        if (scan(key)) return true;
      }
    }
    return false;
  }
  // Otherwise depth-first over the leading dimensions' eligible values,
  // lowest first (dimension 0 most significant).
  uint64_t* rest = w.rest_.data();  // per level: values not yet taken
  uint32_t* prefix = w.prefix_.data();  // per level: key prefix so far
  size_t j = 0;
  if (last > 0) rest[0] = mask[0];
  while (true) {
    uint32_t p = 0;  // the key prefix of the leading dimensions
    if (last > 0) {
      if (rest[j] == 0) {  // level exhausted: back up one level
        if (j == 0) return false;
        --j;
        continue;
      }
      const uint32_t v = static_cast<uint32_t>(std::countr_zero(rest[j]));
      rest[j] &= rest[j] - 1;
      p = (j == 0 ? 0 : prefix[j - 1]) + v * w.prefix_radix_[j];
      if (j + 1 < last) {
        prefix[j] = p;
        ++j;
        rest[j] = mask[j];
        continue;
      }
    }
    uint64_t bits = w.occupied_[p] & mask[last];
    while (bits != 0) {
      const uint32_t key =
          p * last_card + static_cast<uint32_t>(std::countr_zero(bits));
      if (scan(key)) return true;
      bits &= bits - 1;
    }
    if (last == 0) return false;
  }
}

NominalBucketWindow::NominalBucketWindow(const CompiledProfile& profile,
                                         size_t max_rows)
    : profile_(&profile), flat_(profile.row_slots()) {
  if (max_rows < kMinKeyedRows) return;
  for (size_t j = 0; j < profile.num_nominal(); ++j) {
    const size_t c = profile.cardinality(j);
    if (c == 0 || c > kMaxKeyedCardinality || num_buckets_ * c > kMaxBuckets) {
      break;
    }
    num_buckets_ *= c;
    ++keyed_;
  }
}

void NominalBucketWindow::Init() {
  const CompiledProfile& profile = *profile_;
  const size_t k = keyed_;
  for (size_t j = 0; j < k; ++j) {
    card_.push_back(static_cast<uint32_t>(profile.cardinality(j)));
  }
  prefix_radix_.resize(k);
  uint32_t mult = 1;
  for (size_t j = k - 1; j-- > 0;) {
    prefix_radix_[j] = mult;
    mult *= card_[j];
  }
  const uint32_t last_card = card_[k - 1];
  columns_ = profile.num_numeric() + (profile.num_nominal() - k);
  // A group spans at least one slot per row, so a region is never empty.
  group_slots_ = kGroup * std::max<size_t>(columns_, 1);
  // Eligible values per (dimension, value): the listed values ranked
  // strictly ahead of the value, and the value itself. Every unlisted value
  // ranks behind all listed ones.
  for (size_t j = 0; j < k; ++j) {
    const size_t offset = eligible_.size();
    eligible_offset_.push_back(offset);
    eligible_.resize(offset + card_[j]);
    uint64_t ahead = 0;
    for (const ValueId v : profile.listed(j)) {
      eligible_[offset + v] = ahead | uint64_t{1} << v;
      ahead |= uint64_t{1} << v;
    }
    for (ValueId v = 0; v < card_[j]; ++v) {
      if (profile.rank(j, v) == CompiledProfile::kUnlistedRank) {
        eligible_[offset + v] = ahead | uint64_t{1} << v;
      }
    }
  }
  mask_.resize(k);
  rest_.resize(k);
  prefix_.resize(k);
  buckets_.resize(num_buckets_);
  occupied_.resize(num_buckets_ / last_card);
}

uint32_t NominalBucketWindow::KeyPrefix(const uint64_t* nom) const {
  uint32_t p = 0;
  for (size_t j = 0; j + 1 < keyed_; ++j) {
    p += static_cast<uint32_t>(nom[j]) * prefix_radix_[j];
  }
  return p;
}

void NominalBucketWindow::Append(const uint64_t* row, RowId id) {
  if (keyed_ == 0) {
    flat_.Append(row, id);
    return;
  }
  if (occupied_.empty()) Init();
  const size_t nn = profile_->num_numeric();
  const size_t k = keyed_;
  const size_t last = k - 1;
  const uint64_t* nom = row + nn;
  const uint32_t p = KeyPrefix(nom);
  const uint32_t v = static_cast<uint32_t>(nom[last]);
  Bucket& b = buckets_[p * card_[last] + v];
  if ((occupied_[p] >> v & 1) == 0) {
    if (occupied_[p] == 0) {  // the prefix's first bucket
      const auto at = std::lower_bound(prefixes_.begin(), prefixes_.end(), p);
      const ptrdiff_t i = at - prefixes_.begin();
      prefixes_.insert(at, p);
      prefix_values_.insert(
          prefix_values_.begin() + i * static_cast<ptrdiff_t>(last), last, 0);
      for (size_t j = 0; j < last; ++j) {
        prefix_values_[static_cast<size_t>(i) * last + j] =
            static_cast<ValueId>(nom[j]);
      }
    }
    occupied_[p] |= uint64_t{1} << v;
  }
  const size_t group_slots = group_slots_;
  if (b.count == b.cap) {
    // Move to a fresh zeroed region at the arena's end; the old region is
    // abandoned (geometric growth bounds the waste).
    const uint32_t cap = b.cap == 0 ? kGroup : 2 * b.cap;
    const size_t offset = arena_.size();
    arena_.resize(offset + group_slots * (cap / kGroup));
    std::copy_n(arena_.begin() + static_cast<ptrdiff_t>(b.offset),
                group_slots * (b.cap / kGroup),
                arena_.begin() + static_cast<ptrdiff_t>(offset));
    b.offset = offset;
    b.cap = cap;
  }
  uint64_t* slot = arena_.data() + b.offset +
                   (b.count / kGroup) * group_slots + b.count % kGroup;
  for (size_t i = 0; i < nn; ++i, slot += kGroup) *slot = row[i];
  for (size_t u = k; u < profile_->num_nominal(); ++u, slot += kGroup) {
    *slot = nom[u];
  }
  ++b.count;
  ids_.push_back(id);
}

bool NominalBucketWindow::Dominates(const uint64_t* cand,
                                    size_t* tests) const {
  if (keyed_ == 0) {
    return flat_.size() > 0 && WindowDominates(*profile_, flat_, cand, tests);
  }
  if (ids_.empty()) return false;
  const size_t nn = profile_->num_numeric();
  const size_t k = keyed_;
  const uint32_t own = KeyPrefix(cand + nn) * card_[k - 1] +
                       static_cast<uint32_t>(cand[nn + k - 1]);
  const ScanArgs args{arena_.data(), buckets_.data(), own,
                      cand,          nn,              cand + nn + k,
                      columns_ - nn, group_slots_};
  size_t seen = 0;
  bool hit;
#if NOMSKY_BUCKET_X86
  if (ActiveKernelTier() == KernelTier::kAvx2) {
    hit = BucketProbe::Avx2(*this, cand, args, &seen);
  } else {
    hit = BucketProbe::Scalar(*this, cand, args, &seen);
  }
#else
  hit = BucketProbe::Scalar(*this, cand, args, &seen);
#endif
  if (tests != nullptr) *tests += seen;
  return hit;
}

}  // namespace nomsky
