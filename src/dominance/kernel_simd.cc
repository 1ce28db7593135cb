// SIMD dominance kernel implementation. See kernel_simd.h for the design.
//
// Every SIMD function carries a per-function target attribute instead of
// the TU being compiled with -march flags, so the binary stays portable:
// the baseline code paths never emit AVX2 instructions, and the AVX2
// functions are only reached after __builtin_cpu_supports agrees.
//
// Correctness contract: the AVX2 per-row verdict is byte-identical to
// CompiledProfile::Compare. The numeric section uses ordered-quiet (OQ)
// vector compares, which implement IEEE `<` exactly like the scalar loop
// (NaN compares false both ways, -0.0 == +0.0); the nominal section
// derives the rank order from a 64-bit shift plus signed compare (ranks
// are 32-bit, so the sign bit is never set and signed == unsigned), and
// the clash flag (`distinct values, equal ranks` => incomparable) falls
// out of the same three compares. Lane role masks from the compiled
// profile strip padding lanes and the foreign section in groups that
// straddle the numeric/nominal boundary.

#include "dominance/kernel_simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define NOMSKY_KERNEL_X86 1
#include <immintrin.h>
#else
#define NOMSKY_KERNEL_X86 0
#endif

namespace nomsky {

namespace {

// Accumulated per-row comparison flags; nonzero means "seen on some
// dimension". Derives the same four-way verdict as the scalar Compare.
struct RowVerdict {
  unsigned left = 0;
  unsigned right = 0;
  unsigned clash = 0;

  bool LeftDominates() const { return left != 0 && right == 0 && clash == 0; }

  DomResult ToResult() const {
    if (clash != 0 || (left != 0 && right != 0)) {
      return DomResult::kIncomparable;
    }
    if (left != 0) return DomResult::kLeftDominates;
    if (right != 0) return DomResult::kRightDominates;
    return DomResult::kEqual;
  }
};

// ---------------------------------------------------------------------------
// Scalar tier: the kernel.h per-pair loop, row by row. Also the only tier
// on non-x86 hosts.
// ---------------------------------------------------------------------------

size_t ScalarFindDominator(const CompiledProfile& profile,
                           const uint64_t* probe, const uint64_t* base,
                           size_t n, size_t stride) {
  const uint64_t* row = base;
  for (size_t i = 0; i < n; ++i, row += stride) {
    if (profile.Compare(row, probe) == DomResult::kLeftDominates) return i;
  }
  return n;
}

size_t ScalarFindRelated(const CompiledProfile& profile, const uint64_t* probe,
                         const uint64_t* base, size_t n, size_t stride,
                         DomResult* result) {
  const uint64_t* row = base;
  for (size_t i = 0; i < n; ++i, row += stride) {
    const DomResult r = profile.Compare(row, probe);
    if (r == DomResult::kLeftDominates || r == DomResult::kRightDominates) {
      *result = r;
      return i;
    }
  }
  return n;
}

#if NOMSKY_KERNEL_X86

// ---------------------------------------------------------------------------
// AVX2 tier: 4 slots per lane-op.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline unsigned Mask4(__m256i v) {
  return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(v)));
}

__attribute__((target("avx2"))) inline RowVerdict Avx2RowFlags(
    const uint64_t* a, const uint64_t* b, size_t groups,
    const uint8_t* num_masks, const uint8_t* nom_masks) {
  RowVerdict v;
  for (size_t g = 0; g < groups; ++g) {
    const __m256i wa =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 4 * g));
    const __m256i wb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 4 * g));
    const unsigned num = num_masks[g];
    if (num != 0) {
      const __m256d xa = _mm256_castsi256_pd(wa);
      const __m256d xb = _mm256_castsi256_pd(wb);
      v.left |= static_cast<unsigned>(_mm256_movemask_pd(
                    _mm256_cmp_pd(xa, xb, _CMP_LT_OQ))) &
                num;
      v.right |= static_cast<unsigned>(_mm256_movemask_pd(
                     _mm256_cmp_pd(xb, xa, _CMP_LT_OQ))) &
                 num;
    }
    const unsigned nom = nom_masks[g];
    if (nom != 0) {
      const __m256i ra = _mm256_srli_epi64(wa, 32);
      const __m256i rb = _mm256_srli_epi64(wb, 32);
      const unsigned rank_lt = Mask4(_mm256_cmpgt_epi64(rb, ra));
      const unsigned rank_gt = Mask4(_mm256_cmpgt_epi64(ra, rb));
      const unsigned word_eq = Mask4(_mm256_cmpeq_epi64(wa, wb));
      v.left |= rank_lt & nom;
      v.right |= rank_gt & nom;
      v.clash |= ~(rank_lt | rank_gt | word_eq) & nom;
    }
  }
  return v;
}

// The single-cache-line fast path (stride 8 covers every schema of up to 8
// dimensions): the probe's two vectors and their pre-shifted ranks stay in
// registers across the whole window scan, and the two groups are fully
// unrolled.
__attribute__((target("avx2"))) size_t Avx2FindDominator8(
    const CompiledProfile& profile, const uint64_t* probe,
    const uint64_t* base, size_t n) {
  const unsigned num0 = profile.lane4_numeric_masks()[0];
  const unsigned num1 = profile.lane4_numeric_masks()[1];
  const unsigned nom0 = profile.lane4_nominal_masks()[0];
  const unsigned nom1 = profile.lane4_nominal_masks()[1];
  const __m256i pb0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(probe));
  const __m256i pb1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(probe + 4));
  const __m256d pd0 = _mm256_castsi256_pd(pb0);
  const __m256d pd1 = _mm256_castsi256_pd(pb1);
  const __m256i pr0 = _mm256_srli_epi64(pb0, 32);
  const __m256i pr1 = _mm256_srli_epi64(pb1, 32);

  const uint64_t* row = base;
  for (size_t i = 0; i < n; ++i, row += 8) {
    const __m256i wa0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row));
    const __m256i wa1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + 4));
    unsigned left = 0, right = 0, clash = 0;
    if (num0 != 0) {
      const __m256d xa = _mm256_castsi256_pd(wa0);
      left |= static_cast<unsigned>(
                  _mm256_movemask_pd(_mm256_cmp_pd(xa, pd0, _CMP_LT_OQ))) &
              num0;
      right |= static_cast<unsigned>(
                   _mm256_movemask_pd(_mm256_cmp_pd(pd0, xa, _CMP_LT_OQ))) &
               num0;
      // Earliest exit — the scalar loop's numeric/nominal section check: a
      // right flag from the numerics alone already disqualifies the row,
      // skip all nominal work (the common case on anticorrelated data).
      if (right != 0) continue;
    }
    if (nom0 != 0) {
      const __m256i ra = _mm256_srli_epi64(wa0, 32);
      const unsigned rank_lt = Mask4(_mm256_cmpgt_epi64(pr0, ra));
      const unsigned rank_gt = Mask4(_mm256_cmpgt_epi64(ra, pr0));
      const unsigned word_eq = Mask4(_mm256_cmpeq_epi64(wa0, pb0));
      left |= rank_lt & nom0;
      right |= rank_gt & nom0;
      clash |= ~(rank_lt | rank_gt | word_eq) & nom0;
    }
    // Mid-row early exit, same trick the scalar loop plays between its
    // sections: a right or clash flag already disqualifies the row as a
    // dominator, and both only ever accumulate — skip the second group.
    if ((right | clash) != 0) continue;
    if (num1 != 0) {
      const __m256d xa = _mm256_castsi256_pd(wa1);
      left |= static_cast<unsigned>(
                  _mm256_movemask_pd(_mm256_cmp_pd(xa, pd1, _CMP_LT_OQ))) &
              num1;
      right |= static_cast<unsigned>(
                   _mm256_movemask_pd(_mm256_cmp_pd(pd1, xa, _CMP_LT_OQ))) &
               num1;
    }
    if (nom1 != 0) {
      const __m256i ra = _mm256_srli_epi64(wa1, 32);
      const unsigned rank_lt = Mask4(_mm256_cmpgt_epi64(pr1, ra));
      const unsigned rank_gt = Mask4(_mm256_cmpgt_epi64(ra, pr1));
      const unsigned word_eq = Mask4(_mm256_cmpeq_epi64(wa1, pb1));
      left |= rank_lt & nom1;
      right |= rank_gt & nom1;
      clash |= ~(rank_lt | rank_gt | word_eq) & nom1;
    }
    if (left != 0 && right == 0 && clash == 0) return i;
  }
  return n;
}

__attribute__((target("avx2"))) size_t Avx2FindDominator(
    const CompiledProfile& profile, const uint64_t* probe,
    const uint64_t* base, size_t n, size_t stride) {
  if (stride == 8) return Avx2FindDominator8(profile, probe, base, n);
  const size_t groups = stride / 4;
  const uint8_t* num_masks = profile.lane4_numeric_masks();
  const uint8_t* nom_masks = profile.lane4_nominal_masks();
  const uint64_t* row = base;
  for (size_t i = 0; i < n; ++i, row += stride) {
    unsigned left = 0;
    bool dead = false;
    for (size_t g = 0; g < groups; ++g) {
      const __m256i wa =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + 4 * g));
      const __m256i wb = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(probe + 4 * g));
      unsigned disq = 0;
      const unsigned num = num_masks[g];
      if (num != 0) {
        const __m256d xa = _mm256_castsi256_pd(wa);
        const __m256d xb = _mm256_castsi256_pd(wb);
        left |= static_cast<unsigned>(_mm256_movemask_pd(
                    _mm256_cmp_pd(xa, xb, _CMP_LT_OQ))) &
                num;
        disq |= static_cast<unsigned>(_mm256_movemask_pd(
                    _mm256_cmp_pd(xb, xa, _CMP_LT_OQ))) &
                num;
        if (disq != 0) {
          dead = true;  // numeric right flag: skip the nominal compares
          break;
        }
      }
      const unsigned nom = nom_masks[g];
      if (nom != 0) {
        const __m256i ra = _mm256_srli_epi64(wa, 32);
        const __m256i rb = _mm256_srli_epi64(wb, 32);
        const unsigned rank_lt = Mask4(_mm256_cmpgt_epi64(rb, ra));
        const unsigned rank_gt = Mask4(_mm256_cmpgt_epi64(ra, rb));
        const unsigned word_eq = Mask4(_mm256_cmpeq_epi64(wa, wb));
        left |= rank_lt & nom;
        // right flags or clash lanes both disqualify a dominator.
        disq |= (rank_gt | (~(rank_lt | rank_gt | word_eq))) & nom;
      }
      if (disq != 0) {
        dead = true;
        break;
      }
    }
    if (!dead && left != 0) return i;
  }
  return n;
}

__attribute__((target("avx2"))) size_t Avx2FindRelated(
    const CompiledProfile& profile, const uint64_t* probe,
    const uint64_t* base, size_t n, size_t stride, DomResult* result) {
  const size_t groups = stride / 4;
  const uint8_t* num_masks = profile.lane4_numeric_masks();
  const uint8_t* nom_masks = profile.lane4_nominal_masks();
  const uint64_t* row = base;
  for (size_t i = 0; i < n; ++i, row += stride) {
    unsigned left = 0, right = 0;
    bool dead = false;
    for (size_t g = 0; g < groups; ++g) {
      const __m256i wa =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + 4 * g));
      const __m256i wb = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(probe + 4 * g));
      const unsigned num = num_masks[g];
      if (num != 0) {
        const __m256d xa = _mm256_castsi256_pd(wa);
        const __m256d xb = _mm256_castsi256_pd(wb);
        left |= static_cast<unsigned>(_mm256_movemask_pd(
                    _mm256_cmp_pd(xa, xb, _CMP_LT_OQ))) &
                num;
        right |= static_cast<unsigned>(_mm256_movemask_pd(
                     _mm256_cmp_pd(xb, xa, _CMP_LT_OQ))) &
                 num;
      }
      const unsigned nom = nom_masks[g];
      if (nom != 0) {
        const __m256i ra = _mm256_srli_epi64(wa, 32);
        const __m256i rb = _mm256_srli_epi64(wb, 32);
        const unsigned rank_lt = Mask4(_mm256_cmpgt_epi64(rb, ra));
        const unsigned rank_gt = Mask4(_mm256_cmpgt_epi64(ra, rb));
        const unsigned word_eq = Mask4(_mm256_cmpeq_epi64(wa, wb));
        left |= rank_lt & nom;
        right |= rank_gt & nom;
        if ((~(rank_lt | rank_gt | word_eq) & nom) != 0) {
          dead = true;  // clash: incomparable regardless of the rest
          break;
        }
      }
      // Flags both ways: incomparable, no later group can undo it.
      if (left != 0 && right != 0) {
        dead = true;
        break;
      }
    }
    if (!dead && (left != 0) != (right != 0)) {
      *result = left != 0 ? DomResult::kLeftDominates
                          : DomResult::kRightDominates;
      return i;
    }
  }
  return n;
}

__attribute__((target("avx2"))) DomResult Avx2ComparePair(
    const CompiledProfile& profile, const uint64_t* a, const uint64_t* b) {
  return Avx2RowFlags(a, b, profile.row_slots() / 4,
                      profile.lane4_numeric_masks(),
                      profile.lane4_nominal_masks())
      .ToResult();
}

#endif  // NOMSKY_KERNEL_X86

// ---------------------------------------------------------------------------
// Dispatch state.
// ---------------------------------------------------------------------------

// ForceKernelTier override; kTierNoForce when dispatch follows the
// environment / CPU detection.
std::atomic<int> g_forced_tier{kTierNoForce};

// Scalar stays scalar; any other request gets the best tier the host has
// (AVX2 or, without it, scalar), so the result is always a valid tier.
KernelTier ClampToAvailable(KernelTier tier) {
  return tier == KernelTier::kScalar ? KernelTier::kScalar
                                     : DetectBestKernelTier();
}

KernelTier TierFromEnvironment() {
  const char* force = std::getenv("NOMSKY_FORCE_SCALAR_KERNEL");
  if (force != nullptr && *force != '\0' && std::strcmp(force, "0") != 0) {
    return KernelTier::kScalar;
  }
  const char* name = std::getenv("NOMSKY_KERNEL_TIER");
  if (name != nullptr) {
    if (std::strcmp(name, "scalar") == 0) return KernelTier::kScalar;
    if (std::strcmp(name, "avx2") == 0) {
      return ClampToAvailable(KernelTier::kAvx2);
    }
    // Unknown names fall through to detection rather than aborting a
    // serving process over a typo.
  }
  return DetectBestKernelTier();
}

}  // namespace

const char* KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kAvx2:
      return "avx2";
    case KernelTier::kScalar:
      break;
  }
  return "scalar";
}

KernelTier DetectBestKernelTier() {
#if NOMSKY_KERNEL_X86
  static const KernelTier best = [] {
    if (__builtin_cpu_supports("avx2")) return KernelTier::kAvx2;
    return KernelTier::kScalar;
  }();
  return best;
#else
  return KernelTier::kScalar;
#endif
}

bool KernelTierAvailable(KernelTier tier) {
  return static_cast<uint8_t>(tier) <=
         static_cast<uint8_t>(DetectBestKernelTier());
}

std::vector<KernelTier> AvailableKernelTiers() {
  std::vector<KernelTier> tiers;
  for (uint8_t t = 0; t <= static_cast<uint8_t>(DetectBestKernelTier());
       ++t) {
    tiers.push_back(static_cast<KernelTier>(t));
  }
  return tiers;
}

KernelTier ActiveKernelTier() {
  const int forced = g_forced_tier.load(std::memory_order_relaxed);
  if (forced != kTierNoForce) return static_cast<KernelTier>(forced);
  static const KernelTier env_tier = TierFromEnvironment();
  return env_tier;
}

void ForceKernelTier(int tier_or_no_force) {
  if (tier_or_no_force == kTierNoForce) {
    g_forced_tier.store(kTierNoForce, std::memory_order_relaxed);
    return;
  }
  const KernelTier clamped =
      ClampToAvailable(static_cast<KernelTier>(tier_or_no_force));
  g_forced_tier.store(static_cast<int>(clamped), std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Tier-explicit entry points.
// ---------------------------------------------------------------------------

size_t FindDominatorTier(KernelTier tier, const CompiledProfile& profile,
                         const uint64_t* probe, const uint64_t* base,
                         size_t n, size_t stride) {
#if NOMSKY_KERNEL_X86
  if (tier == KernelTier::kAvx2) {
    return Avx2FindDominator(profile, probe, base, n, stride);
  }
#else
  (void)tier;
#endif
  return ScalarFindDominator(profile, probe, base, n, stride);
}

size_t FindRelatedTier(KernelTier tier, const CompiledProfile& profile,
                       const uint64_t* probe, const uint64_t* base, size_t n,
                       size_t stride, DomResult* result) {
#if NOMSKY_KERNEL_X86
  if (tier == KernelTier::kAvx2) {
    return Avx2FindRelated(profile, probe, base, n, stride, result);
  }
#else
  (void)tier;
#endif
  return ScalarFindRelated(profile, probe, base, n, stride, result);
}

DomResult ComparePairTier(KernelTier tier, const CompiledProfile& profile,
                          const uint64_t* a, const uint64_t* b) {
#if NOMSKY_KERNEL_X86
  if (tier == KernelTier::kAvx2) return Avx2ComparePair(profile, a, b);
#else
  (void)tier;
#endif
  return profile.Compare(a, b);
}

// ---------------------------------------------------------------------------
// Dispatched engine-facing entry points (declared in kernel.h).
// ---------------------------------------------------------------------------

size_t CompiledProfile::CompareBlock(const uint64_t* probe,
                                     const uint64_t* base, size_t n,
                                     size_t stride) const {
  return FindDominatorTier(ActiveKernelTier(), *this, probe, base, n, stride);
}

size_t CompiledProfile::CompareBlockRelated(const uint64_t* probe,
                                            const uint64_t* base, size_t n,
                                            size_t stride,
                                            DomResult* result) const {
  return FindRelatedTier(ActiveKernelTier(), *this, probe, base, n, stride,
                         result);
}

}  // namespace nomsky
