// SIMD dominance kernel: runtime-dispatched one-vs-many window scans over
// the packed tuple layout of kernel.h.
//
// The PR-5 layout was shaped for exactly this: a packed row is contiguous
// sign-folded doubles followed by u64 (rank << 32) | value nominal words on
// a 64-byte stride, with the padding slots zeroed. That lets one AVX2 lane
// operation compare 4 slots of both rows at once:
//
//  * numeric slots: one ordered-quiet compare per direction, movemask into
//    the left/right flag bits (IEEE `<` exactly — NaN and ±0.0 behave as in
//    the scalar loop);
//  * nominal slots: the rank order falls out of a 64-bit shift + signed
//    compare (ranks are 32-bit, so signed == unsigned), equality of the
//    full word detects ties, and `rank-equal but word-distinct` lanes
//    accumulate the clash flag (distinct unlisted values => INCOMPARABLE);
//  * padding slots are zero on both sides, so full-width group loads never
//    need a tail loop — per-group lane masks (compiled once per profile)
//    keep numeric, nominal and padding lanes apart even when a 4-slot
//    group straddles the sections.
//
// Dispatch is by runtime CPU feature detection (no -march on the binary,
// so artifacts stay portable): AVX2 where the CPU has it, else the scalar
// loop in kernel.h. NOMSKY_FORCE_SCALAR_KERNEL=1 pins the scalar fallback,
// NOMSKY_KERNEL_TIER=scalar|avx2 selects a specific tier (clamped to what
// the host supports; any other value falls through to detection), and
// ForceKernelTier lets benches and tests pin tiers in-process. Both tiers
// are property-tested byte-identical to the reference comparator
// (tests/dominance_kernel_test.cc).
//
// The one-vs-many entry points are the whole design: the probe row's
// vectors load into registers once per window scan instead of once per
// pair, and the scan streams the window's contiguous stride-spaced rows.
// Engines reach them through CompiledProfile::CompareBlock /
// CompareBlockRelated (dispatched), or per-tier here for tests.

#ifndef NOMSKY_DOMINANCE_KERNEL_SIMD_H_
#define NOMSKY_DOMINANCE_KERNEL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dominance/kernel.h"

namespace nomsky {

/// \brief Dispatch tiers, best last. Scalar is always available; AVX2
/// exists on x86-64 hosts whose CPU supports it.
enum class KernelTier : uint8_t { kScalar = 0, kAvx2 = 1 };

/// \brief Stable lowercase tier name ("scalar" / "avx2") for
/// logs, --explain output and BENCH JSON metadata.
const char* KernelTierName(KernelTier tier);

/// \brief Best tier the host CPU supports (pure feature detection; ignores
/// environment overrides).
KernelTier DetectBestKernelTier();

/// \brief True iff `tier` can run on this host. kScalar is always true.
bool KernelTierAvailable(KernelTier tier);

/// \brief Every tier the host supports, worst first: {kScalar} or
/// {kScalar, kAvx2}.
std::vector<KernelTier> AvailableKernelTiers();

/// \brief The tier dispatched calls run on: a ForceKernelTier override if
/// one is set, else NOMSKY_FORCE_SCALAR_KERNEL / NOMSKY_KERNEL_TIER from
/// the environment (read once), else DetectBestKernelTier().
KernelTier ActiveKernelTier();

/// \brief Pins the dispatched tier process-wide: kScalar pins scalar, any
/// other value pins the best available tier (AVX2, else scalar);
/// kTierNoForce restores environment/detected dispatch. For benches and
/// forced-dispatch CI runs — not intended to flip mid-query (readers pick
/// it up per window scan).
inline constexpr int kTierNoForce = -1;
void ForceKernelTier(int tier_or_no_force);

// ---------------------------------------------------------------------------
// Tier-explicit entry points. `base` addresses n rows spaced `stride` slots
// apart, packed (with zeroed padding) under `profile`; `probe` is one such
// row. Callers must not pass an unavailable tier.
// ---------------------------------------------------------------------------

/// \brief Index of the first row that DOMINATES the probe
/// (Compare(row, probe) == kLeftDominates), or n when none does.
size_t FindDominatorTier(KernelTier tier, const CompiledProfile& profile,
                         const uint64_t* probe, const uint64_t* base,
                         size_t n, size_t stride);

/// \brief Index of the first row strictly related to the probe either way
/// (Compare(row, probe) is kLeftDominates or kRightDominates), or n.
/// `*result` receives the relation at the returned index (BNL's scan:
/// equal and incomparable rows are "keep", only related rows act).
size_t FindRelatedTier(KernelTier tier, const CompiledProfile& profile,
                       const uint64_t* probe, const uint64_t* base, size_t n,
                       size_t stride, DomResult* result);

/// \brief Full four-way comparison of two packed rows on a specific tier;
/// byte-identical to CompiledProfile::Compare on every input.
DomResult ComparePairTier(KernelTier tier, const CompiledProfile& profile,
                          const uint64_t* a, const uint64_t* b);

}  // namespace nomsky

#endif  // NOMSKY_DOMINANCE_KERNEL_SIMD_H_
