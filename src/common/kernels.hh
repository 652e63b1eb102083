/**
 * @file
 * Runtime-dispatched dot-product kernels for the retrieval hot path.
 *
 * FlatIndex's screen (screenSums: one query against many rows' codes)
 * and its re-scores (dot: one query against one row) run here, behind
 * a tier picked once at startup via CPUID:
 *
 *   scalar    portable C++: modm::dot's four-accumulator loop (vec.hh);
 *             the auto pick on hosts without AVX2
 *   avx2      FMA in double precision, four stripes per __m256d
 *
 * Determinism contract: scalar and avx2 produce BIT-IDENTICAL sums.
 * Both accumulate stripe j = elements i % 4 == j in i order, combine
 * (s0+s1)+(s2+s3), then fold the remainder sequentially. Each float
 * product is exact in double (24+24 < 53 significand bits), so
 * AVX2's fused multiply-add rounds exactly once per element — the same
 * rounding the scalar `acc += (double)a*(double)b` performs. Frozen
 * serving digests therefore do not move when dispatch upgrades the
 * tier, and the CI kernels job diffs every scenario's output under
 * MODM_KERNEL=scalar against the goldens of the default tier byte for
 * byte.
 *
 * The same tiers carry screenSums, the integer kernel behind
 * FlatIndex's screen (sketch.hh): int8 query codes times offset-binary
 * u8 row codes laid out in 8-row interleaved blocks, summed exactly in
 * int32. The avx2 tier multiplies a 32-byte slab of four dims by eight
 * rows against the broadcast query quad with maddubs, widens the pair
 * sums with madd, and adds them into eight lanes that are already the
 * eight rows' sums: no sign extension and no horizontal fold. Each
 * block's sums are compared with its limit in the same registers, and
 * the rows above it are appended without a branch. Integer sums and
 * compares are exact, so every tier returns the same sums and flags the
 * same rows.
 *
 * The tier also picks the body of the certified Gaussian loop under
 * every noise vector (Rng::normalFloats, rng.cc): its baseline copy, or
 * the same source compiled for AVX2 and FMA. A rounding certificate
 * sends every float either copy cannot prove back to libm, so both
 * return libm's floats and the tier moves no output there either; the
 * CI tier diffs cover that loop too.
 *
 * MODM_KERNEL=scalar|avx2 overrides auto-detection; it is read during
 * static initialization, before any thread runs a kernel. An
 * unavailable tier falls back to auto with a stderr notice; any other
 * value is a fatal error naming the accepted values.
 */

#ifndef MODM_COMMON_KERNELS_HH
#define MODM_COMMON_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace modm::kernels {

/** Dispatch tiers, in increasing capability order. */
enum class Tier : int {
    Scalar = 0,
    Avx2 = 1,
};

/** The selected kernel, as perfbench's provenance line reports it. */
struct KernelInfo
{
    Tier tier = Tier::Scalar;
    /** Stable lowercase name: "scalar" | "avx2". */
    const char *name = "scalar";
    /** True when MODM_KERNEL forced this tier. */
    bool fromEnv = false;
};

/** Stable lowercase name for a tier. */
const char *tierName(Tier tier);

/**
 * The tier a MODM_KERNEL value names; fatal() on anything but
 * scalar|avx2, so a misspelt tier never silently runs auto.
 */
Tier parseTier(const char *text);

/** Compiled in AND supported by this CPU. */
bool tierAvailable(Tier tier);

/** The active kernel (detected once, then cached). */
KernelInfo active();

/**
 * Force a tier (test hook; also used by the MODM_KERNEL override).
 * Returns false — and leaves the active tier unchanged — when the tier
 * is not available. Not thread-safe against in-flight queries; call
 * from single-threaded setup only.
 */
bool setTier(Tier tier);

/** Dispatched single-row dot product (both rows length n). */
double dot(const float *a, const float *b, std::size_t n);

/**
 * Largest query-code magnitude screenSums accepts. _mm256_maddubs_epi16
 * adds two u8 x s8 products into a saturating int16: 2 * 255 * 64 =
 * 32640 fits, 2 * 255 * 65 = 33150 would clip.
 */
constexpr std::int32_t kScreenQueryLimit = 64;

/**
 * Longest row screenSums sums exactly: 255 * 64 * n <= INT32_MAX, so no
 * row sum can leave int32.
 */
constexpr std::size_t kScreenMaxDim = 131072;

/** Rows per interleaved code block, and dims per code group. */
constexpr std::size_t kScreenBlockRows = 8;
constexpr std::size_t kScreenGroupDims = 4;
/** Bytes of one group of one block: 4 dims x 8 rows. */
constexpr std::size_t kScreenGroupBytes = kScreenBlockRows * kScreenGroupDims;

/**
 * The screen's kernel (sketch.hh): one query of 4 * groups int8 codes
 * against `count` blocks of eight rows. Block b starts at
 * blocks + b * groups * 32; its group g is 32 bytes, row j's four codes
 * for dims 4g..4g+3 at offset g * 32 + j * 4. sums[8b + j] receives the
 * sum over i < 4 * groups of query[i] * code(row 8b + j, dim i). Rows
 * whose sum exceeds their block's limits[b] are flagged: their indices
 * 8b + j go to `flagged` in increasing order, and their number is
 * returned; `flagged` needs room for 8 * count entries. Query codes lie
 * in [-kScreenQueryLimit, kScreenQueryLimit] and
 * 4 * groups <= kScreenMaxDim, so the sums are exact and scalar and
 * avx2 return identical sums and flagged rows.
 */
std::size_t screenSums(const std::int8_t *query, const std::uint8_t *blocks,
                       std::size_t groups, std::size_t count,
                       const std::int32_t *limits, std::int32_t *sums,
                       std::uint32_t *flagged);

} // namespace modm::kernels

#endif // MODM_COMMON_KERNELS_HH
