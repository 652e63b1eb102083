/**
 * @file
 * Runtime-dispatched dot-product kernels for the retrieval hot path.
 *
 * Every VectorIndex backend (Flat re-scores, IVF centroid assignment and
 * list scans, HNSW neighbor expansion, IVF-PQ ADC table builds) bottoms
 * out in "one query against many rows". This layer centralizes that
 * loop behind a tier picked once at startup via CPUID:
 *
 *   scalar    4-stripe double accumulation, naive inner loop
 *   unrolled  the PR 5 4-way unrolled loop (modm::dot)
 *   avx2      FMA in double precision, 8 rows per block + software
 *             prefetch of the next block
 *
 * Determinism contract: scalar, unrolled, and avx2 produce BIT-IDENTICAL
 * sums. All three accumulate stripe j = elements i % 4 == j in i order,
 * combine (s0+s1)+(s2+s3), then fold the remainder sequentially. Each
 * float product is exact in double (24+24 < 53 significand bits), so
 * AVX2's fused multiply-add rounds exactly once per element — the same
 * rounding the scalar `acc += (double)a*(double)b` performs. Frozen
 * serving digests therefore do not move when dispatch upgrades the
 * tier, and the CI kernels job diffs MODM_KERNEL=scalar against the
 * default byte for byte.
 *
 * The same tiers carry screenBatch, the integer kernel behind
 * FlatIndex's screen: int16 query codes times int8 row codes summed in
 * int32 (avx2: sign-extend, madd, 8 rows per block), then each row's
 * interval upper bound tested against a floor in double. The sums are
 * exact as long as screenQueryLimit bounds the query codes, and the
 * test is one double expression evaluated the same way in every tier,
 * so all tiers keep the same rows.
 *
 * MODM_KERNEL=scalar|unrolled|avx2 overrides auto-detection
 * (unavailable tiers fall back to auto with a stderr notice).
 */

#ifndef MODM_COMMON_KERNELS_HH
#define MODM_COMMON_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace modm::kernels {

/** Dispatch tiers, in increasing capability order. */
enum class Tier : int {
    Scalar = 0,
    Unrolled = 1,
    Avx2 = 2,
};

/** The selected kernel, surfaced in ServingResult / BENCH artifacts. */
struct KernelInfo
{
    Tier tier = Tier::Unrolled;
    /** Stable lowercase name: "scalar" | "unrolled" | "avx2". */
    const char *name = "unrolled";
    /** True when MODM_KERNEL forced this tier. */
    bool fromEnv = false;
};

/** Stable lowercase name for a tier. */
const char *tierName(Tier tier);

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
 * One query against `count` contiguous rows: row r starts at
 * rows + r * stride (stride >= n, in floats). Blocks 8 rows per pass so
 * the query stays in registers, and prefetches the next block — on a
 * 1M x 512 scan this is memory-bandwidth-bound and the prefetch is
 * worth more than the vector width. out[r] receives the r-th score.
 */
void dotBatch(const float *query, const float *rows, std::size_t stride,
              std::size_t count, std::size_t n, double *out);

/**
 * One query against `count` scattered rows (HNSW neighbor expansion:
 * candidates are link-ordered, not laid out together). Prefetches every
 * cache line of the following block's rows before scoring the current
 * one.
 */
void dotGather(const float *query, const float *const *rows,
               std::size_t count, std::size_t n, double *out);

/**
 * Argmax of one query against contiguous rows; earliest slot wins
 * ties (strictly-greater admission). Returns false when count == 0.
 * IVF centroid assignment scans with it; FlatIndex screens instead
 * (sketch.hh) and re-scores only the rows the screen keeps.
 */
bool bestBatch(const float *query, const float *rows, std::size_t stride,
               std::size_t count, std::size_t n, std::size_t *slot,
               double *score);

/**
 * Largest query-code magnitude screenBatch accepts when at most `n`
 * query codes are non-zero: n * 127 * limit <= INT32_MAX, so no partial
 * sum can leave int32. That is the full int16 range (32767) up to
 * n = 516; from n = 517 the limit shrinks as INT32_MAX / (127 * n).
 */
std::int32_t screenQueryLimit(std::size_t n);

/** The interval test screenBatch applies to every row (sketch.hh). */
struct ScreenBound
{
    /** s_q: the query's code scale. */
    double scale = 0.0;
    /** W: the interval's half-width per unit of row scale. */
    double width = 0.0;
    /** Rows whose interval upper bound falls below this are dropped. */
    double floor = 0.0;
};

/**
 * The int8 screen's kernel (sketch.hh): one query of int16 codes against
 * `count` rows of int8 codes, row r starting at rows + r * stride bytes,
 * with sum_r = sum of query[i] * row_r[i] over i < n. Row r passes when
 * its upper bound scales[r] * (bound.scale * sum_r + bound.width),
 * evaluated in double in that order, is >= bound.floor; passing rows
 * are written in row order as slots[j] = r and sums[j] = sum_r, and
 * the count is returned (a floor of -inf keeps every row). Row codes lie
 * in [-127, 127]; with at most m non-zero query codes, each within
 * screenQueryLimit(m), the sums are exact, so scalar, unrolled and avx2
 * return identical rows and sums.
 */
std::size_t screenBatch(const std::int16_t *query, const std::int8_t *rows,
                        std::size_t stride, const float *scales,
                        std::size_t count, std::size_t n,
                        const ScreenBound &bound, std::uint32_t *slots,
                        std::int32_t *sums);

} // namespace modm::kernels

#endif // MODM_COMMON_KERNELS_HH
