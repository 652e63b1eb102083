/**
 * @file
 * Runtime-dispatched dot-product kernels for the retrieval hot path.
 *
 * Every VectorIndex backend (Flat scans, IVF centroid assignment and
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
 * MODM_KERNEL=scalar|unrolled|avx2 overrides auto-detection
 * (unavailable tiers fall back to auto with a stderr notice).
 */

#ifndef MODM_COMMON_KERNELS_HH
#define MODM_COMMON_KERNELS_HH

#include <cstddef>
#include <vector>

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

/** One scored slot from topKBatch, ordered (score desc, slot asc). */
struct Scored
{
    std::size_t slot = 0;
    double score = 0.0;
};

/**
 * Top-k of one query against contiguous rows, by (score desc, slot
 * asc) — the FlatIndex ordering contract. Slots are relative to
 * `rows`; callers scanning a shard add their base offset. Scores come
 * from dotBatch blocks, so ties and sums are bit-identical across
 * tiers that share the summation order.
 */
std::vector<Scored> topKBatch(const float *query, const float *rows,
                              std::size_t stride, std::size_t count,
                              std::size_t n, std::size_t k);

/**
 * Argmax of one query against contiguous rows; earliest slot wins
 * ties (strictly-greater admission, matching FlatIndex::scanBest).
 * Returns false when count == 0.
 */
bool bestBatch(const float *query, const float *rows, std::size_t stride,
               std::size_t count, std::size_t n, std::size_t *slot,
               double *score);

} // namespace modm::kernels

#endif // MODM_COMMON_KERNELS_HH
