#include "src/common/kernels.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/log.hh"
#include "src/common/vec.hh"

#if defined(__x86_64__) || defined(__i386__)
#define MODM_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace modm::kernels {
namespace {

// ---------------------------------------------------------------------
// Scalar tier: the portable reference the CI kernels job diffs
// against, and the auto pick on hosts without AVX2. Its dot is
// modm::dot (vec.hh), whose four accumulators are the four stripes,
// so its sums are bit-identical to the avx2 tier's.
// ---------------------------------------------------------------------

/** Append the rows of block `block` whose sums exceed its limit. */
std::size_t
flagRows(const std::int32_t *sums, std::int32_t limit, std::size_t block,
         std::uint32_t *flagged, std::size_t n)
{
    for (std::size_t r = 0; r < kScreenBlockRows; ++r) {
        if (sums[r] > limit)
            flagged[n++] =
                static_cast<std::uint32_t>(block * kScreenBlockRows + r);
    }
    return n;
}

/** Eight row sums per block in one pass over its bytes, in memory
 *  order: the lane-parallel shape the avx2 tier vectorizes. */
std::size_t
screenSumsScalar(const std::int8_t *q, const std::uint8_t *blocks,
                 std::size_t groups, std::size_t count,
                 const std::int32_t *limits, std::int32_t *sums,
                 std::uint32_t *flagged)
{
    const std::uint8_t *p = blocks;
    std::size_t n = 0;
    for (std::size_t b = 0; b < count; ++b) {
        std::int32_t acc[kScreenBlockRows] = {};
        for (std::size_t g = 0; g < groups; ++g, p += kScreenGroupBytes) {
            const std::int8_t *qg = q + g * kScreenGroupDims;
            for (std::size_t r = 0; r < kScreenBlockRows; ++r) {
                const std::uint8_t *c = p + r * kScreenGroupDims;
                acc[r] += qg[0] * c[0] + qg[1] * c[1] + qg[2] * c[2] +
                    qg[3] * c[3];
            }
        }
        std::memcpy(sums + b * kScreenBlockRows, acc, sizeof(acc));
        n = flagRows(acc, limits[b], b, flagged, n);
    }
    return n;
}

#ifdef MODM_KERNELS_X86

// ---------------------------------------------------------------------
// AVX2 tier. Each __m256d accumulator IS the four stripes: lane j of
// `_mm256_fmadd_pd(cvtps_pd(row), cvtps_pd(query), acc)` performs
// stripe j's `acc += (double)a * (double)b` with a single rounding
// (the float product is exact in double), so sums stay bit-identical
// to the scalar tier's.
// ---------------------------------------------------------------------

__attribute__((target("avx2,fma"))) double
dotAvx2(const float *a, const float *b, std::size_t n)
{
    __m256d acc = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d va = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
        const __m256d vb = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
        acc = _mm256_fmadd_pd(va, vb, acc);
    }
    alignas(32) double l[4];
    _mm256_store_pd(l, acc);
    double out = (l[0] + l[1]) + (l[2] + l[3]);
    for (; i < n; ++i)
        out += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return out;
}

// ---------------------------------------------------------------------
// AVX2 integer screen. One 32-byte load is four dims of eight rows;
// the query's four codes for those dims are broadcast to every 32-bit
// lane, so _mm256_maddubs_epi16 (u8 row code x s8 query code, adjacent
// pairs added) leaves each row's two pair sums in its own lane, and
// _mm256_madd_epi16 against ones adds them into that lane's int32.
// Lane j therefore accumulates row j: no sign extension, no horizontal
// fold. kScreenQueryLimit keeps every pair sum inside int16.
// ---------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i
screenStep(const std::uint8_t *codes, __m256i quad, __m256i ones,
           __m256i acc)
{
    const __m256i pairs = _mm256_maddubs_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(codes)), quad);
    return _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
}

/** For each 8-bit mask, its set bits' positions packed one per byte
 *  from the low byte up. */
struct LaneLists
{
    std::uint64_t of[256];

    constexpr LaneLists() : of()
    {
        for (unsigned mask = 0; mask < 256; ++mask) {
            unsigned at = 0;
            for (unsigned lane = 0; lane < 8; ++lane) {
                if (mask >> lane & 1)
                    of[mask] |= static_cast<std::uint64_t>(lane) << 8 * at++;
            }
        }
    }
};

constexpr LaneLists kLanes;

/**
 * Append the rows of block `block` whose sums exceed its limit, with no
 * branch: the compare's mask picks a packed lane list, widened and
 * offset by the block's first row, stored whole, and the count moves
 * on by the mask's popcount. `flagged` has room for the 8 entries.
 */
__attribute__((target("avx2,popcnt"))) inline std::size_t
flagRowsAvx2(__m256i sums, std::int32_t limit, std::size_t block,
             std::uint32_t *flagged, std::size_t n)
{
    const __m256i over = _mm256_cmpgt_epi32(sums, _mm256_set1_epi32(limit));
    const unsigned mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(over)));
    const __m256i lanes = _mm256_add_epi32(
        _mm256_cvtepu8_epi32(_mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(&kLanes.of[mask]))),
        _mm256_set1_epi32(static_cast<int>(block * kScreenBlockRows)));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(flagged + n), lanes);
    return n + static_cast<std::size_t>(__builtin_popcount(mask));
}

/** The query's four codes for group g in every 32-bit lane. */
__attribute__((target("avx2"))) inline __m256i
broadcastQuad(const std::int8_t *q, std::size_t g)
{
    std::int32_t word;
    std::memcpy(&word, q + g * kScreenGroupDims, sizeof(word));
    return _mm256_set1_epi32(word);
}

/** Store block b's sums and flag its rows above limits[b]. */
__attribute__((target("avx2,popcnt"))) inline std::size_t
finishBlock(__m256i acc, std::size_t b, const std::int32_t *limits,
            std::int32_t *sums, std::uint32_t *flagged, std::size_t n)
{
    _mm256_storeu_si256(
        reinterpret_cast<__m256i *>(sums + b * kScreenBlockRows), acc);
    return flagRowsAvx2(acc, limits[b], b, flagged, n);
}

/** Four blocks per pass share each broadcast query quad; the last
 *  count % 4 blocks run one at a time. */
__attribute__((target("avx2,popcnt"))) std::size_t
screenSumsAvx2(const std::int8_t *q, const std::uint8_t *blocks,
               std::size_t groups, std::size_t count,
               const std::int32_t *limits, std::int32_t *sums,
               std::uint32_t *flagged)
{
    const __m256i ones = _mm256_set1_epi16(1);
    const std::size_t blockBytes = groups * kScreenGroupBytes;
    std::size_t n = 0;
    std::size_t b = 0;
    for (; b + 4 <= count; b += 4) {
        const std::uint8_t *p = blocks + b * blockBytes;
        // Four named accumulators, not an array: GCC zeroes an array of
        // vectors through memory.
        __m256i acc0 = _mm256_setzero_si256();
        __m256i acc1 = acc0, acc2 = acc0, acc3 = acc0;
        for (std::size_t g = 0; g < groups; ++g) {
            const __m256i v = broadcastQuad(q, g);
            const std::uint8_t *at = p + g * kScreenGroupBytes;
            acc0 = screenStep(at, v, ones, acc0);
            acc1 = screenStep(at + blockBytes, v, ones, acc1);
            acc2 = screenStep(at + 2 * blockBytes, v, ones, acc2);
            acc3 = screenStep(at + 3 * blockBytes, v, ones, acc3);
        }
        n = finishBlock(acc0, b, limits, sums, flagged, n);
        n = finishBlock(acc1, b + 1, limits, sums, flagged, n);
        n = finishBlock(acc2, b + 2, limits, sums, flagged, n);
        n = finishBlock(acc3, b + 3, limits, sums, flagged, n);
    }
    for (; b < count; ++b) {
        const std::uint8_t *p = blocks + b * blockBytes;
        __m256i acc = _mm256_setzero_si256();
        for (std::size_t g = 0; g < groups; ++g) {
            acc = screenStep(p + g * kScreenGroupBytes, broadcastQuad(q, g),
                             ones, acc);
        }
        n = finishBlock(acc, b, limits, sums, flagged, n);
    }
    return n;
}

#endif // MODM_KERNELS_X86

// ---------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------

struct Ops
{
    double (*dot)(const float *, const float *, std::size_t);
    std::size_t (*screenSums)(const std::int8_t *, const std::uint8_t *,
                              std::size_t, std::size_t,
                              const std::int32_t *, std::int32_t *,
                              std::uint32_t *);
};

const Ops &
opsFor(Tier tier)
{
    static const Ops scalar{modm::dot, screenSumsScalar};
#ifdef MODM_KERNELS_X86
    static const Ops avx2{dotAvx2, screenSumsAvx2};
    if (tier == Tier::Avx2)
        return avx2;
#else
    (void)tier;
#endif
    return scalar;
}

struct State
{
    Tier tier = Tier::Scalar;
    bool fromEnv = false;
};

Tier
autoTier()
{
#ifdef MODM_KERNELS_X86
    __builtin_cpu_init(); // may run before the CPU-model constructor
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return Tier::Avx2;
#endif
    return Tier::Scalar;
}

State
initState()
{
    State s;
    s.tier = autoTier();
    if (const char *env = std::getenv("MODM_KERNEL")) {
        const Tier forced = parseTier(env);
        if (tierAvailable(forced)) {
            s.tier = forced;
            s.fromEnv = true;
        } else {
            std::fprintf(stderr,
                         "[kernels] MODM_KERNEL=%s unavailable on this "
                         "build/CPU; using %s\n",
                         env, tierName(s.tier));
        }
    }
    return s;
}

State &
state()
{
    static State s = initState();
    return s;
}

// Resolve MODM_KERNEL during static initialization, while the program
// is single-threaded: a bad value then stops it before any worker runs
// a kernel, instead of exiting under running threads.
[[maybe_unused]] const State &startupState = state();

} // namespace

const char *
tierName(Tier tier)
{
    switch (tier) {
    case Tier::Scalar:
        return "scalar";
    case Tier::Avx2:
        return "avx2";
    }
    return "scalar";
}

Tier
parseTier(const char *text)
{
    for (const Tier t : {Tier::Scalar, Tier::Avx2}) {
        if (std::strcmp(text, tierName(t)) == 0)
            return t;
    }
    fatal("unknown MODM_KERNEL=%s (expected scalar or avx2)", text);
}

bool
tierAvailable(Tier tier)
{
    switch (tier) {
    case Tier::Scalar:
        return true;
    case Tier::Avx2:
#ifdef MODM_KERNELS_X86
        return __builtin_cpu_supports("avx2") &&
            __builtin_cpu_supports("fma");
#else
        return false;
#endif
    }
    return false;
}

KernelInfo
active()
{
    const State &s = state();
    return {s.tier, tierName(s.tier), s.fromEnv};
}

bool
setTier(Tier tier)
{
    if (!tierAvailable(tier))
        return false;
    state().tier = tier;
    return true;
}

double
dot(const float *a, const float *b, std::size_t n)
{
    return opsFor(state().tier).dot(a, b, n);
}

std::size_t
screenSums(const std::int8_t *query, const std::uint8_t *blocks,
           std::size_t groups, std::size_t count, const std::int32_t *limits,
           std::int32_t *sums, std::uint32_t *flagged)
{
    return opsFor(state().tier).screenSums(query, blocks, groups, count,
                                           limits, sums, flagged);
}

} // namespace modm::kernels
