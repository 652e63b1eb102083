#include "src/common/kernels.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define MODM_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace modm::kernels {
namespace {

// ---------------------------------------------------------------------
// Scalar tier: the 4-stripe accumulation written as the naive nested
// loop. Stripe j collects elements i % 4 == j in i order — the exact
// sums (and roundings) of every other default tier, so this is the
// reference the CI kernels job diffs against.
// ---------------------------------------------------------------------

double
dotScalar(const float *a, const float *b, std::size_t n)
{
    double stripe[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        for (std::size_t j = 0; j < 4; ++j) {
            stripe[j] += static_cast<double>(a[i + j]) *
                static_cast<double>(b[i + j]);
        }
    }
    double acc = (stripe[0] + stripe[1]) + (stripe[2] + stripe[3]);
    for (; i < n; ++i)
        acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return acc;
}

void
dot8Scalar(const float *q, const float *rows, std::size_t stride,
           const float *next, std::size_t n, double *out)
{
    (void)next;
    for (std::size_t r = 0; r < 8; ++r)
        out[r] = dotScalar(q, rows + r * stride, n);
}

void
gather8Scalar(const float *q, const float *const *rows, std::size_t n,
              double *out)
{
    for (std::size_t r = 0; r < 8; ++r)
        out[r] = dotScalar(q, rows[r], n);
}

std::int32_t
screenScalar(const std::int16_t *q, const std::int8_t *row, std::size_t n)
{
    std::int32_t acc = 0;
    for (std::size_t i = 0; i < n; ++i)
        acc += static_cast<std::int32_t>(q[i]) * row[i];
    return acc;
}

/** The screen's interval test: does the row's upper bound reach the
 *  floor? Every tier evaluates exactly this double expression. */
bool
reaches(float scale, std::int32_t sum, const ScreenBound &bound)
{
    return scale * (bound.scale * sum + bound.width) >= bound.floor;
}

/** Screen rows one at a time through a single-row sum. */
template <std::int32_t (*Sum)(const std::int16_t *, const std::int8_t *,
                              std::size_t)>
std::size_t
screenEach(const std::int16_t *q, const std::int8_t *rows,
           std::size_t stride, const float *scales, std::size_t count,
           std::size_t n, const ScreenBound &bound, std::uint32_t *slots,
           std::int32_t *sums)
{
    std::size_t kept = 0;
    for (std::size_t r = 0; r < count; ++r) {
        const std::int32_t sum = Sum(q, rows + r * stride, n);
        if (reaches(scales[r], sum, bound)) {
            slots[kept] = static_cast<std::uint32_t>(r);
            sums[kept++] = sum;
        }
    }
    return kept;
}

// ---------------------------------------------------------------------
// Unrolled tier: the PR 5 hot loop (four independent accumulators, one
// pass). Same stripes, same combine, same remainder as scalar —
// bit-identical, just friendlier to the scheduler.
// ---------------------------------------------------------------------

double
dotUnrolled(const float *a, const float *b, std::size_t n)
{
    double acc0 = 0.0;
    double acc1 = 0.0;
    double acc2 = 0.0;
    double acc3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        acc0 += static_cast<double>(a[i]) * static_cast<double>(b[i]);
        acc1 += static_cast<double>(a[i + 1]) *
            static_cast<double>(b[i + 1]);
        acc2 += static_cast<double>(a[i + 2]) *
            static_cast<double>(b[i + 2]);
        acc3 += static_cast<double>(a[i + 3]) *
            static_cast<double>(b[i + 3]);
    }
    double acc = (acc0 + acc1) + (acc2 + acc3);
    for (; i < n; ++i)
        acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return acc;
}

void
dot8Unrolled(const float *q, const float *rows, std::size_t stride,
             const float *next, std::size_t n, double *out)
{
    (void)next;
    for (std::size_t r = 0; r < 8; ++r)
        out[r] = dotUnrolled(q, rows + r * stride, n);
}

void
gather8Unrolled(const float *q, const float *const *rows, std::size_t n,
                double *out)
{
    for (std::size_t r = 0; r < 8; ++r)
        out[r] = dotUnrolled(q, rows[r], n);
}

std::int32_t
screenUnrolled(const std::int16_t *q, const std::int8_t *row, std::size_t n)
{
    std::int32_t acc0 = 0;
    std::int32_t acc1 = 0;
    std::int32_t acc2 = 0;
    std::int32_t acc3 = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        acc0 += static_cast<std::int32_t>(q[i]) * row[i];
        acc1 += static_cast<std::int32_t>(q[i + 1]) * row[i + 1];
        acc2 += static_cast<std::int32_t>(q[i + 2]) * row[i + 2];
        acc3 += static_cast<std::int32_t>(q[i + 3]) * row[i + 3];
    }
    std::int32_t acc = (acc0 + acc1) + (acc2 + acc3);
    for (; i < n; ++i)
        acc += static_cast<std::int32_t>(q[i]) * row[i];
    return acc;
}

#ifdef MODM_KERNELS_X86

// ---------------------------------------------------------------------
// AVX2 tier. Each __m256d accumulator IS the four stripes: lane j of
// `_mm256_fmadd_pd(cvtps_pd(row), cvtps_pd(query), acc)` performs
// stripe j's `acc += (double)a * (double)b` with a single rounding
// (the float product is exact in double), so sums stay bit-identical
// to the scalar tiers. The speed comes from the 8-row block — the
// query converts once per 4 elements instead of once per row — and
// from prefetching the next block: a 1M x 512 scan streams 2 GB and
// is bandwidth-bound, so hiding the miss latency beats widening the
// ALUs (measured 2.3x over the unrolled tier on this class of VM).
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

__attribute__((target("avx2,fma"))) void
dot8Avx2(const float *q, const float *rows, std::size_t stride,
         const float *next, std::size_t n, double *out)
{
    __m256d a[8];
    for (int r = 0; r < 8; ++r)
        a[r] = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vq = _mm256_cvtps_pd(_mm_loadu_ps(q + i));
        // Walk the next block at 2x the consumption rate so its lines
        // arrive before the current block's arithmetic runs out.
        if (next) {
            _mm_prefetch(reinterpret_cast<const char *>(next + i * 8),
                         _MM_HINT_T0);
        }
        for (int r = 0; r < 8; ++r) {
            a[r] = _mm256_fmadd_pd(
                _mm256_cvtps_pd(_mm_loadu_ps(rows + r * stride + i)), vq,
                a[r]);
        }
    }
    for (int r = 0; r < 8; ++r) {
        alignas(32) double l[4];
        _mm256_store_pd(l, a[r]);
        double acc = (l[0] + l[1]) + (l[2] + l[3]);
        for (std::size_t j = i; j < n; ++j) {
            acc += static_cast<double>(q[j]) *
                static_cast<double>(rows[r * stride + j]);
        }
        out[r] = acc;
    }
}

__attribute__((target("avx2,fma"))) void
gather8Avx2(const float *q, const float *const *rows, std::size_t n,
            double *out)
{
    __m256d a[8];
    for (int r = 0; r < 8; ++r)
        a[r] = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vq = _mm256_cvtps_pd(_mm_loadu_ps(q + i));
        for (int r = 0; r < 8; ++r) {
            a[r] = _mm256_fmadd_pd(
                _mm256_cvtps_pd(_mm_loadu_ps(rows[r] + i)), vq, a[r]);
        }
    }
    for (int r = 0; r < 8; ++r) {
        alignas(32) double l[4];
        _mm256_store_pd(l, a[r]);
        double acc = (l[0] + l[1]) + (l[2] + l[3]);
        for (std::size_t j = i; j < n; ++j) {
            acc += static_cast<double>(q[j]) *
                static_cast<double>(rows[r][j]);
        }
        out[r] = acc;
    }
}

// ---------------------------------------------------------------------
// AVX2 integer screen: sign-extend 16 int8 row codes to int16, then
// _mm256_madd_epi16 multiplies them with 16 query codes and adds
// adjacent products into 8 int32 lanes. Integer sums are exact, so the
// lane order is free; screenQueryLimit keeps every partial sum in int32.
// ---------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i
screenStep(__m256i vq, const std::int8_t *row, __m256i acc)
{
    const __m256i vr = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(row)));
    return _mm256_add_epi32(acc, _mm256_madd_epi16(vq, vr));
}

/** Sums of eight rows over their first n elements, n a multiple of 16. */
__attribute__((target("avx2"))) inline __m256i
screen8Avx2(const std::int16_t *q, const std::int8_t *rows,
            std::size_t stride, std::size_t n)
{
    // Eight named accumulators, not an array: GCC zeroes an array of
    // vectors through memory on every call.
    __m256i a0 = _mm256_setzero_si256();
    __m256i a1 = a0, a2 = a0, a3 = a0, a4 = a0, a5 = a0, a6 = a0, a7 = a0;
    for (std::size_t i = 0; i < n; i += 16) {
        const __m256i vq =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(q + i));
        const std::int8_t *r = rows + i;
        a0 = screenStep(vq, r, a0);
        a1 = screenStep(vq, r + stride, a1);
        a2 = screenStep(vq, r + 2 * stride, a2);
        a3 = screenStep(vq, r + 3 * stride, a3);
        a4 = screenStep(vq, r + 4 * stride, a4);
        a5 = screenStep(vq, r + 5 * stride, a5);
        a6 = screenStep(vq, r + 6 * stride, a6);
        a7 = screenStep(vq, r + 7 * stride, a7);
    }
    // Fold the eight accumulators into one vector of eight row sums:
    // two hadd levels leave each row's low and high 128-bit halves
    // side by side, and one cross-lane add finishes them.
    const __m256i s0123 = _mm256_hadd_epi32(_mm256_hadd_epi32(a0, a1),
                                            _mm256_hadd_epi32(a2, a3));
    const __m256i s4567 = _mm256_hadd_epi32(_mm256_hadd_epi32(a4, a5),
                                            _mm256_hadd_epi32(a6, a7));
    return _mm256_add_epi32(_mm256_permute2x128_si256(s0123, s4567, 0x20),
                            _mm256_permute2x128_si256(s0123, s4567, 0x31));
}

/** Lanes of four row sums whose interval upper bound reaches the floor,
 *  computed exactly as reaches() does. */
__attribute__((target("avx2"))) inline int
reachMask(__m128i sums, const float *scales, __m256d qs, __m256d w,
          __m256d floor)
{
    const __m256d t =
        _mm256_add_pd(_mm256_mul_pd(qs, _mm256_cvtepi32_pd(sums)), w);
    const __m256d upper =
        _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(scales)), t);
    return _mm256_movemask_pd(_mm256_cmp_pd(upper, floor, _CMP_GE_OQ));
}

/**
 * The whole batch in one call (no dispatch per eight-row block), with
 * the interval test done in registers: an eight-row block with no row
 * reaching the floor costs two compares and two movemasks. The last
 * count % 8 rows go through the unrolled tier's single-row sum.
 */
__attribute__((target("avx2"))) std::size_t
screenRowsAvx2(const std::int16_t *q, const std::int8_t *rows,
               std::size_t stride, const float *scales, std::size_t count,
               std::size_t n, const ScreenBound &bound, std::uint32_t *slots,
               std::int32_t *sums)
{
    const std::size_t body = n / 16 * 16;
    const __m256d qs = _mm256_set1_pd(bound.scale);
    const __m256d w = _mm256_set1_pd(bound.width);
    const __m256d floor = _mm256_set1_pd(bound.floor);
    std::size_t kept = 0;
    std::size_t r = 0;
    for (; r + 8 <= count; r += 8) {
        const std::int8_t *block = rows + r * stride;
        alignas(32) std::int32_t lane[8];
        __m256i v = screen8Avx2(q, block, stride, body);
        if (body < n) {
            _mm256_store_si256(reinterpret_cast<__m256i *>(lane), v);
            for (std::size_t j = 0; j < 8; ++j) {
                for (std::size_t i = body; i < n; ++i) {
                    lane[j] += static_cast<std::int32_t>(q[i]) *
                        block[j * stride + i];
                }
            }
            v = _mm256_load_si256(reinterpret_cast<const __m256i *>(lane));
        }
        const int low =
            reachMask(_mm256_castsi256_si128(v), scales + r, qs, w, floor);
        const int high = reachMask(_mm256_extracti128_si256(v, 1),
                                   scales + r + 4, qs, w, floor);
        unsigned keep = static_cast<unsigned>(low | high << 4);
        if (keep == 0)
            continue;
        _mm256_store_si256(reinterpret_cast<__m256i *>(lane), v);
        for (; keep != 0; keep &= keep - 1) {
            const unsigned j = static_cast<unsigned>(__builtin_ctz(keep));
            slots[kept] = static_cast<std::uint32_t>(r + j);
            sums[kept++] = lane[j];
        }
    }
    const std::size_t tail = screenEach<screenUnrolled>(
        q, rows + r * stride, stride, scales + r, count - r, n, bound,
        slots + kept, sums + kept);
    for (std::size_t j = kept; j < kept + tail; ++j)
        slots[j] += static_cast<std::uint32_t>(r);
    return kept + tail;
}

#endif // MODM_KERNELS_X86

// ---------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------

struct Ops
{
    double (*dot1)(const float *, const float *, std::size_t);
    void (*dot8)(const float *, const float *, std::size_t,
                 const float *, std::size_t, double *);
    void (*gather8)(const float *, const float *const *, std::size_t,
                    double *);
    std::size_t (*screenRows)(const std::int16_t *, const std::int8_t *,
                              std::size_t, const float *, std::size_t,
                              std::size_t, const ScreenBound &,
                              std::uint32_t *, std::int32_t *);
};

const Ops &
opsFor(Tier tier)
{
    static const Ops scalar{dotScalar, dot8Scalar, gather8Scalar,
                            screenEach<screenScalar>};
    static const Ops unrolled{dotUnrolled, dot8Unrolled, gather8Unrolled,
                              screenEach<screenUnrolled>};
#ifdef MODM_KERNELS_X86
    static const Ops avx2{dotAvx2, dot8Avx2, gather8Avx2,
                          screenRowsAvx2};
#endif
    switch (tier) {
    case Tier::Scalar:
        return scalar;
#ifdef MODM_KERNELS_X86
    case Tier::Avx2:
        return avx2;
#endif
    case Tier::Unrolled:
    default:
        return unrolled;
    }
}

struct State
{
    Tier tier = Tier::Unrolled;
    bool fromEnv = false;
};

Tier
autoTier()
{
#ifdef MODM_KERNELS_X86
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return Tier::Avx2;
#endif
    return Tier::Unrolled;
}

State
initState()
{
    State s;
    s.tier = autoTier();
    if (const char *env = std::getenv("MODM_KERNEL")) {
        bool known = false;
        for (const Tier t : {Tier::Scalar, Tier::Unrolled, Tier::Avx2}) {
            if (std::strcmp(env, tierName(t)) != 0)
                continue;
            known = true;
            if (tierAvailable(t)) {
                s.tier = t;
                s.fromEnv = true;
            } else {
                std::fprintf(stderr,
                             "[kernels] MODM_KERNEL=%s unavailable on "
                             "this build/CPU; using %s\n",
                             env, tierName(s.tier));
            }
            break;
        }
        if (!known) {
            std::fprintf(stderr,
                         "[kernels] unknown MODM_KERNEL=%s; using %s\n",
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

/** Rows per scoring block in bestBatch. */
constexpr std::size_t kScoreBlock = 256;

} // namespace

const char *
tierName(Tier tier)
{
    switch (tier) {
    case Tier::Scalar:
        return "scalar";
    case Tier::Unrolled:
        return "unrolled";
    case Tier::Avx2:
        return "avx2";
    }
    return "unrolled";
}

bool
tierAvailable(Tier tier)
{
    switch (tier) {
    case Tier::Scalar:
    case Tier::Unrolled:
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
    return opsFor(state().tier).dot1(a, b, n);
}

void
dotBatch(const float *query, const float *rows, std::size_t stride,
         std::size_t count, std::size_t n, double *out)
{
    const Ops &ops = opsFor(state().tier);
    std::size_t r = 0;
    for (; r + 8 <= count; r += 8) {
        const float *next =
            r + 16 <= count ? rows + (r + 8) * stride : nullptr;
        ops.dot8(query, rows + r * stride, stride, next, n, out + r);
    }
    for (; r < count; ++r)
        out[r] = ops.dot1(query, rows + r * stride, n);
}

void
dotGather(const float *query, const float *const *rows,
          std::size_t count, std::size_t n, double *out)
{
    const Ops &ops = opsFor(state().tier);
    // Touch every line of the following block's rows before scoring
    // the current one; scattered candidates (HNSW expansion) get the
    // same latency hiding the contiguous path gets from dot8.
    const std::size_t lines = (n * sizeof(float) + 63) / 64;
    std::size_t r = 0;
    for (; r + 8 <= count; r += 8) {
        if (r + 16 <= count) {
            for (std::size_t p = 0; p < 8; ++p) {
                const float *row = rows[r + 8 + p];
                for (std::size_t l = 0; l < lines; ++l)
                    __builtin_prefetch(row + l * 16);
            }
        }
        ops.gather8(query, rows + r, n, out + r);
    }
    for (; r < count; ++r)
        out[r] = ops.dot1(query, rows[r], n);
}

bool
bestBatch(const float *query, const float *rows, std::size_t stride,
          std::size_t count, std::size_t n, std::size_t *slot,
          double *score)
{
    if (count == 0)
        return false;
    double bestScore = 0.0;
    std::size_t bestSlot = 0;
    bool any = false;
    double scores[kScoreBlock];
    for (std::size_t base = 0; base < count; base += kScoreBlock) {
        const std::size_t len = std::min(kScoreBlock, count - base);
        dotBatch(query, rows + base * stride, stride, len, n, scores);
        for (std::size_t i = 0; i < len; ++i) {
            // Strictly greater: earliest slot wins ties.
            if (!any || scores[i] > bestScore) {
                any = true;
                bestScore = scores[i];
                bestSlot = base + i;
            }
        }
    }
    *slot = bestSlot;
    *score = bestScore;
    return true;
}

std::int32_t
screenQueryLimit(std::size_t n)
{
    constexpr std::int64_t kInt32Max = 2147483647;
    constexpr std::int64_t kFullRange = 32767;
    const std::int64_t perCode = 127 * static_cast<std::int64_t>(
                                           std::max<std::size_t>(n, 1));
    return static_cast<std::int32_t>(
        std::min(kFullRange, kInt32Max / perCode));
}

std::size_t
screenBatch(const std::int16_t *query, const std::int8_t *rows,
            std::size_t stride, const float *scales, std::size_t count,
            std::size_t n, const ScreenBound &bound, std::uint32_t *slots,
            std::int32_t *sums)
{
    return opsFor(state().tier).screenRows(query, rows, stride, scales,
                                           count, n, bound, slots, sums);
}

} // namespace modm::kernels
