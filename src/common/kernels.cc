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
};

const Ops &
opsFor(Tier tier)
{
    static const Ops scalar{dotScalar, dot8Scalar, gather8Scalar};
    static const Ops unrolled{dotUnrolled, dot8Unrolled,
                              gather8Unrolled};
#ifdef MODM_KERNELS_X86
    static const Ops avx2{dotAvx2, dot8Avx2, gather8Avx2};
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

/** Rows per scoring block in topKBatch/bestBatch. */
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

std::vector<Scored>
topKBatch(const float *query, const float *rows, std::size_t stride,
          std::size_t count, std::size_t n, std::size_t k)
{
    std::vector<Scored> heap;
    if (k == 0)
        return heap;
    heap.reserve(std::min(k, count));
    // (score desc, slot asc): the FlatIndex ordering contract.
    const auto better = [](const Scored &x, const Scored &y) {
        if (x.score != y.score)
            return x.score > y.score;
        return x.slot < y.slot;
    };
    double scores[kScoreBlock];
    for (std::size_t base = 0; base < count; base += kScoreBlock) {
        const std::size_t len = std::min(kScoreBlock, count - base);
        dotBatch(query, rows + base * stride, stride, len, n, scores);
        for (std::size_t i = 0; i < len; ++i) {
            const Scored cand{base + i, scores[i]};
            if (heap.size() < k) {
                heap.push_back(cand);
                std::push_heap(heap.begin(), heap.end(), better);
            } else if (better(cand, heap.front())) {
                std::pop_heap(heap.begin(), heap.end(), better);
                heap.back() = cand;
                std::push_heap(heap.begin(), heap.end(), better);
            }
        }
    }
    std::sort(heap.begin(), heap.end(), better);
    return heap;
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
            // Strictly greater: earliest slot wins ties, matching the
            // pre-kernel FlatIndex::scanBest admission.
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

} // namespace modm::kernels
