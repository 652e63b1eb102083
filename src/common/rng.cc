#include "src/common/rng.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/kernels.hh"
#include "src/common/log.hh"

#if defined(__x86_64__) || defined(__i386__)
#define MODM_RNG_X86 1
#endif

namespace modm {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
mix64(std::uint64_t value)
{
    std::uint64_t state = value;
    return splitmix64(state);
}

namespace {

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/**
 * Box-Muller's uniforms in stream order: u1 in (0, 1), redrawn while it
 * is zero, then u2. normal() and normalFloats() both draw through here,
 * so their streams cannot drift apart.
 */
inline void
drawUniforms(Rng &rng, double &u1, double &u2)
{
    do {
        u1 = rng.uniform();
    } while (u1 <= 0.0);
    u2 = rng.uniform();
}

/** libm's Box-Muller pair for (u1, u2): r cos(theta), r sin(theta). */
inline void
libmPair(double u1, double u2, double &y0, double &y1)
{
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    y0 = r * std::cos(theta);
    y1 = r * std::sin(theta);
}

} // namespace

Rng::Rng(std::uint64_t seed)
    : cachedNormal_(0.0), hasCachedNormal_(false), forkCounter_(0)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    MODM_ASSERT(n > 0, "uniformInt(0) is undefined");
    // Rejection to remove modulo bias.
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % n;
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1 = 0.0;
    double u2 = 0.0;
    drawUniforms(*this, u1, u2);
    double y0 = 0.0;
    libmPair(u1, u2, y0, cachedNormal_);
    hasCachedNormal_ = true;
    return y0;
}

namespace detail {

// fdlibm's e_log.c: ln 2 split so that k * kLn2Hi is exact for
// |k| < 2000, and its Remez coefficients for
// R(s) = log((1 + s) / (1 - s)) / s - 2 on |s| <= 0.1716, within
// 2^-58.45 of R there.
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kLg1 = 0x1.5555555555593p-1;
constexpr double kLg2 = 0x1.999999997fa04p-2;
constexpr double kLg3 = 0x1.2492494229359p-2;
constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
constexpr double kLg5 = 0x1.7466496cb03dep-3;
constexpr double kLg6 = 0x1.39a09d078c69fp-3;
constexpr double kLg7 = 0x1.2f112df3e5244p-3;
// Bits of 1.0, of sqrt(1/2) and of 2^52, and a double's exponent field.
constexpr std::uint64_t kOneBits = 0x3ff0000000000000ULL;
constexpr std::uint64_t kSqrtHalfBits = 0x3fe6a09e667f3bcdULL;
constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ULL;
constexpr std::uint64_t kExponentBits = 0xfff0000000000000ULL;

/*
 * Error bound. Write u = 2^k m with m in [sqrt(1/2), sqrt(2)): adding
 * the bits of 1 minus those of sqrt(1/2) to u's bits carries into the
 * exponent field exactly when u's significand is at least sqrt(2), so
 * the field becomes k + 1023, m's bits are u's minus k << 52, and k is
 * (2^52 + k + 1023) - (2^52 + 1023), the first term assembled from the
 * field's bits: no int-to-double conversion, which SSE2 and AVX2 lack
 * for 64-bit lanes. For u in [2^-53, 1), k is -53..0, so f = m - 1
 * (Sterbenz), k and k * kLn2Hi are exact. With s = f / (2 + f),
 * |s| <= 0.1716 and log(1 + f) = f - hfsq + s (hfsq + R(s)) exactly,
 * hfsq = f^2 / 2; fdlibm evaluates that same form. Counting one
 * rounding of 2^-53 per operation: for k = 0, |log u| >= |f|, every
 * term past f is under 0.19 |f|, and the result errs by under
 * 1.6 * 2^-53 |log u|; for k < 0, |log u| >= 0.3466, the bracket is
 * under 0.52 and the error is under 3.5 * 2^-53 |log u|. The
 * polynomial's 2^-58.45, times |s| <= 0.59 |f|, and kLn2Lo's 2^-80
 * error times |k| are far below that. So logPoly is within
 * 2^-51 |log u| of log u, 4x under the kLogBudget the certificate
 * needs. A fused multiply-add only removes one of the counted
 * roundings, so the bound holds whether or not the compiler contracts.
 */
double
logPoly(double u)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &u, sizeof bits);
    const std::uint64_t carried = bits + (kOneBits - kSqrtHalfBits);
    const std::uint64_t mBits = bits - (carried & kExponentBits) + kOneBits;
    const std::uint64_t kBits = kTwo52Bits | (carried >> 52);
    double m = 0.0;
    double shiftedK = 0.0;
    std::memcpy(&m, &mBits, sizeof m);
    std::memcpy(&shiftedK, &kBits, sizeof shiftedK);
    const double k = shiftedK - (0x1p52 + 1023);
    const double f = m - 1.0;
    const double s = f / (2.0 + f);
    const double z = s * s;
    const double w = z * z;
    const double odd = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
    const double even = w * (kLg2 + w * (kLg4 + w * kLg6));
    const double poly = odd + even;
    const double hfsq = 0.5 * f * f;
    return k * kLn2Hi - ((hfsq - (s * (hfsq + poly) + k * kLn2Lo)) - f);
}

// Cody-Waite split of pi/2 (fdlibm's pio2_1 and pio2_1t): kPio2Hi keeps
// the first 33 bits, so k * kPio2Hi is exact for every k <= 4.
constexpr double kPio2Hi = 0x1.921fb544p+0;
constexpr double kPio2Lo = 0x1.0b4611a626331p-34;
constexpr double kTwoOverPi = 0x1.45f306dc9c883p-1;
// (v + 1.5 * 2^52) - 1.5 * 2^52 rounds |v| < 2^51 to an integer without
// a libm call, which keeps the batch loop vectorizable on baseline SSE2.
constexpr double kRoundToInt = 0x1.8p52;

/*
 * Error bound. theta < 2 pi, so k = round(theta * 2/pi) is 0..4 and the
 * reduced angle x = theta - k pi/2 has |x| <= pi/4 + 2^-50 (the product
 * theta * 2/pi rounds by at most 2^-51). k * kPio2Hi is exact and so is
 * theta - k * kPio2Hi (Sterbenz), so x misses the true reduced angle by
 * the rounding of the last subtraction and of k * kPio2Lo plus
 * k |pi/2 - kPio2Hi - kPio2Lo|: under 2^-52 in all. Both Taylor series
 * alternate with falling terms on |x| < 1, so stopping sin at x^15 errs
 * by at most x^17/17! < 2^-54 and cos at x^16 by x^18/18! < 2^-58, and
 * Horner evaluation in double adds under 2^-51. The result is within
 * 2^-50 of the true sin and cos, 2^6 under the kSinCosBudget - 2^-51
 * that roundsLikeLibm() needs. A fused multiply-add only drops one of
 * the counted roundings, so the bound holds with or without contraction.
 */
void
sinCosPoly(double theta, double &sine, double &cosine)
{
    const double shifted = theta * kTwoOverPi + kRoundToInt;
    const double k = shifted - kRoundToInt;
    const double x = (theta - k * kPio2Hi) - k * kPio2Lo;
    const double z = x * x;
    const double s = x +
        x * z *
            (-1.0 / 6 +
             z * (1.0 / 120 +
                  z * (-1.0 / 5040 +
                       z * (1.0 / 362880 +
                            z * (-1.0 / 39916800 +
                                 z * (1.0 / 6227020800 +
                                      z * (-1.0 / 1307674368000)))))));
    const double c = 1.0 +
        z * (-1.0 / 2 +
             z * (1.0 / 24 +
                  z * (-1.0 / 720 +
                       z * (1.0 / 40320 +
                            z * (-1.0 / 3628800 +
                                 z * (1.0 / 479001600 +
                                      z * (-1.0 / 87178291200 +
                                           z * (1.0 / 20922789888000))))))));
    // Quadrant q = k mod 4, the low bits of `shifted`: sin(theta) is s,
    // c, -s, -c and cos(theta) is c, -s, -c, s. Selecting with bit masks
    // keeps the loop free of compares.
    std::uint64_t q = 0;
    std::uint64_t sBits = 0;
    std::uint64_t cBits = 0;
    std::memcpy(&q, &shifted, sizeof q);
    std::memcpy(&sBits, &s, sizeof sBits);
    std::memcpy(&cBits, &c, sizeof cBits);
    const std::uint64_t swap = 0 - (q & 1);
    const std::uint64_t sinBits =
        ((cBits & swap) | (sBits & ~swap)) ^ ((q & 2) << 62);
    const std::uint64_t cosBits =
        ((sBits & swap) | (cBits & ~swap)) ^ (((q + 1) & 2) << 62);
    std::memcpy(&sine, &sinBits, sizeof sine);
    std::memcpy(&cosine, &cosBits, sizeof cosine);
}

namespace {

/*
 * Certificate. The batch forms y = fl(r c') from its radius
 * r = fl(sqrt(-2 logPoly(u1))) and a c' within e <= kSinCosBudget -
 * 2^-51 of f(theta), f = cos or sin. libm's variate is y_g = fl(r_g f_g)
 * with r_g = fl(sqrt(-2 log_g(u1))), where glibc's log_g and f_g are
 * within 1 ulp (<= 2^-52 relative) of the truth. logPoly within
 * kLogBudget = 2^-49 of log is within 9 * 2^-52 of log_g; the square
 * root halves that and each radius rounds once, so |r - r_g| <= rho r
 * with rho = 5.5 * 2^-52. Then
 * |y_g - y| <= 2^-53 (|y| + |r_g f_g|) + rho r |c'| + r_g (2^-52 + e),
 * whose terms in |y| come to 6.5 * 2^-52 and in r to e + 2^-52 plus
 * cross terms under 2^-90 r. That is at most
 * (r kSinCosBudget + |y| 2^-49)(1 - 2^-53): the computed slack even
 * after its own rounding, with or without contraction, since both of
 * its products are exact. Round-to-nearest is monotone, so from
 * y - slack <= y_g <= y + slack, float(y - slack) <= float(y_g) <=
 * float(y + slack), and when the ends round to one float y_g does too.
 * The ends cannot be zeros of opposite sign: u1 <= 1 - 2^-53 gives
 * r >= 2^-26, so the interval is wider than 2^-70.
 */
inline bool
certified(double y, double r)
{
    const double slack = r * kSinCosBudget + std::fabs(y) * 0x1p-49;
    return static_cast<float>(y - slack) == static_cast<float>(y + slack);
}

/**
 * One pass of the batch over `pairs` uniform pairs: out[2i] and
 * out[2i + 1] get float(r cos theta) and float(r sin theta), r from
 * logPoly() and the sine and cosine from sinCosPoly(). Returns false
 * when any pair fails its certificate. Branch-free so it vectorizes:
 * one OR-reduced flag covers the pass.
 */
inline bool
certifiedPass(const double *u1, const double *u2, std::size_t pairs,
              float *out)
{
    std::uint64_t uncertified = 0;
    for (std::size_t i = 0; i < pairs; ++i) {
        const double r = std::sqrt(-2.0 * logPoly(u1[i]));
        double s = 0.0;
        double c = 0.0;
        sinCosPoly(2.0 * M_PI * u2[i], s, c);
        const double y0 = r * c;
        const double y1 = r * s;
        uncertified |= static_cast<std::uint64_t>(!certified(y0, r)) |
            static_cast<std::uint64_t>(!certified(y1, r));
        out[2 * i] = static_cast<float>(y0);
        out[2 * i + 1] = static_cast<float>(y1);
    }
    return uncertified == 0;
}

// Each kernel tier's copy of the pass and of the certificate. flatten
// inlines the bodies above, so the avx2 copies are the same source
// compiled for AVX2 and FMA.
__attribute__((flatten)) bool
passBaseline(const double *u1, const double *u2, std::size_t pairs,
             float *out)
{
    return certifiedPass(u1, u2, pairs, out);
}

#ifdef MODM_RNG_X86
__attribute__((target("avx2,fma"), flatten)) bool
passAvx2(const double *u1, const double *u2, std::size_t pairs, float *out)
{
    return certifiedPass(u1, u2, pairs, out);
}

__attribute__((target("avx2,fma"), flatten)) bool
certifiedAvx2(double y, double r)
{
    return certified(y, r);
}
#endif

struct Tiered
{
    bool (*pass)(const double *, const double *, std::size_t, float *);
    bool (*certified)(double, double);
};

/** The active kernel tier's pass and certificate. */
const Tiered &
tiered()
{
    static const Tiered baseline{passBaseline, certified};
#ifdef MODM_RNG_X86
    static const Tiered avx2{passAvx2, certifiedAvx2};
    if (kernels::active().tier == kernels::Tier::Avx2)
        return avx2;
#endif
    return baseline;
}

} // namespace

bool
roundsLikeLibm(double y, double r)
{
    return tiered().certified(y, r);
}

bool
boxMullerPairs(const double *u1, const double *u2, std::size_t pairs,
               float *out)
{
    return tiered().pass(u1, u2, pairs, out);
}

} // namespace detail

void
Rng::normalFloats(float *out, std::size_t n)
{
    if (n > 0 && hasCachedNormal_) {
        *out++ = static_cast<float>(normal());
        --n;
    }
    // Pairs per pass; one pass draws a 64-dim vector.
    constexpr std::size_t kPairs = 32;
    double u1[kPairs] = {};
    double u2[kPairs] = {};
    const auto pass = detail::tiered().pass;
    while (n >= 2) {
        const std::size_t pairs = std::min(n / 2, kPairs);
        for (std::size_t i = 0; i < pairs; ++i)
            drawUniforms(*this, u1[i], u2[i]);
        if (!pass(u1, u2, pairs, out)) {
            // A float the certificate could not prove: the pass comes
            // from libm instead, and its proven floats come out equal.
            for (std::size_t i = 0; i < pairs; ++i) {
                double y0 = 0.0;
                double y1 = 0.0;
                libmPair(u1[i], u2[i], y0, y1);
                out[2 * i] = static_cast<float>(y0);
                out[2 * i + 1] = static_cast<float>(y1);
            }
        }
        out += 2 * pairs;
        n -= 2 * pairs;
    }
    if (n == 1)
        *out = static_cast<float>(normal());
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::exponential(double rate)
{
    MODM_ASSERT(rate > 0.0, "exponential rate must be positive");
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

std::uint64_t
Rng::poisson(double mean)
{
    MODM_ASSERT(mean >= 0.0, "poisson mean must be non-negative");
    if (mean == 0.0)
        return 0;
    if (mean < 30.0) {
        // Knuth multiplication method.
        const double limit = std::exp(-mean);
        std::uint64_t k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= uniform();
        } while (p > limit);
        return k - 1;
    }
    // Normal approximation for large means, clamped at zero.
    const double v = normal(mean, std::sqrt(mean));
    return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
}

std::uint64_t
Rng::geometric(double p)
{
    MODM_ASSERT(p > 0.0 && p <= 1.0, "geometric p must be in (0, 1]");
    if (p >= 1.0)
        return 0;
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return static_cast<std::uint64_t>(std::log(u) / std::log(1.0 - p));
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

ZipfDistribution::ZipfDistribution(std::uint64_t n, double s)
{
    MODM_ASSERT(n > 0, "Zipf needs a non-empty support");
    MODM_ASSERT(s > 0.0, "Zipf exponent must be positive");
    cdf_.resize(n);
    double total = 0.0;
    for (std::uint64_t k = 0; k < n; ++k) {
        total += std::pow(static_cast<double>(k + 1), -s);
        cdf_[k] = total;
    }
    for (auto &c : cdf_)
        c /= total;
    cdf_.back() = 1.0;
}

std::uint64_t
ZipfDistribution::sample(Rng &rng) const
{
    const double u = rng.uniform();
    // First index whose CDF value exceeds u.
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (cdf_[mid] <= u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

double
ZipfDistribution::prob(std::uint64_t k) const
{
    MODM_ASSERT(k < cdf_.size(), "Zipf prob out of range");
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

Rng
Rng::fork()
{
    // Derive a child stream from the parent state plus a fork counter so
    // repeated forks yield distinct, deterministic children.
    const std::uint64_t childSeed =
        mix64(s_[0] ^ rotl(s_[2], 13) ^ ++forkCounter_);
    return Rng(childSeed);
}

} // namespace modm
