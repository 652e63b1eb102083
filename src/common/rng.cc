#include "src/common/rng.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/log.hh"

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
 * Box-Muller's radius and angle from (u1, u2) drawn in stream order.
 * normal() and normalFloats() both draw through here, so their streams
 * cannot drift apart.
 */
inline void
polarPair(Rng &rng, double &r, double &theta)
{
    double u1 = 0.0;
    do {
        u1 = rng.uniform();
    } while (u1 <= 0.0);
    const double u2 = rng.uniform();
    r = std::sqrt(-2.0 * std::log(u1));
    theta = 2.0 * M_PI * u2;
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
    double r = 0.0;
    double theta = 0.0;
    polarPair(*this, r, theta);
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

namespace detail {

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
 * that roundsLikeLibm() needs.
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

/*
 * Certificate. Let y = fl(r c') with |c' - f(theta)| <= e <=
 * kSinCosBudget - 2^-51, and take glibc's f_g(theta) within 1 ulp
 * (<= 2^-52) of f(theta), so libm's variate is y_g = fl(r f_g). Then
 * |y_g - y| <= 2^-53 |r f_g| + r (2^-52 + e) + 2^-53 |y|, which is at
 * most (r kSinCosBudget + |y| 2^-51)(1 - 2^-53): the computed slack
 * even after its own rounding. Round-to-nearest is monotone, so from
 * y - slack <= y_g <= y + slack, float(y - slack) <= float(y_g) <=
 * float(y + slack), and when the ends round to one float y_g does too.
 * The ends cannot be zeros of opposite sign: u1 <= 1 - 2^-53 gives
 * r >= 2^-26, so the interval is wider than 2^-70.
 */
bool
roundsLikeLibm(double y, double r)
{
    const double slack = r * kSinCosBudget + std::fabs(y) * 0x1p-51;
    return static_cast<float>(y - slack) == static_cast<float>(y + slack);
}

} // namespace detail

// flatten inlines sinCosPoly() and roundsLikeLibm(), which the pair loop
// needs to vectorize.
__attribute__((flatten)) void
Rng::normalFloats(float *out, std::size_t n)
{
    if (n > 0 && hasCachedNormal_) {
        *out++ = static_cast<float>(normal());
        --n;
    }
    // Pairs per pass; one pass draws a 64-dim vector.
    constexpr std::size_t kPairs = 32;
    double r[kPairs] = {};
    double theta[kPairs] = {};
    while (n >= 2) {
        const std::size_t pairs = std::min(n / 2, kPairs);
        for (std::size_t i = 0; i < pairs; ++i)
            polarPair(*this, r[i], theta[i]);
        // Branch-free so gcc vectorizes it: one OR-reduced flag says
        // whether any pair failed its certificate.
        std::uint64_t uncertified = 0;
        for (std::size_t i = 0; i < pairs; ++i) {
            double s = 0.0;
            double c = 0.0;
            detail::sinCosPoly(theta[i], s, c);
            const double y0 = r[i] * c;
            const double y1 = r[i] * s;
            const bool ok0 = detail::roundsLikeLibm(y0, r[i]);
            const bool ok1 = detail::roundsLikeLibm(y1, r[i]);
            uncertified |= static_cast<std::uint64_t>(!ok0) |
                static_cast<std::uint64_t>(!ok1);
            out[2 * i] = static_cast<float>(y0);
            out[2 * i + 1] = static_cast<float>(y1);
        }
        if (uncertified != 0) {
            for (std::size_t i = 0; i < pairs; ++i) {
                double s = 0.0;
                double c = 0.0;
                detail::sinCosPoly(theta[i], s, c);
                if (!detail::roundsLikeLibm(r[i] * c, r[i]) ||
                    !detail::roundsLikeLibm(r[i] * s, r[i])) {
                    out[2 * i] =
                        static_cast<float>(r[i] * std::cos(theta[i]));
                    out[2 * i + 1] =
                        static_cast<float>(r[i] * std::sin(theta[i]));
                }
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
