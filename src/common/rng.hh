/**
 * @file
 * Deterministic pseudo-random number generation for the MoDM simulators.
 *
 * All stochastic behaviour in the repository (workload generation, diffusion
 * noise, arrival processes) flows through Rng so that every experiment is
 * reproducible from a single 64-bit seed. The generator is xoshiro256++,
 * seeded via splitmix64 as its authors recommend.
 */

#ifndef MODM_COMMON_RNG_HH
#define MODM_COMMON_RNG_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace modm {

/** One splitmix64 step; used for seeding and cheap hash mixing. */
std::uint64_t splitmix64(std::uint64_t &state);

/** Stateless mix of a 64-bit value (one splitmix64 round). */
std::uint64_t mix64(std::uint64_t value);

/**
 * Deterministic random number generator (xoshiro256++) with the
 * distributions the simulators need.
 */
class Rng
{
  public:
    /** Construct from a seed; equal seeds yield equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n); n must be > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Standard normal via Box-Muller (cached second variate). */
    double normal();

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Write exactly the n floats that n successive
     * `static_cast<float>(normal())` calls would return, leaving the
     * generator state and cached variate where those calls would. A
     * cached variate is consumed first and an odd trailing element goes
     * through normal(), so the cache keeps libm's double for later
     * normal() callers. The pairs in between run boxMullerPairs() in
     * passes of up to 32; a pass with a float its certificate cannot
     * prove is redone with libm's log, sqrt, cos and sin.
     */
    void normalFloats(float *out, std::size_t n);

    /** Exponential with the given rate (mean 1/rate). */
    double exponential(double rate);

    /** Poisson-distributed count with the given mean. */
    std::uint64_t poisson(double mean);

    /** Geometric number of failures before success; p in (0, 1]. */
    std::uint64_t geometric(double p);

    /** True with probability p. */
    bool bernoulli(double p);

    /** Fork an independent generator (stream-split by counter). */
    Rng fork();

  private:
    std::uint64_t s_[4];
    double cachedNormal_;
    bool hasCachedNormal_;
    std::uint64_t forkCounter_;
};

namespace detail {

/**
 * Error budget of sinCosPoly() per unit of Box-Muller radius: the
 * certificate below is sound while |sinCosPoly - sin| and
 * |sinCosPoly - cos| stay at most kSinCosBudget - 2^-51.
 */
constexpr double kSinCosBudget = 0x1p-44;

/**
 * Relative error budget of logPoly(): the certificate below is sound
 * while |logPoly(u) - log(u)| <= kLogBudget * |log(u)|.
 */
constexpr double kLogBudget = 0x1p-49;

/**
 * log(u) for u in [2^-53, 1) by fdlibm's reduction to [sqrt(1/2),
 * sqrt(2)) and its Lg1..Lg7 polynomial, without branches or libm
 * calls; within 2^-51 |log(u)| of the true value (rng.cc).
 */
double logPoly(double u);

/**
 * sin and cos of theta in [0, 2*pi) by a Cody-Waite reduction and
 * Taylor polynomials; within 2^-50 of the true values (rng.cc).
 */
void sinCosPoly(double theta, double &sine, double &cosine);

/**
 * True when y = r * c', with r = sqrt(-2 logPoly(u1)) and c' within
 * kSinCosBudget - 2^-51 of sin or cos of theta, provably rounds to the
 * same float as libm's `sqrt(-2 log(u1)) * f(theta)`. Runs the active
 * kernel tier's copy, the one boxMullerPairs() inlines.
 */
bool roundsLikeLibm(double y, double r);

/**
 * Box-Muller floats for `pairs` uniform pairs (u1 in (0, 1), u2 in
 * [0, 1)) through the active kernel tier's vectorized loop: out[2i] and
 * out[2i + 1] get float(r cos theta) and float(r sin theta) from
 * logPoly() and sinCosPoly(). Returns true when roundsLikeLibm() proves
 * every float equal to libm's; on false, out holds unproven floats.
 */
bool boxMullerPairs(const double *u1, const double *u2, std::size_t pairs,
                    float *out);

} // namespace detail

/**
 * Exact Zipf distribution over [0, n) with exponent s, sampled by inverse
 * transform over a precomputed CDF. Setup is O(n) and sampling is
 * O(log n); the workload generators construct one per topic universe, so
 * the setup cost is paid once.
 */
class ZipfDistribution
{
  public:
    /** Build the CDF for support size n and exponent s > 0. */
    ZipfDistribution(std::uint64_t n, double s);

    /** Draw one value in [0, n). */
    std::uint64_t sample(Rng &rng) const;

    /** Probability mass of value k. */
    double prob(std::uint64_t k) const;

    /** Support size. */
    std::uint64_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

} // namespace modm

#endif // MODM_COMMON_RNG_HH
