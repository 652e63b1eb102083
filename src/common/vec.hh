/**
 * @file
 * Dense float vector math used by the synthetic CLIP embedding space, the
 * diffusion latent simulator, and the evaluation metrics.
 *
 * Vectors are plain std::vector<float>; the helpers here keep hot loops
 * (dot products against a cache of 100k embeddings) simple enough for the
 * compiler to vectorise.
 */

#ifndef MODM_COMMON_VEC_HH
#define MODM_COMMON_VEC_HH

#include <cstddef>
#include <vector>

namespace modm {

class Rng;

using Vec = std::vector<float>;

/** Dot product; both vectors must have equal dimension. */
double dot(const Vec &a, const Vec &b);

/**
 * Dot product over raw rows of length n. The flat index calls the
 * dispatched kernels (kernels.hh) instead; this loop is their
 * portable scalar tier, and its four accumulators are the stripes of
 * the kernels' summation contract, so it returns the same bits as the
 * avx2 tier.
 *
 * The inner loop is a 4-way unrolled multi-accumulator: a single
 * `acc += a[i] * b[i]` chain serializes on the ~4-cycle FP-add
 * latency and cannot be auto-vectorized without -ffast-math (FP
 * addition is not associative, so the compiler must preserve the
 * chain); four independent double accumulators break the dependence
 * and let the compiler emit SIMD multiply-adds.
 */
inline double
dot(const float *a, const float *b, std::size_t n)
{
    double acc0 = 0.0;
    double acc1 = 0.0;
    double acc2 = 0.0;
    double acc3 = 0.0;
    // Bounded by n4 rather than `i + 4 <= n`: inlined at -O3, gcc 12
    // reads the latter as a possible wrap and warns
    // (-Waggressive-loop-optimizations).
    const std::size_t n4 = n - n % 4;
    std::size_t i = 0;
    for (; i < n4; i += 4) {
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

/** Euclidean norm. */
double norm(const Vec &a);

/** Normalize in place to unit length; zero vectors are left unchanged. */
void normalize(Vec &a);

/** Return a unit-length copy. */
Vec normalized(const Vec &a);

/** Cosine similarity in [-1, 1]; zero vectors yield 0. */
double cosine(const Vec &a, const Vec &b);

/** a += s * b. */
void axpy(Vec &a, double s, const Vec &b);

/**
 * Element-wise convex blend into `out`: (1 - t) * a + t * b, resized to
 * a's size (so a reused `out` allocates nothing).
 */
void lerp(const Vec &a, const Vec &b, double t, Vec &out);

/** Scale in place. */
void scale(Vec &a, double s);

/** i.i.d. standard normal vector of the given dimension. */
Vec gaussianVec(std::size_t dim, Rng &rng);

/** Unit vector drawn uniformly from the sphere. */
Vec randomUnitVec(std::size_t dim, Rng &rng);

/**
 * The same draw into `out`, resized to `dim`: the same floats as
 * randomUnitVec(dim, rng), without allocating once `out` has the room.
 */
void randomUnitVec(std::size_t dim, Rng &rng, Vec &out);

/**
 * Perturb a unit vector by an isotropic random direction of total norm
 * `strength`, then re-normalize; models "a nearby concept".
 *
 * The perturbation norm (not the per-coordinate noise) is what controls
 * the resulting cosine: cos(out, base) ~= 1 / sqrt(1 + strength^2), so
 * callers can dial in similarity structure independent of dimension.
 */
Vec jitterUnitVec(const Vec &base, double strength, Rng &rng);

/**
 * The same jitter applied to `v` in place, drawing the direction into
 * `noise`: the same draws and floats as v = jitterUnitVec(v, strength,
 * rng), without allocating once `noise` has the room.
 */
void jitterUnitVec(Vec &v, double strength, Rng &rng, Vec &noise);

} // namespace modm

#endif // MODM_COMMON_VEC_HH
