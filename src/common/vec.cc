#include "src/common/vec.hh"

#include <cmath>

#include "src/common/log.hh"
#include "src/common/rng.hh"

namespace modm {

double
dot(const Vec &a, const Vec &b)
{
    MODM_ASSERT(a.size() == b.size(), "dot: dimension mismatch %zu vs %zu",
                a.size(), b.size());
    return dot(a.data(), b.data(), a.size());
}

double
norm(const Vec &a)
{
    return std::sqrt(dot(a, a));
}

void
normalize(Vec &a)
{
    const double n = norm(a);
    if (n <= 0.0)
        return;
    const float inv = static_cast<float>(1.0 / n);
    for (auto &x : a)
        x *= inv;
}

Vec
normalized(const Vec &a)
{
    Vec out = a;
    normalize(out);
    return out;
}

double
cosine(const Vec &a, const Vec &b)
{
    const double na = norm(a);
    const double nb = norm(b);
    if (na <= 0.0 || nb <= 0.0)
        return 0.0;
    return dot(a, b) / (na * nb);
}

void
axpy(Vec &a, double s, const Vec &b)
{
    MODM_ASSERT(a.size() == b.size(), "axpy: dimension mismatch");
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] += static_cast<float>(s * b[i]);
}

void
lerp(const Vec &a, const Vec &b, double t, Vec &out)
{
    MODM_ASSERT(a.size() == b.size(), "lerp: dimension mismatch");
    out.resize(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = static_cast<float>((1.0 - t) * a[i] + t * b[i]);
}

void
scale(Vec &a, double s)
{
    for (auto &x : a)
        x = static_cast<float>(x * s);
}

Vec
gaussianVec(std::size_t dim, Rng &rng)
{
    Vec out(dim);
    rng.normalFloats(out.data(), dim);
    return out;
}

Vec
randomUnitVec(std::size_t dim, Rng &rng)
{
    Vec out;
    randomUnitVec(dim, rng, out);
    return out;
}

void
randomUnitVec(std::size_t dim, Rng &rng, Vec &out)
{
    out.resize(dim);
    rng.normalFloats(out.data(), dim);
    normalize(out);
}

Vec
jitterUnitVec(const Vec &base, double strength, Rng &rng)
{
    Vec out = base;
    Vec noise;
    jitterUnitVec(out, strength, rng, noise);
    return out;
}

void
jitterUnitVec(Vec &v, double strength, Rng &rng, Vec &noise)
{
    randomUnitVec(v.size(), rng, noise);
    axpy(v, strength, noise);
    normalize(v);
}

} // namespace modm
