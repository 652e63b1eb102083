#include "src/embedding/embedding.hh"

#include <cmath>

#include "src/common/log.hh"

namespace modm::embedding {

namespace {

/** Index of the first NaN or infinite component, or size() if none. */
std::size_t
firstNonFinite(const Vec &v)
{
    std::size_t i = 0;
    while (i < v.size() && std::isfinite(v[i]))
        ++i;
    return i;
}

} // namespace

Embedding::Embedding(Vec features)
    : v_(std::move(features))
{
    MODM_ASSERT(!v_.empty(), "embedding must be non-empty");
    const std::size_t bad = firstNonFinite(v_);
    MODM_ASSERT(bad == v_.size(),
                "non-finite embedding: component %zu of %zu is %g", bad,
                v_.size(), bad < v_.size() ? v_[bad] : 0.0);
    normalize(v_);
    // A finite vector whose norm is below 1 / FLT_MAX (~3e-39)
    // overflows the float reciprocal in normalize().
    MODM_ASSERT(firstNonFinite(v_) == v_.size(),
                "non-finite embedding: the vector is too small to "
                "normalize");
}

double
Embedding::similarity(const Embedding &other) const
{
    MODM_ASSERT(valid() && other.valid(),
                "similarity on an empty embedding");
    return dot(v_, other.v_);
}

} // namespace modm::embedding
