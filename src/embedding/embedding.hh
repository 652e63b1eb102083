/**
 * @file
 * Embedding value type for the synthetic CLIP space.
 *
 * MoDM retrieves cached images by cosine similarity between a query *text*
 * embedding and cached *image* embeddings (paper Eq. 1). Both kinds of
 * embedding live in the same unit-sphere space, as in CLIP.
 */

#ifndef MODM_EMBEDDING_EMBEDDING_HH
#define MODM_EMBEDDING_EMBEDDING_HH

#include "src/common/vec.hh"

namespace modm::embedding {

/** Dimensionality of the synthetic CLIP space. */
constexpr std::size_t kEmbeddingDim = 64;

/**
 * A unit-length embedding. Construction normalizes; similarity is plain
 * cosine (dot product of unit vectors).
 */
class Embedding
{
  public:
    /** Empty (dimension 0) embedding. */
    Embedding() = default;

    /**
     * Construct from raw features; the vector is normalized. Panics
     * with "non-finite embedding" on a NaN or infinite component, or
     * when a vector too tiny to normalize would overflow: every stored
     * row and query is finite, which retrieval relies on (FlatIndex's
     * screen bounds hold only for finite values).
     */
    explicit Embedding(Vec features);

    /** Cosine similarity with another embedding. */
    double similarity(const Embedding &other) const;

    /** Underlying unit vector. */
    const Vec &vec() const { return v_; }

    /** Dimensionality. */
    std::size_t dim() const { return v_.size(); }

    /** True when the embedding holds data. */
    bool valid() const { return !v_.empty(); }

  private:
    Vec v_;
};

} // namespace modm::embedding

#endif // MODM_EMBEDDING_EMBEDDING_HH
