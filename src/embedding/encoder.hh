/**
 * @file
 * Synthetic CLIP encoders.
 *
 * The real system embeds prompts with the CLIP text tower and cached
 * images with the CLIP image tower. This substitute reproduces the two
 * properties MoDM depends on:
 *
 * 1. *Modality gap*: CLIP text and image embeddings live in two distinct
 *    cones, so cross-modal cosine similarity tops out well below 1 — real
 *    CLIPScores sit around 0.2-0.35, which is the scale the paper's cache
 *    thresholds (0.25-0.30) and Fig. 2 histograms are expressed in. We
 *    model the cones with fixed orthogonal anchor directions T0 (text)
 *    and I0 (image); same-modality similarity has a large constant floor
 *    (matching Nirvana's 0.65-0.95 text-to-text threshold range), while
 *    cross-modal similarity is proportional to visual-concept agreement.
 *
 * 2. *Lexical contamination* (paper §3.2): a text embedding mixes the
 *    underlying visual concept with the prompt's lexical style, while an
 *    image embedding reflects the visual content of the generated image
 *    almost directly. Text-to-image retrieval therefore tracks the user's
 *    visual intent better than text-to-text retrieval — the effect the
 *    paper's Fig. 2 and Fig. 3 demonstrate.
 *
 * Noise is derived deterministically from the prompt text / image id so
 * encoding is a pure function, exactly like running a frozen CLIP model.
 *
 * Each encoder holds both cone anchors and reuses its own mix, noise and
 * feature buffers, sized at construction, so an encode allocates only
 * the returned embedding, and an encode into a caller's embedding that
 * already holds dim floats allocates nothing. encode() is const but
 * writes those buffers: one encoder instance serves one thread at a
 * time (one per serving node, cache or sweep cell, and one per crew
 * member that keys warm images).
 */

#ifndef MODM_EMBEDDING_ENCODER_HH
#define MODM_EMBEDDING_ENCODER_HH

#include <cstdint>
#include <string>

#include "src/common/vec.hh"
#include "src/embedding/embedding.hh"

namespace modm::embedding {

/** Tunables of the synthetic text tower. */
struct TextEncoderConfig
{
    /** Embedding dimensionality. */
    std::size_t dim = kEmbeddingDim;
    /** Weight of the content cone vs the text anchor (modality gap). */
    double coneWeight = 0.62;
    /** Weight of the lexical-style component relative to the concept. */
    double lexicalWeight = 0.55;
    /** Norm of the deterministic per-prompt encoder noise. */
    double noise = 0.12;
};

/** Tunables of the synthetic image tower. */
struct ImageEncoderConfig
{
    /** Embedding dimensionality. */
    std::size_t dim = kEmbeddingDim;
    /** Weight of the content cone vs the image anchor (modality gap). */
    double coneWeight = 0.62;
    /** Noise norm applied to a perfect-fidelity image. */
    double noiseBase = 0.08;
    /** Extra noise per unit of missing fidelity (image defects). */
    double noisePerDefect = 0.90;
};

/**
 * Text tower: embeds (visual concept, lexical style, surface text) into
 * the shared space.
 */
class TextEncoder
{
  public:
    /** Construct with config; defaults reproduce the paper's scales. */
    explicit TextEncoder(TextEncoderConfig config = {});

    /**
     * Encode a prompt.
     *
     * @param visual_concept Ground-truth visual concept (unit vector).
     * @param lexical_style Lexical-style component (unit vector).
     * @param text Surface text; seeds the deterministic encoder noise.
     */
    Embedding encode(const Vec &visual_concept, const Vec &lexical_style,
                     const std::string &text) const;

    /** The same encode into `out`, reusing its storage. */
    void encode(const Vec &visual_concept, const Vec &lexical_style,
                const std::string &text, Embedding &out) const;

    /** Active configuration. */
    const TextEncoderConfig &config() const { return config_; }

  private:
    TextEncoderConfig config_;
    Vec textAnchor_;
    Vec imageAnchor_;
    mutable Vec mix_;      // encode scratch: the content part
    mutable Vec noise_;    // encode scratch: the encoder-noise draw
    mutable Vec features_; // encode scratch: the unnormalized embedding
};

/**
 * Image tower: embeds generated-image content into the shared space.
 * Lower-fidelity images (small-model defects) embed with more noise,
 * which slightly blurs retrieval and depresses CLIP-style scores.
 */
class ImageEncoder
{
  public:
    /** Construct with config. */
    explicit ImageEncoder(ImageEncoderConfig config = {});

    /**
     * Encode an image.
     *
     * @param content Visual content vector of the image (unit vector).
     * @param fidelity Image fidelity in [0, 1]; lower adds encoder noise.
     * @param image_id Seeds the deterministic noise.
     */
    Embedding encode(const Vec &content, double fidelity,
                     std::uint64_t image_id) const;

    /** The same encode into `out`, reusing its storage. */
    void encode(const Vec &content, double fidelity, std::uint64_t image_id,
                Embedding &out) const;

    /** Active configuration. */
    const ImageEncoderConfig &config() const { return config_; }

  private:
    ImageEncoderConfig config_;
    Vec textAnchor_;
    Vec imageAnchor_;
    mutable Vec mix_;      // encode scratch: the content part
    mutable Vec noise_;    // encode scratch: the encoder-noise draw
    mutable Vec features_; // encode scratch: the unnormalized embedding
};

/**
 * The fixed text-cone anchor direction for a dimensionality (unit
 * vector, deterministic).
 */
Vec textAnchor(std::size_t dim);

/** The fixed image-cone anchor, orthogonalised against the text anchor. */
Vec imageAnchor(std::size_t dim);

} // namespace modm::embedding

#endif // MODM_EMBEDDING_ENCODER_HH
