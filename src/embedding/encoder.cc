#include "src/embedding/encoder.hh"

#include <algorithm>
#include <cmath>

#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/embedding/tokenizer.hh"

namespace modm::embedding {

namespace {

Vec
computeTextAnchor(std::size_t dim)
{
    Rng rng(0x7e37a11c00001111ULL);
    return randomUnitVec(dim, rng);
}

Vec
computeImageAnchor(std::size_t dim)
{
    // Start from an independent direction and remove the text-anchor
    // component so the two cones are exactly orthogonal.
    Rng rng(0x13a6e00002222ULL);
    Vec raw = randomUnitVec(dim, rng);
    const Vec t = computeTextAnchor(dim);
    axpy(raw, -dot(raw, t), t);
    normalize(raw);
    return raw;
}

} // namespace

Vec
textAnchor(std::size_t dim)
{
    // Every encoder constructor calls this; cache the common dimension.
    static const Vec cached = computeTextAnchor(kEmbeddingDim);
    if (dim == kEmbeddingDim)
        return cached;
    return computeTextAnchor(dim);
}

Vec
imageAnchor(std::size_t dim)
{
    static const Vec cached = computeImageAnchor(kEmbeddingDim);
    if (dim == kEmbeddingDim)
        return cached;
    return computeImageAnchor(dim);
}

namespace {

/**
 * Remove the anchor-plane components of a content mix so cross-modal
 * similarity is driven purely by concept agreement: without this, the
 * random overlap between a concept and the anchors adds a per-concept
 * similarity bias of ~0.06, large relative to the paper's 0.25-0.30
 * threshold band.
 */
void
deflateAnchors(Vec &mix, const Vec &text_anchor, const Vec &image_anchor)
{
    axpy(mix, -dot(mix, text_anchor), text_anchor);
    axpy(mix, -dot(mix, image_anchor), image_anchor);
}

} // namespace

TextEncoder::TextEncoder(TextEncoderConfig config)
    : config_(config), textAnchor_(textAnchor(config.dim)),
      imageAnchor_(imageAnchor(config.dim)), mix_(config.dim),
      noise_(config.dim), features_(config.dim)
{
    MODM_ASSERT(config_.coneWeight > 0.0 && config_.coneWeight < 1.0,
                "cone weight must be in (0, 1)");
}

Embedding
TextEncoder::encode(const Vec &visual_concept, const Vec &lexical_style,
                    const std::string &text) const
{
    Embedding out;
    encode(visual_concept, lexical_style, text, out);
    return out;
}

void
TextEncoder::encode(const Vec &visual_concept, const Vec &lexical_style,
                    const std::string &text, Embedding &out) const
{
    MODM_ASSERT(visual_concept.size() == config_.dim,
                "text encoder: concept dimension mismatch");
    MODM_ASSERT(lexical_style.size() == config_.dim,
                "text encoder: style dimension mismatch");
    Rng rng(mix64(tokenHash(text) ^ 0x7c1a2b3c4d5e6f70ULL));

    // Content part: concept + lexical contamination + encoder noise.
    mix_ = visual_concept;
    axpy(mix_, config_.lexicalWeight, lexical_style);
    randomUnitVec(config_.dim, rng, noise_);
    axpy(mix_, config_.noise, noise_);
    deflateAnchors(mix_, textAnchor_, imageAnchor_);
    normalize(mix_);

    // Place on the text cone.
    const double beta = config_.coneWeight;
    features_ = textAnchor_;
    scale(features_, std::sqrt(1.0 - beta * beta));
    axpy(features_, beta, mix_);
    out.assign(features_);
}

ImageEncoder::ImageEncoder(ImageEncoderConfig config)
    : config_(config), textAnchor_(textAnchor(config.dim)),
      imageAnchor_(imageAnchor(config.dim)), mix_(config.dim),
      noise_(config.dim), features_(config.dim)
{
    MODM_ASSERT(config_.coneWeight > 0.0 && config_.coneWeight < 1.0,
                "cone weight must be in (0, 1)");
}

Embedding
ImageEncoder::encode(const Vec &content, double fidelity,
                     std::uint64_t image_id) const
{
    Embedding out;
    encode(content, fidelity, image_id, out);
    return out;
}

void
ImageEncoder::encode(const Vec &content, double fidelity,
                     std::uint64_t image_id, Embedding &out) const
{
    MODM_ASSERT(content.size() == config_.dim,
                "image encoder: content dimension mismatch");
    Rng rng(mix64(image_id ^ 0x51f0e9d8c7b6a594ULL));
    const double defect = 1.0 - std::clamp(fidelity, 0.0, 1.0);
    const double noise =
        config_.noiseBase + config_.noisePerDefect * defect;

    mix_ = content;
    randomUnitVec(config_.dim, rng, noise_);
    axpy(mix_, noise, noise_);
    deflateAnchors(mix_, textAnchor_, imageAnchor_);
    normalize(mix_);

    const double gamma = config_.coneWeight;
    features_ = imageAnchor_;
    scale(features_, std::sqrt(1.0 - gamma * gamma));
    axpy(features_, gamma, mix_);
    out.assign(features_);
}

} // namespace modm::embedding
