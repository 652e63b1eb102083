/**
 * @file
 * Image-quality metrics (paper §6): CLIPScore, FID, Inception Score and
 * PickScore.
 *
 * The metric *formulas* are the published ones; the feature extractors
 * operate on the simulator's image representation (content vector +
 * fidelity scalar) instead of pixels:
 *
 *  - CLIPScore: 100 x cosine(text embedding, image embedding) computed
 *    with the synthetic CLIP towers — the same towers the serving system
 *    retrieves with, mirroring the paper's use of one CLIP model for
 *    both retrieval and evaluation (they add PickScore to control for
 *    that bias; so do we).
 *  - FID: exact Fréchet distance between Gaussians fit to "inception"
 *    features of the generated and reference populations. Features are
 *    the image content plus fidelity-dependent defect components, so
 *    low-fidelity models shift the feature mean and inflate covariance —
 *    exactly how visual defects move InceptionV3 statistics.
 *  - Inception Score: exp(E[KL(p(y|x) || p(y))]) over a fixed random
 *    linear classifier whose confidence scales with image fidelity.
 *  - PickScore: preference-calibrated affine blend of prompt alignment
 *    and fidelity, on the ~19-22 scale the paper reports.
 */

#ifndef MODM_EVAL_METRICS_HH
#define MODM_EVAL_METRICS_HH

#include <cstdint>
#include <vector>

#include "src/common/vec.hh"
#include "src/diffusion/image.hh"
#include "src/diffusion/model_spec.hh"
#include "src/embedding/encoder.hh"
#include "src/workload/prompt.hh"

namespace modm::eval {

/** Aggregated quality metrics for one image population. */
struct QualityReport
{
    double clip = 0.0;  ///< mean CLIPScore (higher better)
    double fid = 0.0;   ///< FID vs the reference set (lower better)
    double is = 0.0;    ///< Inception Score (higher better)
    double pick = 0.0;  ///< mean PickScore (higher better)
    std::size_t count = 0;
};

/** Configuration for the metric suite. */
struct MetricConfig
{
    /** Text tower used for CLIPScore. */
    embedding::TextEncoderConfig textEncoder = {};
    /** Image tower used for CLIPScore. */
    embedding::ImageEncoderConfig imageEncoder = {};
    /** Number of classes of the synthetic inception classifier. */
    std::size_t inceptionClasses = 32;
    /** Classifier confidence multiplier per unit fidelity. */
    double inceptionSharpness = 55.0;
    /** Feature scale of the content part of inception features. */
    double fidContentScale = 7.0;
    /** Mean shift per unit of missing fidelity (systematic defects). */
    double fidDefectShift = 19.0;
    /** Covariance inflation per unit of missing fidelity. */
    double fidDefectNoise = 13.0;
    /** Baseline per-image feature noise. */
    double fidBaseNoise = 1.2;
    /** PickScore affine calibration: pick = a + b*cos + c*fidelity. */
    double pickBias = 13.2;
    double pickAlignWeight = 16.0;
    double pickFidelityWeight = 3.8;
};

/**
 * Metric suite with fixed encoders and classifier; construct once per
 * experiment so all populations are scored identically.
 */
class MetricSuite
{
  public:
    /** Build the towers and the inception classifier. */
    explicit MetricSuite(MetricConfig config = {});

    /** CLIPScore of one (prompt, image) pair (0-100 scale / 100). */
    double clipScore(const workload::Prompt &prompt,
                     const diffusion::Image &image) const;

    /** PickScore of one (prompt, image) pair. */
    double pickScore(const workload::Prompt &prompt,
                     const diffusion::Image &image) const;

    /** Synthetic inception features of one image (for FID). */
    Vec inceptionFeatures(const diffusion::Image &image) const;

    /** Class posterior of the synthetic inception classifier. */
    std::vector<double> classPosterior(const diffusion::Image &image) const;

    /** Inception Score of a population. */
    double inceptionScore(const std::vector<diffusion::Image> &images) const;

    /** FID between generated and reference populations. */
    double fid(const std::vector<diffusion::Image> &generated,
               const std::vector<diffusion::Image> &reference) const;

    /**
     * Full report: CLIP/Pick averaged over (prompt, image) pairs, IS
     * over the generated set, FID vs the reference set. `prompts` and
     * `images` must be parallel.
     */
    QualityReport report(const workload::PromptRefs &prompts,
                         const std::vector<diffusion::Image> &images,
                         const std::vector<diffusion::Image> &reference)
        const;

    /** The text tower (shared with serving code in experiments). */
    const embedding::TextEncoder &textEncoder() const { return text_; }

    /** The image tower. */
    const embedding::ImageEncoder &imageEncoder() const { return image_; }

  private:
    MetricConfig config_;
    embedding::TextEncoder text_;
    embedding::ImageEncoder image_;
    std::vector<Vec> classifier_;  // one weight vector per class
    Vec defectDirection_;
};

/** Reference generations (large model, independent seed) for FID. */
std::vector<diffusion::Image>
referenceImages(const workload::PromptRefs &prompts,
                const diffusion::ModelSpec &large,
                std::uint64_t seed = 0x4ef5eedULL);

} // namespace modm::eval

#endif // MODM_EVAL_METRICS_HH
