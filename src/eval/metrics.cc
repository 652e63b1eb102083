#include "src/eval/metrics.hh"

#include <algorithm>
#include <cmath>

#include "src/common/log.hh"
#include "src/common/matrix.hh"
#include "src/common/rng.hh"
#include "src/diffusion/sampler.hh"

namespace modm::eval {

MetricSuite::MetricSuite(MetricConfig config)
    : config_(config), text_(config.textEncoder),
      image_(config.imageEncoder)
{
    MODM_ASSERT(config_.inceptionClasses >= 2,
                "inception classifier needs >= 2 classes");
    Rng rng(0xfeedc1a551f1e5ULL);
    classifier_.reserve(config_.inceptionClasses);
    for (std::size_t c = 0; c < config_.inceptionClasses; ++c) {
        classifier_.push_back(
            randomUnitVec(config_.textEncoder.dim, rng));
    }
    defectDirection_ = randomUnitVec(config_.textEncoder.dim, rng);
}

double
MetricSuite::clipScore(const workload::Prompt &prompt,
                       const diffusion::Image &image) const
{
    const auto t = text_.encode(prompt.visualConcept, prompt.lexicalStyle,
                                prompt.text);
    const auto e = image_.encode(image.content, image.fidelity, image.id);
    return 100.0 * t.similarity(e);
}

double
MetricSuite::pickScore(const workload::Prompt &prompt,
                       const diffusion::Image &image) const
{
    const auto t = text_.encode(prompt.visualConcept, prompt.lexicalStyle,
                                prompt.text);
    const auto e = image_.encode(image.content, image.fidelity, image.id);
    return config_.pickBias +
        config_.pickAlignWeight * t.similarity(e) +
        config_.pickFidelityWeight * image.fidelity;
}

Vec
MetricSuite::inceptionFeatures(const diffusion::Image &image) const
{
    Rng rng(mix64(image.id ^ 0xa11ce5e1f1d0ULL));
    const double defect = 1.0 - std::clamp(image.fidelity, 0.0, 1.0);
    Vec f = image.content;
    scale(f, config_.fidContentScale);
    // Systematic defect shift: low-fidelity models share failure modes
    // (mangled anatomy, texture artifacts), moving the feature mean.
    axpy(f, config_.fidDefectShift * defect, defectDirection_);
    // Idiosyncratic defects inflate the covariance.
    axpy(f, config_.fidDefectNoise * defect,
         randomUnitVec(f.size(), rng));
    axpy(f, config_.fidBaseNoise, randomUnitVec(f.size(), rng));
    return f;
}

std::vector<double>
MetricSuite::classPosterior(const diffusion::Image &image) const
{
    const double sharp =
        config_.inceptionSharpness * std::clamp(image.fidelity, 0.0, 1.0);
    std::vector<double> logits(classifier_.size());
    double maxLogit = -1e300;
    for (std::size_t c = 0; c < classifier_.size(); ++c) {
        logits[c] = sharp * dot(classifier_[c], image.content);
        maxLogit = std::max(maxLogit, logits[c]);
    }
    double z = 0.0;
    for (auto &l : logits) {
        l = std::exp(l - maxLogit);
        z += l;
    }
    for (auto &l : logits)
        l /= z;
    return logits;
}

double
MetricSuite::inceptionScore(
    const std::vector<diffusion::Image> &images) const
{
    MODM_ASSERT(!images.empty(), "inception score of an empty set");
    const std::size_t classes = classifier_.size();
    std::vector<double> marginal(classes, 0.0);
    std::vector<std::vector<double>> posteriors;
    posteriors.reserve(images.size());
    for (const auto &img : images) {
        auto p = classPosterior(img);
        for (std::size_t c = 0; c < classes; ++c)
            marginal[c] += p[c];
        posteriors.push_back(std::move(p));
    }
    for (auto &m : marginal)
        m /= static_cast<double>(images.size());

    double klSum = 0.0;
    for (const auto &p : posteriors) {
        double kl = 0.0;
        for (std::size_t c = 0; c < classes; ++c) {
            if (p[c] > 1e-300)
                kl += p[c] * std::log(p[c] / std::max(marginal[c], 1e-300));
        }
        klSum += kl;
    }
    return std::exp(klSum / static_cast<double>(images.size()));
}

double
MetricSuite::fid(const std::vector<diffusion::Image> &generated,
                 const std::vector<diffusion::Image> &reference) const
{
    MODM_ASSERT(generated.size() >= 2 && reference.size() >= 2,
                "FID needs >= 2 samples per population");
    std::vector<Vec> genFeatures;
    genFeatures.reserve(generated.size());
    for (const auto &img : generated)
        genFeatures.push_back(inceptionFeatures(img));
    std::vector<Vec> refFeatures;
    refFeatures.reserve(reference.size());
    for (const auto &img : reference)
        refFeatures.push_back(inceptionFeatures(img));
    return frechetDistance(genFeatures, refFeatures);
}

QualityReport
MetricSuite::report(const workload::PromptRefs &prompts,
                    const std::vector<diffusion::Image> &images,
                    const std::vector<diffusion::Image> &reference) const
{
    MODM_ASSERT(prompts.size() == images.size(),
                "report: prompts and images must be parallel");
    MODM_ASSERT(!images.empty(), "report of an empty population");
    QualityReport out;
    out.count = images.size();
    for (std::size_t i = 0; i < images.size(); ++i) {
        out.clip += clipScore(prompts[i], images[i]);
        out.pick += pickScore(prompts[i], images[i]);
    }
    out.clip /= static_cast<double>(images.size());
    out.pick /= static_cast<double>(images.size());
    out.is = inceptionScore(images);
    out.fid = fid(images, reference);
    return out;
}

std::vector<diffusion::Image>
referenceImages(const workload::PromptRefs &prompts,
                const diffusion::ModelSpec &large, std::uint64_t seed)
{
    diffusion::Sampler sampler(seed);
    std::vector<diffusion::Image> out;
    out.reserve(prompts.size());
    for (const auto &p : prompts)
        out.push_back(sampler.generate(large, p, 0.0));
    return out;
}

} // namespace modm::eval
