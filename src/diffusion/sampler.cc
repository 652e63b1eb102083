#include "src/diffusion/sampler.hh"

#include <algorithm>
#include <cmath>

#include "src/common/log.hh"
#include "src/common/rng.hh"
#include "src/embedding/tokenizer.hh"

namespace modm::diffusion {

Sampler::Sampler(std::uint64_t seed, SamplerConfig config,
                 ScheduleConfig schedule)
    : seed_(seed), config_(config), schedule_(schedule)
{
}

double
Sampler::lockAt(int k) const
{
    MODM_ASSERT(k >= 0 && k < schedule_.steps(),
                "lockAt: k=%d out of range", k);
    const double frac =
        static_cast<double>(k) / static_cast<double>(schedule_.steps());
    return std::min(config_.lockMax,
                    config_.lockBase + config_.lockSlope * frac);
}

std::uint64_t
Sampler::streamSeed(const ModelSpec &model, std::uint64_t prompt_id,
                    std::uint64_t base_id) const
{
    std::uint64_t h = seed_;
    h = mix64(h ^ embedding::tokenHash(model.name));
    h = mix64(h ^ prompt_id);
    h = mix64(h ^ (base_id + 0x9e3779b97f4a7c15ULL));
    return h;
}

const Vec &
Sampler::styleDir(std::size_t dim) const
{
    if (styleDir_.size() != dim) {
        Rng styleRng(mix64(seed_ ^ 0x57a1ed12ULL));
        styleDir_ = randomUnitVec(dim, styleRng);
    }
    return styleDir_;
}

void
Sampler::prepare(std::size_t dim)
{
    styleDir(dim);
    for (Vec *scratch : {&eps_, &own_, &target_, &noise_})
        scratch->reserve(dim);
}

void
Sampler::modelTarget(const ModelSpec &model, const workload::Prompt &prompt,
                     const Vec &noise, Vec &target) const
{
    // The target the model would converge to given unlimited steps: the
    // prompt's concept displaced by the model's adherence misalignment
    // plus this sampler's style direction. The displacement direction
    // is deterministic per (model, prompt) — the same prompt re-run on
    // the same model converges the same way.
    const Vec &style = styleDir(prompt.visualConcept.size());
    target = prompt.visualConcept;
    axpy(target, model.misalignment, noise);
    normalize(target);
    axpy(target, config_.styleBias, style);
    normalize(target);
}

Image
Sampler::generate(const ModelSpec &model, const workload::Prompt &prompt,
                  int steps, double now)
{
    Image img;
    generate(model, prompt, steps, ++nextImageId_, now, img);
    return img;
}

void
Sampler::generate(const ModelSpec &model, const workload::Prompt &prompt,
                  int steps, std::uint64_t id, double now, Image &out)
{
    MODM_ASSERT(steps >= 1 && steps <= schedule_.steps(),
                "generate: steps=%d out of range", steps);
    Rng rng(streamSeed(model, prompt.id, 0));
    Vec &latent = out.content;
    randomUnitVec(prompt.visualConcept.size(), rng, latent);
    modelTarget(model, prompt, latent, target_);

    // Latent walk: start at pure noise and contract toward the target
    // over all T schedule steps, whatever `steps` is; fewer steps only
    // cost fidelity below. The walk's end is the image's content.
    scale(latent, schedule_.sigmaNorm(0) * 2.0);
    schedule_.walkToTarget(latent, target_, 0);
    randomUnitVec(latent.size(), rng, noise_);
    axpy(latent, config_.contentNoise, noise_);
    normalize(latent);

    out.id = id;
    const double stepFraction =
        static_cast<double>(steps) /
        static_cast<double>(model.defaultSteps);
    const double undersample = stepFraction >= 1.0
        ? 0.0
        : config_.undersampleCoef * (1.0 - stepFraction);
    out.fidelity = std::clamp(
        model.baseFidelity - undersample +
            rng.normal(0.0, config_.fidelityNoise),
        0.0, 1.0);
    out.modelName = model.name;
    out.promptId = prompt.id;
    out.topicId = prompt.topicId;
    out.createdAt = now;
    out.stepsRun = steps;
    out.byteSize = model.imageBytes;
    out.refined = false;
}

Image
Sampler::generate(const ModelSpec &model, const workload::Prompt &prompt,
                  double now)
{
    return generate(model, prompt, model.defaultSteps, now);
}

Image
Sampler::refine(const ModelSpec &model, const workload::Prompt &prompt,
                const Image &base, int k, double now)
{
    MODM_ASSERT(k >= 0 && k < schedule_.steps(),
                "refine: k=%d out of range", k);
    MODM_ASSERT(!base.content.empty(), "refine: base image has no content");
    Rng rng(streamSeed(model, prompt.id, base.id));

    // Paper Eq. 2: re-noise the retrieved image to the level of step k.
    const double sigmaK = schedule_.sigmaNorm(k);
    Vec latent(base.content.size());
    randomUnitVec(latent.size(), rng, eps_);
    for (std::size_t d = 0; d < latent.size(); ++d) {
        latent[d] = static_cast<float>(
            sigmaK * eps_[d] + (1.0 - sigmaK) * base.content[d]);
    }

    // Early steps (0..k-1) were skipped, so the structural decisions
    // baked into the retrieved image persist: the reachable target is a
    // lock-weighted blend of the model's own target and the base. The
    // blend of two unit vectors has norm < 1; renormalising it directly
    // would *increase* prompt alignment (an artifact of shrinkage), so
    // the lost norm is refilled with an orthogonal defect component:
    // structurally incompatible content becomes artifacts, it does not
    // vanish.
    const double lock = lockAt(k);
    Rng targetRng(streamSeed(model, prompt.id, 0));
    randomUnitVec(prompt.visualConcept.size(), targetRng, noise_);
    modelTarget(model, prompt, noise_, own_);
    lerp(own_, base.content, lock, target_);
    const double blendNorm2 = dot(target_, target_);
    if (blendNorm2 < 1.0) {
        randomUnitVec(target_.size(), rng, noise_);
        axpy(target_, std::sqrt(1.0 - blendNorm2), noise_);
    }
    normalize(target_);

    schedule_.walkToTarget(latent, target_, k);
    Vec content = std::move(latent);
    randomUnitVec(content.size(), rng, noise_);
    axpy(content, config_.contentNoise, noise_);
    normalize(content);

    // Fidelity: the un-locked portion is regenerated at the refining
    // model's own fidelity; the locked portion inherits the base's
    // defects, minus what the remaining T-k steps clean up; late-stage
    // repainting of a mismatched image adds artifacts.
    const double mismatch =
        1.0 - cosine(prompt.visualConcept, base.content);
    const double clampedMismatch = std::max(mismatch, 0.0);
    const double artifacts = config_.artifactCoef * lock *
        clampedMismatch * clampedMismatch;
    const double stepsFrac =
        static_cast<double>(schedule_.steps() - k) /
        static_cast<double>(schedule_.steps());
    const double inheritedDefect = lock * (1.0 - base.fidelity) *
        (1.0 - config_.cleanupCoef * stepsFrac);
    const double ownDefect = (1.0 - lock) * (1.0 - model.baseFidelity);
    Image img;
    img.id = ++nextImageId_;
    img.content = std::move(content);
    img.fidelity = std::clamp(
        1.0 - ownDefect - inheritedDefect - artifacts +
            rng.normal(0.0, config_.fidelityNoise),
        0.0, 1.0);
    img.modelName = model.name;
    img.promptId = prompt.id;
    img.topicId = prompt.topicId;
    img.createdAt = now;
    img.stepsRun = schedule_.steps() - k;
    img.byteSize = model.imageBytes;
    img.refined = true;
    return img;
}

} // namespace modm::diffusion
