/**
 * @file
 * Unit tests for the diffusion substrate: model specs and profiled
 * throughputs, the noise schedule, and the sampler's generation /
 * refinement response (the mechanisms behind the paper's Fig. 5a).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/common/stats.hh"
#include "src/diffusion/sampler.hh"
#include "src/embedding/tokenizer.hh"
#include "src/workload/generator.hh"

namespace modm::diffusion {
namespace {

workload::Prompt
makePrompt(std::uint64_t id, Rng &rng)
{
    workload::Prompt p;
    p.id = id;
    p.text = "test prompt";
    p.visualConcept = randomUnitVec(64, rng);
    p.lexicalStyle = randomUnitVec(64, rng);
    return p;
}

TEST(ModelSpec, RegistryContainsPaperModels)
{
    const auto models = allModels();
    ASSERT_EQ(models.size(), 5u);
    EXPECT_EQ(models[0].name, "SD3.5L");
    EXPECT_EQ(models[0].paramsB, 8.0);
    EXPECT_EQ(models[1].name, "FLUX");
    EXPECT_EQ(models[1].paramsB, 12.0);
    EXPECT_EQ(models[2].name, "SDXL");
    EXPECT_EQ(models[2].paramsB, 3.0);
    EXPECT_EQ(models[3].name, "SANA");
    EXPECT_EQ(models[3].paramsB, 1.6);
    EXPECT_EQ(models[4].name, "SD3.5L-Turbo");
    EXPECT_EQ(models[4].defaultSteps, 10);
}

TEST(ModelSpec, LatencyOrderingMatchesPaper)
{
    // Per-image latency: SD3.5L > SDXL > SANA; Turbo beats SDXL via
    // its 10-step schedule despite full-size steps.
    const auto gpu = GpuKind::A40;
    EXPECT_GT(flux1Dev().fullLatency(gpu), sd35Large().fullLatency(gpu));
    EXPECT_GT(sd35Large().fullLatency(gpu), sdxl().fullLatency(gpu));
    EXPECT_GT(sdxl().fullLatency(gpu), sana().fullLatency(gpu));
    EXPECT_GT(sdxl().fullLatency(gpu),
              sd35LargeTurbo().fullLatency(gpu));
}

TEST(ModelSpec, VanillaThroughputCeilingsMatchPaper)
{
    // ~1 req/min/GPU on A40 (Fig. 12 left: 4 GPUs saturate near 4-5
    // req/min) and ~0.6 req/min/GPU on MI210 (Fig. 10: 16 GPUs saturate
    // near 10 req/min).
    EXPECT_NEAR(sd35Large().throughputPerMin(GpuKind::A40), 1.0, 0.1);
    EXPECT_NEAR(16.0 * sd35Large().throughputPerMin(GpuKind::MI210),
                10.0, 1.0);
}

TEST(ModelSpec, StepCostRatiosMatchPaper)
{
    const double large = sd35Large().stepLatencyA40;
    EXPECT_NEAR(sdxl().stepLatencyA40 / large, 0.35, 0.02);
    EXPECT_NEAR(sana().stepLatencyA40 / large, 0.15, 0.02);
}

TEST(ModelSpec, EnergyScalesWithSteps)
{
    const auto m = sd35Large();
    EXPECT_NEAR(m.stepEnergyJ(GpuKind::A40, 50),
                50.0 * 1.20 * 300.0, 1e-6);
    EXPECT_GT(m.stepEnergyJ(GpuKind::A40, 50),
              m.stepEnergyJ(GpuKind::A40, 20));
}

TEST(Schedule, SigmasDecreaseMonotonically)
{
    NoiseSchedule schedule;
    for (int i = 0; i < schedule.steps(); ++i)
        EXPECT_GT(schedule.sigma(i), schedule.sigma(i + 1));
    EXPECT_DOUBLE_EQ(schedule.sigma(schedule.steps()), 0.0);
}

TEST(Schedule, BoundsMatchConfig)
{
    ScheduleConfig config;
    config.sigmaMax = 10.0;
    config.sigmaMin = 0.1;
    NoiseSchedule schedule(config);
    EXPECT_NEAR(schedule.sigma(0), 10.0, 1e-9);
    EXPECT_NEAR(schedule.sigma(schedule.steps() - 1), 0.1, 1e-9);
    EXPECT_NEAR(schedule.sigmaNorm(0), 1.0, 1e-9);
}

TEST(Schedule, ResidualFactorShrinksForEarlyEntry)
{
    NoiseSchedule schedule;
    // Entering earlier leaves more steps -> more contraction.
    EXPECT_LT(schedule.residualFactor(5), schedule.residualFactor(30));
    EXPECT_LE(schedule.residualFactor(0), 1.0);
}

// A NaN sigma would make the walk's last ratio NaN instead of 0.
TEST(ScheduleDeathTest, RejectsNonFiniteSigmas)
{
    ScheduleConfig config;
    for (const double rho : {std::nan(""), 1e-300}) {
        config.rho = rho;
        EXPECT_DEATH({ NoiseSchedule schedule(config); },
                     "sigma 0 is not finite");
    }
}

/** The latent walk one step at a time, every element on every step. */
void
steppedWalk(const NoiseSchedule &schedule, Vec &latent, const Vec &target,
            int from)
{
    for (int i = from; i < schedule.steps(); ++i) {
        const double ratio =
            schedule.sigma(i + 1) / std::max(schedule.sigma(i), 1e-12);
        for (std::size_t d = 0; d < latent.size(); ++d) {
            latent[d] = static_cast<float>(
                target[d] + ratio * (latent[d] - target[d]));
        }
    }
}

/**
 * Sampler::generate and Sampler::refine with their latent walks run by
 * steppedWalk(): the reference the sampler's closed-form walk must
 * match. Streams, targets and fidelity repeat the sampler's private
 * derivations at the default SamplerConfig.
 */
class SteppedSampler
{
  public:
    SteppedSampler(std::uint64_t seed, const ScheduleConfig &schedule)
        : seed_(seed), schedule_(schedule)
    {
    }

    Image generate(const ModelSpec &model, const workload::Prompt &prompt,
                   int steps) const
    {
        Rng rng(streamSeed(model, prompt.id, 0));
        Vec latent = randomUnitVec(prompt.visualConcept.size(), rng);
        const Vec target = modelTarget(model, prompt, latent);
        scale(latent, schedule_.sigmaNorm(0) * 2.0);
        steppedWalk(schedule_, latent, target, 0);
        Image img;
        img.content = finish(latent, rng);
        const double stepFraction = static_cast<double>(steps) /
            static_cast<double>(model.defaultSteps);
        const double undersample = stepFraction >= 1.0
            ? 0.0
            : config_.undersampleCoef * (1.0 - stepFraction);
        img.fidelity = std::clamp(
            model.baseFidelity - undersample +
                rng.normal(0.0, config_.fidelityNoise),
            0.0, 1.0);
        return img;
    }

    Image refine(const ModelSpec &model, const workload::Prompt &prompt,
                 const Image &base, int k) const
    {
        Rng rng(streamSeed(model, prompt.id, base.id));
        const double sigmaK = schedule_.sigmaNorm(k);
        Vec latent(base.content.size());
        const Vec eps = randomUnitVec(latent.size(), rng);
        for (std::size_t d = 0; d < latent.size(); ++d) {
            latent[d] = static_cast<float>(
                sigmaK * eps[d] + (1.0 - sigmaK) * base.content[d]);
        }
        const double total = schedule_.steps();
        const double lock =
            std::min(config_.lockMax,
                     config_.lockBase + config_.lockSlope * (k / total));
        Rng targetRng(streamSeed(model, prompt.id, 0));
        const std::size_t dim = prompt.visualConcept.size();
        const Vec own =
            modelTarget(model, prompt, randomUnitVec(dim, targetRng));
        Vec target;
        lerp(own, base.content, lock, target);
        const double blendNorm2 = dot(target, target);
        if (blendNorm2 < 1.0) {
            axpy(target, std::sqrt(1.0 - blendNorm2),
                 randomUnitVec(target.size(), rng));
        }
        normalize(target);
        steppedWalk(schedule_, latent, target, k);
        Image img;
        img.content = finish(latent, rng);
        const double mismatch =
            std::max(1.0 - cosine(prompt.visualConcept, base.content), 0.0);
        const double artifacts =
            config_.artifactCoef * lock * mismatch * mismatch;
        const double inheritedDefect = lock * (1.0 - base.fidelity) *
            (1.0 - config_.cleanupCoef * ((total - k) / total));
        const double ownDefect = (1.0 - lock) * (1.0 - model.baseFidelity);
        img.fidelity = std::clamp(
            1.0 - ownDefect - inheritedDefect - artifacts +
                rng.normal(0.0, config_.fidelityNoise),
            0.0, 1.0);
        return img;
    }

  private:
    std::uint64_t streamSeed(const ModelSpec &model, std::uint64_t promptId,
                             std::uint64_t baseId) const
    {
        std::uint64_t h = seed_;
        h = mix64(h ^ embedding::tokenHash(model.name));
        h = mix64(h ^ promptId);
        h = mix64(h ^ (baseId + 0x9e3779b97f4a7c15ULL));
        return h;
    }

    Vec modelTarget(const ModelSpec &model, const workload::Prompt &prompt,
                    const Vec &noise) const
    {
        Rng styleRng(mix64(seed_ ^ 0x57a1ed12ULL));
        const Vec style = randomUnitVec(prompt.visualConcept.size(), styleRng);
        Vec target = prompt.visualConcept;
        axpy(target, model.misalignment, noise);
        normalize(target);
        axpy(target, config_.styleBias, style);
        normalize(target);
        return target;
    }

    /** The walk's end plus the residual content noise, normalized. */
    Vec finish(const Vec &latent, Rng &rng) const
    {
        Vec content = latent;
        axpy(content, config_.contentNoise,
             randomUnitVec(content.size(), rng));
        normalize(content);
        return content;
    }

    std::uint64_t seed_;
    SamplerConfig config_;
    NoiseSchedule schedule_;
};

/** The default schedule, a two-step one and one with custom sigmas. */
std::vector<ScheduleConfig>
walkSchedules()
{
    ScheduleConfig twoStep;
    twoStep.steps = 2;
    ScheduleConfig custom;
    custom.steps = 23;
    custom.sigmaMax = 3.5;
    custom.sigmaMin = 0.4;
    custom.rho = 2.5;
    return {ScheduleConfig{}, twoStep, custom};
}

void
expectSameImage(const Image &image, const Image &stepped)
{
    ASSERT_EQ(image.content.size(), stepped.content.size());
    EXPECT_EQ(std::memcmp(image.content.data(), stepped.content.data(),
                          image.content.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(&image.fidelity, &stepped.fidelity,
                          sizeof image.fidelity),
              0);
}

// The closed-form walk gives the stepped walk's content bytes and
// fidelity: 200 prompts generated on the large model, each refined on
// the small model from another prompt's image at every k in [0, T), on
// each schedule. Below T = 50 generation runs undersampled.
TEST(SamplerWalk, ClosedFormMatchesSteppedWalk)
{
    for (const ScheduleConfig &config : walkSchedules()) {
        SCOPED_TRACE("T=" + std::to_string(config.steps));
        Sampler sampler(91, {}, config);
        const SteppedSampler stepped(91, config);
        const ModelSpec large = sd35Large();
        const int steps = std::min(large.defaultSteps, config.steps);
        Rng rng(17);
        std::vector<workload::Prompt> prompts;
        std::vector<Image> bases;
        for (std::uint64_t id = 0; id < 200; ++id) {
            SCOPED_TRACE("generate prompt " + std::to_string(id));
            const workload::Prompt prompt = makePrompt(id, rng);
            bases.push_back(sampler.generate(large, prompt, steps, 0.0));
            expectSameImage(bases.back(),
                            stepped.generate(large, prompt, steps));
            prompts.push_back(prompt);
        }
        for (std::size_t i = 0; i < prompts.size(); ++i) {
            const Image &base = bases[(i + 1) % bases.size()];
            for (int k = 0; k < config.steps; ++k) {
                SCOPED_TRACE("refine prompt " + std::to_string(i) +
                             " k=" + std::to_string(k));
                expectSameImage(
                    sampler.refine(sdxl(), prompts[i], base, k, 0.0),
                    stepped.refine(sdxl(), prompts[i], base, k));
            }
        }
    }
}

// Elements whose target is +0, -0, +-inf or NaN walk every step and
// land where the stepped walk does, bit for bit, from either sign and
// from -0, from every start step of each schedule; a finite non-zero
// target rides along. A -0 target walked from a positive start or from
// -0 ends at +0, so writing the target there would be wrong.
TEST(SamplerWalk, ZeroAndNonFiniteTargetsWalkEveryStep)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const Vec target = {0.0f, -0.0f, inf, -inf, nan, 0.5f};
    for (const ScheduleConfig &config : walkSchedules()) {
        const NoiseSchedule schedule(config);
        for (const float start : {0.75f, -0.75f, -0.0f}) {
            for (int from = 0; from < schedule.steps(); ++from) {
                Vec closed(target.size(), start);
                Vec stepped = closed;
                schedule.walkToTarget(closed, target, from);
                steppedWalk(schedule, stepped, target, from);
                EXPECT_EQ(std::memcmp(closed.data(), stepped.data(),
                                      closed.size() * sizeof(float)),
                          0)
                    << "T=" << config.steps << " start=" << start
                    << " from=" << from;
            }
        }
    }
    Vec latent = {0.75f};
    NoiseSchedule().walkToTarget(latent, {-0.0f}, 0);
    EXPECT_EQ(latent[0], 0.0f);
    EXPECT_FALSE(std::signbit(latent[0]));
}

class SamplerTest : public ::testing::Test
{
  protected:
    Sampler sampler_{42};
    Rng rng_{7};
};

TEST_F(SamplerTest, GenerationIsDeterministic)
{
    Sampler a(42), b(42);
    const auto p = makePrompt(1, rng_);
    const auto ia = a.generate(sd35Large(), p, 0.0);
    const auto ib = b.generate(sd35Large(), p, 0.0);
    EXPECT_EQ(ia.content, ib.content);
    EXPECT_DOUBLE_EQ(ia.fidelity, ib.fidelity);
}

TEST_F(SamplerTest, DifferentSeedsDifferentImages)
{
    Sampler a(42), b(43);
    const auto p = makePrompt(1, rng_);
    EXPECT_NE(a.generate(sd35Large(), p, 0.0).content,
              b.generate(sd35Large(), p, 0.0).content);
}

TEST_F(SamplerTest, GenerationAlignsWithConcept)
{
    RunningStat align;
    for (int i = 0; i < 100; ++i) {
        const auto p = makePrompt(i, rng_);
        const auto img = sampler_.generate(sd35Large(), p, 0.0);
        align.add(cosine(img.content, p.visualConcept));
    }
    EXPECT_GT(align.mean(), 0.75);
    EXPECT_LT(align.mean(), 0.95);
}

TEST_F(SamplerTest, LargeModelAlignsBetterThanFlux)
{
    RunningStat sd, fx;
    for (int i = 0; i < 100; ++i) {
        const auto p = makePrompt(i, rng_);
        sd.add(cosine(sampler_.generate(sd35Large(), p, 0.0).content,
                      p.visualConcept));
        fx.add(cosine(sampler_.generate(flux1Dev(), p, 0.0).content,
                      p.visualConcept));
    }
    EXPECT_GT(sd.mean(), fx.mean());
}

TEST_F(SamplerTest, FidelityTracksModelClass)
{
    const auto p = makePrompt(1, rng_);
    const auto large = sampler_.generate(sd35Large(), p, 0.0);
    const auto small = sampler_.generate(sana(), p, 0.0);
    EXPECT_GT(large.fidelity, small.fidelity);
}

TEST_F(SamplerTest, UndersamplingCostsFidelity)
{
    const auto p = makePrompt(2, rng_);
    const auto full = sampler_.generate(sd35Large(), p, 50, 0.0);
    const auto half = sampler_.generate(sd35Large(), p, 20, 0.0);
    EXPECT_GT(full.fidelity, half.fidelity);
}

TEST_F(SamplerTest, LockGrowsWithK)
{
    EXPECT_LT(sampler_.lockAt(5), sampler_.lockAt(15));
    EXPECT_LT(sampler_.lockAt(15), sampler_.lockAt(30));
    EXPECT_LE(sampler_.lockAt(49), sampler_.config().lockMax);
}

TEST_F(SamplerTest, RefinementPreservesBaseStructureMoreAtHighK)
{
    // Refine a *mismatched* base: the result must stay closer to the
    // base for larger k (early structure locked in).
    const auto basePrompt = makePrompt(10, rng_);
    const auto baseImg = sampler_.generate(sd35Large(), basePrompt, 0.0);
    auto query = makePrompt(11, rng_);

    const auto lowK = sampler_.refine(sdxl(), query, baseImg, 5, 0.0);
    const auto highK = sampler_.refine(sdxl(), query, baseImg, 30, 0.0);
    EXPECT_GT(cosine(highK.content, baseImg.content),
              cosine(lowK.content, baseImg.content));
    EXPECT_GT(cosine(lowK.content, query.visualConcept),
              cosine(highK.content, query.visualConcept));
}

TEST_F(SamplerTest, RefinementOfSimilarBaseKeepsQuality)
{
    // Paper §5.1: refining a close match with a small model preserves
    // quality. Base and query from the same "session" (small drift).
    RunningStat refinedAlign, refinedFid;
    for (int i = 0; i < 100; ++i) {
        auto base = makePrompt(100 + i, rng_);
        const auto baseImg = sampler_.generate(sd35Large(), base, 0.0);
        workload::Prompt query = base;
        query.id = 5000 + i;
        query.visualConcept =
            jitterUnitVec(base.visualConcept, 0.15, rng_);
        const auto refined =
            sampler_.refine(sdxl(), query, baseImg, 20, 0.0);
        refinedAlign.add(cosine(refined.content, query.visualConcept));
        refinedFid.add(refined.fidelity);
    }
    EXPECT_GT(refinedAlign.mean(), 0.80);
    EXPECT_GT(refinedFid.mean(), 0.85);
}

TEST_F(SamplerTest, MismatchedRefinementCreatesArtifacts)
{
    RunningStat matchedFid, mismatchedFid;
    for (int i = 0; i < 100; ++i) {
        auto base = makePrompt(200 + i, rng_);
        const auto baseImg = sampler_.generate(sd35Large(), base, 0.0);
        workload::Prompt close = base;
        close.id = 6000 + i;
        close.visualConcept =
            jitterUnitVec(base.visualConcept, 0.1, rng_);
        workload::Prompt far = base;
        far.id = 7000 + i;
        far.visualConcept = randomUnitVec(64, rng_);
        matchedFid.add(
            sampler_.refine(sdxl(), close, baseImg, 25, 0.0).fidelity);
        mismatchedFid.add(
            sampler_.refine(sdxl(), far, baseImg, 25, 0.0).fidelity);
    }
    EXPECT_GT(matchedFid.mean(), mismatchedFid.mean() + 0.2);
}

TEST_F(SamplerTest, RepeatedRefinementReachesStableFidelity)
{
    // Paper §A.6: caching refined images must not degrade future
    // generations. Chain refinements and check fidelity converges to a
    // healthy level instead of decaying to zero.
    auto prompt = makePrompt(300, rng_);
    auto img = sampler_.generate(sd35Large(), prompt, 0.0);
    for (int gen = 0; gen < 12; ++gen) {
        workload::Prompt next = prompt;
        next.id = 8000 + gen;
        next.visualConcept =
            jitterUnitVec(prompt.visualConcept, 0.1, rng_);
        img = sampler_.refine(sdxl(), next, img, 20, 0.0);
        prompt = next;
    }
    EXPECT_GT(img.fidelity, 0.75);
}

TEST_F(SamplerTest, RefinedImageMetadata)
{
    const auto base = makePrompt(400, rng_);
    const auto baseImg = sampler_.generate(sd35Large(), base, 0.0);
    auto query = makePrompt(401, rng_);
    const auto refined = sampler_.refine(sana(), query, baseImg, 15, 0.0);
    EXPECT_TRUE(refined.refined);
    EXPECT_EQ(refined.stepsRun, 35);
    EXPECT_EQ(refined.modelName, "SANA");
    EXPECT_EQ(refined.promptId, query.id);
    EXPECT_NE(refined.id, baseImg.id);
}

TEST_F(SamplerTest, ImageIdsAreUnique)
{
    const auto p1 = makePrompt(500, rng_);
    const auto p2 = makePrompt(501, rng_);
    const auto a = sampler_.generate(sd35Large(), p1, 0.0);
    const auto b = sampler_.generate(sd35Large(), p2, 0.0);
    EXPECT_NE(a.id, b.id);
}

/**
 * Property sweep: for every k in the paper's K set, refinement quality
 * (alignment to the query) must increase with base similarity, and for
 * a fixed, related base, decrease with k.
 */
class RefinementPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RefinementPropertyTest, AlignmentMonotoneInBaseSimilarity)
{
    const int k = GetParam();
    Sampler sampler(77);
    Rng rng(k * 1000 + 3);
    RunningStat closeAlign, farAlign;
    for (int i = 0; i < 80; ++i) {
        workload::Prompt base;
        base.id = i;
        base.visualConcept = randomUnitVec(64, rng);
        base.lexicalStyle = randomUnitVec(64, rng);
        const auto baseImg = sampler.generate(sd35Large(), base, 0.0);

        workload::Prompt closeQ = base;
        closeQ.id = 10000 + i;
        closeQ.visualConcept =
            jitterUnitVec(base.visualConcept, 0.15, rng);
        workload::Prompt farQ = base;
        farQ.id = 20000 + i;
        farQ.visualConcept = jitterUnitVec(base.visualConcept, 0.9, rng);

        closeAlign.add(cosine(
            sampler.refine(sdxl(), closeQ, baseImg, k, 0.0).content,
            closeQ.visualConcept));
        farAlign.add(cosine(
            sampler.refine(sdxl(), farQ, baseImg, k, 0.0).content,
            farQ.visualConcept));
    }
    EXPECT_GT(closeAlign.mean(), farAlign.mean());
}

INSTANTIATE_TEST_SUITE_P(PaperKSet, RefinementPropertyTest,
                         ::testing::Values(5, 10, 15, 20, 25, 30));

} // namespace
} // namespace modm::diffusion
