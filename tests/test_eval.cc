/**
 * @file
 * Unit tests for the evaluation metrics: CLIPScore, FID, Inception
 * Score and PickScore orderings that the paper's quality tables depend
 * on.
 */

#include <gtest/gtest.h>

#include "src/common/rng.hh"
#include "src/common/stats.hh"
#include "src/diffusion/sampler.hh"
#include "src/eval/metrics.hh"
#include "src/workload/generator.hh"

namespace modm::eval {
namespace {

struct Populations
{
    std::vector<workload::Prompt> prompts;
    std::vector<diffusion::Image> large;
    std::vector<diffusion::Image> small;
    std::vector<diffusion::Image> reference;
};

Populations
makePopulations(int n = 400)
{
    Populations p;
    workload::DiffusionDBModel gen({}, 3);
    diffusion::Sampler sampler(5);
    diffusion::Sampler refSampler(6);
    for (int i = 0; i < n; ++i) {
        p.prompts.push_back(gen.next());
        p.large.push_back(
            sampler.generate(diffusion::sd35Large(), p.prompts.back(),
                             0.0));
        p.small.push_back(
            sampler.generate(diffusion::sana(), p.prompts.back(), 0.0));
        p.reference.push_back(refSampler.generate(
            diffusion::sd35Large(), p.prompts.back(), 0.0));
    }
    return p;
}

class MetricsTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite() { pops_ = new Populations(makePopulations()); }
    static void TearDownTestSuite()
    {
        delete pops_;
        pops_ = nullptr;
    }

    MetricSuite metrics_;
    static Populations *pops_;
};

Populations *MetricsTest::pops_ = nullptr;

TEST_F(MetricsTest, ClipScoreInPaperRange)
{
    RunningStat clip;
    for (std::size_t i = 0; i < pops_->prompts.size(); ++i)
        clip.add(metrics_.clipScore(pops_->prompts[i], pops_->large[i]));
    EXPECT_GT(clip.mean(), 26.0);
    EXPECT_LT(clip.mean(), 31.0);
}

TEST_F(MetricsTest, ClipDetectsMismatchedPairs)
{
    // Scoring image i against prompt j (j != i) must be much lower.
    double matched = 0.0, mismatched = 0.0;
    const std::size_t n = pops_->prompts.size();
    for (std::size_t i = 0; i < n; ++i) {
        matched += metrics_.clipScore(pops_->prompts[i], pops_->large[i]);
        mismatched += metrics_.clipScore(pops_->prompts[i],
                                         pops_->large[(i + 37) % n]);
    }
    EXPECT_GT(matched / n, mismatched / n + 15.0);
}

TEST_F(MetricsTest, FidSameModelFloorIsSmall)
{
    const double floor =
        metrics_.fid(pops_->large, pops_->reference);
    EXPECT_GT(floor, 1.0);
    EXPECT_LT(floor, 12.0);
}

TEST_F(MetricsTest, FidRanksSmallModelWorse)
{
    const double largeFid = metrics_.fid(pops_->large, pops_->reference);
    const double smallFid = metrics_.fid(pops_->small, pops_->reference);
    EXPECT_GT(smallFid, largeFid + 5.0);
}

TEST_F(MetricsTest, FidIsSymmetricEnough)
{
    const double ab = metrics_.fid(pops_->large, pops_->small);
    const double ba = metrics_.fid(pops_->small, pops_->large);
    EXPECT_NEAR(ab, ba, 0.05 * std::max(ab, ba) + 0.1);
}

TEST_F(MetricsTest, InceptionScoreAboveOneAndRanksFidelity)
{
    const double largeIs = metrics_.inceptionScore(pops_->large);
    const double smallIs = metrics_.inceptionScore(pops_->small);
    EXPECT_GT(largeIs, 1.0);
    EXPECT_LT(largeIs, 32.0); // bounded by class count
    EXPECT_GT(largeIs, smallIs);
}

TEST_F(MetricsTest, ClassPosteriorIsADistribution)
{
    const auto p = metrics_.classPosterior(pops_->large[0]);
    double total = 0.0;
    for (double v : p) {
        EXPECT_GE(v, 0.0);
        total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(MetricsTest, PickScoreInPaperRangeAndRanksModels)
{
    RunningStat large, small;
    for (std::size_t i = 0; i < pops_->prompts.size(); ++i) {
        large.add(metrics_.pickScore(pops_->prompts[i], pops_->large[i]));
        small.add(metrics_.pickScore(pops_->prompts[i], pops_->small[i]));
    }
    EXPECT_GT(large.mean(), 20.0);
    EXPECT_LT(large.mean(), 23.0);
    EXPECT_GT(large.mean(), small.mean());
}

TEST_F(MetricsTest, ReportAggregatesAllMetrics)
{
    const workload::PromptRefs prompts(pops_->prompts.begin(),
                                       pops_->prompts.end());
    const auto report =
        metrics_.report(prompts, pops_->large, pops_->reference);
    EXPECT_EQ(report.count, pops_->prompts.size());
    EXPECT_GT(report.clip, 0.0);
    EXPECT_GT(report.fid, 0.0);
    EXPECT_GT(report.is, 1.0);
    EXPECT_GT(report.pick, 0.0);
}

TEST_F(MetricsTest, MetricSuiteIsDeterministic)
{
    MetricSuite a, b;
    EXPECT_DOUBLE_EQ(a.clipScore(pops_->prompts[0], pops_->large[0]),
                     b.clipScore(pops_->prompts[0], pops_->large[0]));
    EXPECT_DOUBLE_EQ(a.fid(pops_->large, pops_->reference),
                     b.fid(pops_->large, pops_->reference));
}

} // namespace
} // namespace modm::eval
