/**
 * @file
 * Unit tests for the workload substrate: topic universe, the
 * DiffusionDB-like and MJHQ-like generators (session structure,
 * temporal locality precursors), and arrival processes.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "src/common/hash.hh"
#include "src/common/rng.hh"
#include "src/common/stats.hh"
#include "src/workload/arrivals.hh"
#include "src/workload/generator.hh"
#include "src/workload/trace.hh"
#include "src/workload/topics.hh"

namespace modm::workload {
namespace {

TEST(TopicUniverse, DeterministicInSeed)
{
    TopicUniverseConfig config;
    config.numTopics = 10;
    TopicUniverse a(config, 5), b(config, 5), c(config, 6);
    EXPECT_EQ(a.topic(3).visualCenter, b.topic(3).visualCenter);
    EXPECT_NE(a.topic(3).visualCenter, c.topic(3).visualCenter);
}

TEST(TopicUniverse, CentersAreUnitVectors)
{
    TopicUniverseConfig config;
    config.numTopics = 20;
    TopicUniverse u(config, 7);
    for (std::uint32_t t = 0; t < 20; ++t) {
        EXPECT_NEAR(norm(u.topic(t).visualCenter), 1.0, 1e-6);
        EXPECT_NEAR(norm(u.topic(t).lexicalCenter), 1.0, 1e-6);
    }
}

TEST(TopicUniverse, ZipfSamplingSkews)
{
    TopicUniverseConfig config;
    config.numTopics = 100;
    config.zipfExponent = 1.2;
    TopicUniverse u(config, 9);
    Rng rng(11);
    std::map<std::uint32_t, int> counts;
    for (int i = 0; i < 20000; ++i)
        ++counts[u.sampleTopic(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], 20000 / 100);
}

TEST(TopicUniverse, RealizedTextIsNonEmptyAndFromPool)
{
    TopicUniverseConfig config;
    config.numTopics = 4;
    TopicUniverse u(config, 13);
    Rng rng(17);
    for (int i = 0; i < 20; ++i) {
        const auto text = u.realizeText(2, rng);
        EXPECT_FALSE(text.empty());
    }
}

TEST(DiffusionDB, PromptIdsAreSequential)
{
    DiffusionDBModel gen({}, 3);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(gen.next().id, i);
}

TEST(DiffusionDB, SessionsIterateOnOneConcept)
{
    DiffusionDBModel gen({}, 5);
    std::map<std::uint64_t, std::vector<Prompt>> sessions;
    for (int i = 0; i < 3000; ++i) {
        const auto p = gen.next();
        sessions[p.sessionId].push_back(p);
    }
    // Within a session: same user, same topic, slowly drifting concept.
    RunningStat withinSession;
    int multiPromptSessions = 0;
    for (const auto &[id, prompts] : sessions) {
        if (prompts.size() < 2)
            continue;
        ++multiPromptSessions;
        for (std::size_t i = 1; i < prompts.size(); ++i) {
            EXPECT_EQ(prompts[i].userId, prompts[0].userId);
            EXPECT_EQ(prompts[i].topicId, prompts[0].topicId);
            withinSession.add(cosine(prompts[i].visualConcept,
                                     prompts[i - 1].visualConcept));
        }
    }
    EXPECT_GT(multiPromptSessions, 100);
    // Consecutive iterations stay visually close (drift is small).
    EXPECT_GT(withinSession.mean(), 0.95);
}

TEST(DiffusionDB, SessionLengthMatchesConfig)
{
    DiffusionDBConfig config;
    config.meanSessionLength = 5.0;
    DiffusionDBModel gen(config, 7);
    std::map<std::uint64_t, int> lengths;
    for (int i = 0; i < 20000; ++i)
        ++lengths[gen.next().sessionId];
    RunningStat stat;
    for (const auto &[id, len] : lengths)
        stat.add(len);
    // Sessions still open at the end bias the mean down slightly.
    EXPECT_NEAR(stat.mean(), 5.0, 0.8);
}

TEST(DiffusionDB, InterleavesMultipleSessions)
{
    DiffusionDBModel gen({}, 9);
    std::set<std::uint64_t> activeWindow;
    for (int i = 0; i < 200; ++i)
        activeWindow.insert(gen.next().sessionId);
    // Many distinct sessions interleave within a short window.
    EXPECT_GT(activeWindow.size(), 20u);
}

/** Fold a generator's first `count` prompts, every field and float bit. */
std::uint64_t
streamHash(TraceGenerator &gen, int count)
{
    std::uint64_t h = kFnvBasis;
    for (int i = 0; i < count; ++i) {
        const Prompt p = gen.next();
        h = mix64(h ^ p.id);
        h = mix64(h ^ p.topicId);
        h = mix64(h ^ p.userId);
        h = mix64(h ^ p.sessionId);
        for (const Vec *v : {&p.visualConcept, &p.lexicalStyle}) {
            for (const float f : *v) {
                std::uint32_t bits = 0;
                std::memcpy(&bits, &f, sizeof(bits));
                h = mix64(h ^ bits);
            }
        }
        h = fnv1a64(p.text, h);
    }
    return h;
}

TEST(Generators, StreamsArePinned)
{
    // Both generators jitter in place and size each text once: the
    // draws and floats of the returning jitterUnitVec and of word-by-
    // word text, which these hashes of the seed-42 streams pin.
    EXPECT_EQ(streamHash(*makeDiffusionDB(42), 2000),
              0x5a1af1b2c454eb78ULL);
    EXPECT_EQ(streamHash(*makeMJHQ(42), 2000), 0xf1a96515b7de631cULL);
}

TEST(MJHQ, NoSessionStructure)
{
    MJHQModel gen({}, 11);
    std::set<std::uint64_t> sessions;
    for (int i = 0; i < 500; ++i)
        sessions.insert(gen.next().sessionId);
    EXPECT_EQ(sessions.size(), 500u);
}

TEST(MJHQ, WiderConceptSpreadThanDiffusionDB)
{
    // Consecutive prompts in MJHQ are visually unrelated.
    MJHQModel gen({}, 13);
    RunningStat consecutive;
    auto prev = gen.next();
    for (int i = 0; i < 500; ++i) {
        const auto p = gen.next();
        consecutive.add(cosine(p.visualConcept, prev.visualConcept));
        prev = p;
    }
    EXPECT_LT(consecutive.mean(), 0.3);
}

TEST(Poisson, InterArrivalMeanMatchesRate)
{
    PoissonArrivals arrivals(12.0); // 12/min -> 0.2/s
    Rng rng(17);
    double last = 0.0;
    RunningStat gaps;
    for (int i = 0; i < 20000; ++i) {
        const double t = arrivals.next(rng);
        gaps.add(t - last);
        last = t;
    }
    EXPECT_NEAR(gaps.mean(), 5.0, 0.15);
}

TEST(Poisson, TimestampsIncrease)
{
    PoissonArrivals arrivals(5.0);
    Rng rng(19);
    double last = -1.0;
    for (int i = 0; i < 1000; ++i) {
        const double t = arrivals.next(rng);
        EXPECT_GT(t, last);
        last = t;
    }
}

TEST(Piecewise, RateChangesAcrossSegments)
{
    PiecewiseArrivals arrivals({{600.0, 6.0}, {600.0, 24.0}});
    EXPECT_DOUBLE_EQ(arrivals.rateAt(10.0), 6.0);
    EXPECT_DOUBLE_EQ(arrivals.rateAt(700.0), 24.0);
    EXPECT_DOUBLE_EQ(arrivals.rateAt(5000.0), 24.0);

    Rng rng(23);
    int firstSegment = 0, secondSegment = 0;
    while (true) {
        const double t = arrivals.next(rng);
        if (t > 1200.0)
            break;
        if (t < 600.0)
            ++firstSegment;
        else
            ++secondSegment;
    }
    // Roughly 60 vs 240 expected arrivals.
    EXPECT_GT(secondSegment, 2 * firstSegment);
}

TEST(Trace, BuildTraceSortsByConstruction)
{
    auto gen = makeDiffusionDB(3);
    PoissonArrivals arrivals(10.0);
    Rng rng(29);
    const auto trace = buildTrace(*gen, arrivals, 200, rng);
    ASSERT_EQ(trace.size(), 200u);
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
}

TEST(Trace, BatchTraceArrivesAtZero)
{
    auto gen = makeMJHQ(5);
    const auto trace = buildBatchTrace(*gen, 50);
    ASSERT_EQ(trace.size(), 50u);
    for (const auto &r : trace)
        EXPECT_DOUBLE_EQ(r.arrival, 0.0);
}

TEST(Trace, DurationTraceRespectsBound)
{
    auto gen = makeDiffusionDB(7);
    PoissonArrivals arrivals(30.0);
    Rng rng(31);
    const auto trace = buildTraceForDuration(*gen, arrivals, 600.0, rng);
    EXPECT_GT(trace.size(), 200u);
    for (const auto &r : trace)
        EXPECT_LE(r.arrival, 600.0);
}

TEST(Trace, GeneratorsAreDeterministic)
{
    auto a = makeDiffusionDB(11);
    auto b = makeDiffusionDB(11);
    for (int i = 0; i < 100; ++i) {
        const auto pa = a->next();
        const auto pb = b->next();
        EXPECT_EQ(pa.text, pb.text);
        EXPECT_EQ(pa.visualConcept, pb.visualConcept);
        EXPECT_EQ(pa.sessionId, pb.sessionId);
    }
}

} // namespace
} // namespace modm::workload
