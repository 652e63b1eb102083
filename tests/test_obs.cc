/**
 * @file
 * Observability-subsystem tests: .mtrace codec round-trips and
 * corruption detection, rolling-hash divergence search (a single
 * perturbed event is localized to exactly that event), span
 * derivation, the bucketing helpers, and the end-to-end guarantees
 * the rest of the repo leans on — a traced run digests identically to
 * an untraced one, repeat runs produce byte-identical logs, and
 * scenario cells record byte-identical .mtrace logs at sweep
 * parallelism 1 and 4.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/sweep.hh"
#include "src/baselines/presets.hh"
#include "src/common/log.hh"
#include "src/obs/metrics.hh"
#include "src/obs/span.hh"
#include "src/obs/trace.hh"
#include "src/serving/scenario_exec.hh"
#include "src/workload/scenario.hh"
#include "tests/serving_fixtures.hh"

namespace modm::obs {
namespace {

/** A synthetic log exercising the codec's edge cases. */
TraceLog
makeSyntheticLog(std::size_t n)
{
    TraceLog log;
    double clock = 0.0;
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < n; ++i) {
        // Repeated clocks (emits share the dispatch clock), untagged
        // node/request sentinels, request 0, and large ids all appear
        // in real logs.
        if (i % 3 != 0)
            clock += 0.125 * static_cast<double>(i % 5);
        if (i % 4 != 3)
            ++seq;
        const std::uint32_t node =
            i % 7 == 0 ? sim::kNoNode : static_cast<std::uint32_t>(i % 4);
        const std::uint64_t request = i % 5 == 0 ? sim::kNoRequest
            : i % 5 == 1                         ? 0
                                                 : 1000000 + i;
        log.append(clock, seq, static_cast<std::uint16_t>(i % 14),
                   node, request);
    }
    return log;
}

TEST(TraceLog, HashChainsFromTheSeed)
{
    TraceLog log;
    EXPECT_EQ(log.finalHash(), kTraceHashSeed);
    log.append(1.0, 1, 2, 3, 4);
    const std::uint64_t h1 = log.finalHash();
    EXPECT_EQ(h1, TraceLog::chainHash(kTraceHashSeed, log.records()[0]));
    log.append(2.0, 2, 3, 4, 5);
    EXPECT_EQ(log.finalHash(),
              TraceLog::chainHash(h1, log.records()[1]));
    EXPECT_NE(log.finalHash(), h1);
}

TEST(TraceLog, RechainRecomputesAfterMutation)
{
    TraceLog log = makeSyntheticLog(40);
    const std::uint64_t before = log.finalHash();
    log.mutableRecords()[17].kind ^= 1u;
    const std::uint64_t rechained = log.rechain();
    EXPECT_EQ(rechained, log.finalHash());
    EXPECT_NE(log.finalHash(), before);
    log.mutableRecords()[17].kind ^= 1u;
    log.rechain();
    EXPECT_EQ(log.finalHash(), before);
}

TEST(Mtrace, RoundTripPreservesRecordsAndHash)
{
    const TraceLog log = makeSyntheticLog(200);
    const std::string image = encodeTrace(log);
    const TraceLog back = decodeTrace(image, "test");
    ASSERT_EQ(back.size(), log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
        const auto &a = log.records()[i];
        const auto &b = back.records()[i];
        EXPECT_EQ(a.clock, b.clock);
        EXPECT_EQ(a.seq, b.seq);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.node, b.node);
        EXPECT_EQ(a.request, b.request);
        EXPECT_EQ(a.hash, b.hash);
    }
    EXPECT_EQ(back.finalHash(), log.finalHash());
    // The codec is canonical: re-encoding reproduces the same bytes.
    EXPECT_EQ(encodeTrace(back), image);
}

TEST(Mtrace, EmptyLogRoundTrips)
{
    const TraceLog log;
    const TraceLog back = decodeTrace(encodeTrace(log), "test");
    EXPECT_TRUE(back.empty());
    EXPECT_EQ(back.finalHash(), kTraceHashSeed);
}

TEST(MtraceDeathTest, CorruptImagesAreFatal)
{
    const TraceLog log = makeSyntheticLog(50);
    const std::string image = encodeTrace(log);
    // Bad magic.
    std::string bad = image;
    bad[0] = 'X';
    EXPECT_DEATH(decodeTrace(bad, "test"), "bad magic");
    // Truncation.
    EXPECT_DEATH(decodeTrace(image.substr(0, image.size() / 2), "test"),
                 "truncated");
    // A flipped payload byte breaks the footer hash.
    bad = image;
    bad[10] = static_cast<char>(bad[10] ^ 0x15);
    EXPECT_DEATH(decodeTrace(bad, "test"), "mtrace");
}

TEST(Mtrace, FileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "obs_roundtrip.mtrace";
    const TraceLog log = makeSyntheticLog(80);
    saveTrace(log, path);
    const TraceLog back = loadTrace(path);
    EXPECT_EQ(encodeTrace(back), encodeTrace(log));
    std::remove(path.c_str());
}

TEST(Divergence, IdenticalLogsReportNone)
{
    const TraceLog a = makeSyntheticLog(100);
    const TraceLog b = makeSyntheticLog(100);
    const Divergence d = firstDivergence(a, b);
    EXPECT_FALSE(d.diverged);
    EXPECT_NE(formatDivergence(d).find("logs identical"),
              std::string::npos);
}

TEST(Divergence, SingleFlipIsLocalizedToExactlyThatEvent)
{
    const TraceLog a = makeSyntheticLog(200);
    for (const std::size_t flip : {std::size_t{0}, std::size_t{97},
                                   std::size_t{199}}) {
        TraceLog b = makeSyntheticLog(200);
        b.mutableRecords()[flip].kind ^= 1u;
        b.rechain();
        const Divergence d = firstDivergence(a, b);
        ASSERT_TRUE(d.diverged);
        EXPECT_EQ(d.index, flip);
        ASSERT_TRUE(d.haveA);
        ASSERT_TRUE(d.haveB);
        EXPECT_EQ(d.a.kind ^ 1u, d.b.kind);
        EXPECT_EQ(d.a.clock, d.b.clock);
        char expect[64];
        std::snprintf(expect, sizeof(expect),
                      "first divergence at event %zu", flip);
        EXPECT_NE(formatDivergence(d).find(expect), std::string::npos);
    }
}

TEST(Divergence, PrefixLogDivergesAtTheShorterEnd)
{
    const TraceLog a = makeSyntheticLog(150);
    TraceLog b = makeSyntheticLog(150);
    b.mutableRecords().resize(120);
    b.rechain();
    const Divergence d = firstDivergence(a, b);
    ASSERT_TRUE(d.diverged);
    EXPECT_EQ(d.index, 120u);
    EXPECT_TRUE(d.haveA);
    EXPECT_FALSE(d.haveB);
    EXPECT_EQ(d.sizeA, 150u);
    EXPECT_EQ(d.sizeB, 120u);
    EXPECT_NE(formatDivergence(d).find("<log ended>"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// End-to-end serving runs.

serving::ServingConfig
tracedConfig()
{
    baselines::PresetParams params;
    params.numWorkers = 2;
    params.cacheCapacity = 150;
    auto config = baselines::modm(diffusion::sd35Large(),
                                  diffusion::sdxl(), params);
    config.trace.events = true;
    return config;
}

workload::ScenarioWorkload
smallBundle()
{
    return test::ddbBundle(80, 120, 12.0);
}

TEST(Tracing, ObservationOnly_TracedDigestEqualsUntraced)
{
    auto untracedConfig = tracedConfig();
    untracedConfig.trace = {};
    const auto untraced =
        bench::runSystem(untracedConfig, smallBundle());
    const auto traced = bench::runSystem(tracedConfig(), smallBundle());
    EXPECT_EQ(serving::resultDigest(untraced),
              serving::resultDigest(traced));
    EXPECT_EQ(untraced.traceLog, nullptr);
    ASSERT_NE(traced.traceLog, nullptr);
    EXPECT_GT(traced.traceLog->size(), 0u);
    EXPECT_NE(traced.traceLog->finalHash(), kTraceHashSeed);
}

TEST(Tracing, RepeatRunsProduceByteIdenticalLogs)
{
    const auto a = bench::runSystem(tracedConfig(), smallBundle());
    const auto b = bench::runSystem(tracedConfig(), smallBundle());
    ASSERT_NE(a.traceLog, nullptr);
    ASSERT_NE(b.traceLog, nullptr);
    EXPECT_EQ(a.traceLog->finalHash(), b.traceLog->finalHash());
    EXPECT_EQ(encodeTrace(*a.traceLog), encodeTrace(*b.traceLog));
    EXPECT_FALSE(firstDivergence(*a.traceLog, *b.traceLog).diverged);
}

TEST(Tracing, RunWritesLoadableMtraceFile)
{
    const std::string path = ::testing::TempDir() + "obs_run.mtrace";
    auto config = tracedConfig();
    config.trace.path = path;
    const auto result = bench::runSystem(config, smallBundle());
    const TraceLog fromDisk = loadTrace(path);
    ASSERT_NE(result.traceLog, nullptr);
    EXPECT_EQ(encodeTrace(fromDisk), encodeTrace(*result.traceLog));
    std::remove(path.c_str());
}

/**
 * The acceptance pin: a synthetic single-event perturbation of a real
 * run's log is localized by firstDivergence to exactly that event,
 * reporting its clock, node, and request id.
 */
TEST(Tracing, PerturbedRealLogIsLocalizedToTheExactEvent)
{
    const auto result = bench::runSystem(tracedConfig(), smallBundle());
    ASSERT_NE(result.traceLog, nullptr);
    ASSERT_GT(result.traceLog->size(), 10u);
    const std::size_t flip = result.traceLog->size() / 2;
    TraceLog perturbed = *result.traceLog;
    const TraceRecord original = perturbed.records()[flip];
    perturbed.mutableRecords()[flip].kind ^= 1u;
    perturbed.rechain();
    const Divergence d = firstDivergence(*result.traceLog, perturbed);
    ASSERT_TRUE(d.diverged);
    EXPECT_EQ(d.index, flip);
    ASSERT_TRUE(d.haveA);
    EXPECT_EQ(d.a.clock, original.clock);
    EXPECT_EQ(d.a.node, original.node);
    EXPECT_EQ(d.a.request, original.request);
    const std::string report = formatDivergence(d);
    EXPECT_NE(report.find(eventKindName(original.kind)),
              std::string::npos);
}

TEST(Tracing, ScenarioCellLogsByteIdenticalAcrossParallelism)
{
    workload::Scenario scenario;
    std::istringstream text("scenario steady\n"
                            "warm 50\n"
                            "requests 80\n"
                            "rate 10\n"
                            "cache 500\n"
                            "\n"
                            "cell \"modm\"\n"
                            "cell \"vanilla\" system=vanilla\n");
    ASSERT_EQ(workload::parseScenario(text, "test.scn", scenario), "");
    const auto runAll = [&](const char *cellParallelism) {
        test::ScopedSweepEnv env(cellParallelism);
        std::vector<std::function<std::string()>> cells;
        for (std::size_t i = 0; i < scenario.cellCount(); ++i) {
            const auto cell = scenario.cell(i);
            cells.push_back([&scenario, cell] {
                TraceConfig trace;
                trace.events = true;
                const auto result =
                    serving::runScenarioCell(scenario, cell, trace);
                EXPECT_NE(result.traceLog, nullptr);
                return encodeTrace(*result.traceLog);
            });
        }
        return bench::runCells<std::string>(cells);
    };
    const auto serial = runAll("1");
    const auto concurrent = runAll("4");
    ASSERT_EQ(serial.size(), concurrent.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].empty());
        EXPECT_EQ(serial[i], concurrent[i])
            << "cell " << i << " trace diverged across parallelism";
        EXPECT_EQ(decodeTrace(serial[i], "serial").finalHash(),
                  decodeTrace(concurrent[i], "concurrent").finalHash());
    }
}

// ---------------------------------------------------------------------
// Spans.

TEST(Spans, DerivedLifecyclesAreConsistent)
{
    const auto result = bench::runSystem(tracedConfig(), smallBundle());
    ASSERT_NE(result.traceLog, nullptr);
    const auto spans = deriveSpans(*result.traceLog);
    ASSERT_FALSE(spans.empty());
    std::size_t arrived = 0;
    std::size_t completed = 0;
    std::size_t hits = 0;
    for (const auto &span : spans) {
        EXPECT_NE(span.request, sim::kNoRequest);
        if (span.arrival >= 0.0)
            ++arrived;
        if (span.routed >= 0.0) {
            ASSERT_FALSE(span.hops.empty());
            EXPECT_EQ(span.hops.front().routed, span.routed);
            EXPECT_EQ(span.hops.size(),
                      static_cast<std::size_t>(span.reroutes) + 1);
        }
        if (span.completed >= 0.0) {
            ++completed;
            if (span.arrival >= 0.0) {
                EXPECT_GE(span.completed, span.arrival);
            }
            EXPECT_NE(span.node, sim::kNoNode);
        }
        if (span.direct) {
            // A direct return is a cache hit served with no worker.
            EXPECT_TRUE(span.hit);
            EXPECT_LT(span.dispatched, 0.0);
        }
        if (span.hit)
            ++hits;
        if (span.dispatched >= 0.0 && span.classified >= 0.0) {
            EXPECT_GE(span.dispatched, span.classified);
        }
    }
    // Every trace request arrived and completed (the sim drains), and
    // the span-level hit count reproduces the run's aggregate.
    EXPECT_EQ(arrived, 120u);
    EXPECT_EQ(completed, 120u);
    EXPECT_EQ(static_cast<double>(hits) / 120.0, result.hitRate);
    EXPECT_FALSE(formatSpan(spans.front()).empty());
}

// ---------------------------------------------------------------------
// Bucketing helpers.

TEST(Metrics, BucketCountsMatchHandRolledBucketing)
{
    const std::vector<double> times = {0.0, 59.9, 60.0, 121.0, 250.0};
    const auto buckets = bucketCounts(times, 60.0, 180.0);
    ASSERT_EQ(buckets.size(), 3u);
    EXPECT_EQ(buckets[0], 2.0);
    EXPECT_EQ(buckets[1], 1.0);
    EXPECT_EQ(buckets[2], 1.0);
    // duration < 1 still yields one bucket (max(duration, 1)).
    EXPECT_EQ(bucketCounts({0.25}, 1.0, 0.5).size(), 1u);
}

TEST(Metrics, GroupMeansPadTheLastGroupWithZeros)
{
    const auto means = groupMeans({4.0, 2.0, 6.0, 8.0, 10.0}, 2);
    ASSERT_EQ(means.size(), 3u);
    EXPECT_EQ(means[0], 3.0);
    EXPECT_EQ(means[1], 7.0);
    EXPECT_EQ(means[2], 5.0); // (10 + 0) / 2
}

// ---------------------------------------------------------------------
// Leveled logging.

TEST(Logging, LevelNamesAndParsingRoundTrip)
{
    EXPECT_STREQ(logLevelName(LogLevel::Debug), "debug");
    EXPECT_STREQ(logLevelName(LogLevel::Info), "info");
    EXPECT_STREQ(logLevelName(LogLevel::Warn), "warn");
    EXPECT_STREQ(logLevelName(LogLevel::Error), "error");
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("info"), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("error"), LogLevel::Error);
}

TEST(LoggingDeathTest, RejectsUnknownLevels)
{
    EXPECT_DEATH(parseLogLevel("verbose"), "MODM_LOG");
}

TEST(Logging, ThresholdFiltersLowerLevels)
{
    const LogLevel prev = logLevel();
    setLogLevel(LogLevel::Warn);
    EXPECT_FALSE(logEnabled(LogLevel::Debug));
    EXPECT_FALSE(logEnabled(LogLevel::Info));
    EXPECT_TRUE(logEnabled(LogLevel::Warn));
    EXPECT_TRUE(logEnabled(LogLevel::Error));
    setLogLevel(LogLevel::Debug);
    EXPECT_TRUE(logEnabled(LogLevel::Debug));
    setLogLevel(prev);
}

TEST(Logging, EventKindNamesCoverTheEnum)
{
    EXPECT_STREQ(eventKindName(
                     static_cast<std::uint16_t>(EventKind::Arrival)),
                 "arrival");
    EXPECT_STREQ(eventKindName(
                     static_cast<std::uint16_t>(EventKind::Serve)),
                 "serve");
    EXPECT_STREQ(eventKindName(0xfffe), "?");
}

} // namespace
} // namespace modm::obs
