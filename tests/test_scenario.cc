/**
 * @file
 * Scenario DSL tests: canonical fixpoint, digest stability, file:line
 * diagnostics on malformed input (fault and knob plans checked by the
 * serving checkers), every token's serving value, scenario-vs-inline
 * figure equivalence, knob plumbing, and 1-vs-4-thread sweep
 * determinism of scenario cells.
 *
 * MODM_SCENARIO_DIR (a compile definition) points at the checked-in
 * scenarios/ directory so the suite pins every shipped .scn file.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/sweep.hh"
#include "src/cache/image_cache.hh"
#include "src/serving/k_decision.hh"
#include "src/serving/scenario_exec.hh"
#include "src/serving/system.hh"
#include "src/workload/scenario.hh"
#include "tests/serving_fixtures.hh"

namespace modm::workload {
namespace {

/** Parse from a string; returns the error ("" on success). */
std::string
parseText(const std::string &text, Scenario &out)
{
    std::istringstream in(text);
    return parseScenario(in, "test.scn", out);
}

Scenario
parseOk(const std::string &text)
{
    Scenario scenario;
    const auto err = parseText(text, scenario);
    EXPECT_EQ(err, "");
    return scenario;
}

const char kSteadyText[] = "scenario steady\n"
                           "warm 50\n"
                           "requests 80\n"
                           "rate 10\n"
                           "cache 500\n"
                           "\n"
                           "cell \"modm\"\n"
                           "cell \"vanilla\" system=vanilla\n";

TEST(ScenarioParse, FixpointOnCanonicalText)
{
    const auto scenario = parseOk(kSteadyText);
    const auto canonical = canonicalScenario(scenario);
    const auto reparsed = parseOk(canonical);
    EXPECT_EQ(canonicalScenario(reparsed), canonical);
    EXPECT_EQ(scenarioDigest(reparsed), scenarioDigest(scenario));
}

TEST(ScenarioParse, DigestIgnoresFormattingAndComments)
{
    const auto a = parseOk(kSteadyText);
    const auto b = parseOk("scenario steady\n"
                           "# a comment\n"
                           "rate   10\n"
                           "cache 500   # trailing comment\n"
                           "requests 80\n"
                           "warm 50\n"
                           "\n"
                           "cell \"modm\"\n"
                           "cell \"vanilla\" system=vanilla\n");
    EXPECT_EQ(scenarioDigest(a), scenarioDigest(b));
}

TEST(ScenarioParse, DigestChangesWithMeaning)
{
    const auto a = parseOk(kSteadyText);
    auto changed = std::string(kSteadyText);
    changed.replace(changed.find("rate 10"), 7, "rate 11");
    const auto b = parseOk(changed);
    EXPECT_NE(scenarioDigest(a), scenarioDigest(b));
}

TEST(ScenarioParse, OpsRoundTripCanonically)
{
    const auto scenario = parseOk(
        "scenario shaped\n"
        "warm 10\n"
        "duration 3600\n"
        "rate 12\n"
        "nodes 3\n"
        "workers 6\n"
        "\n"
        "at 0 diurnal base 12 amp 6 period 900 for 1800 steps 12\n"
        "at 1800 ramp to 30 over 600 steps 6\n"
        "at 1900 flash x2.5 for 120\n"
        "at 2400 drift to seed 777 over 600\n"
        "at 2400 region 1 weight 0.25\n"
        "at 2500 kill 1\n"
        "at 2600 set mode quality\n"
        "at 2700 set cache 2000\n"
        "at 3000 rejoin 1\n");
    ASSERT_EQ(scenario.ops.size(), 9u);
    EXPECT_TRUE(scenario.mixesSources());
    EXPECT_EQ(scenario.faultPlan().events.size(), 2u);
    const auto canonical = canonicalScenario(scenario);
    EXPECT_EQ(canonicalScenario(parseOk(canonical)), canonical);

    EXPECT_NE(canonical.find("\nat 2500 kill 1\nat 2600 set mode quality\n"
                             "at 2700 set cache 2000\n"),
              std::string::npos)
        << canonical;
}

TEST(ScenarioParse, DiagnosticsCarryFileAndLine)
{
    Scenario out;

    // Unknown op verb, with the failing line number.
    EXPECT_EQ(parseText("scenario s\nrequests 10\nrate 5\n"
                        "at 10 explode 1\n",
                        out),
              "test.scn:4: unknown op 'explode'");

    // Out-of-order timestamps.
    const auto err = parseText("scenario s\nrequests 10\nrate 5\n"
                               "at 20 rate 6\nat 10 rate 7\n",
                               out);
    EXPECT_NE(err.find("test.scn:5:"), std::string::npos) << err;
    EXPECT_NE(err.find("time-ordered"), std::string::npos) << err;

    // Bad knob.
    const auto knobErr = parseText("scenario s\nrequests 10\nrate 5\n"
                                   "at 10 set turbo 9\n",
                                   out);
    EXPECT_NE(knobErr.find("test.scn:4:"), std::string::npos) << knobErr;
    EXPECT_NE(knobErr.find("unknown knob 'turbo'"), std::string::npos)
        << knobErr;

    // Retrieval backends and knobs other than the flat scan, each named
    // with the spelling the parser accepts.
    const std::pair<const char *, const char *> retrievalCases[] = {
        {"scenario s\nrequests 10\nretrieval hnsw\n",
         "test.scn:3: unknown retrieval backend 'hnsw' (expected flat)"},
        {"scenario s\nrequests 10\nretrieval flat,ef=64\n",
         "test.scn:3: unknown retrieval backend 'flat,ef=64' "
         "(expected flat)"},
        {"scenario s\nrequests 10\n\ncell \"c\" retrieval=ivf-pq\n",
         "test.scn:4: unknown retrieval backend 'ivf-pq' (expected flat)"},
        {"scenario s\nrequests 10\nrate 5\nat 5 set nprobe 8\n",
         "test.scn:4: unknown knob 'nprobe' (expected "
         "mode|cache|replicas)"},
    };
    for (const auto &[text, error] : retrievalCases) {
        SCOPED_TRACE(text);
        EXPECT_EQ(parseText(text, out), error);
    }
}

TEST(ScenarioParse, RejectsMalformedHeaders)
{
    Scenario out;
    EXPECT_NE(parseText("requests 10\n", out).find("first directive"),
              std::string::npos);
    EXPECT_NE(parseText("scenario s\nrequests 10\nrequests 20\n", out)
                  .find("duplicate directive"),
              std::string::npos);
    EXPECT_NE(parseText("scenario s\nrequests 10\nduration 5\n", out)
                  .find("exactly one of requests/duration"),
              std::string::npos);
    EXPECT_NE(parseText("scenario s\nrequests 10\ngpu h100\n", out)
                  .find("unknown gpu"),
              std::string::npos);
    EXPECT_NE(parseText("scenario s\nrequests 10\ntitle \"open\n", out)
                  .find("unterminated quote"),
              std::string::npos);
    EXPECT_NE(parseText("scenario s\n", out).find("requests or duration"),
              std::string::npos);
    // Integers are digits only: strtoull would read each of these.
    for (const char *seed : {"12a", "-1", "+1", "0x10",
                             "18446744073709551616"}) {
        SCOPED_TRACE(seed);
        EXPECT_EQ(parseText(std::string("scenario s\nrequests 10\nseed ") +
                                seed + "\n",
                            out),
                  std::string("test.scn:3: seed must be an unsigned "
                              "integer, got '") +
                      seed + "'");
    }
}

TEST(ScenarioParse, RejectsEvictionOnTextKeyedCells)
{
    // Nirvana and Pinecone always evict least-hit: an eviction override
    // on their cells names the line and the reason, whether the cell
    // or the header picks the system.
    Scenario out;
    const std::pair<const char *, const char *> cases[] = {
        {"scenario s\nrequests 10\n\ncell \"n\" system=nirvana "
         "eviction=lru\n",
         "test.scn:4: eviction= does nothing on system=nirvana: its cache "
         "always evicts least-hit"},
        {"scenario s\nrequests 10\nsystem pinecone\n\ncell \"a\"\n"
         "cell \"p\" eviction=fifo\n",
         "test.scn:6: eviction= does nothing on system=pinecone: its "
         "cache always evicts least-hit"},
    };
    for (const auto &[text, error] : cases) {
        SCOPED_TRACE(text);
        EXPECT_EQ(parseText(text, out), error);
    }

    // The header's eviction still parses under either system, and its
    // canonical text (which prints it) stays a fixpoint.
    const auto header = parseOk("scenario s\nrequests 10\neviction lru\n\n"
                                "cell \"n\" system=nirvana\n"
                                "cell \"p\" system=pinecone\n"
                                "cell \"m\" eviction=utility\n");
    const auto canonical = canonicalScenario(header);
    EXPECT_EQ(canonicalScenario(parseOk(canonical)), canonical);
}

TEST(ScenarioParse, RejectsInvalidOps)
{
    Scenario out;
    // Rate shaping in a batch scenario.
    EXPECT_NE(parseText("scenario s\nrequests 10\nat 0 rate 5\n", out)
                  .find("batch"),
              std::string::npos);
    // Diurnal amplitude must stay below the base.
    EXPECT_NE(parseText("scenario s\nduration 100\nrate 5\n"
                        "at 0 diurnal base 5 amp 6 period 50 for 100 "
                        "steps 4\n",
                        out)
                  .find("amp must stay below base"),
              std::string::npos);
    // Region weight out of range.
    EXPECT_NE(parseText("scenario s\nrequests 10\nrate 5\n"
                        "at 0 region 1 weight 1.5\n",
                        out)
                  .find("weight"),
              std::string::npos);
    // Killing the only admitting node.
    EXPECT_NE(parseText("scenario s\nrequests 10\nrate 5\n"
                        "at 10 kill 0\n",
                        out)
                  .find("admitting"),
              std::string::npos);
    // Replicas knob without replicated partitioning.
    EXPECT_NE(parseText("scenario s\nrequests 10\nrate 5\nnodes 2\n"
                        "workers 4\nat 10 set replicas 2\n",
                        out)
                  .find("replicated"),
              std::string::npos);
    // MoDM cell without a small model.
    EXPECT_NE(parseText("scenario s\nrequests 10\nsmall none\n", out)
                  .find("non-empty small"),
              std::string::npos);
}

TEST(ScenarioParse, PlanErrorsComeFromTheServingCheckers)
{
    // In each script the second op is the bad one: the parser reports
    // the serving checker's reason at that op's line.
    using serving::FaultKind;
    const struct
    {
        std::size_t nodes;
        FaultKind kinds[2];
        std::size_t targets[2];
    } faultCases[] = {
        {2, {FaultKind::Drain, FaultKind::Kill}, {0, 7}},   // out of range
        {3, {FaultKind::Kill, FaultKind::Kill}, {1, 1}},    // double kill
        {3, {FaultKind::Kill, FaultKind::Drain}, {1, 1}},   // drain when down
        {3, {FaultKind::Drain, FaultKind::Drain}, {1, 1}},  // double drain
        {2, {FaultKind::Kill, FaultKind::Drain}, {0, 1}},   // last admitting
        {3, {FaultKind::Kill, FaultKind::Rejoin}, {0, 1}},  // rejoin when up
    };
    Scenario out;
    for (const auto &c : faultCases) {
        std::string text = "scenario s\nrequests 10\nrate 5\nworkers 6\n"
                           "nodes " + std::to_string(c.nodes) + "\n\n";
        serving::FaultPlan plan;
        for (std::size_t i = 0; i < 2; ++i) {
            plan.add(10.0 * (i + 1), c.targets[i], c.kinds[i]);
            text += "at " + std::to_string(10 * (i + 1)) + " " +
                serving::faultKindName(c.kinds[i]) + " " +
                std::to_string(c.targets[i]) + "\n";
        }
        const auto violation = serving::firstPlanViolation(plan, c.nodes);
        ASSERT_TRUE(violation.has_value()) << text;
        EXPECT_EQ(violation->event, 1u);
        EXPECT_EQ(parseText(text, out), "test.scn:8: " + violation->reason);
    }
    EXPECT_EQ(parseText("scenario s\nrequests 10\nrate 5\nworkers 6\n"
                        "nodes 2\n\nat 10 drain 0\nat 20 kill 7\n",
                        out),
              "test.scn:8: fault plan targets node 7 of 2");

    // Knob plans run on each cell's topology. Here the second knob op
    // breaks cell "b" only, and the message names the cell.
    const struct
    {
        const char *cellB;
        std::size_t replicas;
        serving::CachePartitioning partitioning;
        std::size_t nodes;
    } knobCases[] = {
        {"partitioning=sharded", 2, serving::CachePartitioning::Sharded, 3},
        {"nodes=2", 3, serving::CachePartitioning::Replicated, 2},
    };
    for (const auto &c : knobCases) {
        serving::KnobPlan plan;
        plan.events = {{10, serving::KnobTarget::MonitorMode,
                        serving::MonitorMode::QualityOptimized, 0},
                       {20, serving::KnobTarget::ReplicationFactor,
                        serving::MonitorMode::ThroughputOptimized,
                        c.replicas}};
        const auto violation =
            serving::firstKnobViolation(plan, c.partitioning, c.nodes);
        ASSERT_TRUE(violation.has_value()) << c.cellB;
        EXPECT_EQ(violation->event, 1u);
        EXPECT_EQ(parseText("scenario s\nrequests 10\nrate 5\nworkers 6\n"
                            "nodes 3\npartitioning replicated\n\n"
                            "at 10 set mode quality\nat 20 set replicas " +
                                std::to_string(c.replicas) +
                                "\n\ncell \"a\"\ncell \"b\" " + c.cellB +
                                "\n",
                            out),
                  "test.scn:9: " + violation->reason + " in cell \"b\"");
    }
}

TEST(ScenarioTokens, EveryTokenNamesItsServingValue)
{
    // The cells name every system, model, GPU, eviction, routing and
    // partitioning token (header defaults fill the rest). A config
    // reads back as its values' printable names: system, large model,
    // small models, GPU, eviction, routing, partitioning.
    const std::pair<const char *, const char *> cells[] = {
        {"cell \"modm\" large=sd35-turbo "
         "small=sdxl,sana,sd35-turbo,flux1-dev,sd35-large "
         "eviction=utility",
         "MoDM SD3.5L-Turbo SDXL SANA SD3.5L-Turbo FLUX SD3.5L a40 Utility "
         "round-robin sharded"},
        {"cell \"vanilla\" system=vanilla large=flux1-dev gpu=mi210 "
         "eviction=lru routing=consistent-hash",
         "Vanilla FLUX mi210 LRU consistent-hash sharded"},
        {"cell \"nirvana\" system=nirvana large=sdxl "
         "routing=least-outstanding partitioning=replicated",
         "Nirvana SDXL a40 FIFO least-outstanding replicated"},
        {"cell \"pinecone\" system=pinecone large=sana routing=bounded-load",
         "Pinecone SANA a40 FIFO bounded-load sharded"},
        // Serves its small model from the config's large slot.
        {"cell \"standalone\" system=standalone-small small=sd35-turbo",
         "StandaloneSmall SD3.5L-Turbo SD3.5L-Turbo a40 FIFO round-robin "
         "sharded"},
    };
    std::string text = "scenario tokens\nrequests 10\nnodes 4\n\n";
    for (const auto &cell : cells)
        text += std::string(cell.first) + "\n";
    const auto scenario = parseOk(text);
    const auto canonical = canonicalScenario(scenario);
    EXPECT_EQ(canonicalScenario(parseOk(canonical)), canonical);
    for (std::size_t i = 0; i < std::size(cells); ++i) {
        EXPECT_NE(canonical.find(std::string("\n") + cells[i].first + "\n"),
                  std::string::npos);
        const auto c = serving::scenarioCellConfig(scenario, scenario.cell(i));
        std::string names = std::string(serving::systemKindName(c.kind)) +
            " " + c.largeModel.name;
        for (const auto &model : c.smallModels)
            names += " " + model.name;
        names += c.gpu == diffusion::GpuKind::A40 ? " a40 " : " mi210 ";
        names += std::string(cache::policyName(c.cachePolicy)) + " " +
            serving::routingPolicyName(c.cluster.routing) + " " +
            serving::cachePartitioningName(c.cluster.cachePartitioning);
        EXPECT_EQ(names, cells[i].second);
    }

    // The ops name every fault verb and knob; each plan event reads
    // back as "<time> <kind or target> <node or value>".
    const char kOps[] = "at 10 kill 1\nat 20 rejoin 1\nat 30 drain 2\n"
                        "at 40 set mode quality\nat 50 set mode throughput\n"
                        "at 60 set cache 500\nat 70 set replicas 3\n";
    const auto ops =
        parseOk(std::string("scenario ops\nrequests 10\nrate 5\nnodes 3\n"
                            "workers 6\npartitioning replicated\n\n") +
                kOps);
    const auto opsText = canonicalScenario(ops);
    EXPECT_EQ(canonicalScenario(parseOk(opsText)), opsText);
    EXPECT_NE(opsText.find(std::string("\n\n") + kOps), std::string::npos);
    const auto config = serving::scenarioCellConfig(ops, ops.cell(0));
    std::string events;
    for (const auto &e : config.faults.events)
        events += std::to_string(static_cast<int>(e.time)) + " " +
            serving::faultKindName(e.kind) + " " + std::to_string(e.node) +
            "\n";
    for (const auto &e : config.knobs.events)
        events += std::to_string(static_cast<int>(e.time)) + " " +
            serving::knobTargetName(e.target) + " " +
            (e.target == serving::KnobTarget::MonitorMode
                 ? serving::monitorModeName(e.mode)
                 : std::to_string(e.value)) +
            "\n";
    EXPECT_EQ(events, "10 kill 1\n20 rejoin 1\n30 drain 2\n"
                      "40 monitor-mode quality-optimized\n"
                      "50 monitor-mode throughput-optimized\n"
                      "60 cache-capacity 500\n70 replication-factor 3\n");
}

TEST(ScenarioParse, ThroughputAndQualityReportsRoundTrip)
{
    for (const std::string report : {"throughput", "quality"}) {
        SCOPED_TRACE(report);
        const auto scenario =
            parseOk("scenario r\nrequests 10\nreport " + report +
                    "\n\ncell \"a\" system=vanilla paper=28.55,6.29\n");
        const auto canonical = canonicalScenario(scenario);
        EXPECT_NE(canonical.find("\nreport " + report + "\n"),
                  std::string::npos)
            << canonical;
        EXPECT_EQ(canonicalScenario(parseOk(canonical)), canonical);
    }

    // Under report quality, paper= is a <clip>,<fid> pair, checked on
    // the cell's own line.
    Scenario out;
    for (const std::string paper : {"28.55", "1,2,3", ",6.29"}) {
        SCOPED_TRACE(paper);
        EXPECT_EQ(parseText("scenario q\nrequests 10\nreport quality\n\n"
                            "cell \"a\"\ncell \"b\" paper=" +
                                paper + "\n",
                            out),
                  "test.scn:6: report quality takes paper=<clip>,<fid>, "
                  "got '" +
                      paper + "'");
    }
}

TEST(ScenarioParseDeath, LoadOrDieReportsFileAndLine)
{
    std::istringstream in("scenario s\nrequests 10\nat 1 explode 2\n");
    EXPECT_DEATH(parseScenarioOrDie(in, "bad.scn"),
                 "bad.scn:3: unknown op");
}

/** Every checked-in scenario file, relative to MODM_SCENARIO_DIR. */
const char *const kCheckedInScenarios[] = {
    "fig06_hit_rate.scn", "fig07_diffusiondb.scn", "fig07_mjhq.scn",
    "fig08_flux.scn",     "fig18_energy.scn",      "table2_diffusiondb.scn",
    "table2_mjhq.scn",    "table3_flux.scn",       "steady_state.scn",
    "flash_crowd.scn",    "diurnal.scn",           "topic_drift.scn",
    "regional_skew.scn",  "failover_killmid.scn",
};

std::string
scenarioPath(const std::string &name)
{
    return std::string(MODM_SCENARIO_DIR) + "/" + name;
}

TEST(ScenarioFiles, EveryCheckedInScenarioIsAFixpoint)
{
    for (const char *name : kCheckedInScenarios) {
        SCOPED_TRACE(name);
        const auto scenario = loadScenarioFile(scenarioPath(name));
        const auto canonical = canonicalScenario(scenario);
        const auto reparsed = parseOk(canonical);
        EXPECT_EQ(canonicalScenario(reparsed), canonical);
        EXPECT_EQ(scenarioDigest(reparsed), scenarioDigest(scenario));
    }
}

TEST(ScenarioFiles, PortedFigureDigestsArePinned)
{
    // Frozen digests of the figure and table ports. A change here means
    // the scenario's meaning changed — the matching golden must be
    // revisited, not just re-pinned.
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"fig06_hit_rate.scn", 0xea14f86034447e74ULL},
        {"fig07_diffusiondb.scn", 0xa7fa5f822d4d0452ULL},
        {"fig07_mjhq.scn", 0x5c3def68329d4729ULL},
        {"fig08_flux.scn", 0xbe8e513aaafb929bULL},
        {"fig18_energy.scn", 0xf09cbd0285e74bccULL},
        {"table2_diffusiondb.scn", 0x536562eb78cdcd1eULL},
        {"table2_mjhq.scn", 0xf343723efd368b3aULL},
        {"table3_flux.scn", 0xe1c8695fcb489213ULL},
    };
    for (const auto &[name, digest] : pinned) {
        SCOPED_TRACE(name);
        EXPECT_EQ(scenarioDigest(loadScenarioFile(scenarioPath(name))),
                  digest);
    }
}

TEST(ScenarioWorkloadEquivalence, MjhqDatasetSelectsTheMjhqGenerator)
{
    const auto scenario = parseOk("scenario mjhq\n"
                                  "dataset mjhq\n"
                                  "requests 50\n");
    const auto built = buildScenarioWorkload(scenario);
    auto mjhq = makeMJHQ(42);
    ASSERT_EQ(built.trace.size(), 50u);
    for (const auto &request : built.trace)
        EXPECT_EQ(request.prompt.text, mjhq->next().text);
}

TEST(ScenarioEquivalence, ServingCellMatchesLegacyPresetRun)
{
    // A scenario cell that names the MoDM preset reproduces the
    // hard-coded bench path bit for bit (digest equality).
    const auto scenario = parseOk("scenario modm_small\n"
                                  "warm 150\n"
                                  "requests 150\n"
                                  "cache 1500\n");
    const auto cellResult =
        serving::runScenarioCell(scenario, scenario.cell(0));

    baselines::PresetParams params;
    params.cacheCapacity = 1500;
    const auto config =
        baselines::modm(diffusion::sd35Large(), diffusion::sdxl(),
                        params);
    const auto legacy = bench::runSystem(
        config, buildScenarioWorkload({.warm = 150, .requests = 150}));

    EXPECT_EQ(serving::resultDigest(cellResult),
              serving::resultDigest(legacy));
}

TEST(ScenarioEquivalence, QualityCellMatchesLegacyTablePath)
{
    // Scaled-down Table 2: a quality cell (run + score) against a
    // verbatim transcription of the deleted table binary's cell body.
    // The standalone SANA cell is still scored against SD3.5L, the
    // cell's `large`, although its config serves SANA from that slot.
    const auto scenario = parseOk("scenario table2_small\n"
                                  "warm 80\n"
                                  "requests 80\n"
                                  "cache 80\n"
                                  "report quality\n"
                                  "\n"
                                  "cell \"MoDM-SDXL\"\n"
                                  "cell \"SANA\" system=standalone-small "
                                  "small=sana\n");
    baselines::PresetParams params;
    params.numWorkers = 4;
    params.cacheCapacity = 80;
    params.keepOutputs = true;
    const serving::ServingConfig legacyConfigs[] = {
        baselines::modm(diffusion::sd35Large(), diffusion::sdxl(), params),
        baselines::standalone(diffusion::sana(), params),
    };

    for (std::size_t i = 0; i < scenario.cellCount(); ++i) {
        const auto cell = scenario.cell(i);
        SCOPED_TRACE(cell.label);
        EXPECT_TRUE(serving::scenarioCellConfig(scenario, cell).keepOutputs);
        const auto cellResult = serving::runScenarioCell(scenario, cell);
        const auto cellQuality =
            serving::scoreScenarioCell(cell, cellResult);

        const auto result = bench::runSystem(
            legacyConfigs[i],
            buildScenarioWorkload({.warm = 80, .requests = 80}));
        diffusion::Sampler sampler(0x4ef5eedULL);
        std::vector<diffusion::Image> reference;
        for (const auto &p : result.prompts)
            reference.push_back(
                sampler.generate(diffusion::sd35Large(), p, 0.0));
        const auto q = eval::MetricSuite().report(result.prompts,
                                                  result.images, reference);

        EXPECT_EQ(serving::resultDigest(cellResult),
                  serving::resultDigest(result));
        EXPECT_EQ(cellQuality.clip, q.clip);
        EXPECT_EQ(cellQuality.fid, q.fid);
        EXPECT_EQ(cellQuality.is, q.is);
        EXPECT_EQ(cellQuality.pick, q.pick);
    }

    // Every other report leaves outputs unkept.
    const auto table = parseOk(kSteadyText);
    EXPECT_FALSE(
        serving::scenarioCellConfig(table, table.cell(0)).keepOutputs);
}

TEST(ScenarioEquivalence, CacheStreamMatchesInlineFig06Loop)
{
    // Scaled-down Fig. 6: the scenario executor's streamed-cache loop
    // against a verbatim transcription of the legacy binary's. 4200
    // requests end in a partial window of 200, which both drop.
    for (const std::size_t requests : {4000, 4200}) {
        SCOPED_TRACE(requests);
        std::string source = "scenario fig06_small\n"
                             "mode cache-stream\n"
                             "window 500\n"
                             "cache 800\n"
                             "report hit-curve\n";
        source += "requests " + std::to_string(requests) + "\n";
        const auto scenario = parseOk(source);
        const auto curve =
            serving::runScenarioCacheStream(scenario, scenario.cell(0));

        auto gen = makeDiffusionDB(42);
        diffusion::Sampler sampler(7);
        cache::ImageCache cache(800, cache::EvictionPolicy::FIFO);
        embedding::TextEncoder text;
        serving::KDecision kd;
        std::vector<double> expected;
        std::size_t hits = 0;
        for (std::size_t i = 0; i < requests; ++i) {
            const auto p = gen->next();
            const auto te =
                text.encode(p.visualConcept, p.lexicalStyle, p.text);
            const auto r = cache.retrieve(te);
            diffusion::Image img;
            if (r.found && kd.isHit(r.similarity)) {
                ++hits;
                cache.recordHit(r.entryId, static_cast<double>(i));
                img = sampler.refine(diffusion::sdxl(), p,
                                     cache.entry(r.entryId).image,
                                     kd.decide(r.similarity),
                                     static_cast<double>(i));
            } else {
                img = sampler.generate(diffusion::sd35Large(), p,
                                       static_cast<double>(i));
            }
            cache.insert(img, static_cast<double>(i));
            if ((i + 1) % 500 == 0) {
                expected.push_back(static_cast<double>(hits) / 500);
                hits = 0;
            }
        }
        EXPECT_EQ(expected.size(), 8u);
        EXPECT_EQ(curve, expected);
    }
}

TEST(ScenarioEquivalence, FaultOpsMatchHandBuiltFaultPlan)
{
    const auto scenario = parseOk("scenario fo\n"
                                  "warm 60\n"
                                  "requests 240\n"
                                  "rate 12\n"
                                  "workers 6\n"
                                  "nodes 3\n"
                                  "\n"
                                  "at 120 kill 1\n"
                                  "at 600 rejoin 1\n");
    const auto cellResult =
        serving::runScenarioCell(scenario, scenario.cell(0));

    baselines::PresetParams params;
    params.numWorkers = 6;
    auto config =
        baselines::modm(diffusion::sd35Large(), diffusion::sdxl(),
                        params);
    config.cluster.numNodes = 3;
    config.faults.add(120.0, 1, serving::FaultKind::Kill)
        .add(600.0, 1, serving::FaultKind::Rejoin);
    const auto legacy = bench::runSystem(
        config, buildScenarioWorkload(
                    {.warm = 60, .requests = 240, .rate = 12.0}));

    EXPECT_EQ(serving::resultDigest(cellResult),
              serving::resultDigest(legacy));
    EXPECT_TRUE(cellResult.failover.active);
}

TEST(ScenarioKnobs, CacheShrinkEvictsDownInPolicy)
{
    const auto scenario = parseOk("scenario shrink\n"
                                  "warm 400\n"
                                  "requests 100\n"
                                  "rate 10\n"
                                  "cache 1000\n"
                                  "\n"
                                  "at 1 set cache 200\n");
    const auto result =
        serving::runScenarioCell(scenario, scenario.cell(0));
    EXPECT_LE(result.cacheSize, 200u);
    EXPECT_GT(result.cacheSize, 0u);
}

TEST(ScenarioKnobs, ModeFlipChangesTheRunAndEmptyPlanIsANoOp)
{
    const char kBase[] = "scenario knobs\n"
                         "warm 100\n"
                         "requests 200\n"
                         "rate 12\n"
                         "cache 800\n";
    const auto plain = parseOk(kBase);
    const auto flipped =
        parseOk(std::string(kBase) + "\nat 60 set mode quality\n");

    const auto plainResult =
        serving::runScenarioCell(plain, plain.cell(0));
    const auto flippedResult =
        serving::runScenarioCell(flipped, flipped.cell(0));
    EXPECT_NE(serving::resultDigest(plainResult),
              serving::resultDigest(flippedResult));

    // An explicitly empty knob plan is byte-identical to no plan.
    auto config = serving::scenarioCellConfig(plain, plain.cell(0));
    ASSERT_TRUE(config.knobs.empty());
    const auto workload = buildScenarioWorkload(plain);
    serving::ServingSystem system(config);
    system.warmCache(workload.warm);
    const auto rerun = system.run(workload.trace);
    EXPECT_EQ(serving::resultDigest(rerun),
              serving::resultDigest(plainResult));
}

TEST(ScenarioKnobsDeath, ReplicasKnobValidatesAgainstTopology)
{
    serving::ServingConfig config;
    config.knobs.events = {{10.0, serving::KnobTarget::ReplicationFactor,
                            serving::MonitorMode::ThroughputOptimized, 2}};
    EXPECT_DEATH(serving::ServingSystem{config}, "[Rr]eplica");
}

TEST(ScenarioRetrieval, FlatPrintsAndDigestsUnchanged)
{
    // `retrieval` takes only `flat` now; a header `retrieval flat` and a
    // cell `retrieval=flat` keep the canonical text and the digest they
    // had when the key also named approximate backends.
    const auto scenario = parseOk("scenario flatonly\n"
                                  "requests 10\n"
                                  "warm 20\n"
                                  "retrieval flat\n"
                                  "\n"
                                  "cell \"a\"\n"
                                  "cell \"b\" retrieval=flat\n");
    EXPECT_EQ(canonicalScenario(scenario),
              "scenario flatonly\n"
              "seed 42\n"
              "mode serving\n"
              "dataset diffusiondb\n"
              "system modm\n"
              "large sd35-large\n"
              "small sdxl\n"
              "workers 4\n"
              "gpu a40\n"
              "cache 10000\n"
              "eviction fifo\n"
              "nodes 1\n"
              "routing round-robin\n"
              "partitioning sharded\n"
              "replicas 2\n"
              "retrieval flat\n"
              "warm 20\n"
              "requests 10\n"
              "rate 0\n"
              "window 2000\n"
              "sampler-seed 7\n"
              "recovery-window 100\n"
              "report table\n"
              "\n"
              "cell \"a\"\n"
              "cell \"b\" retrieval=flat\n");
    EXPECT_EQ(scenarioDigest(scenario), 0xd514a25084cfc67aULL);
}

TEST(ScenarioRetrieval, ResultSumsEveryNodesIndexBytes)
{
    // retrievalMemoryBytes is each node's flat index footprint summed
    // over the cluster, read after the run from the live indexes.
    const auto scenario = parseOk("scenario flatbytes\n"
                                  "warm 200\n"
                                  "requests 80\n"
                                  "rate 30\n"
                                  "cache 400\n"
                                  "retrieval flat\n"
                                  "\ncell \"one\"\n"
                                  "cell \"two\" nodes=2\n");
    const auto workload = buildScenarioWorkload(scenario);
    for (std::size_t c = 0; c < scenario.cellCount(); ++c) {
        const auto cell = scenario.cell(c);
        SCOPED_TRACE(cell.label);
        serving::ServingSystem system(
            serving::scenarioCellConfig(scenario, cell));
        system.warmCache(workload.warm);
        const auto result = system.run(workload.trace);
        ASSERT_EQ(system.numNodes(), c + 1);
        std::size_t sum = 0;
        for (std::size_t n = 0; n < system.numNodes(); ++n) {
            const auto *cache = system.node(n).scheduler().imageCache();
            ASSERT_NE(cache, nullptr) << "node " << n;
            EXPECT_GT(cache->index().memoryBytes(), 0u) << "node " << n;
            sum += cache->index().memoryBytes();
        }
        EXPECT_GT(result.retrievalMemoryBytes, 0u);
        EXPECT_EQ(result.retrievalMemoryBytes, sum);
    }
}

TEST(ScenarioSweep, CellsAreDeterministicAcrossParallelism)
{
    const auto scenario = parseOk(kSteadyText);
    const auto runAll = [&](const char *parallelism) {
        test::ScopedSweepEnv env(parallelism);
        std::vector<std::function<std::string()>> cells;
        for (std::size_t i = 0; i < scenario.cellCount(); ++i) {
            const auto cell = scenario.cell(i);
            cells.push_back([&scenario, cell] {
                return serving::resultDigest(
                    serving::runScenarioCell(scenario, cell));
            });
        }
        return bench::runCells<std::string>(cells);
    };
    const auto serial = runAll("1");
    const auto concurrent = runAll("4");
    EXPECT_EQ(serial, concurrent);
}

} // namespace
} // namespace modm::workload
