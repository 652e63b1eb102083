/**
 * @file
 * Machine-readable perf snapshot: runs a pinned canonical sweep and
 * emits BENCH_serving.json, so CI archives one comparable artifact per
 * commit and the serving-performance trajectory is tracked across PRs
 * instead of living in scrollback.
 *
 * The sweep is deliberately frozen — paper line-up on a DiffusionDB
 * Poisson trace, one multi-node affinity cell, one failover cell (a
 * midpoint node kill under k=2 replication, tracking recovery time
 * and rerouted requests), plus a flat-scan retrieval microbench —
 * and versioned by the `schema` field; bump it when cells change so
 * downstream tooling never compares incompatible snapshots. Schema 2
 * added the failover cell and the per-cell `rerouted_requests` /
 * `recovery_time_s` resilience fields. Schema 3 added the memory
 * axis: per-cell `retrieval_backend` / `retrieval_bytes_per_entry`,
 * plus HNSW and IVF-PQ rows (with `bytes_per_entry`) in the
 * retrieval microbench. Schema 4 added kernel provenance: a top-level
 * `kernel` object (active dot-kernel dispatch tier + whether
 * MODM_KERNEL forced it) and a per-cell `kernel` field. Schema 5
 * turns the observability layer on for every cell: per-cell
 * `trace_events` / `trace_hash` (event count and final rolling hash
 * of the run's event log — the determinism fingerprint trace_diff
 * compares) and a top-level `timeseries` path naming the streaming-
 * metrics CSV artifact (<output-stem>_timeseries.csv, one row per
 * virtual-clock window per metric per cell) written alongside the
 * JSON. Tracing is observation-only, and like the kernel fields the
 * trace/metrics outputs are excluded from resultDigest, so serving
 * numbers are unchanged from schema 4. Schema 6 drops what only the
 * deleted approximate backends filled: the per-cell
 * `retrieval_backend` and `recall_at1` fields (always "Flat" and 1),
 * and the IVF, HNSW and IVF-PQ rows; `retrieval` is now one object,
 * the flat scan's point. Serving metrics are
 * virtual-time and bit-deterministic across kernel tiers (kernels.hh
 * pins the summation order); the us/query retrieval column is wall
 * time and is the only machine-dependent number in the file.
 *
 * Usage: bench_serving_json [output-path]   (default BENCH_serving.json)
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/sweep.hh"
#include "src/common/kernels.hh"
#include "src/embedding/index.hh"

using namespace modm;

namespace {

constexpr int kSchema = 6;
constexpr std::size_t kWarm = 800;
constexpr std::size_t kRequests = 2000;
constexpr double kRatePerMin = 12.0;
/** Streaming-metrics window (virtual seconds) for every cell. */
constexpr double kMetricsWindowS = 60.0;
constexpr std::size_t kRetrievalRows = 4000;
constexpr std::size_t kRetrievalQueries = 400;

/** One retrieval-microbench point. */
struct RetrievalPoint
{
    double usPerQuery = 0.0;
    double bytesPerEntry = 0.0;
};

/** Wall-clock latency + memory footprint at the pinned size. */
RetrievalPoint
measureRetrieval()
{
    auto gen = workload::makeDiffusionDB(7);
    diffusion::Sampler sampler(11);
    embedding::ImageEncoder image;
    embedding::TextEncoder text;
    embedding::FlatIndex index;
    index.reserve(kRetrievalRows);
    for (std::size_t i = 0; i < kRetrievalRows; ++i) {
        const auto img =
            sampler.generate(diffusion::sd35Large(), gen->next(), 0.0);
        index.insert(1 + i, image.encode(img.content, img.fidelity, img.id));
    }
    std::vector<embedding::Embedding> queries;
    queries.reserve(kRetrievalQueries);
    for (std::size_t q = 0; q < kRetrievalQueries; ++q) {
        const auto p = gen->next();
        queries.push_back(
            text.encode(p.visualConcept, p.lexicalStyle, p.text));
    }
    double sink = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (const auto &q : queries)
        sink += index.best(q).similarity;
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (sink == -1e30)
        std::fprintf(stderr, "impossible\n");
    return {seconds * 1e6 / static_cast<double>(queries.size()),
            static_cast<double>(index.memoryBytes()) /
                static_cast<double>(kRetrievalRows)};
}

std::string
num(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string path =
        argc > 1 ? argv[1] : "BENCH_serving.json";

    baselines::PresetParams params;
    params.numWorkers = 4;
    params.cacheCapacity = 1200;

    bench::SweepSpec spec;
    spec.options.title = "BENCH_serving";
    std::vector<double> cellRates; // parallel to spec.cells
    const auto bundle = [] {
        return bench::poissonBundle(bench::Dataset::DiffusionDB, kWarm,
                                    kRequests, kRatePerMin);
    };
    for (const auto &system :
         bench::paperLineup(diffusion::sd35Large(), params)) {
        spec.add(system.name, system.config, bundle);
        cellRates.push_back(kRatePerMin);
    }
    // One cluster cell so multi-node regressions show in the
    // trajectory; it gets a doubled worker budget and arrival rate.
    {
        baselines::PresetParams cluster = params;
        cluster.numWorkers = 8;
        auto config = baselines::modm(diffusion::sd35Large(),
                                      diffusion::sdxl(), cluster);
        config.cluster.numNodes = 4;
        config.cluster.routing = serving::RoutingPolicy::ConsistentHash;
        spec.add("MoDM-SDXL/4node-affinity", config, [] {
            return bench::poissonBundle(bench::Dataset::DiffusionDB,
                                        kWarm, kRequests,
                                        2.0 * kRatePerMin);
        });
        cellRates.push_back(2.0 * kRatePerMin);
    }
    // One failover cell so the resilience trajectory is tracked per
    // commit: k=2 replicated affinity cluster, node 1 killed a third
    // of the way into the trace; recovery_time_s and
    // rerouted_requests below come from its FailoverReport.
    {
        baselines::PresetParams cluster = params;
        cluster.numWorkers = 8;
        auto config = baselines::modm(diffusion::sd35Large(),
                                      diffusion::sdxl(), cluster);
        config.cluster.numNodes = 4;
        config.cluster.routing = serving::RoutingPolicy::ConsistentHash;
        config.cluster.cachePartitioning =
            serving::CachePartitioning::Replicated;
        config.cluster.replicationFactor = 2;
        const auto probe = bench::poissonBundle(
            bench::Dataset::DiffusionDB, kWarm, kRequests,
            2.0 * kRatePerMin);
        config.faults.add(probe.trace[kRequests / 3].arrival, 1,
                          serving::FaultKind::Kill);
        spec.add("MoDM-SDXL/4node-kill-replicated", config, [] {
            return bench::poissonBundle(bench::Dataset::DiffusionDB,
                                        kWarm, kRequests,
                                        2.0 * kRatePerMin);
        });
        cellRates.push_back(2.0 * kRatePerMin);
    }
    // Schema 5: every cell records its event trace and a streaming
    // metrics series. Observation-only — serving numbers and digests
    // are bit-identical to an untraced run.
    for (auto &cell : spec.cells) {
        cell.config.trace.events = true;
        cell.config.trace.metricsWindow = kMetricsWindowS;
    }
    const auto results = bench::runSweep(spec);

    const RetrievalPoint retrieval = measureRetrieval();

    // The metrics time series lives next to the JSON as
    // <output-stem>_timeseries.csv; the JSON names it so downstream
    // tooling finds both from one artifact path.
    std::string csvPath = path;
    const std::string::size_type dot = csvPath.rfind(".json");
    if (dot != std::string::npos && dot + 5 == csvPath.size())
        csvPath.resize(dot);
    csvPath += "_timeseries.csv";
    {
        FILE *csv = std::fopen(csvPath.c_str(), "w");
        if (!csv) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         csvPath.c_str());
            return 1;
        }
        for (std::size_t i = 0; i < spec.cells.size(); ++i) {
            std::string text =
                results[i].series.csv(spec.cells[i].label);
            if (i > 0) {
                // Drop the repeated comment + header lines so the
                // concatenated file parses as one CSV; the cell
                // column distinguishes the series.
                std::string::size_type skip = text.find('\n');
                if (skip != std::string::npos)
                    skip = text.find('\n', skip + 1);
                text.erase(0, skip == std::string::npos
                                  ? text.size()
                                  : skip + 1);
            }
            std::fputs(text.c_str(), csv);
        }
        std::fclose(csv);
    }

    FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        return 1;
    }
    std::fprintf(out, "{\n  \"schema\": %d,\n", kSchema);
    const kernels::KernelInfo kernel = kernels::active();
    std::fprintf(out,
                 "  \"kernel\": {\"name\": \"%s\", \"forced\": %s},\n",
                 kernel.name, kernel.fromEnv ? "true" : "false");
    std::fprintf(out, "  \"timeseries\": \"%s\",\n", csvPath.c_str());
    std::fprintf(out,
                 "  \"sweep\": {\"dataset\": \"DiffusionDB\", "
                 "\"warm\": %zu, \"requests\": %zu},\n",
                 kWarm, kRequests);
    std::fprintf(out, "  \"serving\": [\n");
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        const auto &r = results[i];
        std::fprintf(
            out,
            "    {\"name\": \"%s\", \"rate_per_min\": %s, "
            "\"throughput_per_min\": %s, "
            "\"hit_rate\": %s, \"p50_latency_s\": %s, "
            "\"p99_latency_s\": %s, "
            "\"load_imbalance\": %s, \"num_nodes\": %zu, "
            "\"rerouted_requests\": %llu, \"recovery_time_s\": %s, "
            "\"retrieval_bytes_per_entry\": %s, "
            "\"kernel\": \"%s\", "
            "\"trace_events\": %llu, "
            "\"trace_hash\": \"%016llx\"}%s\n",
            spec.cells[i].label.c_str(), num(cellRates[i]).c_str(),
            num(r.throughputPerMin).c_str(), num(r.hitRate).c_str(),
            num(r.metrics.latencyPercentile(50.0)).c_str(),
            num(r.metrics.latencyPercentile(99.0)).c_str(),
            num(r.loadImbalance).c_str(), r.numNodes,
            static_cast<unsigned long long>(r.failover.rerouted),
            // -1 = no kill in this cell (or recovery never proven).
            num(r.failover.hitRateRecoveryS).c_str(),
            // End-of-run footprint over end-of-run entries; 0 when
            // the final cache is empty.
            num(r.cacheSize > 0
                    ? static_cast<double>(r.retrievalMemoryBytes) /
                          static_cast<double>(r.cacheSize)
                    : 0.0)
                .c_str(),
            r.kernel.c_str(),
            static_cast<unsigned long long>(r.trace.events),
            static_cast<unsigned long long>(r.trace.hash),
            i + 1 < spec.cells.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out,
                 "  \"retrieval\": {\"rows\": %zu, \"us_per_query\": %s, "
                 "\"bytes_per_entry\": %s}\n}\n",
                 kRetrievalRows, num(retrieval.usPerQuery).c_str(),
                 num(retrieval.bytesPerEntry).c_str());
    std::fclose(out);
    std::printf("wrote %s (%zu serving cells) and %s\n", path.c_str(),
                spec.cells.size(), csvPath.c_str());
    return 0;
}
