/**
 * @file
 * Shared helpers for the figure/table reproduction binaries: workload
 * bundles (warm-up prompts + request trace), named system
 * configurations, and running one system over one bundle.
 *
 * Experiments are scaled down from the paper's 10k-request / 16-GPU
 * runs so the full bench suite completes in minutes on one CPU core;
 * every binary prints the scale it used. Normalized results (speedups,
 * hit rates, violation rates) are scale-robust, which is what the
 * paper's figures report.
 */

#ifndef MODM_BENCH_HARNESS_HH
#define MODM_BENCH_HARNESS_HH

#include <memory>
#include <string>
#include <vector>

#include "src/baselines/presets.hh"
#include "src/common/table.hh"
#include "src/eval/metrics.hh"
#include "src/serving/system.hh"
#include "src/workload/trace.hh"

namespace modm::bench {

/** Warm-up prompts plus a request trace from one dataset. */
struct WorkloadBundle
{
    std::vector<workload::Prompt> warm;
    workload::Trace trace;
};

/** Dataset selector. */
enum class Dataset
{
    DiffusionDB,
    MJHQ,
};

inline const char *
datasetName(Dataset dataset)
{
    return dataset == Dataset::DiffusionDB ? "DiffusionDB" : "MJHQ";
}

inline std::unique_ptr<workload::TraceGenerator>
makeGenerator(Dataset dataset, std::uint64_t seed)
{
    if (dataset == Dataset::DiffusionDB)
        return workload::makeDiffusionDB(seed);
    return workload::makeMJHQ(seed);
}

/** Batch bundle (all arrivals at t=0) for max-throughput experiments. */
inline WorkloadBundle
batchBundle(Dataset dataset, std::size_t warm_count,
            std::size_t trace_count, std::uint64_t seed = 42)
{
    WorkloadBundle bundle;
    auto gen = makeGenerator(dataset, seed);
    for (std::size_t i = 0; i < warm_count; ++i)
        bundle.warm.push_back(gen->next());
    bundle.trace = workload::buildBatchTrace(*gen, trace_count);
    return bundle;
}

/** Poisson bundle for latency/SLO experiments. */
inline WorkloadBundle
poissonBundle(Dataset dataset, std::size_t warm_count,
              std::size_t trace_count, double rate_per_min,
              std::uint64_t seed = 42)
{
    WorkloadBundle bundle;
    auto gen = makeGenerator(dataset, seed);
    for (std::size_t i = 0; i < warm_count; ++i)
        bundle.warm.push_back(gen->next());
    workload::PoissonArrivals arrivals(rate_per_min);
    Rng rng(seed ^ 0xa441a15ULL);
    bundle.trace =
        workload::buildTrace(*gen, arrivals, trace_count, rng);
    return bundle;
}

/** A named system configuration for a comparison line-up. */
struct SystemSpec
{
    std::string name;
    serving::ServingConfig config;
};

/** Run one system over a bundle (fresh system per call). */
inline serving::ServingResult
runSystem(const serving::ServingConfig &config,
          const WorkloadBundle &bundle)
{
    serving::ServingSystem system(config);
    if (!bundle.warm.empty())
        system.warmCache(bundle.warm);
    return system.run(bundle.trace);
}

} // namespace modm::bench

#endif // MODM_BENCH_HARNESS_HH
