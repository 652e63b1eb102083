/**
 * @file
 * Paper Fig. 11: MoDM throughput vs GPU count (4 -> 32 MI210s),
 * normalized to 4 GPUs.
 *
 * Paper shape: super-linear scaling {1.0, 2.3, 3.3, 4.2, 5.7, 7.2,
 * 8.1, 9.3} — faster processing fills the cache faster within the same
 * wall-clock window, raising the hit rate and compounding throughput.
 * The experiment therefore runs a fixed-duration overloaded window
 * from a small warm cache and counts completions.
 */

#include <cstdio>

#include "bench/sweep.hh"

using namespace modm;

int
main()
{
    constexpr double kDuration = 3600.0; // one simulated hour
    constexpr double kDemand = 64.0;     // req/min, above all capacities

    const std::vector<std::size_t> gpuCounts = {4, 8, 12, 16, 20, 24,
                                                28, 32};
    const std::vector<const char *> paper = {"1.0", "2.3", "3.3", "4.2",
                                             "5.7", "7.2", "8.1", "9.3"};

    bench::SweepSpec spec;
    spec.options.title = "Fig. 11";
    for (const std::size_t gpus : gpuCounts) {
        baselines::PresetParams params;
        params.numWorkers = gpus;
        params.gpu = diffusion::GpuKind::MI210;
        params.cacheCapacity = 6000;
        spec.add("gpus=" + std::to_string(gpus),
                 baselines::modm(diffusion::sd35Large(),
                                 diffusion::sdxl(), params),
                 [] {
                     workload::ScenarioWorkload bundle;
                     auto gen = workload::makeDiffusionDB(42);
                     for (int i = 0; i < 300; ++i)
                         bundle.warm.push_back(gen->next());
                     workload::PoissonArrivals arrivals(kDemand);
                     Rng rng(42);
                     bundle.trace = workload::buildTraceForDuration(
                         *gen, arrivals, kDuration, rng);
                     return bundle;
                 });
    }
    const auto results = bench::runSweep(spec);

    std::vector<double> throughput;
    std::vector<double> hitRates;
    for (const auto &result : results) {
        // Completions inside the demand window (the run drains the
        // remaining queue afterwards; that tail is excluded).
        const auto perMin = result.metrics.completionsPerMinute(
            result.duration);
        double within = 0.0;
        for (std::size_t m = 0; m < std::min<std::size_t>(
                 perMin.size(), kDuration / 60.0); ++m)
            within += perMin[m];
        throughput.push_back(within / (kDuration / 60.0));
        hitRates.push_back(result.hitRate);
    }

    Table t({"GPUs", "throughput/min", "normalized", "paper",
             "hit rate"});
    for (std::size_t i = 0; i < gpuCounts.size(); ++i) {
        t.addRow({Table::fmt(static_cast<std::uint64_t>(gpuCounts[i])),
                  Table::fmt(throughput[i], 1),
                  Table::fmt(throughput[i] / throughput.front(), 2),
                  paper[i], Table::fmt(hitRates[i])});
    }
    t.print("Fig. 11 — MoDM-SDXL scalability on MI210s (1h window, "
            "overloaded demand, cold-ish cache)");
    return 0;
}
