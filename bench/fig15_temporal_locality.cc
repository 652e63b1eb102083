/**
 * @file
 * Paper Fig. 15 (appendix A.1): distribution of the time elapsed
 * between a cache-hit request and the creation of the image it
 * retrieves.
 *
 * Paper shape: >90 % of hits retrieve images generated within the last
 * four hours — the observation justifying FIFO cache maintenance.
 */

#include <cstdio>

#include "bench/sweep.hh"
#include "src/common/stats.hh"

using namespace modm;

int
main()
{
    // Serve ten simulated hours at 20 req/min so multi-hour retrieval
    // gaps are observable.
    constexpr double kDuration = 10.0 * 3600.0;
    constexpr double kRate = 20.0;

    baselines::PresetParams params;
    params.numWorkers = 24; // enough capacity to stay unqueued
    params.gpu = diffusion::GpuKind::MI210;
    params.cacheCapacity = 20000;

    bench::SweepSpec spec;
    spec.options.title = "Fig. 15";
    spec.add("MoDM-SDXL",
             baselines::modm(diffusion::sd35Large(), diffusion::sdxl(),
                             params),
             [] {
                 workload::ScenarioWorkload bundle;
                 auto gen = workload::makeDiffusionDB(42);
                 workload::PoissonArrivals arrivals(kRate);
                 Rng rng(42);
                 bundle.trace = workload::buildTraceForDuration(
                     *gen, arrivals, kDuration, rng);
                 return bundle;
             });
    const auto result = bench::runSweep(spec).front();

    Histogram ages(0.0, 10.0 * 3600.0, 20); // 30-minute bins
    std::size_t withinFourHours = 0;
    for (double age : result.hitAges) {
        ages.add(age);
        withinFourHours += age <= 4.0 * 3600.0 ? 1 : 0;
    }

    Table t({"age bucket (h)", "fraction of hits"});
    for (std::size_t b = 0; b < ages.bins(); ++b) {
        t.addRow({Table::fmt(ages.binCenter(b) / 3600.0, 2),
                  Table::fmt(ages.binFraction(b), 3)});
    }
    t.print("Fig. 15 — age of retrieved cache entries (10 h trace @ "
            "20 req/min)");
    std::printf("hits within 4 hours: %.1f%% (paper: > 90%%)\n",
                100.0 * static_cast<double>(withinFourHours) /
                    static_cast<double>(result.hitAges.size()));
    return 0;
}
