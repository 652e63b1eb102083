/**
 * @file
 * Paper Fig. 10: throughput under a step-increasing request rate
 * (6 -> 26 req/min) on 16 MI210s.
 *
 * Paper shape: Vanilla saturates near 10/min; Nirvana ~20 % above it;
 * MoDM follows demand, serving with SDXL up to ~22/min and then
 * switching the small model to SANA to keep up.
 */

#include <cstdio>

#include "bench/sweep.hh"
#include "src/obs/metrics.hh"

using namespace modm;

int
main()
{
    // 6..26 req/min in +4 steps, 20 simulated minutes per step.
    std::vector<workload::RateSegment> segments;
    for (double rate = 6.0; rate <= 26.0; rate += 4.0)
        segments.push_back({1200.0, rate});
    const double duration = 1200.0 * segments.size();

    const auto makeBundle = [segments, duration] {
        workload::ScenarioWorkload bundle;
        auto gen = workload::makeDiffusionDB(42);
        for (int i = 0; i < 3000; ++i)
            bundle.warm.push_back(gen->next());
        workload::PiecewiseArrivals arrivals(segments);
        Rng rng(42);
        bundle.trace = workload::buildTraceForDuration(*gen, arrivals,
                                                       duration, rng);
        return bundle;
    };

    baselines::PresetParams params;
    params.numWorkers = 16;
    params.gpu = diffusion::GpuKind::MI210;
    params.cacheCapacity = 4000;

    const std::vector<bench::SystemSpec> lineup = {
        {"Vanilla", baselines::vanilla(diffusion::sd35Large(), params)},
        {"NIRVANA", baselines::nirvana(diffusion::sd35Large(), params)},
        {"MoDM", baselines::modmMulti(diffusion::sd35Large(),
                                      {diffusion::sdxl(),
                                       diffusion::sana()},
                                      params)},
    };
    bench::SweepSpec spec;
    spec.options.title = "Fig. 10";
    for (const auto &system : lineup)
        spec.add(system.name, system.config, makeBundle);
    const auto results = bench::runSweep(spec);

    // Throughput per 4-minute window over the schedule: the per-minute
    // completion buckets re-bucketed by the standardized grouping in
    // obs (byte-identical to the hand-rolled accumulation it replaced).
    Table t({"time (min)", "demand", "Vanilla", "NIRVANA", "MoDM"});
    std::vector<std::vector<double>> perWindow;
    for (const auto &r : results) {
        perWindow.push_back(obs::groupMeans(
            r.metrics.completionsPerMinute(duration), 4));
    }
    const std::size_t windows =
        static_cast<std::size_t>(duration / 240.0);
    for (std::size_t win = 0; win < windows; ++win) {
        std::vector<std::string> row;
        row.push_back(Table::fmt(static_cast<std::uint64_t>(win * 4)));
        const double mid = win * 240.0 + 120.0;
        row.push_back(Table::fmt(
            segments[std::min<std::size_t>(mid / 1200.0,
                                           segments.size() - 1)]
                .ratePerMin,
            0));
        for (const auto &series : perWindow)
            row.push_back(Table::fmt(series[win], 1));
        t.addRow(row);
    }
    t.print("Fig. 10 — throughput under increasing request rate "
            "(16x MI210, demand 6->26/min)");

    // MoDM's small-model switch (the SDXL -> SANA escalation).
    Table alloc({"time (min)", "num large", "small model"});
    const auto &modm = results.back();
    for (std::size_t i = 0; i < modm.allocations.size(); ++i) {
        const auto &snap = modm.allocations[i];
        if (i % 5 == 0 || i + 1 == modm.allocations.size()) {
            alloc.addRow({Table::fmt(snap.time / 60.0, 0),
                          Table::fmt(static_cast<std::uint64_t>(
                              snap.numLarge)),
                          snap.smallModelIndex == 0 ? "SDXL" : "SANA"});
        }
    }
    alloc.print("Fig. 10 — MoDM allocation timeline (paper: switches "
                "SDXL -> SANA beyond ~22 req/min)");
    return 0;
}
