/**
 * @file
 * Paper Fig. 17 (appendix A.3): throughput over time under a
 * fluctuating request rate.
 *
 * Paper shape: MoDM tracks the demand curve through peaks and troughs;
 * Vanilla and Nirvana lag during peaks and keep draining queued
 * backlog during the following troughs.
 */

#include <cstdio>

#include "bench/sweep.hh"

using namespace modm;

int
main()
{
    // An up-down-up-down demand curve (requests/min), 16 min segments.
    const std::vector<workload::RateSegment> segments = {
        {960.0, 6.0},  {960.0, 18.0}, {960.0, 10.0}, {960.0, 24.0},
        {960.0, 8.0},  {960.0, 20.0}, {960.0, 6.0},
    };
    const double duration = 960.0 * segments.size();

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
    spec.options.title = "Fig. 17";
    for (const auto &system : lineup)
        spec.add(system.name, system.config, makeBundle);
    const auto results = bench::runSweep(spec);

    std::vector<std::vector<double>> perMin;
    for (const auto &result : results)
        perMin.push_back(
            result.metrics.completionsPerMinute(result.duration));

    Table t({"time (min)", "demand", "Vanilla", "NIRVANA", "MoDM"});
    const std::size_t windows =
        static_cast<std::size_t>(duration / 240.0);
    for (std::size_t win = 0; win < windows; ++win) {
        std::vector<std::string> row;
        row.push_back(Table::fmt(static_cast<std::uint64_t>(win * 4)));
        const double mid = win * 240.0 + 120.0;
        row.push_back(Table::fmt(
            segments[std::min<std::size_t>(mid / 960.0,
                                           segments.size() - 1)]
                .ratePerMin,
            0));
        for (const auto &series : perMin) {
            double acc = 0.0;
            for (std::size_t m = win * 4;
                 m < std::min<std::size_t>((win + 1) * 4, series.size());
                 ++m)
                acc += series[m];
            row.push_back(Table::fmt(acc / 4.0, 1));
        }
        t.addRow(row);
    }
    t.print("Fig. 17 — throughput under fluctuating request rates "
            "(16x MI210)");
    return 0;
}
