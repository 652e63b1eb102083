/**
 * @file
 * Design-choice ablation (paper §5.3): the PID stabiliser on the
 * global monitor.
 *
 * Compares the paper's gains (0.6/0.05/0.05) against a proportional
 * jump controller (kp = 1, ki = kd = 0 — i.e. adopt the heuristic
 * immediately) on a noisy demand trace. The PID should cut allocation
 * flips and model reloads while keeping throughput.
 */

#include <cstdio>

#include "bench/sweep.hh"

using namespace modm;

namespace {

struct AblationRow
{
    double throughput = 0.0;
    std::uint64_t modelSwitches = 0;
    std::uint64_t allocationFlips = 0;
    double p99 = 0.0;
};

AblationRow
toRow(const serving::ServingResult &result)
{
    AblationRow row;
    row.throughput = result.throughputPerMin;
    row.modelSwitches = result.modelSwitches;
    row.p99 = result.metrics.latencyPercentile(99.0);
    for (std::size_t i = 1; i < result.allocations.size(); ++i) {
        row.allocationFlips += result.allocations[i].numLarge !=
            result.allocations[i - 1].numLarge;
    }
    return row;
}

} // namespace

int
main()
{
    // Fast alternation between light and heavy demand — the regime
    // where an undamped controller thrashes.
    std::vector<workload::RateSegment> segments;
    for (int i = 0; i < 10; ++i) {
        segments.push_back({240.0, 6.0});
        segments.push_back({240.0, 22.0});
    }
    const double duration = 240.0 * segments.size();

    const auto makeBundle = [segments, duration] {
        workload::ScenarioWorkload bundle;
        auto gen = workload::makeDiffusionDB(42);
        for (int i = 0; i < 2500; ++i)
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

    bench::SweepSpec spec;
    spec.options.title = "Ablation PID";
    for (const auto &[name, gains] :
         std::vector<std::pair<const char *, serving::PidGains>>{
             {"PID 0.6/0.05/0.05 (paper)",
              {.kp = 0.6, .ki = 0.05, .kd = 0.05}},
             {"proportional jump (kp=1)",
              {.kp = 1.0, .ki = 0.0, .kd = 0.0}}}) {
        auto config = baselines::modmMulti(
            diffusion::sd35Large(),
            {diffusion::sdxl(), diffusion::sana()}, params);
        config.pid = gains;
        spec.add(name, config, makeBundle);
    }
    const auto results = bench::runSweep(spec);
    const auto pid = toRow(results[0]);
    const auto jump = toRow(results[1]);

    Table t({"controller", "throughput/min", "allocation changes",
             "model reloads", "p99 (s)"});
    t.addRow({"PID 0.6/0.05/0.05 (paper)", Table::fmt(pid.throughput),
              Table::fmt(pid.allocationFlips),
              Table::fmt(pid.modelSwitches), Table::fmt(pid.p99, 0)});
    t.addRow({"proportional jump (kp=1)", Table::fmt(jump.throughput),
              Table::fmt(jump.allocationFlips),
              Table::fmt(jump.modelSwitches), Table::fmt(jump.p99, 0)});
    t.print("Ablation — PID damping of the global monitor "
            "(alternating 6/22 req/min demand, 16x MI210)");
    return 0;
}
