/**
 * @file
 * Paper Figs. 12 & 13 (SLO violation rates for SLO thresholds of 2x
 * and 4x the large model's inference latency) and Fig. 16 (appendix
 * A.2: p99 tail latency), all vs request rate on 4x A40 and 16x MI210
 * clusters. One sweep of 42 cells feeds all four tables.
 *
 * Paper shape: Vanilla and Nirvana collapse past ~5 req/min (A40) /
 * ~14 req/min (MI210), where their p99 blows past 1000 s; MoDM stays
 * compliant up to ~10 (A40) and ~22-26 (MI210), and its p99 stays low
 * up to ~10 req/min (A40) and 20+ req/min (MI210).
 */

#include "bench/sweep.hh"

using namespace modm;

namespace {

constexpr std::size_t kRequests = 1200;

/** One cluster shape and the request rates swept on it. */
struct Cluster
{
    std::size_t gpus;
    diffusion::GpuKind kind;
    std::vector<double> rates;
    const char *label;
};

/** Vanilla / NIRVANA / MoDM at every rate of the cluster. */
void
addCluster(bench::SweepSpec &spec, const Cluster &cluster)
{
    baselines::PresetParams params;
    params.numWorkers = cluster.gpus;
    params.gpu = cluster.kind;
    params.cacheCapacity = 3000;
    const std::vector<bench::SystemSpec> lineup = {
        {"Vanilla", baselines::vanilla(diffusion::sd35Large(), params)},
        {"NIRVANA", baselines::nirvana(diffusion::sd35Large(), params)},
        {"MoDM", baselines::modmMulti(diffusion::sd35Large(),
                                      {diffusion::sdxl(),
                                       diffusion::sana()},
                                      params)},
    };
    for (const double rate : cluster.rates) {
        for (const auto &system : lineup) {
            spec.add(system.name + "@" + Table::fmt(rate, 0),
                     system.config, [rate] {
                         return workload::buildScenarioWorkload(
                             {.warm = 2500, .requests = kRequests,
                              .rate = rate});
                     });
        }
    }
}

void
printSlo(const std::vector<serving::ServingResult> &results,
         std::size_t offset, const Cluster &cluster)
{
    const double largeLatency =
        diffusion::sd35Large().fullLatency(cluster.kind);
    Table t({"rate/min", "Vanilla 2x", "NIRVANA 2x", "MoDM 2x",
             "Vanilla 4x", "NIRVANA 4x", "MoDM 4x"});
    for (std::size_t r = 0; r < cluster.rates.size(); ++r) {
        std::vector<std::string> row = {Table::fmt(cluster.rates[r], 0)};
        for (const double slo : {2.0, 4.0}) {
            for (std::size_t s = 0; s < 3; ++s) {
                row.push_back(Table::fmt(
                    results[offset + r * 3 + s]
                        .metrics.sloViolationRate(slo * largeLatency)));
            }
        }
        t.addRow(row);
    }
    t.print(std::string("Figs. 12/13 — SLO violation rate, ") +
            cluster.label + " (1200 requests per point)");
}

void
printTail(const std::vector<serving::ServingResult> &results,
          std::size_t offset, const Cluster &cluster)
{
    Table t({"rate/min", "Vanilla p99 (s)", "NIRVANA p99 (s)",
             "MoDM p99 (s)"});
    for (std::size_t r = 0; r < cluster.rates.size(); ++r) {
        std::vector<std::string> row = {Table::fmt(cluster.rates[r], 0)};
        for (std::size_t s = 0; s < 3; ++s) {
            row.push_back(Table::fmt(
                results[offset + r * 3 + s].metrics.latencyPercentile(
                    99.0),
                0));
        }
        t.addRow(row);
    }
    t.print(std::string("Fig. 16 — p99 tail latency, ") + cluster.label);
}

} // namespace

int
main()
{
    const std::vector<Cluster> clusters = {
        {4, diffusion::GpuKind::A40,
         {3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0}, "4x NVIDIA A40"},
        {16, diffusion::GpuKind::MI210,
         {6.0, 10.0, 14.0, 18.0, 22.0, 26.0}, "16x AMD MI210"},
    };

    bench::SweepSpec spec;
    spec.options.title = "Figs. 12/13/16";
    for (const auto &cluster : clusters)
        addCluster(spec, cluster);
    const auto results = bench::runSweep(spec);

    // Both SLO tables first, then both tail-latency tables.
    std::size_t offset = 0;
    for (const auto &cluster : clusters) {
        printSlo(results, offset, cluster);
        offset += cluster.rates.size() * 3;
    }
    offset = 0;
    for (const auto &cluster : clusters) {
        printTail(results, offset, cluster);
        offset += cluster.rates.size() * 3;
    }
    return 0;
}
