/**
 * @file
 * Paper Fig. 14: the quality-performance trade-off space — FID vs
 * 1/throughput for the serving strategies and several MoDM runtime
 * configurations (small-model choice, admission policy, cache size,
 * threshold shift). The large model is FLUX, dataset DiffusionDB.
 *
 * Paper shape: MoDM configurations populate the Pareto frontier
 * between the fast/low-quality standalone small models and the
 * slow/high-quality FLUX baseline.
 */

#include <cstdio>

#include "bench/sweep.hh"

using namespace modm;

namespace {

struct ParetoPoint
{
    double throughput = 0.0;
    double fid = 0.0;
    double clip = 0.0;
};

} // namespace

int
main()
{
    constexpr std::size_t kWarm = 2000;
    constexpr std::size_t kRequests = 2000;

    baselines::PresetParams params;
    params.numWorkers = 4;
    params.cacheCapacity = 2000;
    params.keepOutputs = true;

    const auto large = diffusion::flux1Dev();

    std::vector<bench::SystemSpec> lineup = {
        {"FLUX", baselines::vanilla(large, params)},
        {"NIRVANA", baselines::nirvana(large, params)},
        {"Pinecone", baselines::pinecone(large, params)},
        {"SDXL", baselines::standalone(diffusion::sdxl(), params)},
        {"SD3.5L-Turbo",
         baselines::standalone(diffusion::sd35LargeTurbo(), params)},
        {"MoDM-SDXL-cachelarge",
         baselines::modm(large, diffusion::sdxl(), params)},
        {"MoDM-SANA-cachelarge",
         baselines::modm(large, diffusion::sana(), params)},
        {"MoDM-Turbo-cachelarge",
         baselines::modm(large, diffusion::sd35LargeTurbo(), params)},
        {"MoDM-Turbo-cacheall",
         baselines::modm(large, diffusion::sd35LargeTurbo(), params)},
        {"MoDM-Turbo-cachelarge-5k",
         baselines::modm(large, diffusion::sd35LargeTurbo(), params)},
        {"MoDM-Turbo-cachelarge-thr+0.01",
         baselines::modm(large, diffusion::sd35LargeTurbo(), params)},
    };
    // Configure the MoDM variants (paper's runtime parameters).
    for (auto &spec : lineup) {
        if (spec.name.find("cachelarge") != std::string::npos)
            spec.config.admission =
                serving::AdmissionPolicy::CacheLargeOnly;
    }
    lineup[9].config.cacheCapacity = 1000;   // "5k" scaled like others
    for (auto &floor : lineup[10].config.kDecision.floors)
        floor += 0.01;                       // threshold +0.01

    // Each cell runs serving *and* quality evaluation (reference
    // generations + FID/CLIP), so the expensive metric passes fan out
    // with the experiments.
    std::vector<std::function<ParetoPoint()>> cells;
    std::vector<std::string> labels;
    for (const auto &spec : lineup) {
        labels.push_back(spec.name);
        cells.push_back([config = spec.config, large] {
            const auto result = bench::runSystem(
                config, workload::buildScenarioWorkload(
                            {.warm = kWarm, .requests = kRequests}));
            const auto reference =
                eval::referenceImages(result.prompts, large);
            eval::MetricSuite metrics;
            const auto q = metrics.report(result.prompts, result.images,
                                          reference);
            return ParetoPoint{result.throughputPerMin, q.fid, q.clip};
        });
    }
    bench::SweepOptions options;
    options.title = "Fig. 14";
    const auto points =
        bench::runCells(std::move(cells), options, labels);

    Table t({"strategy", "throughput/min", "1/throughput", "FID",
             "CLIP"});
    for (std::size_t i = 0; i < lineup.size(); ++i) {
        t.addRow({lineup[i].name, Table::fmt(points[i].throughput),
                  Table::fmt(1.0 / points[i].throughput, 3),
                  Table::fmt(points[i].fid, 1),
                  Table::fmt(points[i].clip)});
    }
    t.print("Fig. 14 — quality/performance trade-off space (FLUX "
            "large model, DiffusionDB; lower-left is better)");
    return 0;
}
