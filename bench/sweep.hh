/**
 * @file
 * Declarative experiment sweeps for the figure/table binaries.
 *
 * Every bench binary used to hand-roll the same loop: build a
 * (system × dataset × knob) line-up, run one ServingSystem per cell on
 * one core, tabulate. runSweep()/runCells() replace that boilerplate
 * with a declarative cell list executed *concurrently* on a few
 * threads — experiments are share-nothing (each cell constructs its
 * own workload and system from its config seed), so a sweep at
 * parallelism N produces bit-identical results to parallelism 1, just
 * N-ish times faster. Results always come back in cell-declaration
 * order and tables are rendered only after every cell finished, which
 * keeps stdout byte-identical across parallelism levels (per-cell
 * progress goes to stderr).
 *
 * Two environment knobs, and nothing else, set how a sweep runs (so CI
 * can pin determinism without rebuilding):
 *   MODM_SWEEP_PARALLELISM  0 or unset = one cell per usable CPU,
 *                           1 = serial, N = at most N cells in flight.
 *   MODM_SWEEP_PROGRESS     0 silences the stderr progress lines, 1 or
 *                           unset prints them.
 * PARALLELISM takes a decimal integer >= 0 and PROGRESS takes 0 or 1;
 * any other value is a fatal error naming the knob, so a typo in a CI
 * step cannot silently change what it measures.
 *
 * A cell's workload is a workload::ScenarioWorkload: built by
 * buildScenarioWorkload from a Scenario that sets only its size (warm,
 * requests, rate), or filled in by hand where a binary has its own
 * arrival schedule or arrival seed. Experiments are scaled
 * down from the paper's 10k-request / 16-GPU runs so the full bench
 * suite completes in minutes on one CPU core; every binary prints the
 * scale it used. Normalized results (speedups, hit rates, violation
 * rates) are scale-robust, which is what the paper's figures report.
 */

#ifndef MODM_BENCH_SWEEP_HH
#define MODM_BENCH_SWEEP_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/baselines/presets.hh"
#include "src/common/cpus.hh"
#include "src/common/log.hh"
#include "src/common/parse.hh"
#include "src/common/table.hh"
#include "src/eval/metrics.hh"
#include "src/serving/system.hh"
#include "src/workload/scenario.hh"

namespace modm::bench {

/** Execution options for one sweep. */
struct SweepOptions
{
    /** Shown in progress lines, e.g. "Fig. 7". */
    std::string title;
};

/**
 * Cells in flight at once, from MODM_SWEEP_PARALLELISM: one per usable
 * CPU (usableCpus(), the affinity mask) when unset or 0.
 */
inline std::size_t
resolveSweepParallelism()
{
    std::uint64_t parallelism = 0;
    const char *env = std::getenv("MODM_SWEEP_PARALLELISM");
    if (env != nullptr && !parseDecimal(env, parallelism))
        fatal("invalid MODM_SWEEP_PARALLELISM=%s (expected a decimal "
              "integer >= 0)",
              env);
    return parallelism == 0 ? usableCpus()
                            : static_cast<std::size_t>(parallelism);
}

/**
 * Per-cell progress lines on stderr, from MODM_SWEEP_PROGRESS: on when
 * unset.
 */
inline bool
resolveSweepProgress()
{
    const char *env = std::getenv("MODM_SWEEP_PROGRESS");
    if (env == nullptr)
        return true;
    if (std::strcmp(env, "0") == 0 || std::strcmp(env, "1") == 0)
        return env[0] == '1';
    fatal("invalid MODM_SWEEP_PROGRESS=%s (expected 0 or 1)", env);
}

/**
 * Run every cell function concurrently (capped by
 * MODM_SWEEP_PARALLELISM) and return their results in cell order. The
 * engine is generic over the result type so binaries with bespoke
 * measurements (streamed cache simulations, quality evaluations) use
 * the same scheduler as full serving runs.
 *
 * Cells must be share-nothing: no mutable state reachable from two
 * cells, results derived only from the cell's own inputs.
 */
template <typename R>
std::vector<R>
runCells(std::vector<std::function<R()>> cells,
         const SweepOptions &options = {},
         const std::vector<std::string> &labels = {})
{
    MODM_ASSERT(labels.empty() || labels.size() == cells.size(),
                "sweep labels must align with cells");
    const std::size_t n = cells.size();
    std::vector<R> results(n);
    if (n == 0)
        return results;

    const bool progress = resolveSweepProgress();
    const std::size_t parallelism = std::min(resolveSweepParallelism(), n);
    const auto started = std::chrono::steady_clock::now();

    std::mutex progressMutex;
    std::atomic<std::size_t> nextCell{0};
    std::atomic<std::size_t> doneCells{0};
    const auto runOne = [&](std::size_t i) {
        const auto cellStarted = std::chrono::steady_clock::now();
        results[i] = cells[i]();
        const std::size_t done = ++doneCells;
        if (progress) {
            // Per-cell wall time alongside the sweep total, so every
            // figure binary reports where time goes without a profiler.
            const auto now = std::chrono::steady_clock::now();
            const double cellElapsed =
                std::chrono::duration<double>(now - cellStarted)
                    .count();
            const double elapsed =
                std::chrono::duration<double>(now - started).count();
            std::lock_guard<std::mutex> lock(progressMutex);
            std::fprintf(stderr,
                         "[%s] %zu/%zu done%s%s (cell %.1fs, "
                         "total %.1fs)\n",
                         options.title.empty() ? "sweep"
                                               : options.title.c_str(),
                         done, n, labels.empty() ? "" : ": ",
                         labels.empty() ? "" : labels[i].c_str(),
                         cellElapsed, elapsed);
        }
    };

    if (parallelism <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            runOne(i);
        return results;
    }

    // Pullers claim cells from a shared counter: at most `parallelism`
    // cells in flight, no idle tail when cell costs are skewed. The
    // caller runs one puller itself; the others hold a CPU each, so a
    // cell's crew helpers (crew.hh) take only CPUs left over.
    const CpuClaim cpus(parallelism - 1);
    const auto puller = [&] {
        for (;;) {
            const std::size_t i = nextCell.fetch_add(1);
            if (i >= n)
                return;
            runOne(i);
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(parallelism - 1);
    for (std::size_t t = 1; t < parallelism; ++t)
        threads.emplace_back(puller);
    puller();
    for (auto &thread : threads)
        thread.join();
    return results;
}

/** A named system configuration for a comparison line-up. */
struct SystemSpec
{
    std::string name;
    serving::ServingConfig config;
};

/**
 * Run one system over a workload (fresh system per call). The workload
 * is taken by value: with keepOutputs its trace moves into the result
 * (promptOwner), which the kept prompts refer to.
 */
inline serving::ServingResult
runSystem(const serving::ServingConfig &config,
          workload::ScenarioWorkload workload)
{
    serving::ServingSystem system(config);
    if (!workload.warm.empty())
        system.warmCache(workload.warm);
    return system.run(std::make_shared<const workload::Trace>(
        std::move(workload.trace)));
}

/** One declarative serving experiment: label, config, workload. */
struct SweepCell
{
    /** Row label, e.g. "MoDM-SDXL" or "DiffusionDB/rate=6". */
    std::string label;
    /** Full system configuration (carries the experiment seed). */
    serving::ServingConfig config;
    /**
     * Builds the cell's workload *inside* the cell so concurrent
     * experiments share nothing; generators are seeded, so rebuilt
     * workloads are identical run to run.
     */
    std::function<workload::ScenarioWorkload()> bundle;
};

/**
 * A declarative sweep over serving experiments: the cartesian
 * system × dataset × knob grid a figure explores, flattened into
 * cells in row order.
 */
struct SweepSpec
{
    SweepOptions options;
    std::vector<SweepCell> cells;

    /** Append one cell; runSweep() returns results in add() order. */
    void add(std::string label, serving::ServingConfig config,
             std::function<workload::ScenarioWorkload()> bundle)
    {
        cells.push_back(
            {std::move(label), std::move(config), std::move(bundle)});
    }
};

/**
 * Execute every cell of the spec (warm cache from the workload, replay
 * its trace) and return the ServingResults in cell order.
 */
inline std::vector<serving::ServingResult>
runSweep(const SweepSpec &spec)
{
    std::vector<std::function<serving::ServingResult()>> cells;
    std::vector<std::string> labels;
    cells.reserve(spec.cells.size());
    labels.reserve(spec.cells.size());
    for (const auto &cell : spec.cells) {
        labels.push_back(cell.label);
        cells.push_back([&cell] {
            return runSystem(cell.config, cell.bundle());
        });
    }
    return runCells(std::move(cells), spec.options, labels);
}

/**
 * Split [0, total) into `parts` contiguous ranges (first..last), for
 * porting streamed measurements to cells. The split is a fixed
 * function of (total, parts) — never of the machine — so chunked
 * results are identical on any host at any parallelism.
 */
inline std::vector<std::pair<std::size_t, std::size_t>>
splitRange(std::size_t total, std::size_t parts)
{
    MODM_ASSERT(parts > 0, "splitRange needs at least one part");
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    ranges.reserve(parts);
    for (std::size_t p = 0; p < parts; ++p) {
        const std::size_t lo = total * p / parts;
        const std::size_t hi = total * (p + 1) / parts;
        if (lo < hi)
            ranges.emplace_back(lo, hi);
    }
    return ranges;
}

} // namespace modm::bench

#endif // MODM_BENCH_SWEEP_HH
