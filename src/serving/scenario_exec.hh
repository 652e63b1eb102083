/**
 * @file
 * Scenario execution: runs a parsed workload::Scenario cell on the
 * serving stack.
 *
 * A scenario already speaks serving's types (src/workload/scenario.hh):
 * its params are ServingConfig values and its ops compile to a
 * FaultPlan and a KnobPlan. This module layers a cell onto the
 * baseline presets (so a cell that names a preset system is
 * byte-identical to the hand-built config it replaces), installs the
 * two plans, runs the cell, and holds the streamed-cache runner that
 * reproduces the Fig. 6 hit-rate loop and the quality scorer behind
 * `report quality` — the parts that need presets, caches and metrics,
 * which the grammar does not.
 *
 * bench/run_scenario and the test suite both execute cells through
 * these entry points, which is what lets tests pin a scenario's
 * resultDigest against a hand-built config.
 */

#ifndef MODM_SERVING_SCENARIO_EXEC_HH
#define MODM_SERVING_SCENARIO_EXEC_HH

#include <vector>

#include "src/eval/metrics.hh"
#include "src/serving/config.hh"
#include "src/serving/system.hh"
#include "src/workload/scenario.hh"

namespace modm::serving {

/**
 * Build the full ServingConfig for one resolved scenario cell: the
 * preset named by the cell's system (with the cell's large/small
 * models, workers, GPU, cache capacity, and the scenario seed), then
 * the cluster and eviction knobs, and the scenario's faultPlan() and
 * knobPlan(). A cell that keeps every header default reproduces the
 * preset verbatim. Outputs are kept exactly when the scenario reports
 * quality, the one report that scores them.
 */
ServingConfig scenarioCellConfig(const workload::Scenario &scenario,
                                 const workload::ScenarioCell &cell);

/**
 * Run one serving-mode cell: build the scenario workload, warm the
 * caches when the scenario asks for it, and replay the trace. Each
 * call is an independent experiment (cells share nothing), so cells
 * may run concurrently under the sweep engine. `trace` layers an
 * observability configuration (event recording, .mtrace output path)
 * over the cell; the default leaves everything off and the result
 * digest-identical to an untraced run. A cell that keeps outputs
 * returns the trace it built as the result's promptOwner.
 */
ServingResult runScenarioCell(const workload::Scenario &scenario,
                              const workload::ScenarioCell &cell,
                              const obs::TraceConfig &trace = {});

/**
 * Score one cell's kept outputs (report quality): the metric suite
 * against reference generations from the cell's `large` model. That
 * is the model named in the scenario, not the config's large slot,
 * which a standalone-small cell fills with its small model.
 */
eval::QualityReport scoreScenarioCell(const workload::ScenarioCell &cell,
                                      const ServingResult &result);

/**
 * Run one cache-stream cell: the streamed cache simulation of Fig. 6
 * (classify each prompt against an ImageCache, admit the simulated
 * generation, report the hit rate per window of `scenario.window`
 * requests). Uses the cell's cache capacity / eviction policy and
 * models, the scenario's dataset and seed, and the scenario's sampler
 * seed for the refinement substrate.
 */
std::vector<double>
runScenarioCacheStream(const workload::Scenario &scenario,
                       const workload::ScenarioCell &cell);

} // namespace modm::serving

#endif // MODM_SERVING_SCENARIO_EXEC_HH
