/**
 * @file
 * Scenario DSL: declarative, seeded workload + experiment scripts.
 *
 * Every workload we study used to be a hard-coded C++ grid in bench/;
 * scenario diversity cost a recompile. A Scenario is the data-file
 * equivalent: a line-oriented header (name, seed, traffic shape,
 * cluster/cache/retrieval knobs), an ordered op timeline (arrival
 * ramps, diurnal cycles, flash crowds, topic drift, regional skew,
 * scripted node faults, and knob changes at time t), and a cell list
 * (the sweep axis: per-cell overrides of the header knobs).
 *
 * Scenarios are *reviewable data*: parsing is strict (every error is
 * reported as "file:line: message", never an assert or a silent
 * default), re-serialization is canonical (parse -> print -> parse is
 * a fixpoint), and scenarioDigest() is an FNV-1a hash of the canonical
 * text, so two scenarios are semantically equal iff their digests
 * match. bench/run_scenario executes any scenario file through the
 * sweep engine; the scenario-goldens CI job pins every checked-in
 * scenario's digest and output.
 *
 * Scenarios speak the serving stack's vocabulary: a cell's params are
 * the ServingConfig's own types, and the fault and knob ops compile to
 * the FaultPlan and KnobPlan it runs (faultPlan(), knobPlan()), which
 * the parser checks with the serving checkers (firstPlanViolation,
 * firstKnobViolation). This module owns the grammar and the workload
 * a scenario replays; src/serving/scenario_exec.hh layers a cell onto
 * the baseline presets and runs it.
 */

#ifndef MODM_WORKLOAD_SCENARIO_HH
#define MODM_WORKLOAD_SCENARIO_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/hash.hh"
#include "src/serving/config.hh"
#include "src/workload/trace.hh"

namespace modm::workload {

/** How a scenario executes (what run_scenario does with a cell). */
enum class ScenarioMode
{
    Serving,     ///< full ServingSystem run over the scenario trace
    CacheStream, ///< streamed cache simulation (Fig. 6 fidelity)
};

/** Which prompt-stream generator feeds the scenario. */
enum class ScenarioDataset
{
    DiffusionDB,
    MJHQ,
};

/** Which table run_scenario renders. */
enum class ScenarioReport
{
    Table,    ///< generic serving table, one row per cell
    HitCurve, ///< windowed hit-rate curve, one column per cell
    Energy,   ///< energy/request vs the first cell (Fig. 18 format)
    /** Throughput normalized to the first cell (Figs. 7-8 format). */
    Throughput,
    /** CLIP/FID/IS/Pick vs the large model (Tables 2-3 format). */
    Quality,
};

/** One timeline entry; field meaning depends on kind. */
struct ScenarioOp
{
    enum class Kind
    {
        Rate,    ///< base rate becomes `rate` from `time` on
        Ramp,    ///< base rate ramps to `rate` over `duration`, `steps`
        Flash,   ///< rate multiplied by `factor` during [time, +dur)
        Diurnal, ///< base + amp * sin over [time, +dur), `steps` segs
        Drift,   ///< prompt stream crossfades to seed over [time, +dur)
        Region,  ///< regional generator `region` weight set to `weight`
        Fault,   ///< node fault at `time`
        Knob,    ///< serving knob change at `time`
    };

    Kind kind = Kind::Rate;
    /** Virtual time (seconds) the op starts. */
    double time = 0.0;
    /** Rate target (requests/minute): Rate, Ramp. */
    double rate = 0.0;
    /** Window length (seconds): Ramp, Flash, Diurnal, Drift. */
    double duration = 0.0;
    /** Discretization segments: Ramp, Diurnal. */
    std::size_t steps = 0;
    /** Rate multiplier: Flash. */
    double factor = 1.0;
    /** Sinusoid parameters: Diurnal. */
    double base = 0.0;
    double amplitude = 0.0;
    double period = 0.0;
    /** Target generator seed: Drift. */
    std::uint64_t driftSeed = 0;
    /** Regional generator index (>= 1): Region. */
    std::size_t region = 0;
    /** Mixture weight in [0, 1]: Region. */
    double weight = 0.0;
    /** Fault target and kind: Fault. */
    std::size_t node = 0;
    serving::FaultKind fault = serving::FaultKind::Kill;
    /** Knob change: Knob (knobPlan() stamps it with the op's time). */
    serving::KnobEvent knob;
    /** 1-based source line (0 for programmatically built ops). */
    int line = 0;
};

/** The per-cell system knobs (header defaults, overridable per cell). */
struct ScenarioParams
{
    serving::SystemKind system = serving::SystemKind::MoDM;
    diffusion::ModelSpec large = diffusion::sd35Large();
    /** Small-model escalation list; empty for baselines without one. */
    std::vector<diffusion::ModelSpec> small = {diffusion::sdxl()};
    std::size_t workers = 4;
    diffusion::GpuKind gpu = diffusion::GpuKind::A40;
    std::size_t cache = 10000;
    cache::EvictionPolicy eviction = cache::EvictionPolicy::FIFO;
    std::size_t nodes = 1;
    serving::RoutingPolicy routing = serving::RoutingPolicy::RoundRobin;
    serving::CachePartitioning partitioning =
        serving::CachePartitioning::Sharded;
    std::size_t replicas = 2;
    // The `retrieval` key accepts only `flat` and prints it back, so
    // it needs no field.
};

/** One sweep cell: a labeled override of the header params. */
struct ScenarioCell
{
    /** Row/column label in the rendered table. */
    std::string label;
    /**
     * Reference annotation: the energy and throughput reports' "paper"
     * column, or `<clip>,<fid>` under the quality report.
     */
    std::string paper;
    /** Fully resolved params (header + overrides). */
    ScenarioParams params;
    /** Which keys the cell overrode (canonical print emits only these). */
    std::vector<std::string> overridden;
};

/**
 * A parsed scenario. Every member has a default, so code can build one
 * with designated initializers that name only what it sets.
 */
struct Scenario
{
    /** Identifier ([A-Za-z0-9_-]+). */
    std::string name = {};
    /** Experiment seed (generators, arrivals, serving substrate). */
    std::uint64_t seed = 42;
    ScenarioMode mode = ScenarioMode::Serving;
    ScenarioDataset dataset = ScenarioDataset::DiffusionDB;
    /** Header defaults for every cell. */
    ScenarioParams params = {};
    /** Warm-up prompts admitted before the trace replays. */
    std::size_t warm = 0;
    /** Trace length; exactly one of requests/duration is set. */
    std::size_t requests = 0;
    /** Trace duration in seconds (alternative to requests). */
    double duration = 0.0;
    /** Base Poisson rate (requests/minute); 0 = batch (all at t=0). */
    double rate = 0.0;
    /** Hit-rate report window, in requests (CacheStream / HitCurve). */
    std::size_t window = 2000;
    /** Sampler seed of the CacheStream substrate (Fig. 6 uses 7). */
    std::uint64_t samplerSeed = 7;
    /** Failover-analysis trailing window (fault scenarios). */
    std::size_t recoveryWindow = 100;
    ScenarioReport report = ScenarioReport::Table;
    /** Rendered table title (empty = derived from the name). */
    std::string title = {};
    /** Ordered, time-sorted op timeline. */
    std::vector<ScenarioOp> ops = {};
    /** Sweep cells; empty = one implicit cell labeled `name`. */
    std::vector<ScenarioCell> cells = {};

    /** Cell count run_scenario executes (>= 1). */
    std::size_t cellCount() const
    {
        return cells.empty() ? 1 : cells.size();
    }

    /** Cell `i`, materializing the implicit cell when none declared. */
    ScenarioCell cell(std::size_t i) const;

    /** True when any op mixes prompt sources (drift / regions). */
    bool mixesSources() const;

    /** The fault ops as a plan, with the scenario's recovery window. */
    serving::FaultPlan faultPlan() const;

    /** The knob ops as a plan. */
    serving::KnobPlan knobPlan() const;
};

/**
 * Parse a scenario. On success returns an empty string and fills
 * `out`; on failure returns a "<filename>:<line>: message" diagnostic
 * and leaves `out` unspecified. Never asserts on malformed input.
 */
std::string parseScenario(std::istream &in, const std::string &filename,
                          Scenario &out);

/** Parse or fatal() with the file:line diagnostic. */
Scenario parseScenarioOrDie(std::istream &in,
                            const std::string &filename);

/** Load a scenario file; fatal() on I/O or parse errors. */
Scenario loadScenarioFile(const std::string &path);

/**
 * Canonical serialization: every header field (defaults included) in
 * fixed order, then ops, then cells. parse(print(s)) reproduces the
 * same canonical text (the fixpoint pinned by the test suite), so
 * canonical scenarios diff cleanly under review.
 */
std::string canonicalScenario(const Scenario &scenario);

/** Write the canonical serialization. */
void printScenario(const Scenario &scenario, std::ostream &out);

/** FNV-1a 64-bit hash (the digest primitive, exposed for reuse). */
using modm::fnv1a64;

/**
 * Semantic digest: FNV-1a over the canonical serialization. Stable
 * across formatting, comments, and header-line order of the source
 * file; changes iff the scenario's meaning changes.
 */
std::uint64_t scenarioDigest(const Scenario &scenario);

/**
 * Compile the arrival ops (rate / ramp / flash / diurnal) into the
 * piecewise-constant schedule PiecewiseArrivals replays: base-rate
 * curve segments overlaid with multiplicative flash windows. The final
 * segment's rate holds forever. Only valid for rate > 0 scenarios.
 */
std::vector<RateSegment> scenarioRateSchedule(const Scenario &scenario);

/** The prompt generator of `dataset`, seeded with `seed`. */
std::unique_ptr<TraceGenerator> makeGenerator(ScenarioDataset dataset,
                                              std::uint64_t seed);

/** Warm prompts plus the request trace one scenario replays. */
struct ScenarioWorkload
{
    std::vector<Prompt> warm;
    Trace trace;
};

/**
 * Build the scenario's workload: warm prompts come from the base
 * generator; trace prompts come from the (possibly drift/region-mixed)
 * generator set, timestamped by the compiled rate schedule (or all at
 * t=0 when rate is 0). Prompt ids are stamped sequentially across
 * warm + trace, which for a single-source scenario is exactly the
 * generator's own numbering; arrivals draw from an rng seeded with
 * seed ^ 0xa441a15. A Scenario that sets only warm, requests and rate
 * (plus dataset or seed) is a plain Poisson or batch workload; most
 * bench binaries and serving tests build theirs that way.
 */
ScenarioWorkload buildScenarioWorkload(const Scenario &scenario);

} // namespace modm::workload

#endif // MODM_WORKLOAD_SCENARIO_HH
