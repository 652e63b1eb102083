/**
 * @file
 * Global Monitor: dynamic GPU allocation between large and small models
 * (paper §5.3, Algorithm 1).
 *
 * Every monitoring period the monitor receives the measured request rate
 * R, cache hit rate H, and refinement-step distribution P(K = k), and
 * produces the number of workers that should host the large model. Two
 * modes:
 *
 *  - Quality-Optimized: maximise the number of large models subject to
 *    the cache-miss throughput constraint (Eq. 7) and the combined
 *    cache-hit throughput constraint (Eq. 9).
 *  - Throughput-Optimized: all hits go to the small model; balance
 *    allocation by the weighted workload ratio (Eqs. 11-12).
 *
 * A PID controller (paper gains 0.6 / 0.05 / 0.05) damps the heuristic
 * output so allocation moves gradually. The monitor also picks which
 * small model to use from a quality-ordered candidate list: it selects
 * the highest-quality small model that can still meet the measured load,
 * escalating to faster models under pressure (the SDXL -> SANA switch in
 * Fig. 10).
 */

#ifndef MODM_SERVING_MONITOR_HH
#define MODM_SERVING_MONITOR_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "src/serving/pid.hh"

namespace modm::serving {

/** Monitor operating mode (paper §5.3). */
enum class MonitorMode
{
    QualityOptimized,
    ThroughputOptimized,
};

/** Printable mode name. */
const char *monitorModeName(MonitorMode mode);

/** Measured inputs for one monitoring period. */
struct MonitorInputs
{
    /** Request rate R over the last period (requests/minute). */
    double requestRate = 0.0;
    /** Cache hit rate H over the last period, in [0, 1]. */
    double hitRate = 0.0;
    /**
     * Distribution of refinement steps: (k, fraction of hits) pairs in
     * ascending k, one per k seen.
     */
    std::vector<std::pair<int, double>> kRates;
};

/** Monitor output. */
struct Allocation
{
    /** Workers that should host the large model. */
    int numLarge = 1;
    /** Index into the small-model candidate list. */
    std::size_t smallModelIndex = 0;
};

/** Static description of the cluster the monitor controls. */
struct MonitorConfig
{
    /** Total GPU workers N. */
    int numWorkers = 4;
    /** Profiled large-model throughput P_large (req/min/GPU). */
    double pLarge = 1.0;
    /**
     * Profiled full-generation throughput of each small-model
     * candidate, quality-ordered (best first).
     */
    std::vector<double> pSmall = {2.8};
    /** Total de-noising steps T. */
    int totalSteps = 50;
    /** Operating mode. */
    MonitorMode mode = MonitorMode::ThroughputOptimized;
    /** PID gains. */
    PidGains pid = {};
};

/**
 * The global monitor.
 */
class GlobalMonitor
{
  public:
    /** Construct; the initial allocation is all-large. */
    explicit GlobalMonitor(MonitorConfig config);

    /** One monitoring period: consume inputs, produce an allocation. */
    Allocation update(const MonitorInputs &inputs);

    /** Most recent allocation. */
    Allocation current() const { return current_; }

    /**
     * Switch the operating mode mid-run (scripted knob change). The
     * controller state is kept — the next update re-targets under the
     * new mode from the current allocation, like a live mode flip
     * would.
     */
    void setMode(MonitorMode mode) { config_.mode = mode; }

    /** Active operating mode. */
    MonitorMode mode() const { return config_.mode; }

    /**
     * Forget controller history after a node outage (fault rejoin):
     * the PID integral and derivative accumulated against a cluster
     * state that no longer exists, so the next update reacts to fresh
     * measurements only. The current allocation is kept — the node
     * resumes from its last decision, not from cold start.
     */
    void reset();

    /** Cache-miss workload for inputs (full generations / minute). */
    double missWorkload(const MonitorInputs &inputs) const;

    /**
     * Cache-hit workload (Eq. 8): hit rate x R x sum_k P(k) (1 - k/T),
     * in large-model full-generation equivalents per minute.
     */
    double hitWorkload(const MonitorInputs &inputs) const;

    /**
     * Heuristic number of large models for the active mode, before PID
     * damping (Algorithm 1 lines 9-24).
     */
    double heuristicNumLarge(const MonitorInputs &inputs,
                             std::size_t small_index) const;

    /**
     * Whether the cluster can satisfy the measured load using the given
     * small-model candidate (used for small-model escalation).
     */
    bool feasible(const MonitorInputs &inputs,
                  std::size_t small_index) const;

    /** Active configuration. */
    const MonitorConfig &config() const { return config_; }

  private:
    std::size_t chooseSmallModel(const MonitorInputs &inputs) const;

    MonitorConfig config_;
    PidController pid_;
    Allocation current_;
    double currentNumLarge_;  // continuous PID state
};

} // namespace modm::serving

#endif // MODM_SERVING_MONITOR_HH
