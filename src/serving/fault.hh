/**
 * @file
 * Fault injection and failover analysis for multi-node serving.
 *
 * A FaultPlan scripts deterministic node events on the shared virtual
 * clock — the resilience axis the cluster refactor opened:
 *
 *  - Kill: the node dies instantly. In-flight generations abort (their
 *    completion events are cancelled on the EventQueue), queued and
 *    in-flight requests re-route to surviving nodes, and the node's
 *    cache shard is lost (a later Rejoin starts cold).
 *  - Drain: graceful decommission — the node stops admitting new
 *    requests (the router marks it dead) but finishes everything
 *    already assigned and keeps its cache for a later Rejoin.
 *  - Rejoin: the node returns to the routable set. After a Kill it
 *    restarts with an empty cache and reloads models on first use;
 *    after a Drain it resumes exactly where it stopped.
 *
 * The plan is part of ServingConfig, so fault scenarios are sweepable
 * cells like any other axis, and an empty plan is a strict no-op: the
 * serving pipeline takes the exact pre-fault code paths and published
 * results stay byte-identical.
 *
 * analyzeFailover() turns a finished run's request records into the
 * recovery telemetry the ablations plot: hit rate and completion
 * throughput in fixed buckets after the first kill, the time each
 * takes to return to a target fraction (default 95%) of its pre-fault
 * level, and the rerouted-request ledger.
 */

#ifndef MODM_SERVING_FAULT_HH
#define MODM_SERVING_FAULT_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/serving/metrics.hh"

namespace modm::serving {

/** What happens to a node at a fault event. */
enum class FaultKind
{
    Kill,   ///< instant death: abort, re-route, lose the cache shard
    Drain,  ///< stop admitting, finish everything already assigned
    Rejoin, ///< return to the routable set
};

/** Printable fault name. */
const char *faultKindName(FaultKind kind);

/** One scripted node event. */
struct FaultEvent
{
    /** Virtual time (seconds) the event fires. */
    double time = 0.0;
    /** Target node. */
    std::size_t node = 0;
    FaultKind kind = FaultKind::Kill;
};

/**
 * A deterministic fault script plus the knobs of the recovery
 * analysis. Empty plans disable the subsystem entirely.
 */
struct FaultPlan
{
    std::vector<FaultEvent> events;

    /**
     * Trailing-window length, in classifications, of the post-kill
     * hit-rate series the recovery analysis scans. Smooths topic-mix
     * noise; larger windows are steadier but lag true recovery by up
     * to the window's fill time.
     */
    std::size_t recoveryWindow = 100;

    /** Recovered = windowed metric >= target x pre-fault level. */
    double recoveryTarget = 0.95;

    /** True when no events are scripted (the subsystem is a no-op). */
    bool empty() const { return events.empty(); }

    /** Convenience: append an event and return *this for chaining. */
    FaultPlan &add(double time, std::size_t node, FaultKind kind)
    {
        events.push_back({time, node, kind});
        return *this;
    }
};

/** Per-node failover ledger (reported only when a plan is active). */
struct NodeFailoverStats
{
    std::size_t node = 0;
    /** Requests this node lost to re-routing when it was killed. */
    std::uint64_t reroutedOut = 0;
    /** In-flight generations aborted by kills. */
    std::uint64_t abortedJobs = 0;
    /** Cache entries admitted as ring replicas of another node's
     *  generation (Replicated partitioning only). */
    std::uint64_t replicaAdmits = 0;
    /** Total seconds the node was dead (killed, pre-rejoin). */
    double downtimeS = 0.0;
    /** Total seconds the node spent draining (up, not admitting). */
    double drainedS = 0.0;
    /** Closed [down, up) intervals; an unrecovered node's final
     *  interval closes at the run's duration. */
    std::vector<std::pair<double, double>> downIntervals;
};

/** Cluster-level failover outcome of one run. */
struct FailoverReport
{
    /** True when the config carried a non-empty fault plan. */
    bool active = false;
    /** Requests re-routed off killed nodes, cluster-wide. */
    std::uint64_t rerouted = 0;
    /** Time of the first Kill event; -1 when the plan kills nothing. */
    double firstKillTime = -1.0;
    /** Hit rate over completions before the first kill. */
    double preFaultHitRate = 0.0;
    /** Completion throughput (per minute) before the first kill. */
    double preFaultThroughputPerMin = 0.0;
    /**
     * Seconds after the first kill until the hit rate over the
     * trailing recoveryWindow post-kill classifications first reaches
     * recoveryTarget x preFaultHitRate; -1 = never proven within the
     * run ("did not recover"). A cluster that never dips proves
     * recovery as soon as the first window fills.
     */
    double hitRateRecoveryS = -1.0;
    /**
     * The lost-capacity window: seconds after the first kill at which
     * cumulative post-kill completions last trailed recoveryTarget x
     * the cumulative work *arrived* since the kill — i.e. when
     * service finished catching back up with the offered load.
     * Arrivals-anchored (not pre-fault-rate-anchored) so the
     * post-trace queue drain closes the window instead of extending
     * it forever. 0 = service never fell behind; up to
     * (duration - kill) when the deficit is never repaid in-run.
     */
    double lostCapacityS = 0.0;
    /** Per-node ledgers, indexed by node. */
    std::vector<NodeFailoverStats> nodes;
};

/**
 * Compute the recovery half of a FailoverReport from a finished run's
 * records (completion-ordered, as MetricsCollector stores them).
 * Pre-fault levels cover [0, firstKill): hit rate by classification
 * stamp (the hit decision reflects cache state at classification),
 * capacity by completion stamp. Post-kill, the hit rate is scanned
 * over a trailing window of recoveryWindow classifications and the
 * capacity deficit cumulatively. Pure and deterministic — virtual
 * time in, virtual time out. Returns a report with only the recovery
 * fields populated; the caller owns the ledgers. No-op (all defaults)
 * when the plan has no Kill.
 */
FailoverReport analyzeFailover(const MetricsCollector &metrics,
                               const FaultPlan &plan);

/** The first event of a scripted plan that breaks its rules, and why. */
struct PlanViolation
{
    /** Index of the offending event in the plan's `events`. */
    std::size_t event = 0;
    /** What is wrong, e.g. "fault plan targets node 7 of 2". */
    std::string reason;
};

/**
 * The first event that breaks a rule for a cluster of `num_nodes`, or
 * nullopt: nodes in range, times non-negative and non-decreasing, no
 * Kill/Drain of the last admitting node, Kill only of an up node,
 * Drain only of an admitting one, Rejoin only of a dead/draining one.
 */
std::optional<PlanViolation> firstPlanViolation(const FaultPlan &plan,
                                                std::size_t num_nodes);

/**
 * Panic on a firstPlanViolation or out-of-range recovery knobs: plans
 * are authored, not data-driven, so a bad plan is a bug.
 */
void validatePlan(const FaultPlan &plan, std::size_t num_nodes);

} // namespace modm::serving

#endif // MODM_SERVING_FAULT_HH
