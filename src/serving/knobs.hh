/**
 * @file
 * Scripted serving-knob changes on the virtual clock.
 *
 * A KnobPlan is the control-plane sibling of FaultPlan: a deterministic
 * script of mid-run reconfigurations — monitor mode flips, cluster
 * cache-capacity changes (re-sharded across nodes, evicting down), and
 * replication-factor changes — that the scenario subsystem drives from
 * `at <t> set ...` ops. Like FaultPlan, an empty plan is a strict
 * no-op: no knob code runs, no digest lines change, and published
 * results stay byte-identical.
 */

#ifndef MODM_SERVING_KNOBS_HH
#define MODM_SERVING_KNOBS_HH

#include <cstddef>
#include <optional>
#include <vector>

#include "src/serving/fault.hh"
#include "src/serving/monitor.hh"

namespace modm::serving {

enum class CachePartitioning;
struct ServingConfig;

/** Which serving knob an event adjusts. */
enum class KnobTarget
{
    /** Flip every node's monitor between throughput/quality mode. */
    MonitorMode,
    /**
     * Cluster-wide cache capacity (entries). Re-sharded per node with
     * the same shardCapacity split as construction; shrinking evicts
     * down under each shard's own eviction policy.
     */
    CacheCapacity,
    /** Replication factor k under Replicated partitioning. */
    ReplicationFactor,
};

/** Printable knob name. */
const char *knobTargetName(KnobTarget target);

/** One scripted reconfiguration. */
struct KnobEvent
{
    /** Virtual time (seconds) the change applies. */
    double time = 0.0;
    KnobTarget target = KnobTarget::CacheCapacity;
    /** New mode (MonitorMode target only). */
    MonitorMode mode = MonitorMode::ThroughputOptimized;
    /** New capacity or replication factor (integer targets). */
    std::size_t value = 0;
};

/** A deterministic reconfiguration script; empty = subsystem off. */
struct KnobPlan
{
    std::vector<KnobEvent> events;

    /** True when nothing is scripted (the subsystem is a no-op). */
    bool empty() const { return events.empty(); }
};

/**
 * The first event that breaks a rule for a topology, or nullopt: times
 * non-negative and non-decreasing, capacities positive, replication
 * changes only under Replicated partitioning and within [1, nodes].
 */
std::optional<PlanViolation>
firstKnobViolation(const KnobPlan &plan, CachePartitioning partitioning,
                   std::size_t num_nodes);

/**
 * Panic on a firstKnobViolation for the config's topology: plans come
 * from authored code or from scenario files the parser already checked
 * the same way, so a bad plan here is a bug.
 */
void validateKnobPlan(const KnobPlan &plan, const ServingConfig &config);

} // namespace modm::serving

#endif // MODM_SERVING_KNOBS_HH
