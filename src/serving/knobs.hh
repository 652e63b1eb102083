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
#include <vector>

#include "src/serving/monitor.hh"

namespace modm::serving {

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

    /** Convenience: append a monitor-mode flip. */
    KnobPlan &setMode(double time, MonitorMode mode)
    {
        KnobEvent event;
        event.time = time;
        event.target = KnobTarget::MonitorMode;
        event.mode = mode;
        events.push_back(event);
        return *this;
    }

    /** Convenience: append a change to one of the integer targets. */
    KnobPlan &set(double time, KnobTarget target, std::size_t value)
    {
        KnobEvent event;
        event.time = time;
        event.target = target;
        event.value = value;
        events.push_back(event);
        return *this;
    }
};

/**
 * Validate a plan against a configuration: event times non-negative
 * and non-decreasing, capacities positive, replication changes only
 * under Replicated partitioning and within the node count. Panics on
 * violations — plans reach the system from authored code or from
 * scenario files that were already validated with file:line
 * diagnostics at parse time, so a bad plan here is a bug.
 */
void validateKnobPlan(const KnobPlan &plan, const ServingConfig &config);

} // namespace modm::serving

#endif // MODM_SERVING_KNOBS_HH
