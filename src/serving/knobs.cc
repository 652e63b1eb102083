#include "src/serving/knobs.hh"

#include <string>

#include "src/common/log.hh"
#include "src/serving/config.hh"

namespace modm::serving {

const char *
knobTargetName(KnobTarget target)
{
    switch (target) {
      case KnobTarget::MonitorMode:
        return "monitor-mode";
      case KnobTarget::CacheCapacity:
        return "cache-capacity";
      case KnobTarget::ReplicationFactor:
        return "replication-factor";
    }
    panic("unknown KnobTarget");
}

std::optional<PlanViolation>
firstKnobViolation(const KnobPlan &plan, CachePartitioning partitioning,
                   std::size_t num_nodes)
{
    double prevTime = 0.0;
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        const auto &event = plan.events[i];
        const auto violation = [&](const std::string &what) {
            return PlanViolation{i, what};
        };
        if (event.time < 0.0)
            return violation("knob time must be >= 0");
        if (event.time < prevTime)
            return violation("knob events must be time-ordered (" +
                             std::to_string(event.time) + " after " +
                             std::to_string(prevTime) + ")");
        prevTime = event.time;
        switch (event.target) {
          case KnobTarget::MonitorMode:
            break;
          case KnobTarget::CacheCapacity:
            if (event.value < 1)
                return violation("cache-capacity knob must be positive");
            break;
          case KnobTarget::ReplicationFactor:
            if (partitioning != CachePartitioning::Replicated)
                return violation("replication-factor knob requires "
                                 "replicated partitioning");
            if (event.value < 1 || event.value > num_nodes)
                return violation("replication factor " +
                                 std::to_string(event.value) + " out of [1, " +
                                 std::to_string(num_nodes) + "]");
            break;
        }
    }
    return std::nullopt;
}

void
validateKnobPlan(const KnobPlan &plan, const ServingConfig &config)
{
    if (const auto violation =
            firstKnobViolation(plan, config.cluster.cachePartitioning,
                               config.cluster.numNodes))
        panic("%s", violation->reason.c_str());
}

} // namespace modm::serving
