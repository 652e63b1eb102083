#include "src/serving/knobs.hh"

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

void
validateKnobPlan(const KnobPlan &plan, const ServingConfig &config)
{
    double prevTime = 0.0;
    for (const auto &event : plan.events) {
        MODM_ASSERT(event.time >= 0.0, "knob time must be >= 0");
        MODM_ASSERT(event.time >= prevTime,
                    "knob events must be time-ordered (%f after %f)",
                    event.time, prevTime);
        prevTime = event.time;
        switch (event.target) {
          case KnobTarget::MonitorMode:
            break;
          case KnobTarget::CacheCapacity:
            MODM_ASSERT(event.value >= 1,
                        "cache-capacity knob must be positive");
            break;
          case KnobTarget::ReplicationFactor:
            MODM_ASSERT(config.cluster.cachePartitioning ==
                            CachePartitioning::Replicated,
                        "replication-factor knob requires Replicated "
                        "partitioning");
            MODM_ASSERT(event.value >= 1 &&
                            event.value <= config.cluster.numNodes,
                        "replication factor %zu out of [1, %zu]",
                        event.value, config.cluster.numNodes);
            break;
        }
    }
}

} // namespace modm::serving
