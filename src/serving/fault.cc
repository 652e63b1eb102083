#include "src/serving/fault.hh"

#include <algorithm>

#include "src/common/log.hh"

namespace modm::serving {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Kill:
        return "kill";
      case FaultKind::Drain:
        return "drain";
      case FaultKind::Rejoin:
        return "rejoin";
    }
    panic("unknown FaultKind");
}

std::optional<PlanViolation>
firstPlanViolation(const FaultPlan &plan, std::size_t num_nodes)
{
    // Track liveness through the script so authoring errors (killing
    // the last node, rejoining an alive one) fail fast at startup
    // instead of corrupting a long simulation. "Up" (alive, maybe
    // draining) and "admitting" (up and not draining) are tracked
    // separately: a kill may supersede an in-progress drain, but
    // never hit an already-dead node.
    std::vector<bool> up(num_nodes, true);
    std::vector<bool> admitting(num_nodes, true);
    std::size_t admittingCount = num_nodes;
    double prevTime = 0.0;
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        const auto &event = plan.events[i];
        const auto violation = [&](const std::string &what) {
            return PlanViolation{i, what};
        };
        const std::string node = std::to_string(event.node);
        if (event.node >= num_nodes)
            return violation("fault plan targets node " + node + " of " +
                             std::to_string(num_nodes));
        if (event.time < 0.0)
            return violation("fault time must be >= 0");
        if (event.time < prevTime)
            return violation("fault events must be time-ordered (" +
                             std::to_string(event.time) + " after " +
                             std::to_string(prevTime) + ")");
        prevTime = event.time;
        switch (event.kind) {
          case FaultKind::Kill:
            if (!up[event.node])
                return violation("kill of node " + node +
                                 " which is already down");
            if (admitting[event.node]) {
                if (admittingCount <= 1)
                    return violation(
                        "fault plan would leave no admitting node");
                admitting[event.node] = false;
                --admittingCount;
            }
            up[event.node] = false;
            break;
          case FaultKind::Drain:
            if (!up[event.node])
                return violation("drain of node " + node + " which is down");
            if (!admitting[event.node])
                return violation("node " + node + " is already draining");
            if (admittingCount <= 1)
                return violation("fault plan would leave no admitting node");
            admitting[event.node] = false;
            --admittingCount;
            break;
          case FaultKind::Rejoin:
            if (admitting[event.node])
                return violation("rejoin of node " + node +
                                 " which is already up");
            up[event.node] = true;
            admitting[event.node] = true;
            ++admittingCount;
            break;
        }
    }
    return std::nullopt;
}

void
validatePlan(const FaultPlan &plan, std::size_t num_nodes)
{
    MODM_ASSERT(plan.recoveryWindow > 0,
                "recovery window must be positive");
    MODM_ASSERT(plan.recoveryTarget > 0.0 && plan.recoveryTarget <= 1.0,
                "recovery target must be in (0, 1]");
    if (const auto violation = firstPlanViolation(plan, num_nodes))
        panic("%s", violation->reason.c_str());
}

FailoverReport
analyzeFailover(const MetricsCollector &metrics, const FaultPlan &plan)
{
    FailoverReport report;
    report.active = !plan.empty();
    for (const auto &event : plan.events) {
        if (event.kind == FaultKind::Kill) {
            report.firstKillTime = event.time;
            break;
        }
    }
    if (report.firstKillTime < 0.0)
        return report;

    const double kill = report.firstKillTime;
    const auto &records = metrics.records();

    // Pre-fault hit rate over classifications in [0, kill): the hit
    // decision reflects cache state at classification time, so a
    // request classified on the healthy cluster counts as pre-fault
    // even when its generation finishes after the kill. Pre-fault
    // capacity is completion-stamped: finished work is throughput.
    std::uint64_t preClassified = 0;
    std::uint64_t preHits = 0;
    std::uint64_t preFinished = 0;
    for (const auto &r : records) {
        if (r.classified < kill) {
            ++preClassified;
            if (r.cacheHit)
                ++preHits;
        }
        if (r.finish < kill)
            ++preFinished;
    }
    if (preClassified == 0 || preFinished == 0 || kill <= 0.0)
        return report; // nothing to recover toward
    report.preFaultHitRate = static_cast<double>(preHits) /
        static_cast<double>(preClassified);
    report.preFaultThroughputPerMin =
        static_cast<double>(preFinished) * 60.0 / kill;

    // Hit-rate recovery: scan post-kill classifications in time order
    // with a trailing window of recoveryWindow samples; recovered at
    // the first full window whose hit rate meets the target. Records
    // are completion-ordered, so sort a view by classification stamp
    // (stable: simultaneous classifications keep completion order).
    std::vector<const RequestRecord *> byClassified;
    byClassified.reserve(records.size());
    for (const auto &r : records) {
        if (r.classified >= kill)
            byClassified.push_back(&r);
    }
    std::stable_sort(byClassified.begin(), byClassified.end(),
                     [](const RequestRecord *a, const RequestRecord *b) {
                         return a->classified < b->classified;
                     });
    const double hitTarget = plan.recoveryTarget * report.preFaultHitRate;
    const std::size_t window =
        std::max<std::size_t>(plan.recoveryWindow, 1);
    std::size_t hitsInWindow = 0;
    for (std::size_t i = 0; i < byClassified.size(); ++i) {
        if (byClassified[i]->cacheHit)
            ++hitsInWindow;
        if (i >= window && byClassified[i - window]->cacheHit)
            --hitsInWindow;
        if (i + 1 < window)
            continue;
        const double rate = static_cast<double>(hitsInWindow) /
            static_cast<double>(window);
        if (rate >= hitTarget) {
            report.hitRateRecoveryS = byClassified[i]->classified - kill;
            break;
        }
    }

    // Lost-capacity window: the last instant cumulative post-kill
    // completions trailed recoveryTarget x the work that arrived
    // since the kill — when service finally caught back up with the
    // offered load (0 = it never fell behind). Measured against
    // arrivals rather than the pre-fault rate so the post-trace queue
    // drain closes the window instead of extending it forever.
    std::vector<double> arrivals;
    std::vector<double> finishes;
    arrivals.reserve(records.size());
    finishes.reserve(records.size());
    for (const auto &r : records) {
        if (r.arrival >= kill)
            arrivals.push_back(r.arrival);
        if (r.finish >= kill)
            finishes.push_back(r.finish);
    }
    std::sort(arrivals.begin(), arrivals.end());
    std::sort(finishes.begin(), finishes.end());
    std::size_t arrived = 0;
    for (std::size_t done = 0; done < finishes.size(); ++done) {
        while (arrived < arrivals.size() &&
               arrivals[arrived] <= finishes[done])
            ++arrived;
        const double required =
            plan.recoveryTarget * static_cast<double>(arrived);
        if (static_cast<double>(done + 1) < required)
            report.lostCapacityS = finishes[done] - kill;
    }
    return report;
}

} // namespace modm::serving
