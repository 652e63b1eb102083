/**
 * @file
 * Unit tests for the discrete-event core: event queue ordering and
 * clock semantics, GPU worker latency/energy/model-switch accounting,
 * and the cluster helpers.
 */

#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <vector>

#include "src/sim/cluster.hh"
#include "src/sim/event_queue.hh"

namespace modm::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(3.0, [&] { order.push_back(3); });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(2.0, [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, FifoTieBreakAtEqualTimes)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(1.0, [&order, i] { order.push_back(i); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, HandlersCanScheduleMoreEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1.0, [&] {
        ++fired;
        q.scheduleAfter(1.0, [&] { ++fired; });
    });
    q.runAll();
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, PeekTime)
{
    EventQueue q;
    q.schedule(7.0, [] {});
    EXPECT_DOUBLE_EQ(q.peekTime(), 7.0);
}

TEST(EventQueue, CancelledEventNeverRuns)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(1.0, [&] { order.push_back(1); });
    const auto doomed = q.schedule(2.0, [&] { order.push_back(2); });
    q.schedule(3.0, [&] { order.push_back(3); });
    EXPECT_EQ(q.size(), 3u);
    q.cancel(doomed);
    EXPECT_EQ(q.size(), 2u);
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, CancelFromInsideAHandler)
{
    EventQueue q;
    std::vector<int> order;
    EventQueue::EventId doomed = 0;
    q.schedule(1.0, [&] {
        order.push_back(1);
        q.cancel(doomed);
    });
    doomed = q.schedule(2.0, [&] { order.push_back(2); });
    q.schedule(2.0, [&] { order.push_back(3); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelHeadAdvancesPeekAndEmpty)
{
    EventQueue q;
    int ran = 0;
    const auto head = q.schedule(1.0, [&] { ++ran; });
    q.schedule(5.0, [&] { ++ran; });
    q.cancel(head);
    EXPECT_DOUBLE_EQ(q.peekTime(), 5.0);
    q.runAll();
    EXPECT_EQ(ran, 1);
    // Cancelling everything leaves an empty queue and runAll a no-op.
    const auto last = q.schedule(9.0, [&] { ++ran; });
    q.cancel(last);
    EXPECT_TRUE(q.empty());
    q.runAll();
    EXPECT_EQ(ran, 1);
    EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, CancelOfAlreadyRunEventPanics)
{
    // A stale cancel would leave a tombstone that never retires and
    // corrupt the pending ledger; the queue rejects it outright.
    EventQueue q;
    const auto ran = q.schedule(1.0, [] {});
    q.runAll();
    EXPECT_DEATH(q.cancel(ran), "not pending");
}

/** Recording tap: one (time, seq, meta) tuple per dispatch. */
struct RecordingTap : EventTap
{
    struct Seen
    {
        double time;
        std::uint64_t seq;
        EventMeta meta;
    };
    std::vector<Seen> seen;

    void
    onDispatch(double time, std::uint64_t seq,
               const EventMeta &meta) override
    {
        seen.push_back({time, seq, meta});
    }
};

TEST(EventQueue, TapObservesEveryDispatchWithItsMeta)
{
    EventQueue q;
    RecordingTap tap;
    q.setTap(&tap);
    EXPECT_EQ(q.tap(), &tap);
    q.schedule(2.0, EventMeta{7, 3, 42}, [] {});
    q.schedule(1.0, [] {}); // untagged
    q.scheduleAfter(3.0, EventMeta{9, kNoNode, kNoRequest}, [] {});
    q.runAll();
    ASSERT_EQ(tap.seen.size(), 3u);
    // Dispatch order (by time), not scheduling order.
    EXPECT_DOUBLE_EQ(tap.seen[0].time, 1.0);
    EXPECT_EQ(tap.seen[0].meta.kind, 0);
    EXPECT_EQ(tap.seen[0].meta.node, kNoNode);
    EXPECT_EQ(tap.seen[0].meta.request, kNoRequest);
    EXPECT_DOUBLE_EQ(tap.seen[1].time, 2.0);
    EXPECT_EQ(tap.seen[1].meta.kind, 7);
    EXPECT_EQ(tap.seen[1].meta.node, 3u);
    EXPECT_EQ(tap.seen[1].meta.request, 42u);
    EXPECT_DOUBLE_EQ(tap.seen[2].time, 3.0);
    EXPECT_EQ(tap.seen[2].meta.kind, 9);
    // Queue sequence numbers are distinct and follow scheduling order.
    EXPECT_EQ(tap.seen[0].seq, 1u);
    EXPECT_EQ(tap.seen[1].seq, 0u);
    EXPECT_EQ(tap.seen[2].seq, 2u);
}

TEST(EventQueue, TapSkipsCancelledEventsAndClears)
{
    EventQueue q;
    RecordingTap tap;
    q.setTap(&tap);
    const auto doomed = q.schedule(1.0, EventMeta{1, 0, 0}, [] {});
    q.schedule(2.0, EventMeta{2, 0, 0}, [] {});
    q.cancel(doomed);
    q.runAll();
    ASSERT_EQ(tap.seen.size(), 1u);
    EXPECT_EQ(tap.seen[0].meta.kind, 2);
    // Clearing the tap stops observation without disturbing dispatch.
    q.setTap(nullptr);
    int ran = 0;
    q.schedule(3.0, [&] { ++ran; });
    q.runAll();
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(tap.seen.size(), 1u);
}

/** (time, seq, kind) of one dispatch. */
using Dispatch = std::tuple<double, std::uint64_t, std::uint16_t>;

enum : std::uint16_t
{
    kFault = 1,
    kArrival = 2,
    kCompletion = 3,
    kTick = 4,
};

/**
 * The serving front-end's schedule in miniature: a fault before the
 * arrivals, four arrivals (three share t = 2), the first of which
 * schedules a completion at t = 2, and a tick at t = 3 scheduled after
 * them. `streamed` reserves the arrivals' sequence numbers and lets
 * each arrival schedule the next; otherwise all are scheduled up front.
 */
std::vector<Dispatch>
runArrivalScript(bool streamed)
{
    const std::vector<double> arrivals = {1.0, 2.0, 2.0, 3.0};
    EventQueue q;
    RecordingTap tap;
    q.setTap(&tap);
    q.schedule(2.0, EventMeta{kFault, kNoNode, kNoRequest}, [] {});
    const auto deliver = [&q](std::size_t i) {
        if (i == 0)
            q.schedule(2.0, EventMeta{kCompletion, 0, i}, [] {});
    };
    // Declared at function scope: the handlers call them until
    // runAll() returns.
    EventQueue::EventId first = 0;
    std::function<void(std::size_t)> arrive;
    const auto onArrival = [&](std::size_t i) {
        if (i + 1 < arrivals.size())
            arrive(i + 1);
        deliver(i);
    };
    arrive = [&](std::size_t i) {
        q.scheduleReserved(first + i, arrivals[i],
                           EventMeta{kArrival, kNoNode, i},
                           [&onArrival, i] { onArrival(i); });
    };
    if (streamed) {
        first = q.reserve(arrivals.size());
        arrive(0);
        // Only the fault and the first arrival are in the queue yet.
        EXPECT_EQ(q.size(), 2u);
    } else {
        for (std::size_t i = 0; i < arrivals.size(); ++i)
            q.schedule(arrivals[i], EventMeta{kArrival, kNoNode, i},
                       [&, i] { deliver(i); });
        EXPECT_EQ(q.size(), 5u);
    }
    q.schedule(3.0, EventMeta{kTick, 0, kNoRequest}, [] {});
    q.runAll();
    std::vector<Dispatch> seen;
    for (const auto &d : tap.seen)
        seen.emplace_back(d.time, d.seq, d.meta.kind);
    return seen;
}

TEST(EventQueue, ReservedArrivalsDispatchLikeUpFrontScheduling)
{
    const auto upFront = runArrivalScript(false);
    const auto streamed = runArrivalScript(true);
    EXPECT_EQ(streamed, upFront);
    // (time, seq) order: the fault outranks the same-instant arrivals
    // it was scheduled before; the completion, scheduled by arrival 0
    // before arrivals 2 and 3 entered the streamed queue, still runs
    // after every same-instant arrival, whose reserved numbers are
    // lower; the tick at t = 3 runs after the arrival reserved ahead
    // of it.
    std::vector<Dispatch> expected;
    expected.push_back({1.0, 1, kArrival});
    expected.push_back({2.0, 0, kFault});
    expected.push_back({2.0, 2, kArrival});
    expected.push_back({2.0, 3, kArrival});
    expected.push_back({2.0, 6, kCompletion});
    expected.push_back({3.0, 4, kArrival});
    expected.push_back({3.0, 5, kTick});
    EXPECT_EQ(streamed, expected);
}

TEST(EventQueue, CancelOfAnUnscheduledSequenceNumberPanics)
{
    EventQueue q;
    EXPECT_DEATH(q.cancel(7),
                 "event 7 which is not pending \\(never assigned\\)");
    const auto first = q.reserve(2);
    EXPECT_DEATH(q.cancel(first + 1),
                 "not pending \\(reserved but not scheduled\\)");
    // Once scheduled, a reserved number is an ordinary event.
    q.scheduleReserved(first, 1.0, EventMeta{}, [] {});
    EXPECT_EQ(q.size(), 1u);
    EXPECT_DEATH(q.scheduleReserved(first, 1.0, EventMeta{}, [] {}),
                 "which is not reserved");
    q.cancel(first);
    EXPECT_TRUE(q.empty());
    EXPECT_DEATH(q.cancel(first), "not pending \\(already cancelled\\)");
}

TEST(Worker, JobLatencyMatchesModelProfile)
{
    Worker w(0, diffusion::GpuKind::A40);
    const auto model = diffusion::sd35Large();
    // First job pays the model load.
    const double finish = w.startJob(model, 50, 0.0);
    EXPECT_DOUBLE_EQ(finish, model.loadLatency + 50 * 1.20);
    EXPECT_TRUE(w.busyAt(10.0));
    EXPECT_FALSE(w.busyAt(finish));
    EXPECT_EQ(w.residentModel(), "SD3.5L");
}

TEST(Worker, ResidentModelSkipsLoad)
{
    Worker w(0, diffusion::GpuKind::A40);
    const auto model = diffusion::sdxl();
    const double t1 = w.startJob(model, 50, 0.0);
    const double t2 = w.startJob(model, 50, t1);
    EXPECT_DOUBLE_EQ(t2 - t1, 50 * model.stepLatencyA40);
    EXPECT_EQ(w.stats().modelSwitches, 0u);
}

TEST(Worker, SwitchingModelsPaysLoadAndCounts)
{
    Worker w(0, diffusion::GpuKind::A40);
    const double t1 = w.startJob(diffusion::sd35Large(), 50, 0.0);
    const double t2 = w.startJob(diffusion::sdxl(), 50, t1);
    EXPECT_DOUBLE_EQ(
        t2 - t1, diffusion::sdxl().loadLatency +
                     50 * diffusion::sdxl().stepLatencyA40);
    EXPECT_EQ(w.stats().modelSwitches, 1u);
}

TEST(Worker, EnergyIncludesComputeAndIdle)
{
    Worker w(0, diffusion::GpuKind::A40);
    const auto model = diffusion::sd35Large();
    const double finish = w.startJob(model, 50, 0.0);
    const double duration = finish + 100.0;
    const double expected =
        model.stepEnergyJ(diffusion::GpuKind::A40, 50) +
        (duration - w.stats().busySeconds) * 60.0;
    EXPECT_NEAR(w.totalEnergyJ(duration), expected, 1e-6);
}

TEST(Worker, AbortRollsBackToExecutedFraction)
{
    Worker w(0, diffusion::GpuKind::A40);
    const auto model = diffusion::sd35Large();
    const double finish = w.startJob(model, 50, 0.0);
    const double kill = finish / 2.0;
    w.abortJob(kill);
    EXPECT_FALSE(w.busyAt(kill));
    EXPECT_DOUBLE_EQ(w.freeAt(), kill);
    EXPECT_EQ(w.stats().abortedJobs, 1u);
    // Busy time and energy cover only the executed half.
    EXPECT_NEAR(w.stats().busySeconds, kill, 1e-9);
    EXPECT_NEAR(w.stats().computeEnergyJ,
                0.5 * model.stepEnergyJ(diffusion::GpuKind::A40, 50),
                1e-6);
    // The process died: the resident model must reload.
    EXPECT_TRUE(w.residentModel().empty());
    // Aborting an idle worker is a no-op.
    w.abortJob(kill + 1.0);
    EXPECT_EQ(w.stats().abortedJobs, 1u);
}

TEST(Worker, GpuKindSelectsLatencyColumn)
{
    Worker a40(0, diffusion::GpuKind::A40);
    Worker mi(1, diffusion::GpuKind::MI210);
    const auto model = diffusion::sd35Large();
    const double fa = a40.startJob(model, 50, 0.0);
    const double fm = mi.startJob(model, 50, 0.0);
    EXPECT_LT(fa, fm);
}

TEST(Cluster, AggregateStats)
{
    Cluster cluster(2, diffusion::GpuKind::A40);
    cluster.worker(0).startJob(diffusion::sd35Large(), 50, 0.0);
    cluster.worker(1).startJob(diffusion::sdxl(), 50, 0.0);
    EXPECT_GT(cluster.totalEnergyJ(1000.0), 0.0);
}

} // namespace
} // namespace modm::sim
