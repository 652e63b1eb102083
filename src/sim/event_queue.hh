/**
 * @file
 * Discrete-event simulation core: a time-ordered queue of callbacks with
 * a virtual clock. All serving experiments run on virtual time, making
 * hour-long GPU-cluster traces reproducible and fast.
 *
 * Every event gets a sequence number when it is scheduled or reserved,
 * and events run in (time, sequence number) order. The queue keeps one byte of
 * state per sequence number it has handed out (reserved, pending,
 * cancelled or done), which cancel() checks and lazy discarding reads.
 *
 * Events are cancellable: schedule() returns an EventId that cancel()
 * invalidates. Cancellation is how the fault-injection subsystem models
 * node death — a killed node's in-flight completions and monitor ticks
 * simply never fire. Cancelled events are discarded lazily when they
 * reach the head of the queue, so cancellation is O(1) and a queue that
 * never cancels behaves exactly as before.
 *
 * Reserved events: reserve() takes a run of sequence numbers now, and
 * scheduleReserved() schedules each later. A reserved event sorts
 * exactly where it would have, had it been scheduled at reservation
 * time. This lets a trace's arrivals enter the heap one at a time (each
 * arrival schedules the next), so the heap holds only in-flight events.
 * The dispatch order and the tap stream stay the same as if every
 * arrival had been scheduled up front. size() and empty() count only
 * scheduled events, so they do not count a reserved event that has not
 * been scheduled yet.
 *
 * Events carry optional EventMeta tags (event kind, node, request) and
 * the queue accepts one EventTap observer, invoked at every dispatch
 * just before the handler runs. This is the observability hook: the
 * obs::Tracer records the tagged event stream through it. With no tap
 * installed (the default) dispatch is exactly the pre-hook code path.
 *
 * Handlers are std::function. libstdc++ stores a trivially copyable
 * callable of at most 16 bytes (`this` plus one id or pointer) in
 * place, so per-request events keep their captures that small and
 * scheduling them allocates nothing.
 */

#ifndef MODM_SIM_EVENT_QUEUE_HH
#define MODM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace modm::sim {

/** Tag value for "no node attached to this event". */
inline constexpr std::uint32_t kNoNode = 0xffffffffu;

/** Tag value for "no request attached to this event". */
inline constexpr std::uint64_t kNoRequest = ~0ULL;

/**
 * Optional metadata attached to a scheduled event, surfaced to the
 * EventTap at dispatch. The kind values are owned by the layer above
 * (obs::EventKind names the serving stack's); 0 means "untagged".
 */
struct EventMeta
{
    std::uint16_t kind = 0;
    std::uint32_t node = kNoNode;
    std::uint64_t request = kNoRequest;
};

/**
 * Dispatch observer: onDispatch fires for every event the queue runs,
 * after the clock advanced and before the handler executes. Observers
 * must not mutate the queue (recording only), so an installed tap
 * cannot change simulation behaviour.
 */
class EventTap
{
  public:
    virtual ~EventTap() = default;

    virtual void onDispatch(double time, std::uint64_t seq,
                            const EventMeta &meta)
        = 0;
};

/**
 * Event queue with a monotonically advancing virtual clock.
 * Simultaneous events run in scheduling order (FIFO tie-break), which
 * keeps simulations deterministic.
 */
class EventQueue
{
  public:
    using Handler = std::function<void()>;

    /** Handle identifying one scheduled event (for cancel()). */
    using EventId = std::uint64_t;

    /**
     * Schedule a callback at an absolute virtual time >= now().
     * Returns a handle that cancel() accepts.
     */
    EventId schedule(double time, Handler handler);

    /** Schedule a tagged callback (meta surfaces at the tap). */
    EventId schedule(double time, const EventMeta &meta,
                     Handler handler);

    /** Schedule a callback `delay` seconds from now. */
    EventId scheduleAfter(double delay, Handler handler);

    /** Schedule a tagged callback `delay` seconds from now. */
    EventId scheduleAfter(double delay, const EventMeta &meta,
                          Handler handler);

    /**
     * Reserve `count` consecutive sequence numbers for events that
     * scheduleReserved() will schedule later, and return the first.
     * Each sorts as if scheduled now: at equal times it runs after
     * every event scheduled before the reservation and before every
     * event scheduled after it.
     */
    EventId reserve(std::size_t count);

    /**
     * Schedule the reserved sequence number `id` at an absolute
     * virtual time >= now(). Panics unless `id` is reserved and not
     * yet scheduled. Once scheduled it is an ordinary event: cancel()
     * accepts it.
     */
    void scheduleReserved(EventId id, double time, const EventMeta &meta,
                          Handler handler);

    /** Install (or clear, with nullptr) the dispatch observer. */
    void setTap(EventTap *tap) { tap_ = tap; }

    /** The installed dispatch observer (null when none). */
    EventTap *tap() const { return tap_; }

    /**
     * Cancel a pending event: its handler will never run. The id must
     * refer to a scheduled event that has neither run nor been
     * cancelled. Any other id panics with "not pending" and its state
     * (never assigned, reserved but not scheduled, already ran, already
     * cancelled), so a stale cancel is a deterministic panic instead of
     * silent ledger corruption. (Callers track completion anyway: the
     * serving nodes erase in-flight records when a completion fires.)
     */
    void cancel(EventId id);

    /** Current virtual time (seconds). */
    double now() const { return now_; }

    /** True when no live (scheduled, non-cancelled) events are pending. */
    bool empty() const { return live_ == 0; }

    /**
     * Number of live (scheduled, non-cancelled) pending events;
     * reserved sequence numbers count only once scheduled.
     */
    std::size_t size() const { return live_; }

    /** Time of the earliest live pending event; panics when empty. */
    double peekTime() const;

    /**
     * Pop and run the earliest event, advancing the clock. Returns
     * false when the queue is empty.
     */
    bool runNext();

    /** Run events until the queue is empty. */
    void runAll();

  private:
    /** Lifecycle of one sequence number. */
    enum class State : std::uint8_t
    {
        Reserved,
        Pending,
        Cancelled,
        Done,
    };

    struct Event
    {
        double time;
        std::uint64_t seq;
        EventMeta meta;
        Handler handler;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    /** Push a reserved sequence number onto the heap as pending. */
    void push(EventId id, double time, const EventMeta &meta, Handler handler);

    /** Pop cancelled events off the head until a live one surfaces. */
    void discardCancelled() const;

    // Lazy cancellation: the heap is immutable in place, so a cancelled
    // event stays in it, marked Cancelled in state_, until it surfaces
    // at the head. state_ holds one entry per assigned sequence number
    // (its size is the next one to assign); live_ counts the Pending
    // ones. mutable: discarding tombstones from the head is
    // observation, not state — peekTime() stays const.
    mutable std::vector<Event> heap_; // binary heap under Later
    std::vector<State> state_;
    std::size_t live_ = 0;
    double now_ = 0.0;
    EventTap *tap_ = nullptr;
};

} // namespace modm::sim

#endif // MODM_SIM_EVENT_QUEUE_HH
