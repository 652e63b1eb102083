#include "src/sim/event_queue.hh"

#include <algorithm>

#include "src/common/log.hh"

namespace modm::sim {

EventQueue::EventId
EventQueue::schedule(double time, Handler handler)
{
    return schedule(time, EventMeta{}, std::move(handler));
}

EventQueue::EventId
EventQueue::schedule(double time, const EventMeta &meta, Handler handler)
{
    const EventId id = reserve(1);
    push(id, time, meta, std::move(handler));
    return id;
}

EventQueue::EventId
EventQueue::scheduleAfter(double delay, Handler handler)
{
    return scheduleAfter(delay, EventMeta{}, std::move(handler));
}

EventQueue::EventId
EventQueue::scheduleAfter(double delay, const EventMeta &meta,
                          Handler handler)
{
    MODM_ASSERT(delay >= 0.0, "negative delay");
    return schedule(now_ + delay, meta, std::move(handler));
}

EventQueue::EventId
EventQueue::reserve(std::size_t count)
{
    const EventId first = state_.size();
    state_.resize(state_.size() + count, State::Reserved);
    return first;
}

void
EventQueue::scheduleReserved(EventId id, double time,
                             const EventMeta &meta, Handler handler)
{
    MODM_ASSERT(id < state_.size() && state_[id] == State::Reserved,
                "scheduleReserved of event %llu which is not reserved",
                static_cast<unsigned long long>(id));
    push(id, time, meta, std::move(handler));
}

void
EventQueue::push(EventId id, double time, const EventMeta &meta,
                 Handler handler)
{
    MODM_ASSERT(time >= now_ - 1e-9,
                "cannot schedule in the past (%f < %f)", time, now_);
    heap_.push_back(Event{time, id, meta, std::move(handler)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    state_[id] = State::Pending;
    ++live_;
}

void
EventQueue::cancel(EventId id)
{
    // Only a Pending id may be cancelled: a stale cancel would
    // otherwise leave a tombstone that never retires and corrupt the
    // size() ledger.
    if (id < state_.size() && state_[id] == State::Pending) {
        state_[id] = State::Cancelled;
        --live_;
        return;
    }
    const char *why = "already ran";
    if (id >= state_.size())
        why = "never assigned";
    else if (state_[id] == State::Reserved)
        why = "reserved but not scheduled";
    else if (state_[id] == State::Cancelled)
        why = "already cancelled";
    panic("cancel of event %llu which is not pending (%s)",
          static_cast<unsigned long long>(id), why);
}

void
EventQueue::discardCancelled() const
{
    while (!heap_.empty() && state_[heap_.front().seq] == State::Cancelled) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
    }
}

double
EventQueue::peekTime() const
{
    discardCancelled();
    MODM_ASSERT(!heap_.empty(), "peekTime on empty queue");
    return heap_.front().time;
}

bool
EventQueue::runNext()
{
    discardCancelled();
    if (heap_.empty())
        return false;
    // Move out before running: the handler may schedule new events.
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event event = std::move(heap_.back());
    heap_.pop_back();
    state_[event.seq] = State::Done;
    --live_;
    now_ = event.time;
    if (tap_ != nullptr)
        tap_->onDispatch(event.time, event.seq, event.meta);
    event.handler();
    return true;
}

void
EventQueue::runAll()
{
    while (runNext()) {
    }
}

} // namespace modm::sim
