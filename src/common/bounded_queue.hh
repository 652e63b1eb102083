/**
 * @file
 * A FIFO over a fixed ring of slots, allocated once at construction:
 * the storage of a serving node's classified-job queues, whose length
 * the node's lookahead limit already bounds. A std::deque of 176-byte
 * jobs would allocate and free a 512-byte chunk every second job.
 */

#ifndef MODM_COMMON_BOUNDED_QUEUE_HH
#define MODM_COMMON_BOUNDED_QUEUE_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/log.hh"

namespace modm {

/**
 * FIFO of at most `capacity` elements. Elements are moved into and out
 * of the slots; popping leaves the moved-from value in its slot until a
 * later push overwrites it. Pushing onto a full queue panics.
 */
template <typename T>
class BoundedQueue
{
  public:
    /** An empty queue of `capacity` slots. */
    explicit BoundedQueue(std::size_t capacity) : slots_(capacity) {}

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** The i-th element from the front. */
    const T &operator[](std::size_t i) const
    {
        return slots_[wrap(head_ + i)];
    }

    /** The oldest element. */
    T &front() { return slots_[head_]; }

    /** Append at the back. */
    void push_back(T &&value)
    {
        MODM_ASSERT(size_ < slots_.size(),
                    "bounded queue overflow (capacity %zu)",
                    slots_.size());
        slots_[wrap(head_ + size_)] = std::move(value);
        ++size_;
    }

    /** Drop the front element. */
    void pop_front()
    {
        MODM_ASSERT(size_ > 0, "pop_front on an empty bounded queue");
        head_ = wrap(head_ + 1);
        --size_;
    }

    /** Drop every element, releasing what the live ones hold. */
    void clear()
    {
        for (std::size_t i = 0; i < size_; ++i)
            slots_[wrap(head_ + i)] = T{};
        head_ = 0;
        size_ = 0;
    }

  private:
    /** Slot index of a position in [0, 2 * capacity). */
    std::size_t wrap(std::size_t i) const
    {
        return i >= slots_.size() ? i - slots_.size() : i;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace modm

#endif // MODM_COMMON_BOUNDED_QUEUE_HH
