#include "src/common/crew.hh"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <system_error>
#include <thread>
#include <vector>

#include "src/common/cpus.hh"
#include "src/common/log.hh"

namespace modm {

namespace {

/** Pauses a waiting thread spins before it starts yielding its CPU,
 *  which only matters when more threads than CPUs are busy. */
constexpr unsigned kSpinsBeforeYield = 1u << 14;

void
relax(unsigned &spins)
{
    if (spins < kSpinsBeforeYield) {
        ++spins;
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
    } else {
        std::this_thread::yield();
    }
}

thread_local CrewScope *current = nullptr;

/** -1: helpers from free CPUs; otherwise the forced count. */
std::atomic<long> forcedHelpers{-1};

std::atomic<std::size_t> helpersStartedCount{0};

/** A job as crewRun takes it. */
using Job = void (*)(const void *, std::size_t, std::size_t);

} // namespace

/**
 * The helpers of one scope and the one job they share. A ticket holds
 * a generation in its high 32 bits, the job's chunk count in the next
 * 16 and the next chunk to claim in the low 16. The caller writes the
 * job, then publishes a new generation with a release store; every
 * member claims with fetch_add, and a claim whose chunk index reaches
 * the count its own ticket carries finds the job fully claimed, so no
 * member reads a count the caller may be rewriting. Each member makes
 * at most one such claim per generation, so the low field never
 * carries into the count. Each finished chunk counts up `done`, which
 * the caller waits on before it returns, so the job outlives every
 * claim of its generation. A helper late for one generation can only
 * claim chunks of the next, which it then runs.
 */
class CrewScope::Crew
{
  public:
    /** Start `wanted` helpers. */
    explicit Crew(std::size_t wanted)
    {
        threads_.reserve(wanted);
        for (std::size_t h = 1; h <= wanted; ++h) {
            try {
                threads_.emplace_back([this, h] { serve(h); });
            } catch (const std::system_error &) {
                break; // the caller runs the chunks no helper claims
            }
            helpersStartedCount.fetch_add(1);
        }
    }

    ~Crew()
    {
        stop_.store(true, std::memory_order_release);
        for (std::thread &thread : threads_)
            thread.join();
    }

    Crew(const Crew &) = delete;
    Crew &operator=(const Crew &) = delete;

    std::size_t members() const { return 1 + threads_.size(); }

    void run(std::size_t chunks, Job job, const void *context)
    {
        job_ = job;
        context_ = context;
        done_.store(0, std::memory_order_relaxed);
        ticket_.store(++generation_ << 32 | std::uint64_t{chunks} << 16,
                      std::memory_order_release);
        work(0);
        unsigned spins = 0;
        while (done_.load(std::memory_order_acquire) < chunks)
            relax(spins);
    }

  private:
    /** Claim and run chunks as `member` until a claim finds none left;
     *  returns that claim's generation. */
    std::uint64_t work(std::size_t member)
    {
        for (;;) {
            const std::uint64_t ticket =
                ticket_.fetch_add(1, std::memory_order_acq_rel);
            const std::size_t chunks = ticket >> 16 & 0xffffu;
            const std::size_t c = ticket & 0xffffu;
            if (c >= chunks)
                return ticket >> 32;
            job_(context_, c, member);
            done_.fetch_add(1, std::memory_order_release);
        }
    }

    /** A helper's life: wait for a new generation, work, repeat. */
    void serve(std::size_t member)
    {
        std::uint64_t seen = 0;
        for (;;) {
            unsigned spins = 0;
            while (ticket_.load(std::memory_order_acquire) >> 32 == seen) {
                if (stop_.load(std::memory_order_acquire))
                    return;
                relax(spins);
            }
            seen = work(member);
        }
    }

    std::uint64_t generation_ = 0; // the caller's alone
    // The job being split; written by the caller before it publishes a
    // generation.
    Job job_ = nullptr;
    const void *context_ = nullptr;
    // What idle helpers poll shares one line; what finished chunks
    // count up sits a line away. Padded rather than aligned, so the
    // crew keeps malloc's alignment and plain new.
    std::atomic<std::uint64_t> ticket_{0};
    std::atomic<bool> stop_{false};
    [[maybe_unused]] char pad_[64];
    std::atomic<std::size_t> done_{0};
    std::vector<std::thread> threads_; // last: joined before the rest goes
};

CrewScope::CrewScope()
    : outer_(current)
{
    current = this;
}

CrewScope::~CrewScope()
{
    current = outer_;
}

void
CrewScope::forceHelpers(std::optional<std::size_t> helpers)
{
    forcedHelpers.store(helpers ? static_cast<long>(std::min(
                                      *helpers, kMaxCrewHelpers))
                                : -1);
}

std::size_t
CrewScope::helpersStarted()
{
    return helpersStartedCount.load();
}

CrewScope::Crew *
CrewScope::crew()
{
    if (started_)
        return crew_.get();
    started_ = true;
    // A scope with no helper to start allocates nothing.
    const long forced = forcedHelpers.load();
    const std::size_t wanted = forced >= 0
        ? static_cast<std::size_t>(forced)
        : claim_.takeSpare(kMaxCrewHelpers);
    if (wanted > 0) {
        crew_ = std::make_unique<Crew>(wanted);
        if (crew_->members() == 1)
            crew_.reset();
    }
    return crew_.get();
}

std::size_t
crewMembers()
{
    CrewScope::Crew *crew = current != nullptr ? current->crew() : nullptr;
    return crew != nullptr ? crew->members() : 1;
}

void
crewRun(std::size_t chunks, Job job, const void *context)
{
    MODM_ASSERT(chunks <= kMaxCrewChunks, "crewRun: %zu chunks over %zu",
                chunks, kMaxCrewChunks);
    CrewScope::Crew *crew =
        current != nullptr && chunks > 1 ? current->crew_.get() : nullptr;
    if (crew == nullptr) {
        for (std::size_t c = 0; c < chunks; ++c)
            job(context, c, 0);
        return;
    }
    crew->run(chunks, job, context);
}

} // namespace modm
