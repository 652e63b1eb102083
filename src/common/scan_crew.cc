#include "src/common/scan_crew.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <system_error>
#include <thread>

#include "src/common/cpus.hh"

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

thread_local ScanScope *current = nullptr;

/** -1: helpers from free CPUs; otherwise the forced count. */
std::atomic<long> forcedHelpers{-1};

std::atomic<std::size_t> helpersStartedCount{0};

} // namespace

/**
 * The helpers of one scope and the one screen they share. A ticket
 * holds a generation in its high 32 bits and the next chunk to claim
 * in its low 32. The caller writes the screen's inputs, then publishes
 * a new generation with a release store; every member claims with
 * fetch_add, and a claim whose chunk index is past the last finds the
 * screen fully claimed. Each finished chunk counts up `done`, which
 * the caller waits on before it merges and returns, so the inputs
 * outlive every claim of their generation. A helper late for one
 * generation can only claim chunks of the next, which it then runs.
 */
class ScanScope::Crew
{
  public:
    /** Start `forced` helpers, or with -1 one per free CPU, at most
     *  kMaxScanHelpers. */
    explicit Crew(long forced)
        : chunks_(1 +
                  (forced >= 0 ? static_cast<std::size_t>(forced)
                               : claim_.takeSpare(kMaxScanHelpers)))
    {
        for (Chunk &chunk : chunk_)
            chunk.kept.reserve(64);
        for (std::size_t h = 1; h < chunks_; ++h) {
            try {
                threads_.emplace_back([this] { serve(); });
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

    bool staffed() const { return !threads_.empty(); }

    SlotScore best(const SketchQuery &query, const AlignedRows &rows,
                   const RowSketch &sketch)
    {
        query_ = &query;
        rows_ = &rows;
        sketch_ = &sketch;
        done_.store(0, std::memory_order_relaxed);
        ticket_.store(++generation_ << 32, std::memory_order_release);
        work();
        unsigned spins = 0;
        while (done_.load(std::memory_order_acquire) < chunks_)
            relax(spins);
        SlotScore top = chunk_[0].best;
        for (std::size_t c = 1; c < chunks_; ++c) {
            if (chunk_[c].best.score > top.score)
                top = chunk_[c].best;
        }
        return top;
    }

  private:
    struct alignas(64) Chunk
    {
        std::vector<SlotScore> kept;
        SlotScore best;
    };

    /** Claim and run chunks until a claim finds none left; returns that
     *  claim's generation. */
    std::uint64_t work()
    {
        for (;;) {
            const std::uint64_t ticket =
                ticket_.fetch_add(1, std::memory_order_acq_rel);
            const std::size_t c = ticket & 0xffffffffu;
            if (c >= chunks_)
                return ticket >> 32;
            // Block-aligned bounds: chunk c holds blocks
            // [blocks * c / chunks, blocks * (c + 1) / chunks).
            const std::size_t size = sketch_->size();
            const std::size_t blocks = (size + 7) / 8;
            const std::size_t begin = blocks * c / chunks_ * 8;
            const std::size_t end =
                std::min(blocks * (c + 1) / chunks_ * 8, size);
            chunk_[c].best = screenBest(*query_, *rows_, *sketch_, begin,
                                        end, chunk_[c].kept);
            done_.fetch_add(1, std::memory_order_release);
        }
    }

    /** A helper's life: wait for a new generation, work, repeat. */
    void serve()
    {
        std::uint64_t seen = 0;
        for (;;) {
            unsigned spins = 0;
            while (ticket_.load(std::memory_order_acquire) >> 32 == seen) {
                if (stop_.load(std::memory_order_acquire))
                    return;
                relax(spins);
            }
            seen = work();
        }
    }

    CpuClaim claim_; // before chunks_, which it sizes
    const std::size_t chunks_;
    std::uint64_t generation_ = 0; // the caller's alone
    // The screen being split; written by the caller before it
    // publishes a generation.
    const SketchQuery *query_ = nullptr;
    const AlignedRows *rows_ = nullptr;
    const RowSketch *sketch_ = nullptr;
    std::array<Chunk, kMaxScanHelpers + 1> chunk_;
    // What idle helpers poll shares one line; what finished chunks
    // count up has its own.
    alignas(64) std::atomic<std::uint64_t> ticket_{0};
    std::atomic<bool> stop_{false};
    alignas(64) std::atomic<std::size_t> done_{0};
    std::vector<std::thread> threads_; // last: joined before the rest goes
};

ScanScope::ScanScope()
    : outer_(current)
{
    current = this;
}

ScanScope::~ScanScope()
{
    current = outer_;
}

void
ScanScope::forceHelpers(std::optional<std::size_t> helpers)
{
    forcedHelpers.store(helpers ? static_cast<long>(std::min(
                                      *helpers, kMaxScanHelpers))
                                : -1);
}

std::size_t
ScanScope::helpersStarted()
{
    return helpersStartedCount.load();
}

ScanScope::Crew *
ScanScope::crew()
{
    if (started_)
        return crew_.get();
    started_ = true;
    crew_ = std::make_unique<Crew>(forcedHelpers.load());
    if (!crew_->staffed())
        crew_.reset();
    return crew_.get();
}

SlotScore
scanBest(const SketchQuery &query, const AlignedRows &rows,
         const RowSketch &sketch, std::vector<SlotScore> &kept)
{
    if (current != nullptr && sketch.size() >= kSplitScreenRows) {
        if (ScanScope::Crew *crew = current->crew())
            return crew->best(query, rows, sketch);
    }
    return screenBest(query, rows, sketch, 0, sketch.size(), kept);
}

} // namespace modm
