/**
 * @file
 * Run-scoped helper threads that split one large screen across spare
 * CPUs.
 *
 * A ScanScope opened on a thread gives that thread's large screens a
 * crew. scanBest over at least kSplitScreenRows rows cuts the sketch's
 * 8-row blocks into one contiguous chunk per crew member. The caller
 * and its helpers claim chunks from one atomic counter, each runs
 * screenBest over the chunks it claimed, and the caller merges the
 * chunk answers in slot order, a later chunk winning only when
 * strictly greater: the same slot, similarity bits and tie-break as
 * screenBest over every row. Chunks are claimed, not assigned, so the
 * caller runs every chunk no helper took, and it waits only on chunks
 * already started.
 *
 * The helpers start on the scope's first large screen, spin on a
 * generation counter between screens (no lock, no condition variable:
 * a wake-up per query costs more than the scan it would split), and
 * are joined when the scope closes. They take only CPUs that no other
 * claim holds (cpus.hh), at most kMaxScanHelpers; with none free, or
 * under a one-CPU affinity mask, every screen stays on the caller.
 *
 * ServingSystem::run opens one scope around its event loop, so a run's
 * retrievals on caches of kSplitScreenRows rows or more are split, and
 * nothing of the crew exists before or after a run. Screens on a
 * thread with no open scope run serially.
 */

#ifndef MODM_COMMON_SCAN_CREW_HH
#define MODM_COMMON_SCAN_CREW_HH

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/row_store.hh"
#include "src/common/sketch.hh"

namespace modm {

/**
 * Rows from which a screen is split. Four chunks win from about 3k
 * rows of the serving regime, tie at 2k and lose at 1.2k
 * (docs/PERF.md, "Parallel screen").
 */
constexpr std::size_t kSplitScreenRows = 4096;

/** Most helper threads one scope starts. */
constexpr std::size_t kMaxScanHelpers = 3;

/**
 * Opens a scan crew on the constructing thread for its lifetime; the
 * innermost open scope serves that thread's scanBest calls. Construct
 * and destroy on one thread.
 */
class ScanScope
{
  public:
    ScanScope();
    ~ScanScope();
    ScanScope(const ScanScope &) = delete;
    ScanScope &operator=(const ScanScope &) = delete;

    /**
     * Force crews started from now on to start `helpers` helper threads
     * (capped at kMaxScanHelpers), free CPUs or not; nullopt restores
     * the CPU rule. A scope reads it once, on its first large screen.
     * A test hook, like kernels::setTier.
     */
    static void forceHelpers(std::optional<std::size_t> helpers);

    /** Helper threads started by every scope so far. */
    static std::size_t helpersStarted();

  private:
    class Crew;

    friend SlotScore scanBest(const SketchQuery &, const AlignedRows &,
                              const RowSketch &, std::vector<SlotScore> &);

    /** The crew, started on the first call; null when no helper could
     *  start. */
    Crew *crew();

    ScanScope *outer_;
    bool started_ = false;
    std::unique_ptr<Crew> crew_;
};

/**
 * screenBest over every row of `sketch`, bit for bit: split across the
 * crew of the calling thread's open ScanScope when the sketch holds at
 * least kSplitScreenRows rows and the crew has a helper, otherwise run
 * here with `kept` as its scratch.
 */
SlotScore scanBest(const SketchQuery &query, const AlignedRows &rows,
                   const RowSketch &sketch, std::vector<SlotScore> &kept);

} // namespace modm

#endif // MODM_COMMON_SCAN_CREW_HH
