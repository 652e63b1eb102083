/**
 * @file
 * Run-scoped helper threads that split one job at a time across spare
 * CPUs.
 *
 * A CrewScope opened on a thread gives that thread a crew. crewRun(N,
 * job) runs job(c, member) for every chunk c in [0, N): the caller and
 * its helpers claim chunks from one atomic counter, each runs the
 * chunks it claimed, and crewRun returns once every chunk has finished.
 * Chunks are claimed, not assigned, so the caller runs every chunk no
 * helper took, and it waits only on chunks already started. Which
 * member runs a chunk differs from run to run: a job's output may
 * depend on its chunk, never on its member. The member index (0 for
 * the caller, 1 up to crewMembers() - 1 for helpers) names per-member
 * scratch, since a member runs one chunk at a time.
 *
 * Two callers split their work this way (docs/PERF.md). FlatIndex::best
 * cuts a screen over kSplitScreenRows rows or more into one block range
 * per member ("Parallel screen"). ServingSystem::warmCache generates
 * and keys each batch of warm images in chunks of tens of prompts when
 * it warms kSplitWarmPrompts prompts or more ("Parallel warm-up").
 * ServingSystem opens one scope around warm-up and one around its
 * event loop, so nothing of a crew exists between them, or before or
 * after.
 *
 * The helpers start on the scope's first crewMembers() call, which a
 * caller makes only when its job is large enough to split, spin on the
 * counter between jobs (no lock, no condition variable: a wake-up per
 * query costs more than the scan it would split), and are joined when
 * the scope closes. They take only CPUs that no other claim
 * holds (cpus.hh), at most kMaxCrewHelpers. With none free, under a
 * one-CPU affinity mask, or on a thread with no open scope, every chunk
 * runs on the caller, in chunk order, and the scope allocates nothing.
 */

#ifndef MODM_COMMON_CREW_HH
#define MODM_COMMON_CREW_HH

#include <cstddef>
#include <memory>
#include <optional>

#include "src/common/cpus.hh"

namespace modm {

/** Most helper threads one scope starts. */
constexpr std::size_t kMaxCrewHelpers = 3;

/** Most members of one crew: the caller and its helpers. */
constexpr std::size_t kMaxCrewMembers = kMaxCrewHelpers + 1;

/** Most chunks one crewRun may cut its job into. */
constexpr std::size_t kMaxCrewChunks = std::size_t{1} << 15;

/**
 * Opens a crew on the constructing thread for its lifetime; the
 * innermost open scope serves that thread's crewMembers and crewRun
 * calls. Construct and destroy on one thread.
 */
class CrewScope
{
  public:
    CrewScope();
    ~CrewScope();
    CrewScope(const CrewScope &) = delete;
    CrewScope &operator=(const CrewScope &) = delete;

    /**
     * Force crews started from now on to start `helpers` helper threads
     * (capped at kMaxCrewHelpers), free CPUs or not; nullopt restores
     * the CPU rule. A scope reads it once, when its crew starts. A test
     * hook, like kernels::setTier.
     */
    static void forceHelpers(std::optional<std::size_t> helpers);

    /** Helper threads started by every scope so far. */
    static std::size_t helpersStarted();

  private:
    class Crew;

    friend std::size_t crewMembers();
    friend void crewRun(std::size_t, void (*)(const void *, std::size_t,
                                              std::size_t),
                        const void *);

    /** The crew, started on the first call; null when no helper could
     *  start. */
    Crew *crew();

    CrewScope *outer_;
    bool started_ = false;
    CpuClaim claim_; // the helpers' CPUs, released after they are joined
    std::unique_ptr<Crew> crew_;
};

/**
 * Members of the calling thread's crew: the caller plus the helpers
 * its innermost open scope started, which this call starts if none
 * has; 1 with no open scope or no helper.
 */
std::size_t crewMembers();

/**
 * Run job(context, c, member) for every chunk c in [0, chunks) on the
 * crew a crewMembers() call on this thread started, or here in chunk
 * order with member 0 when none did (crewRun starts no crew); return
 * when every chunk has finished. `chunks` is at most kMaxCrewChunks.
 */
void crewRun(std::size_t chunks,
             void (*job)(const void *context, std::size_t chunk,
                         std::size_t member),
             const void *context);

/** crewRun over a callable job(chunk, member). */
template <typename Job>
void
crewRun(std::size_t chunks, const Job &job)
{
    crewRun(
        chunks,
        [](const void *context, std::size_t chunk, std::size_t member) {
            (*static_cast<const Job *>(context))(chunk, member);
        },
        &job);
}

} // namespace modm

#endif // MODM_COMMON_CREW_HH
