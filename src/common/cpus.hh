/**
 * @file
 * The CPUs this process may run on, and the ones its own threads
 * already hold.
 *
 * usableCpus() counts the affinity mask (sched_getaffinity), not the
 * online CPUs: under `taskset -c 0` a 4-CPU machine offers one. Threads
 * the program starts to run beside the calling thread hold their CPUs
 * through a CpuClaim: a sweep (bench/sweep.hh) claims one CPU per cell
 * thread beyond its caller, and a scan scope (scan_crew.hh) claims
 * only CPUs that no live claim holds, so together they never run more
 * busy threads than the affinity mask has CPUs.
 */

#ifndef MODM_COMMON_CPUS_HH
#define MODM_COMMON_CPUS_HH

#include <cstddef>

namespace modm {

/** CPUs in the calling thread's affinity mask, at least 1. */
std::size_t usableCpus();

/** CPUs held for threads that run beside their starter; released on
 *  destruction. */
class CpuClaim
{
  public:
    /** Hold `count` CPUs whether or not any is free: threads that run
     *  regardless, as a sweep's cells do. */
    explicit CpuClaim(std::size_t count = 0);
    ~CpuClaim();
    CpuClaim(const CpuClaim &) = delete;
    CpuClaim &operator=(const CpuClaim &) = delete;

    /**
     * Hold up to `wanted` more of the CPUs left free: usableCpus(),
     * less the calling thread's own, less every live claim. Returns how
     * many it took.
     */
    std::size_t takeSpare(std::size_t wanted);

    /** CPUs this claim holds. */
    std::size_t count() const { return count_; }

  private:
    std::size_t count_ = 0;
};

} // namespace modm

#endif // MODM_COMMON_CPUS_HH
