#include "src/common/cpus.hh"

#include <sched.h>

#include <algorithm>
#include <atomic>

namespace modm {

namespace {

std::atomic<std::size_t> claimed{0};

} // namespace

std::size_t
usableCpus()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) != 0)
        return 1;
    return std::max(CPU_COUNT(&mask), 1);
}

CpuClaim::CpuClaim(std::size_t count)
    : count_(count)
{
    claimed.fetch_add(count);
}

CpuClaim::~CpuClaim()
{
    claimed.fetch_sub(count_);
}

std::size_t
CpuClaim::takeSpare(std::size_t wanted)
{
    const std::size_t others = usableCpus() - 1;
    std::size_t held = claimed.load();
    std::size_t take = 0;
    do {
        take = held < others ? std::min(wanted, others - held) : 0;
        if (take == 0)
            return 0;
    } while (!claimed.compare_exchange_weak(held, held + take));
    count_ += take;
    return take;
}

} // namespace modm
