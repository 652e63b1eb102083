/**
 * @file
 * FNV-1a, 64-bit: the one byte hash behind token ids, scenario and
 * result digests, and trace chaining. Every frozen
 * digest in the repo depends on these exact constants.
 */

#ifndef MODM_COMMON_HASH_HH
#define MODM_COMMON_HASH_HH

#include <cstdint>
#include <string_view>

namespace modm {

/** FNV-1a 64 offset basis: the hash of zero bytes. */
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** FNV-1a 64 prime. */
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** FNV-1a over `bytes`, continuing from `basis` (chainable). */
inline std::uint64_t
fnv1a64(std::string_view bytes, std::uint64_t basis = kFnvBasis)
{
    std::uint64_t hash = basis;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= kFnvPrime;
    }
    return hash;
}

} // namespace modm

#endif // MODM_COMMON_HASH_HH
