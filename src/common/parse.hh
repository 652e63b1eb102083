/**
 * @file
 * Strict decimal parsing for command-line, environment and scenario
 * values, so a typo is an error rather than a silent default.
 */

#ifndef MODM_COMMON_PARSE_HH
#define MODM_COMMON_PARSE_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace modm {

/**
 * Parse `text` as an unsigned decimal integer into `out`. Digits only:
 * strtoull alone would read "abc" as 0 and accept signs, spaces,
 * trailing junk and (clamped) overflow. Returns false on any of those.
 */
inline bool
parseDecimal(const char *text, std::uint64_t &out)
{
    if (text[0] < '0' || text[0] > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return false;
    out = static_cast<std::uint64_t>(value);
    return true;
}

} // namespace modm

#endif // MODM_COMMON_PARSE_HH
