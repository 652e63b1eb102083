/**
 * @file
 * Incremental sweep result cache: content-addressed persistence for
 * sweep cells, so re-running a figure/ablation binary with an
 * unchanged configuration recomputes nothing.
 *
 * Every cached cell is keyed by (code-version salt, semantic key):
 *
 *  - The semantic key is a single line the binary builds from every
 *    input that determines the cell's result — binary name, cell
 *    label, knob values, trace sizes, env switches that change what is
 *    computed. Two cells with equal keys MUST be byte-equal
 *    computations.
 *  - The salt defaults to an FNV-1a hash of the running executable's
 *    own image (/proc/self/exe), so ANY rebuild — a one-line change in
 *    a src/ library included via relink — invalidates the whole cache
 *    without tracking dependencies. MODM_SWEEP_CACHE_SALT overrides it
 *    (tests pin a fixed salt; power users can share caches across
 *    rebuilds they know are equivalent).
 *
 * Entries live one-per-file under MODM_SWEEP_CACHE_DIR (default
 * build/sweep-cache), named by the hash of (salt, key) with the full
 * key stored verbatim inside — a load re-checks salt and key
 * string-equality, so hash collisions and stale salts read as misses,
 * never as wrong data. Malformed or truncated files also read as
 * misses and are recomputed; the cache can be deleted at any time.
 *
 * Payloads are caller-encoded strings. For the common numeric-cell
 * case, encodeDoubles/decodeDoubles round-trip doubles through C99
 * hex-float (%a) formatting, so a warm table is byte-identical to the
 * cold run that populated it — including wall-clock columns, which
 * replay the measured (cold) values instead of re-measuring.
 *
 * The cache is OPT-IN via MODM_SWEEP_CACHE=1: determinism CI compares
 * parallelism levels by recomputation, which a silently-warm cache
 * would short-circuit.
 */

#ifndef MODM_BENCH_SWEEP_CACHE_HH
#define MODM_BENCH_SWEEP_CACHE_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/common/hash.hh"
#include "src/common/log.hh"

namespace modm::bench {

/** True when MODM_SWEEP_CACHE=1 enables the cell cache. */
inline bool
sweepCacheEnabled()
{
    const char *env = std::getenv("MODM_SWEEP_CACHE");
    return env != nullptr && std::strcmp(env, "1") == 0;
}

/** Cache directory (MODM_SWEEP_CACHE_DIR, default build/sweep-cache). */
inline std::string
sweepCacheDir()
{
    if (const char *env = std::getenv("MODM_SWEEP_CACHE_DIR")) {
        if (env[0] != '\0')
            return env;
    }
    return "build/sweep-cache";
}

/**
 * Hash of the running binary's own image, computed once per process.
 * An unreadable image degrades to a constant — correctness then rests
 * on the verbatim key check alone.
 */
inline const std::string &
selfImageHash()
{
    static const std::string hash = [] {
        std::uint64_t h = kFnvBasis;
        bool hashed = false;
        if (FILE *self = std::fopen("/proc/self/exe", "rb")) {
            char buf[1 << 16];
            std::size_t n;
            while ((n = std::fread(buf, 1, sizeof buf, self)) > 0) {
                h = fnv1a64({buf, n}, h);
                hashed = true;
            }
            std::fclose(self);
        }
        if (!hashed)
            return std::string("unsalted");
        char out[24];
        std::snprintf(out, sizeof out, "%016llx",
                      static_cast<unsigned long long>(h));
        return std::string(out);
    }();
    return hash;
}

/**
 * Code-version salt: MODM_SWEEP_CACHE_SALT when set, else the hash of
 * the running binary. The env read is NOT memoized (only the image
 * hash is), so tests can flip the salt mid-process and watch entries
 * invalidate.
 */
inline std::string
sweepCacheSalt()
{
    if (const char *env = std::getenv("MODM_SWEEP_CACHE_SALT")) {
        if (env[0] != '\0')
            return env;
    }
    return selfImageHash();
}

/** Entry path for a key: hash(salt \n key) under the cache dir. */
inline std::string
sweepCachePath(const std::string &key)
{
    const std::string full = sweepCacheSalt() + "\n" + key;
    char name[32];
    std::snprintf(name, sizeof name, "%016llx.cell",
                  static_cast<unsigned long long>(
                      fnv1a64(full)));
    return sweepCacheDir() + "/" + name;
}

/**
 * Look up a cell payload. True only when the entry exists, carries
 * the current salt, and stores this exact key (collisions and stale
 * or corrupted entries read as misses).
 */
inline bool
sweepCacheLoad(const std::string &key, std::string &payload)
{
    if (!sweepCacheEnabled())
        return false;
    MODM_ASSERT(key.find('\n') == std::string::npos,
                "sweep-cache keys must be single-line");
    FILE *in = std::fopen(sweepCachePath(key).c_str(), "rb");
    if (in == nullptr)
        return false;
    std::string text;
    char buf[1 << 12];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, in)) > 0)
        text.append(buf, n);
    const bool readError = std::ferror(in) != 0;
    std::fclose(in);
    if (readError)
        return false;
    // Header: magic, salt, key — each its own line, matched verbatim.
    const std::string expect = "modm-sweep-cache v1\n" +
        sweepCacheSalt() + "\n" + key + "\n";
    if (text.size() < expect.size() ||
        text.compare(0, expect.size(), expect) != 0)
        return false;
    payload = text.substr(expect.size());
    return true;
}

/**
 * Persist a cell payload (no-op when the cache is off). Writes to a
 * temp file and renames, so a concurrent reader never sees a torn
 * entry; a failed write leaves at most a stray .tmp behind.
 */
inline void
sweepCacheStore(const std::string &key, const std::string &payload)
{
    if (!sweepCacheEnabled())
        return;
    MODM_ASSERT(key.find('\n') == std::string::npos,
                "sweep-cache keys must be single-line");
    std::error_code ec;
    std::filesystem::create_directories(sweepCacheDir(), ec);
    if (ec)
        return;
    const std::string path = sweepCachePath(key);
    const std::string tmp = path + ".tmp";
    FILE *out = std::fopen(tmp.c_str(), "wb");
    if (out == nullptr)
        return;
    const std::string text = "modm-sweep-cache v1\n" +
        sweepCacheSalt() + "\n" + key + "\n" + payload;
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), out) == text.size();
    std::fclose(out);
    if (ok)
        std::filesystem::rename(tmp, path, ec);
    else
        std::filesystem::remove(tmp, ec);
}

/**
 * Encode doubles as one hex-float (%a) line: exact round-trip, so a
 * warm cell replays bit-identical values.
 */
inline std::string
encodeDoubles(const std::vector<double> &values)
{
    std::string out;
    out.reserve(values.size() * 26 + 2);
    char buf[64];
    for (std::size_t i = 0; i < values.size(); ++i) {
        std::snprintf(buf, sizeof buf, i == 0 ? "%a" : " %a",
                      values[i]);
        out += buf;
    }
    out += "\n";
    return out;
}

/** Decode an encodeDoubles payload; false on any malformed token. */
inline bool
decodeDoubles(const std::string &payload, std::vector<double> &values)
{
    values.clear();
    const char *p = payload.c_str();
    while (*p == ' ' || *p == '\n')
        ++p;
    while (*p != '\0') {
        char *end = nullptr;
        const double v = std::strtod(p, &end);
        if (end == p)
            return false; // trailing garbage: corrupted entry
        values.push_back(v);
        p = end;
        while (*p == ' ' || *p == '\n')
            ++p;
    }
    return !values.empty();
}

/**
 * The one-liner sweep binaries use: return the cached doubles for
 * `key` when present (and exactly `count` long), else compute, store,
 * and return them. The computed vector must always be `count` long —
 * the payload length doubles as a structural checksum.
 */
template <typename Compute>
std::vector<double>
cachedCell(const std::string &key, std::size_t count, Compute &&compute)
{
    std::string payload;
    std::vector<double> values;
    if (sweepCacheLoad(key, payload) &&
        decodeDoubles(payload, values) && values.size() == count)
        return values;
    values = compute();
    MODM_ASSERT(values.size() == count,
                "sweep-cache cell \"%s\" computed %zu values, "
                "expected %zu",
                key.c_str(), values.size(), count);
    sweepCacheStore(key, encodeDoubles(values));
    return values;
}

} // namespace modm::bench

#endif // MODM_BENCH_SWEEP_CACHE_HH
