/**
 * @file
 * Diff, verify, and perturb .mtrace event logs.
 *
 *   trace_diff A.mtrace B.mtrace     first-divergence report; exits 0
 *                                    when identical, 1 when diverged
 *   trace_diff --verify A.mtrace     recompute the rolling hash chain
 *                                    and print a summary (the loader
 *                                    already rejects corrupt logs)
 *   trace_diff --spans A.mtrace      per-request span report derived
 *                                    from the log (arrival -> route ->
 *                                    classify -> dispatch -> serve)
 *   trace_diff --flip I A.mtrace OUT copy A with record I's kind
 *                                    perturbed and the chain rehashed
 *                                    (test fixture for divergence
 *                                    localization)
 *
 * The divergence report is the record/replay debugging loop: record
 * two runs that should be identical (run_scenario --trace-dir), then
 * this tool names the exact first event — virtual clock, queue
 * sequence, node, request, both kinds — where they parted ways.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/log.hh"
#include "src/common/parse.hh"
#include "src/obs/span.hh"
#include "src/obs/trace.hh"

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: trace_diff A.mtrace B.mtrace\n"
        "       trace_diff --verify A.mtrace\n"
        "       trace_diff --spans A.mtrace\n"
        "       trace_diff --flip INDEX A.mtrace OUT.mtrace\n");
    std::exit(2);
}

int
diffLogs(const char *path_a, const char *path_b)
{
    const auto a = modm::obs::loadTrace(path_a);
    const auto b = modm::obs::loadTrace(path_b);
    const auto d = modm::obs::firstDivergence(a, b);
    std::fputs(modm::obs::formatDivergence(d).c_str(), stdout);
    return d.diverged ? 1 : 0;
}

int
verifyLog(const char *path)
{
    // loadTrace already recomputes the chain and fatals on a footer
    // mismatch, so reaching here means the log is self-consistent.
    const auto log = modm::obs::loadTrace(path);
    std::printf("%s: %zu events, final hash %016llx\n", path,
                log.size(),
                static_cast<unsigned long long>(log.finalHash()));
    return 0;
}

int
spanReport(const char *path)
{
    const auto log = modm::obs::loadTrace(path);
    const auto spans = modm::obs::deriveSpans(log);
    for (const auto &span : spans)
        std::fputs(modm::obs::formatSpan(span).c_str(), stdout);
    std::printf("%zu requests, %zu events\n", spans.size(),
                log.size());
    return 0;
}

int
flipRecord(const char *index_text, const char *path, const char *out)
{
    std::uint64_t parsed = 0;
    if (!modm::parseDecimal(index_text, parsed))
        modm::fatal("--flip index '%s' is not a decimal event index",
                    index_text);
    const auto index = static_cast<std::size_t>(parsed);
    auto log = modm::obs::loadTrace(path);
    if (index >= log.size())
        modm::fatal("--flip index %zu out of range (%zu events)",
                    index, log.size());
    // XOR keeps the perturbation self-inverse: flipping twice restores
    // the original log bit-for-bit.
    log.mutableRecords()[index].kind ^= 1u;
    log.rechain();
    modm::obs::saveTrace(log, out);
    std::printf("flipped event %zu of %s -> %s\n", index, path, out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 3 && std::strcmp(argv[1], "--verify") == 0)
        return verifyLog(argv[2]);
    if (argc == 3 && std::strcmp(argv[1], "--spans") == 0)
        return spanReport(argv[2]);
    if (argc == 5 && std::strcmp(argv[1], "--flip") == 0)
        return flipRecord(argv[2], argv[3], argv[4]);
    if (argc == 3)
        return diffLogs(argv[1], argv[2]);
    usage();
}
