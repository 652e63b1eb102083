/**
 * @file
 * Execute any scenario file (scenarios/<name>.scn) through the sweep
 * engine.
 *
 * stdout carries exactly the rendered report table — byte-identical
 * across sweep parallelism levels, and byte-identical to the legacy
 * hard-coded figure binary for the scenarios that port one (pinned by
 * the scenario-goldens CI job). Digests (the scenario's semantic digest
 * plus one result digest per cell) go to stderr and, with
 * --digest-out, to a file the CI job diffs against the checked-in
 * golden.
 *
 * Usage: run_scenario <file.scn> [--digest-out <path>] [--canonical]
 *                     [--trace-dir <dir>]
 *   --canonical  print the canonical serialization to stdout and exit
 *                (normalizes hand-written scenario files for review).
 *   --trace-dir  record an event trace per serving-mode cell and write
 *                it to <dir>/<scenario>-<cell>.mtrace (see
 *                bench/trace_diff for the record/replay loop). Results
 *                and digests are byte-identical with tracing on. A
 *                <dir> that is not a directory, or two cells whose
 *                labels map to one file name, stop the run before any
 *                cell starts.
 */

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/sweep.hh"
#include "src/serving/scenario_exec.hh"
#include "src/workload/scenario.hh"

using namespace modm;

namespace {

/**
 * Sweep banner: the title up to the first " — " separator (so the
 * Fig. 6 port shows "[Fig. 6]" progress lines exactly like the legacy
 * binary), the scenario name when there is no title.
 */
std::string
sweepTitle(const workload::Scenario &scenario)
{
    if (scenario.title.empty())
        return scenario.name;
    const auto cut = scenario.title.find(" — ");
    return cut == std::string::npos ? scenario.title
                                    : scenario.title.substr(0, cut);
}

/** Table banner: the title verbatim, the scenario name otherwise. */
std::string
tableTitle(const workload::Scenario &scenario)
{
    return scenario.title.empty() ? "scenario " + scenario.name
                                  : scenario.title;
}

/** Cell label as a filename component (non-alphanumerics to '-'). */
std::string
fileLabel(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        const bool keep = (c >= 'a' && c <= 'z') ||
            (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
            c == '.' || c == '-' || c == '_';
        if (!keep)
            c = '-';
    }
    return out;
}

/**
 * Each cell's trace file under `dir`, in cell order. A `dir` that is
 * not a directory, and labels that map to one file name ("MoDM SDXL"
 * and "MoDM-SDXL"), are fatal errors raised before any cell runs: a
 * failed trace write would otherwise end the run from a sweep worker
 * after the first cell finished.
 */
std::vector<std::string>
tracePaths(const std::string &dir, const workload::Scenario &scenario,
           const std::vector<workload::ScenarioCell> &cells)
{
    struct stat info = {};
    if (stat(dir.c_str(), &info) != 0 || !S_ISDIR(info.st_mode))
        fatal("--trace-dir: %s is not a directory", dir.c_str());
    std::vector<std::string> paths;
    std::map<std::string, std::string> labelOf;
    for (const auto &cell : cells) {
        std::string path = dir + "/" + scenario.name + "-" +
            fileLabel(cell.label) + ".mtrace";
        const auto [it, fresh] = labelOf.emplace(path, cell.label);
        if (!fresh)
            fatal("--trace-dir: cells \"%s\" and \"%s\" would both write "
                  "%s",
                  it->second.c_str(), cell.label.c_str(), path.c_str());
        paths.push_back(std::move(path));
    }
    return paths;
}

/** Hex-float digest of a hit-rate curve (resultDigest convention). */
std::uint64_t
curveDigest(const std::vector<double> &curve)
{
    std::string text;
    char buf[64];
    for (const double v : curve) {
        std::snprintf(buf, sizeof buf, "%a\n", v);
        text += buf;
    }
    return workload::fnv1a64(text);
}

/** One "key value" digest line in the canonical %016llx format. */
std::string
digestLine(const std::string &key, std::uint64_t digest)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    return key + " " + buf + "\n";
}

void
renderHitCurve(const workload::Scenario &scenario,
               const std::vector<workload::ScenarioCell> &cells,
               const std::vector<std::vector<double>> &curves)
{
    std::vector<std::string> headers = {"requests"};
    for (const auto &cell : cells)
        headers.push_back("hit rate (" + cell.label + ")");
    Table t(headers);
    const std::size_t rows = curves.empty() ? 0 : curves.front().size();
    for (std::size_t i = 0; i < rows; ++i) {
        std::vector<std::string> row = {Table::fmt(
            static_cast<std::uint64_t>((i + 1) * scenario.window))};
        for (const auto &curve : curves)
            row.push_back(Table::fmt(curve[i], 3));
        t.addRow(row);
    }
    t.print(tableTitle(scenario));
}

void
renderEnergy(const workload::Scenario &scenario,
             const std::vector<workload::ScenarioCell> &cells,
             const std::vector<serving::ServingResult> &results)
{
    std::vector<double> energyPerRequest;
    for (const auto &result : results)
        energyPerRequest.push_back(result.energyJ /
                                   result.metrics.count());

    Table t({"system", "energy/request (kJ)", "savings", "paper"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const double savings =
            1.0 - energyPerRequest[i] / energyPerRequest.front();
        t.addRow({cells[i].label,
                  Table::fmt(energyPerRequest[i] / 1e3, 1),
                  Table::fmt(100.0 * savings, 1) + "%",
                  cells[i].paper});
    }
    t.print(tableTitle(scenario));
}

void
renderThroughput(const workload::Scenario &scenario,
                 const std::vector<workload::ScenarioCell> &cells,
                 const std::vector<serving::ServingResult> &results)
{
    Table t({"system", "throughput/min", "normalized", "paper",
             "hit rate", "mean k"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &r = results[i];
        t.addRow({cells[i].label, Table::fmt(r.throughputPerMin),
                  Table::fmt(r.throughputPerMin /
                                 results.front().throughputPerMin,
                             2),
                  cells[i].paper, Table::fmt(r.hitRate),
                  Table::fmt(r.metrics.meanK(), 1)});
    }
    t.print(tableTitle(scenario));
}

void
renderQuality(const workload::Scenario &scenario,
              const std::vector<workload::ScenarioCell> &cells,
              const std::vector<eval::QualityReport> &reports)
{
    Table t({"baseline", "CLIP", "FID", "IS", "Pick", "paper CLIP",
             "paper FID"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &q = reports[i];
        // paper= is "<clip>,<fid>" (the parser checks) or absent.
        const auto &paper = cells[i].paper;
        const std::size_t comma = paper.find(',');
        const bool annotated = comma != std::string::npos;
        t.addRow({cells[i].label, Table::fmt(q.clip), Table::fmt(q.fid),
                  Table::fmt(q.is), Table::fmt(q.pick),
                  annotated ? paper.substr(0, comma) : "",
                  annotated ? paper.substr(comma + 1) : ""});
    }
    t.print(tableTitle(scenario));
}

void
renderTable(const workload::Scenario &scenario,
            const std::vector<workload::ScenarioCell> &cells,
            const std::vector<serving::ServingResult> &results)
{
    Table t({"cell", "completed", "throughput/min", "hit rate",
             "mean latency (s)", "p99 (s)", "energy (kJ)"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &r = results[i];
        t.addRow({cells[i].label,
                  Table::fmt(static_cast<std::uint64_t>(
                      r.metrics.count())),
                  Table::fmt(r.throughputPerMin, 1),
                  Table::fmt(r.hitRate, 3),
                  Table::fmt(r.metrics.meanLatency(), 2),
                  Table::fmt(r.metrics.latencyPercentile(99.0), 2),
                  Table::fmt(r.energyJ / 1e3, 1)});
    }
    t.print(tableTitle(scenario));
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    std::string digestOut;
    std::string traceDir;
    bool canonical = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--canonical") == 0) {
            canonical = true;
        } else if (std::strcmp(argv[i], "--digest-out") == 0) {
            if (++i >= argc)
                fatal("--digest-out needs a path");
            digestOut = argv[i];
        } else if (std::strcmp(argv[i], "--trace-dir") == 0) {
            if (++i >= argc)
                fatal("--trace-dir needs a directory");
            traceDir = argv[i];
        } else if (path.empty()) {
            path = argv[i];
        } else {
            fatal("usage: run_scenario <file.scn> "
                  "[--digest-out <path>] [--canonical] "
                  "[--trace-dir <dir>]");
        }
    }
    if (path.empty())
        fatal("usage: run_scenario <file.scn> "
              "[--digest-out <path>] [--canonical] "
              "[--trace-dir <dir>]");

    const auto scenario = workload::loadScenarioFile(path);
    if (canonical) {
        std::fputs(workload::canonicalScenario(scenario).c_str(),
                   stdout);
        return 0;
    }

    std::vector<workload::ScenarioCell> cells;
    for (std::size_t i = 0; i < scenario.cellCount(); ++i)
        cells.push_back(scenario.cell(i));

    bench::SweepOptions options;
    options.title = sweepTitle(scenario);
    std::vector<std::string> labels;
    for (const auto &cell : cells)
        labels.push_back(cell.label);

    // Digest text: scenario digest first, then one line per cell, then
    // a combined digest folding the cell lines over the scenario's.
    std::string digests =
        digestLine("scenario " + scenario.name,
                   workload::scenarioDigest(scenario));
    std::uint64_t combined = workload::scenarioDigest(scenario);

    if (scenario.mode == workload::ScenarioMode::CacheStream) {
        if (!traceDir.empty())
            warn("--trace-dir ignored: cache-stream scenarios run no "
                 "event queue");
        std::vector<std::function<std::vector<double>()>> cellFns;
        for (const auto &cell : cells) {
            cellFns.push_back([&scenario, cell] {
                return serving::runScenarioCacheStream(scenario, cell);
            });
        }
        const auto curves = bench::runCells<std::vector<double>>(
            cellFns, options, labels);
        renderHitCurve(scenario, cells, curves);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const auto line =
                digestLine("cell " + cells[i].label,
                           curveDigest(curves[i]));
            digests += line;
            combined = workload::fnv1a64(line, combined);
        }
    } else {
        const std::vector<std::string> paths = traceDir.empty()
            ? std::vector<std::string>()
            : tracePaths(traceDir, scenario, cells);
        // Each cell scores its outputs (report quality) and takes its
        // result digest inside the sweep cell, each into its own slot,
        // then drops the kept prompts, images and the trace they refer
        // to, so a sweep never holds more than the cells in flight keep.
        std::vector<eval::QualityReport> quality(cells.size());
        std::vector<std::uint64_t> resultDigests(cells.size());
        const bool scored =
            scenario.report == workload::ScenarioReport::Quality;
        std::vector<std::function<serving::ServingResult()>> cellFns;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const auto &cell = cells[i];
            obs::TraceConfig trace;
            if (!paths.empty()) {
                trace.events = true;
                trace.path = paths[i];
            }
            eval::QualityReport *slot = scored ? &quality[i] : nullptr;
            std::uint64_t *digest = &resultDigests[i];
            cellFns.push_back([&scenario, cell, trace, slot, digest] {
                auto result =
                    serving::runScenarioCell(scenario, cell, trace);
                if (slot != nullptr)
                    *slot = serving::scoreScenarioCell(cell, result);
                *digest =
                    workload::fnv1a64(serving::resultDigest(result));
                result.prompts = {};
                result.images = {};
                result.promptOwner = nullptr;
                return result;
            });
        }
        const auto results = bench::runCells<serving::ServingResult>(
            cellFns, options, labels);
        if (scenario.report == workload::ScenarioReport::Energy)
            renderEnergy(scenario, cells, results);
        else if (scenario.report == workload::ScenarioReport::Throughput)
            renderThroughput(scenario, cells, results);
        else if (scored)
            renderQuality(scenario, cells, quality);
        else
            renderTable(scenario, cells, results);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const auto line =
                digestLine("cell " + cells[i].label, resultDigests[i]);
            digests += line;
            combined = workload::fnv1a64(line, combined);
        }
    }
    digests += digestLine("combined", combined);

    std::fputs(digests.c_str(), stderr);
    if (!digestOut.empty()) {
        FILE *f = std::fopen(digestOut.c_str(), "w");
        if (!f)
            fatal("cannot write %s", digestOut.c_str());
        const bool ok = std::fputs(digests.c_str(), f) >= 0;
        if (std::fclose(f) != 0 || !ok)
            fatal("short write on digest file %s", digestOut.c_str());
    }
    return 0;
}
