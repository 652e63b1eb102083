#include "src/workload/scenario.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>

#include "src/common/log.hh"
#include "src/common/parse.hh"

namespace modm::workload {
namespace {

/** Regional generator indices live in [1, kMaxRegions]. */
constexpr std::size_t kMaxRegions = 8;

// ---------------------------------------------------------------------
// Token tables: each token names a serving-stack value. The token is
// the canonical spelling; parsing accepts exactly these spellings
// (strictness keeps the digest well-defined).
// ---------------------------------------------------------------------

template <typename E>
struct EnumTok
{
    E value;
    const char *token;
};

const EnumTok<ScenarioMode> kModes[] = {
    {ScenarioMode::Serving, "serving"},
    {ScenarioMode::CacheStream, "cache-stream"},
};

const EnumTok<ScenarioDataset> kDatasets[] = {
    {ScenarioDataset::DiffusionDB, "diffusiondb"},
    {ScenarioDataset::MJHQ, "mjhq"},
};

const EnumTok<serving::SystemKind> kSystems[] = {
    {serving::SystemKind::MoDM, "modm"},
    {serving::SystemKind::Vanilla, "vanilla"},
    {serving::SystemKind::Nirvana, "nirvana"},
    {serving::SystemKind::Pinecone, "pinecone"},
    {serving::SystemKind::StandaloneSmall, "standalone-small"},
};

/** Model tokens name registry factories; a spec prints by its name. */
using ModelFactory = diffusion::ModelSpec (*)();

const EnumTok<ModelFactory> kModels[] = {
    {diffusion::sd35Large, "sd35-large"},
    {diffusion::flux1Dev, "flux1-dev"},
    {diffusion::sdxl, "sdxl"},
    {diffusion::sana, "sana"},
    {diffusion::sd35LargeTurbo, "sd35-turbo"},
};

const EnumTok<diffusion::GpuKind> kGpus[] = {
    {diffusion::GpuKind::A40, "a40"},
    {diffusion::GpuKind::MI210, "mi210"},
};

const EnumTok<cache::EvictionPolicy> kEvictions[] = {
    {cache::EvictionPolicy::FIFO, "fifo"},
    {cache::EvictionPolicy::LRU, "lru"},
    {cache::EvictionPolicy::Utility, "utility"},
};

const EnumTok<serving::RoutingPolicy> kRoutings[] = {
    {serving::RoutingPolicy::RoundRobin, "round-robin"},
    {serving::RoutingPolicy::ConsistentHash, "consistent-hash"},
    {serving::RoutingPolicy::LeastOutstanding, "least-outstanding"},
    {serving::RoutingPolicy::BoundedLoadConsistentHash, "bounded-load"},
};

const EnumTok<serving::CachePartitioning> kPartitionings[] = {
    {serving::CachePartitioning::Sharded, "sharded"},
    {serving::CachePartitioning::Replicated, "replicated"},
};

/** The one `retrieval` value: every cache runs the exact flat scan. */
const char kRetrievalFlat[] = "flat";

const EnumTok<ScenarioReport> kReports[] = {
    {ScenarioReport::Table, "table"},
    {ScenarioReport::HitCurve, "hit-curve"},
    {ScenarioReport::Energy, "energy"},
    {ScenarioReport::Throughput, "throughput"},
    {ScenarioReport::Quality, "quality"},
};

const EnumTok<serving::FaultKind> kFaultVerbs[] = {
    {serving::FaultKind::Kill, "kill"},
    {serving::FaultKind::Drain, "drain"},
    {serving::FaultKind::Rejoin, "rejoin"},
};

/** `at <t> set <knob> <value>`: the knob names, then the mode values. */
const EnumTok<serving::KnobTarget> kKnobs[] = {
    {serving::KnobTarget::MonitorMode, "mode"},
    {serving::KnobTarget::CacheCapacity, "cache"},
    {serving::KnobTarget::ReplicationFactor, "replicas"},
};

const EnumTok<serving::MonitorMode> kKnobModes[] = {
    {serving::MonitorMode::ThroughputOptimized, "throughput"},
    {serving::MonitorMode::QualityOptimized, "quality"},
};

template <typename E, std::size_t N>
bool
lookupEnum(const EnumTok<E> (&table)[N], const std::string &tok, E &out)
{
    for (const auto &entry : table) {
        if (tok == entry.token) {
            out = entry.value;
            return true;
        }
    }
    return false;
}

template <typename E, std::size_t N>
const char *
enumToken(const EnumTok<E> (&table)[N], E value)
{
    for (const auto &entry : table)
        if (entry.value == value)
            return entry.token;
    panic("unmapped scenario enum value");
}

bool
lookupModel(const std::string &tok, diffusion::ModelSpec &out)
{
    ModelFactory make = nullptr;
    if (!lookupEnum(kModels, tok, make))
        return false;
    out = make();
    return true;
}

const char *
modelToken(const diffusion::ModelSpec &model)
{
    for (const auto &entry : kModels)
        if (entry.value().name == model.name)
            return entry.token;
    panic("model '%s' has no scenario token", model.name.c_str());
}

template <typename E, std::size_t N>
std::string
enumChoices(const EnumTok<E> (&table)[N])
{
    std::string out;
    for (const auto &entry : table) {
        if (!out.empty())
            out += "|";
        out += entry.token;
    }
    return out;
}

// ---------------------------------------------------------------------
// Scalar formatting / parsing.
// ---------------------------------------------------------------------

/** Shortest %g form that parses back to the exact same double. */
std::string
fmtDouble(double value)
{
    char buf[64];
    // Integral values print as plain integers ("2500", never
    // "2.5e+03") — op times and rates are usually whole numbers and
    // the canonical text should read like the hand-written source.
    if (value == std::floor(value) && std::fabs(value) < 1e15) {
        std::snprintf(buf, sizeof buf, "%.0f", value);
        return buf;
    }
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, value);
        if (std::strtod(buf, nullptr) == value)
            break;
    }
    return buf;
}

std::string
fmtU64(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(value));
    return buf;
}

bool
parseU64(const std::string &tok, std::uint64_t &out)
{
    return parseDecimal(tok.c_str(), out);
}

bool
parseSize(const std::string &tok, std::size_t &out)
{
    std::uint64_t v = 0;
    if (!parseU64(tok, v))
        return false;
    out = static_cast<std::size_t>(v);
    return static_cast<std::uint64_t>(out) == v;
}

bool
parseDouble(const std::string &tok, double &out)
{
    if (tok.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtod(tok.c_str(), &end);
    return errno == 0 && end != nullptr && *end == '\0' &&
           std::isfinite(out);
}

// ---------------------------------------------------------------------
// Tokenizer: whitespace-separated, double quotes group one token,
// '#' starts a comment outside quotes.
// ---------------------------------------------------------------------

struct Tok
{
    std::string text;
    bool quoted = false;
};

bool
tokenizeLine(const std::string &line, std::vector<Tok> &out,
             std::string &err)
{
    out.clear();
    std::size_t i = 0;
    const std::size_t n = line.size();
    while (i < n) {
        while (i < n && std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
        if (i >= n || line[i] == '#')
            break;
        if (line[i] == '"') {
            const std::size_t close = line.find('"', i + 1);
            if (close == std::string::npos) {
                err = "unterminated quote";
                return false;
            }
            out.push_back({line.substr(i + 1, close - i - 1), true});
            i = close + 1;
        } else {
            std::size_t end = i;
            while (end < n &&
                   !std::isspace(static_cast<unsigned char>(line[end])))
                ++end;
            out.push_back({line.substr(i, end - i), false});
            i = end;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// Param fields (shared between header directives and cell overrides).
// ---------------------------------------------------------------------

/** Canonical order of the overridable param keys. */
const char *const kParamKeys[] = {
    "system", "large",        "small",    "workers",
    "gpu",    "cache",        "eviction", "nodes",
    "routing", "partitioning", "replicas", "retrieval",
};

std::string
smallListToken(const std::vector<diffusion::ModelSpec> &small)
{
    if (small.empty())
        return "none";
    std::string out;
    for (const auto &model : small) {
        if (!out.empty())
            out += ",";
        out += modelToken(model);
    }
    return out;
}

bool
parseSmallList(const std::string &value,
               std::vector<diffusion::ModelSpec> &out, std::string &err)
{
    out.clear();
    if (value == "none")
        return true;
    std::size_t start = 0;
    while (true) {
        std::size_t comma = value.find(',', start);
        if (comma == std::string::npos)
            comma = value.size();
        const std::string item = value.substr(start, comma - start);
        diffusion::ModelSpec model;
        if (!lookupModel(item, model)) {
            err = "unknown model '" + item + "' (expected " +
                  enumChoices(kModels) + " or none)";
            return false;
        }
        out.push_back(std::move(model));
        if (comma == value.size())
            break;
        start = comma + 1;
    }
    return true;
}

/**
 * Apply one `key value` pair to a param block. `known` reports whether
 * the key was a param key at all; the return value is false (with a
 * message in `err`) when the key was known but the value is bad.
 */
bool
applyParamField(ScenarioParams &params, const std::string &key,
                const std::string &value, bool &known, std::string &err)
{
    const auto badEnum = [&](const char *what,
                             const std::string &choices) {
        err = std::string("unknown ") + what + " '" + value +
              "' (expected " + choices + ")";
        return false;
    };
    const auto positive = [&](std::size_t &out) {
        if (!parseSize(value, out) || out == 0) {
            err = key + " must be a positive integer, got '" + value +
                  "'";
            return false;
        }
        return true;
    };

    known = true;
    if (key == "system")
        return lookupEnum(kSystems, value, params.system) ||
               badEnum("system", enumChoices(kSystems));
    if (key == "large")
        return lookupModel(value, params.large) ||
               badEnum("model", enumChoices(kModels));
    if (key == "small")
        return parseSmallList(value, params.small, err);
    if (key == "workers")
        return positive(params.workers);
    if (key == "gpu")
        return lookupEnum(kGpus, value, params.gpu) ||
               badEnum("gpu", enumChoices(kGpus));
    if (key == "cache")
        return positive(params.cache);
    if (key == "eviction")
        return lookupEnum(kEvictions, value, params.eviction) ||
               badEnum("eviction policy", enumChoices(kEvictions));
    if (key == "nodes")
        return positive(params.nodes);
    if (key == "routing")
        return lookupEnum(kRoutings, value, params.routing) ||
               badEnum("routing policy", enumChoices(kRoutings));
    if (key == "partitioning")
        return lookupEnum(kPartitionings, value, params.partitioning) ||
               badEnum("partitioning", enumChoices(kPartitionings));
    if (key == "replicas")
        return positive(params.replicas);
    if (key == "retrieval") {
        if (value == kRetrievalFlat)
            return true;
        err = "unknown retrieval backend '" + value + "' (expected " +
              kRetrievalFlat + ")";
        return false;
    }
    known = false;
    return true;
}

std::string
paramValueToken(const ScenarioParams &params, const std::string &key)
{
    if (key == "system")
        return enumToken(kSystems, params.system);
    if (key == "large")
        return modelToken(params.large);
    if (key == "small")
        return smallListToken(params.small);
    if (key == "workers")
        return fmtU64(params.workers);
    if (key == "gpu")
        return enumToken(kGpus, params.gpu);
    if (key == "cache")
        return fmtU64(params.cache);
    if (key == "eviction")
        return enumToken(kEvictions, params.eviction);
    if (key == "nodes")
        return fmtU64(params.nodes);
    if (key == "routing")
        return enumToken(kRoutings, params.routing);
    if (key == "partitioning")
        return enumToken(kPartitionings, params.partitioning);
    if (key == "replicas")
        return fmtU64(params.replicas);
    if (key == "retrieval")
        return kRetrievalFlat;
    panic("unknown param key '%s'", key.c_str());
}

/** Canonical text of one op (no trailing newline). */
std::string
opLine(const ScenarioOp &op)
{
    std::string out = "at " + fmtDouble(op.time) + " ";
    switch (op.kind) {
      case ScenarioOp::Kind::Rate:
        return out + "rate " + fmtDouble(op.rate);
      case ScenarioOp::Kind::Ramp:
        return out + "ramp to " + fmtDouble(op.rate) + " over " +
               fmtDouble(op.duration) + " steps " + fmtU64(op.steps);
      case ScenarioOp::Kind::Flash:
        return out + "flash x" + fmtDouble(op.factor) + " for " +
               fmtDouble(op.duration);
      case ScenarioOp::Kind::Diurnal:
        return out + "diurnal base " + fmtDouble(op.base) + " amp " +
               fmtDouble(op.amplitude) + " period " +
               fmtDouble(op.period) + " for " + fmtDouble(op.duration) +
               " steps " + fmtU64(op.steps);
      case ScenarioOp::Kind::Drift:
        return out + "drift to seed " + fmtU64(op.driftSeed) + " over " +
               fmtDouble(op.duration);
      case ScenarioOp::Kind::Region:
        return out + "region " + fmtU64(op.region) + " weight " +
               fmtDouble(op.weight);
      case ScenarioOp::Kind::Fault:
        return out + enumToken(kFaultVerbs, op.fault) + " " +
               fmtU64(op.node);
      case ScenarioOp::Kind::Knob:
        return out + "set " + enumToken(kKnobs, op.knob.target) + " " +
               (op.knob.target == serving::KnobTarget::MonitorMode
                    ? enumToken(kKnobModes, op.knob.mode)
                    : fmtU64(op.knob.value));
    }
    panic("unmapped op kind");
}

// ---------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------

class Parser
{
  public:
    Parser(std::istream &in, const std::string &filename, Scenario &out)
        : in_(in), filename_(filename), out_(out)
    {
    }

    /** Empty string on success, "<file>:<line>: message" on failure. */
    std::string run();

  private:
    enum class Section
    {
        Header,
        Ops,
        Cells,
    };

    bool fail(const std::string &message)
    {
        return failAt(lineNo_, message);
    }

    bool failAt(int line, const std::string &message)
    {
        error_ =
            filename_ + ":" + std::to_string(line) + ": " + message;
        return false;
    }

    bool handleLine(const std::vector<Tok> &toks);
    bool handleHeader(const std::vector<Tok> &toks);
    bool handleOp(const std::vector<Tok> &toks);
    bool handleCell(const std::vector<Tok> &toks);
    bool validate();
    bool validateArrivalOps();
    bool validateMixOps();
    bool validateFaultOps();
    bool validateKnobOps();
    /** Source line of the `index`-th op of `kind` (a plan's event). */
    int sourceLine(ScenarioOp::Kind kind, std::size_t index) const;

    std::istream &in_;
    std::string filename_;
    Scenario &out_;
    int lineNo_ = 0;
    int scenarioLine_ = 1;
    Section section_ = Section::Header;
    std::set<std::string> seenKeys_;
    bool sawRequests_ = false;
    bool sawDuration_ = false;
    std::string error_;
};

std::string
Parser::run()
{
    out_ = Scenario{};
    std::string line;
    while (std::getline(in_, line)) {
        ++lineNo_;
        std::vector<Tok> toks;
        std::string tokErr;
        if (!tokenizeLine(line, toks, tokErr)) {
            fail(tokErr);
            return error_;
        }
        if (toks.empty())
            continue;
        if (!handleLine(toks))
            return error_;
    }
    if (out_.name.empty()) {
        failAt(1, "missing 'scenario <name>' directive");
        return error_;
    }
    if (!validate())
        return error_;
    return std::string();
}

bool
Parser::handleLine(const std::vector<Tok> &toks)
{
    const std::string &key = toks[0].text;
    if (out_.name.empty() && key != "scenario")
        return fail("first directive must be 'scenario <name>', got '" +
                    key + "'");
    if (key == "at") {
        if (section_ == Section::Cells)
            return fail("ops must precede cells");
        section_ = Section::Ops;
        return handleOp(toks);
    }
    if (key == "cell") {
        section_ = Section::Cells;
        return handleCell(toks);
    }
    if (section_ != Section::Header)
        return fail("header directive '" + key +
                    "' must precede ops and cells");
    return handleHeader(toks);
}

bool
Parser::handleHeader(const std::vector<Tok> &toks)
{
    const std::string &key = toks[0].text;
    if (!seenKeys_.insert(key).second)
        return fail("duplicate directive '" + key + "'");
    if (toks.size() != 2)
        return fail("directive '" + key + "' expects exactly one value");
    const std::string &value = toks[1].text;

    if (key == "scenario") {
        if (toks[1].quoted || value.empty())
            return fail("scenario name must be a bare identifier");
        for (const char c : value)
            if (!std::isalnum(static_cast<unsigned char>(c)) &&
                c != '_' && c != '-')
                return fail("scenario name may use [A-Za-z0-9_-] only, "
                            "got '" +
                            value + "'");
        out_.name = value;
        scenarioLine_ = lineNo_;
        return true;
    }
    if (key == "title") {
        if (!toks[1].quoted)
            return fail("title must be a quoted string");
        out_.title = value;
        return true;
    }
    if (key == "seed") {
        if (!parseU64(value, out_.seed))
            return fail("seed must be an unsigned integer, got '" +
                        value + "'");
        return true;
    }
    if (key == "mode") {
        if (!lookupEnum(kModes, value, out_.mode))
            return fail("unknown mode '" + value + "' (expected " +
                        enumChoices(kModes) + ")");
        return true;
    }
    if (key == "dataset") {
        if (!lookupEnum(kDatasets, value, out_.dataset))
            return fail("unknown dataset '" + value + "' (expected " +
                        enumChoices(kDatasets) + ")");
        return true;
    }
    if (key == "warm") {
        if (!parseSize(value, out_.warm))
            return fail("warm must be an unsigned integer, got '" +
                        value + "'");
        return true;
    }
    if (key == "requests") {
        if (!parseSize(value, out_.requests) || out_.requests == 0)
            return fail("requests must be a positive integer, got '" +
                        value + "'");
        if (sawDuration_)
            return fail("specify exactly one of requests/duration");
        sawRequests_ = true;
        return true;
    }
    if (key == "duration") {
        if (!parseDouble(value, out_.duration) || out_.duration <= 0.0)
            return fail("duration must be a positive number of "
                        "seconds, got '" +
                        value + "'");
        if (sawRequests_)
            return fail("specify exactly one of requests/duration");
        sawDuration_ = true;
        return true;
    }
    if (key == "rate") {
        if (!parseDouble(value, out_.rate) || out_.rate < 0.0)
            return fail("rate must be >= 0 requests/minute, got '" +
                        value + "'");
        return true;
    }
    if (key == "window") {
        if (!parseSize(value, out_.window) || out_.window == 0)
            return fail("window must be a positive request count, "
                        "got '" +
                        value + "'");
        return true;
    }
    if (key == "sampler-seed") {
        if (!parseU64(value, out_.samplerSeed))
            return fail("sampler-seed must be an unsigned integer, "
                        "got '" +
                        value + "'");
        return true;
    }
    if (key == "recovery-window") {
        if (!parseSize(value, out_.recoveryWindow) ||
            out_.recoveryWindow == 0)
            return fail("recovery-window must be a positive count, "
                        "got '" +
                        value + "'");
        return true;
    }
    if (key == "report") {
        if (!lookupEnum(kReports, value, out_.report))
            return fail("unknown report '" + value + "' (expected " +
                        enumChoices(kReports) + ")");
        return true;
    }

    bool known = false;
    std::string err;
    if (!applyParamField(out_.params, key, value, known, err))
        return fail(err);
    if (!known)
        return fail("unknown directive '" + key + "'");
    return true;
}

bool
Parser::handleOp(const std::vector<Tok> &toks)
{
    ScenarioOp op;
    op.line = lineNo_;
    if (toks.size() < 4)
        return fail("op needs at least 'at <time> <op> <arg>'");
    if (!parseDouble(toks[1].text, op.time) || op.time < 0.0)
        return fail("op time must be >= 0 seconds, got '" +
                    toks[1].text + "'");
    if (!out_.ops.empty() && op.time < out_.ops.back().time)
        return fail("op at t=" + fmtDouble(op.time) +
                    " precedes the previous op at t=" +
                    fmtDouble(out_.ops.back().time) +
                    " (ops must be time-ordered)");

    const std::string &verb = toks[2].text;
    const auto want = [&](std::size_t n, const char *usage) {
        if (toks.size() == n)
            return true;
        return fail(std::string("usage: at <time> ") + usage);
    };
    const auto keyword = [&](std::size_t i, const char *word) {
        if (toks[i].text == word)
            return true;
        return fail("expected '" + std::string(word) + "', got '" +
                    toks[i].text + "'");
    };
    const auto positiveDouble = [&](std::size_t i, const char *what,
                                    double &slot) {
        if (!parseDouble(toks[i].text, slot) || slot <= 0.0)
            return fail(std::string(what) + " must be > 0, got '" +
                        toks[i].text + "'");
        return true;
    };
    const auto positiveSize = [&](std::size_t i, const char *what,
                                  std::size_t &slot) {
        if (!parseSize(toks[i].text, slot) || slot == 0)
            return fail(std::string(what) +
                        " must be a positive integer, got '" +
                        toks[i].text + "'");
        return true;
    };

    if (verb == "rate") {
        op.kind = ScenarioOp::Kind::Rate;
        if (!want(4, "rate <requests/min>") ||
            !positiveDouble(3, "rate", op.rate))
            return false;
    } else if (verb == "ramp") {
        op.kind = ScenarioOp::Kind::Ramp;
        if (!want(9, "ramp to <rate> over <seconds> steps <n>") ||
            !keyword(3, "to") || !positiveDouble(4, "ramp rate", op.rate) ||
            !keyword(5, "over") ||
            !positiveDouble(6, "ramp window", op.duration) ||
            !keyword(7, "steps") || !positiveSize(8, "steps", op.steps))
            return false;
    } else if (verb == "flash") {
        op.kind = ScenarioOp::Kind::Flash;
        if (!want(6, "flash x<factor> for <seconds>"))
            return false;
        const std::string &xtok = toks[3].text;
        if (xtok.size() < 2 || xtok[0] != 'x' ||
            !parseDouble(xtok.substr(1), op.factor) || op.factor <= 0.0)
            return fail("flash factor must look like x<positive>, "
                        "got '" +
                        xtok + "'");
        if (!keyword(4, "for") ||
            !positiveDouble(5, "flash window", op.duration))
            return false;
    } else if (verb == "diurnal") {
        op.kind = ScenarioOp::Kind::Diurnal;
        if (!want(13, "diurnal base <rate> amp <rate> period <seconds> "
                      "for <seconds> steps <n>") ||
            !keyword(3, "base") ||
            !positiveDouble(4, "diurnal base", op.base) ||
            !keyword(5, "amp"))
            return false;
        if (!parseDouble(toks[6].text, op.amplitude) ||
            op.amplitude < 0.0)
            return fail("diurnal amp must be >= 0, got '" +
                        toks[6].text + "'");
        if (op.amplitude >= op.base)
            return fail("diurnal amp must stay below base (the rate "
                        "would reach zero)");
        if (!keyword(7, "period") ||
            !positiveDouble(8, "diurnal period", op.period) ||
            !keyword(9, "for") ||
            !positiveDouble(10, "diurnal window", op.duration) ||
            !keyword(11, "steps") ||
            !positiveSize(12, "steps", op.steps))
            return false;
    } else if (verb == "drift") {
        op.kind = ScenarioOp::Kind::Drift;
        if (!want(8, "drift to seed <seed> over <seconds>") ||
            !keyword(3, "to") || !keyword(4, "seed"))
            return false;
        if (!parseU64(toks[5].text, op.driftSeed))
            return fail("drift seed must be an unsigned integer, "
                        "got '" +
                        toks[5].text + "'");
        if (!keyword(6, "over") ||
            !positiveDouble(7, "drift window", op.duration))
            return false;
    } else if (verb == "region") {
        op.kind = ScenarioOp::Kind::Region;
        if (!want(6, "region <index> weight <w>") ||
            !positiveSize(3, "region index", op.region))
            return false;
        if (op.region > kMaxRegions)
            return fail("region index must be in [1, " +
                        fmtU64(kMaxRegions) + "], got " +
                        fmtU64(op.region));
        if (!keyword(4, "weight"))
            return false;
        if (!parseDouble(toks[5].text, op.weight) || op.weight < 0.0 ||
            op.weight > 1.0)
            return fail("region weight must be in [0, 1], got '" +
                        toks[5].text + "'");
    } else if (verb == "set") {
        op.kind = ScenarioOp::Kind::Knob;
        if (!want(5, "set mode|cache|replicas <value>"))
            return false;
        const std::string &target = toks[3].text;
        const std::string &value = toks[4].text;
        if (!lookupEnum(kKnobs, target, op.knob.target))
            return fail("unknown knob '" + target + "' (expected " +
                        enumChoices(kKnobs) + ")");
        if (op.knob.target == serving::KnobTarget::MonitorMode) {
            if (!lookupEnum(kKnobModes, value, op.knob.mode))
                return fail("unknown monitor mode '" + value +
                            "' (expected " + enumChoices(kKnobModes) +
                            ")");
        } else if (!positiveSize(4,
                                 target == "cache" ? "cache capacity"
                                                   : "replicas",
                                 op.knob.value)) {
            return false;
        }
    } else if (lookupEnum(kFaultVerbs, verb, op.fault)) {
        op.kind = ScenarioOp::Kind::Fault;
        if (!want(4, "kill|drain|rejoin <node>"))
            return false;
        if (!parseSize(toks[3].text, op.node))
            return fail("fault node must be an unsigned integer, "
                        "got '" +
                        toks[3].text + "'");
    } else {
        return fail("unknown op '" + verb + "'");
    }

    out_.ops.push_back(op);
    return true;
}

bool
Parser::handleCell(const std::vector<Tok> &toks)
{
    if (toks.size() < 2 || !toks[1].quoted)
        return fail("usage: cell \"<label>\" [key=value ...]");
    ScenarioCell cell;
    cell.label = toks[1].text;
    if (cell.label.empty())
        return fail("cell label must not be empty");
    for (const auto &existing : out_.cells)
        if (existing.label == cell.label)
            return fail("duplicate cell label \"" + cell.label + "\"");
    cell.params = out_.params;

    std::set<std::string> overridden;
    for (std::size_t i = 2; i < toks.size(); ++i) {
        if (toks[i].quoted)
            return fail("cell overrides must be bare key=value pairs");
        const std::string &pair = toks[i].text;
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= pair.size())
            return fail("cell override must look like key=value, "
                        "got '" +
                        pair + "'");
        const std::string key = pair.substr(0, eq);
        const std::string value = pair.substr(eq + 1);
        if (key == "paper") {
            if (!cell.paper.empty())
                return fail("duplicate paper= annotation");
            // `report` is a header directive, so it is already known.
            if (out_.report == ScenarioReport::Quality &&
                (std::count(value.begin(), value.end(), ',') != 1 ||
                 value.front() == ',' || value.back() == ','))
                return fail("report quality takes paper=<clip>,<fid>, "
                            "got '" +
                            value + "'");
            cell.paper = value;
            continue;
        }
        if (!overridden.insert(key).second)
            return fail("duplicate cell override '" + key + "'");
        bool known = false;
        std::string err;
        if (!applyParamField(cell.params, key, value, known, err))
            return fail(err);
        if (!known)
            return fail("unknown cell override '" + key + "'");
    }
    // The text-keyed caches always evict least-hit, so nothing would
    // read the override. The header's eviction stays accepted: every
    // canonical text prints it.
    if (overridden.count("eviction") &&
        (cell.params.system == serving::SystemKind::Nirvana ||
         cell.params.system == serving::SystemKind::Pinecone))
        return fail(std::string("eviction= does nothing on system=") +
                    enumToken(kSystems, cell.params.system) +
                    ": its cache always evicts least-hit");
    // Canonical order for printing, regardless of source order.
    for (const char *key : kParamKeys)
        if (overridden.count(key))
            cell.overridden.push_back(key);
    out_.cells.push_back(std::move(cell));
    return true;
}

bool
Parser::validate()
{
    if (!sawRequests_ && !sawDuration_)
        return failAt(scenarioLine_,
                      "scenario needs a requests or duration directive");

    if (out_.mode == ScenarioMode::CacheStream) {
        if (!out_.ops.empty())
            return failAt(out_.ops.front().line,
                          "cache-stream scenarios take no ops");
        if (!sawRequests_)
            return failAt(scenarioLine_, "cache-stream scenarios are "
                                         "request-counted; use requests");
        if (out_.warm != 0)
            return failAt(scenarioLine_,
                          "cache-stream scenarios do not support warm");
        if (out_.report != ScenarioReport::HitCurve)
            return failAt(scenarioLine_, "cache-stream scenarios use "
                                         "report hit-curve");
    } else if (out_.report == ScenarioReport::HitCurve) {
        return failAt(scenarioLine_,
                      "report hit-curve requires mode cache-stream");
    }

    if (sawDuration_ && out_.rate <= 0.0)
        return failAt(scenarioLine_,
                      "duration-based scenarios need rate > 0");

    for (std::size_t i = 0; i < out_.cellCount(); ++i) {
        const auto cell = out_.cell(i);
        const bool needsSmall =
            cell.params.system == serving::SystemKind::MoDM ||
            cell.params.system == serving::SystemKind::StandaloneSmall;
        if (needsSmall && cell.params.small.empty())
            return failAt(scenarioLine_,
                          "cell \"" + cell.label + "\": system " +
                              enumToken(kSystems, cell.params.system) +
                              " needs a non-empty small list");
    }

    return validateArrivalOps() && validateMixOps() &&
           validateFaultOps() && validateKnobOps();
}

bool
Parser::validateArrivalOps()
{
    double shapedUntil = 0.0;
    for (const auto &op : out_.ops) {
        const bool arrival = op.kind == ScenarioOp::Kind::Rate ||
                             op.kind == ScenarioOp::Kind::Ramp ||
                             op.kind == ScenarioOp::Kind::Diurnal ||
                             op.kind == ScenarioOp::Kind::Flash;
        if (!arrival)
            continue;
        if (out_.rate <= 0.0)
            return failAt(op.line, "rate-shaping op in a batch "
                                   "(rate 0) scenario");
        if (op.kind == ScenarioOp::Kind::Flash)
            continue; // multiplicative; may overlap anything
        if (op.time < shapedUntil)
            return failAt(op.line,
                          "rate op inside the previous shaped window "
                          "(which ends at t=" +
                              fmtDouble(shapedUntil) + ")");
        if (op.kind != ScenarioOp::Kind::Rate)
            shapedUntil = op.time + op.duration;
    }
    return true;
}

bool
Parser::validateMixOps()
{
    bool sawDrift = false;
    for (const auto &op : out_.ops) {
        if (op.kind != ScenarioOp::Kind::Drift)
            continue;
        if (sawDrift)
            return failAt(op.line, "at most one drift op per scenario");
        sawDrift = true;
    }
    return true;
}

bool
Parser::validateFaultOps()
{
    const auto plan = out_.faultPlan();
    if (plan.empty())
        return true;
    for (const auto &cell : out_.cells)
        for (const auto &key : cell.overridden)
            if (key == "nodes")
                return failAt(scenarioLine_,
                              "cell \"" + cell.label +
                                  "\" may not override nodes in a "
                                  "scenario with fault ops");
    const auto violation =
        serving::firstPlanViolation(plan, out_.params.nodes);
    return !violation ||
           failAt(sourceLine(ScenarioOp::Kind::Fault, violation->event),
                  violation->reason);
}

bool
Parser::validateKnobOps()
{
    // Every cell runs the plan on its own topology. Report the earliest
    // bad op, in the first cell it breaks.
    const auto plan = out_.knobPlan();
    std::optional<serving::PlanViolation> first;
    std::string label;
    for (std::size_t i = 0; i < out_.cellCount(); ++i) {
        const auto cell = out_.cell(i);
        const auto violation = serving::firstKnobViolation(
            plan, cell.params.partitioning, cell.params.nodes);
        if (violation && (!first || violation->event < first->event)) {
            first = violation;
            label = cell.label;
        }
    }
    return !first ||
           failAt(sourceLine(ScenarioOp::Kind::Knob, first->event),
                  first->reason + " in cell \"" + label + "\"");
}

int
Parser::sourceLine(ScenarioOp::Kind kind, std::size_t index) const
{
    for (const auto &op : out_.ops)
        if (op.kind == kind && index-- == 0)
            return op.line;
    panic("plan event without a matching op");
}

} // namespace

std::unique_ptr<TraceGenerator>
makeGenerator(ScenarioDataset dataset, std::uint64_t seed)
{
    if (dataset == ScenarioDataset::DiffusionDB)
        return makeDiffusionDB(seed);
    return makeMJHQ(seed);
}

// ---------------------------------------------------------------------
// Scenario methods.
// ---------------------------------------------------------------------

ScenarioCell
Scenario::cell(std::size_t i) const
{
    if (cells.empty()) {
        MODM_ASSERT(i == 0, "scenario has one implicit cell");
        ScenarioCell implicit;
        implicit.label = name;
        implicit.params = params;
        return implicit;
    }
    MODM_ASSERT(i < cells.size(), "cell index %zu of %zu", i,
                cells.size());
    return cells[i];
}

bool
Scenario::mixesSources() const
{
    for (const auto &op : ops)
        if (op.kind == ScenarioOp::Kind::Drift ||
            op.kind == ScenarioOp::Kind::Region)
            return true;
    return false;
}

serving::FaultPlan
Scenario::faultPlan() const
{
    serving::FaultPlan plan;
    plan.recoveryWindow = recoveryWindow;
    for (const auto &op : ops)
        if (op.kind == ScenarioOp::Kind::Fault)
            plan.add(op.time, op.node, op.fault);
    return plan;
}

serving::KnobPlan
Scenario::knobPlan() const
{
    serving::KnobPlan plan;
    for (const auto &op : ops) {
        if (op.kind != ScenarioOp::Kind::Knob)
            continue;
        plan.events.push_back(op.knob);
        plan.events.back().time = op.time;
    }
    return plan;
}

// ---------------------------------------------------------------------
// Parse / print / digest.
// ---------------------------------------------------------------------

std::string
parseScenario(std::istream &in, const std::string &filename,
              Scenario &out)
{
    Parser parser(in, filename, out);
    return parser.run();
}

Scenario
parseScenarioOrDie(std::istream &in, const std::string &filename)
{
    Scenario scenario;
    const std::string error = parseScenario(in, filename, scenario);
    if (!error.empty())
        fatal("%s", error.c_str());
    return scenario;
}

Scenario
loadScenarioFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open scenario file '%s'", path.c_str());
    return parseScenarioOrDie(in, path);
}

void
printScenario(const Scenario &scenario, std::ostream &out)
{
    out << "scenario " << scenario.name << "\n";
    out << "seed " << fmtU64(scenario.seed) << "\n";
    out << "mode " << enumToken(kModes, scenario.mode) << "\n";
    out << "dataset " << enumToken(kDatasets, scenario.dataset) << "\n";
    for (const char *key : kParamKeys)
        out << key << " " << paramValueToken(scenario.params, key)
            << "\n";
    out << "warm " << fmtU64(scenario.warm) << "\n";
    if (scenario.requests > 0)
        out << "requests " << fmtU64(scenario.requests) << "\n";
    else
        out << "duration " << fmtDouble(scenario.duration) << "\n";
    out << "rate " << fmtDouble(scenario.rate) << "\n";
    out << "window " << fmtU64(scenario.window) << "\n";
    out << "sampler-seed " << fmtU64(scenario.samplerSeed) << "\n";
    out << "recovery-window " << fmtU64(scenario.recoveryWindow) << "\n";
    out << "report " << enumToken(kReports, scenario.report) << "\n";
    if (!scenario.title.empty())
        out << "title \"" << scenario.title << "\"\n";
    if (!scenario.ops.empty()) {
        out << "\n";
        for (const auto &op : scenario.ops)
            out << opLine(op) << "\n";
    }
    if (!scenario.cells.empty()) {
        out << "\n";
        for (const auto &cell : scenario.cells) {
            out << "cell \"" << cell.label << "\"";
            for (const auto &key : cell.overridden)
                out << " " << key << "="
                    << paramValueToken(cell.params, key);
            if (!cell.paper.empty())
                out << " paper=" << cell.paper;
            out << "\n";
        }
    }
}

std::string
canonicalScenario(const Scenario &scenario)
{
    std::ostringstream out;
    printScenario(scenario, out);
    return out.str();
}

std::uint64_t
scenarioDigest(const Scenario &scenario)
{
    return fnv1a64(canonicalScenario(scenario));
}

// ---------------------------------------------------------------------
// Rate-schedule compilation.
// ---------------------------------------------------------------------

std::vector<RateSegment>
scenarioRateSchedule(const Scenario &scenario)
{
    MODM_ASSERT(scenario.rate > 0.0,
                "rate schedule needs a positive base rate");

    // The base-rate curve as (start, rate) pieces; later pieces win at
    // equal starts. Flash windows multiply on top.
    std::vector<std::pair<double, double>> pieces = {
        {0.0, scenario.rate}};
    struct FlashWindow
    {
        double start;
        double end;
        double factor;
    };
    std::vector<FlashWindow> flashes;
    double current = scenario.rate;
    constexpr double kTau = 6.283185307179586;

    for (const auto &op : scenario.ops) {
        switch (op.kind) {
          case ScenarioOp::Kind::Rate:
            pieces.emplace_back(op.time, op.rate);
            current = op.rate;
            break;
          case ScenarioOp::Kind::Ramp:
            for (std::size_t k = 0; k < op.steps; ++k) {
                const double start =
                    op.time + op.duration *
                                  static_cast<double>(k) /
                                  static_cast<double>(op.steps);
                const double frac = (static_cast<double>(k) + 0.5) /
                                    static_cast<double>(op.steps);
                pieces.emplace_back(start,
                                    current + (op.rate - current) * frac);
            }
            pieces.emplace_back(op.time + op.duration, op.rate);
            current = op.rate;
            break;
          case ScenarioOp::Kind::Diurnal:
            for (std::size_t k = 0; k < op.steps; ++k) {
                const double start =
                    op.time + op.duration *
                                  static_cast<double>(k) /
                                  static_cast<double>(op.steps);
                const double mid =
                    start + op.duration /
                                (2.0 * static_cast<double>(op.steps));
                pieces.emplace_back(
                    start, op.base + op.amplitude *
                                         std::sin(kTau * (mid - op.time) /
                                                  op.period));
            }
            pieces.emplace_back(op.time + op.duration, op.base);
            current = op.base;
            break;
          case ScenarioOp::Kind::Flash:
            flashes.push_back(
                {op.time, op.time + op.duration, op.factor});
            break;
          default:
            break;
        }
    }

    std::vector<double> bounds;
    for (const auto &piece : pieces)
        bounds.push_back(piece.first);
    for (const auto &flash : flashes) {
        bounds.push_back(flash.start);
        bounds.push_back(flash.end);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()),
                 bounds.end());

    const auto rateAt = [&](double t) {
        double rate = pieces.front().second;
        for (const auto &piece : pieces)
            if (piece.first <= t)
                rate = piece.second;
        for (const auto &flash : flashes)
            if (flash.start <= t && t < flash.end)
                rate *= flash.factor;
        return rate;
    };

    std::vector<RateSegment> segments;
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
        const double duration = bounds[i + 1] - bounds[i];
        if (duration <= 0.0)
            continue;
        segments.push_back({duration, rateAt(bounds[i])});
    }
    // Terminal segment; PiecewiseArrivals holds the last rate forever,
    // so the duration is nominal.
    segments.push_back({60.0, rateAt(bounds.back())});
    return segments;
}

// ---------------------------------------------------------------------
// Workload building.
// ---------------------------------------------------------------------

ScenarioWorkload
buildScenarioWorkload(const Scenario &scenario)
{
    ScenarioWorkload workload;
    auto base = makeGenerator(scenario.dataset, scenario.seed);
    workload.warm.reserve(scenario.warm);
    for (std::size_t i = 0; i < scenario.warm; ++i)
        workload.warm.push_back(base->next());

    // Source 0 is the base generator; regional generators and the
    // drift target follow. Single-source scenarios never touch the
    // mixing rng, so their trace is the base generator's own stream.
    std::vector<std::unique_ptr<TraceGenerator>> sources;
    sources.push_back(std::move(base));
    std::vector<std::size_t> regionSource(kMaxRegions + 1, 0);
    std::size_t driftSource = 0;
    double driftStart = 0.0;
    double driftDuration = 0.0;
    const bool mixed = scenario.mixesSources();
    if (mixed) {
        for (const auto &op : scenario.ops) {
            if (op.kind == ScenarioOp::Kind::Region &&
                regionSource[op.region] == 0) {
                regionSource[op.region] = sources.size();
                sources.push_back(makeGenerator(
                    scenario.dataset,
                    mix64(scenario.seed ^
                          (0x7265676e5aULL + op.region))));
            } else if (op.kind == ScenarioOp::Kind::Drift) {
                driftSource = sources.size();
                sources.push_back(
                    makeGenerator(scenario.dataset, op.driftSeed));
                driftStart = op.time;
                driftDuration = op.duration;
            }
        }
    }

    Rng mixRng(mix64(scenario.seed ^ 0x6d69780aULL));
    std::vector<double> weights;
    const auto draw = [&](double t) {
        if (!mixed)
            return sources[0]->next();
        weights.assign(sources.size(), 0.0);
        weights[0] = 1.0; // the base stream keeps unit share
        for (const auto &op : scenario.ops) {
            if (op.time > t)
                break;
            if (op.kind == ScenarioOp::Kind::Region)
                weights[regionSource[op.region]] = op.weight;
        }
        if (driftSource != 0 && t >= driftStart) {
            const double p =
                std::min(1.0, (t - driftStart) / driftDuration);
            for (auto &w : weights)
                w *= 1.0 - p;
            weights[driftSource] = p;
        }
        double total = 0.0;
        for (const double w : weights)
            total += w;
        double u = mixRng.uniform() * total;
        std::size_t pick = 0;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            u -= weights[i];
            if (u < 0.0) {
                pick = i;
                break;
            }
            if (weights[i] > 0.0)
                pick = i; // guards the u == total edge
        }
        return sources[pick]->next();
    };

    std::uint64_t nextId = scenario.warm;
    const auto append = [&](double t) {
        Request request;
        request.prompt = draw(t);
        request.prompt.id = nextId++;
        request.arrival = t;
        workload.trace.push_back(std::move(request));
    };

    if (scenario.rate <= 0.0) {
        workload.trace.reserve(scenario.requests);
        for (std::size_t i = 0; i < scenario.requests; ++i)
            append(0.0);
        return workload;
    }

    PiecewiseArrivals arrivals(scenarioRateSchedule(scenario));
    Rng arrivalRng(scenario.seed ^ 0xa441a15ULL);
    if (scenario.requests > 0) {
        workload.trace.reserve(scenario.requests);
        for (std::size_t i = 0; i < scenario.requests; ++i)
            append(arrivals.next(arrivalRng));
    } else {
        while (true) {
            const double t = arrivals.next(arrivalRng);
            if (t > scenario.duration)
                break;
            append(t);
        }
    }
    return workload;
}

} // namespace modm::workload
