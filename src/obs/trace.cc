#include "src/obs/trace.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/common/log.hh"

namespace modm::obs {

namespace {

constexpr char kMagic[4] = {'M', 'T', 'R', 'C'};
constexpr std::uint64_t kFormatVersion = 1;

/** FNV-1a over the raw bytes of one little-endian 64-bit value. */
std::uint64_t
fnvWord(std::uint64_t hash, std::uint64_t word)
{
    char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<char>((word >> (8 * i)) & 0xffu);
    return fnv1a64({bytes, sizeof bytes}, hash);
}

std::uint64_t
clockBits(double clock)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &clock, sizeof(bits));
    return bits;
}

double
bitsClock(std::uint64_t bits)
{
    double clock = 0.0;
    std::memcpy(&clock, &bits, sizeof(clock));
    return clock;
}

void
putVarint(std::string &out, std::uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<char>((value & 0x7f) | 0x80));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

std::uint64_t
zigzag(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
        static_cast<std::uint64_t>(value >> 63);
}

std::int64_t
unzigzag(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
        -static_cast<std::int64_t>(value & 1);
}

/** Cursor over an encoded image; fatal() names `what` on underrun. */
struct Reader
{
    const std::string &data;
    std::size_t pos = 0;
    const char *what;

    std::uint64_t
    varint()
    {
        std::uint64_t value = 0;
        int shift = 0;
        for (;;) {
            if (pos >= data.size())
                fatal("%s: truncated .mtrace varint", what);
            const auto byte =
                static_cast<unsigned char>(data[pos++]);
            if (shift >= 63 && byte > 1)
                fatal("%s: oversized .mtrace varint", what);
            value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0)
                return value;
            shift += 7;
        }
    }
};

} // namespace

const char *
eventKindName(std::uint16_t kind)
{
    switch (static_cast<EventKind>(kind)) {
      case EventKind::Generic: return "generic";
      case EventKind::Arrival: return "arrival";
      case EventKind::Completion: return "completion";
      case EventKind::MonitorTick: return "monitor-tick";
      case EventKind::Fault: return "fault";
      case EventKind::Knob: return "knob";
      case EventKind::Route: return "route";
      case EventKind::CacheHit: return "cache-hit";
      case EventKind::CacheMiss: return "cache-miss";
      case EventKind::DirectReturn: return "direct-return";
      case EventKind::Dispatch: return "dispatch";
      case EventKind::Serve: return "serve";
      case EventKind::Reroute: return "reroute";
      case EventKind::Warm: return "warm";
    }
    return "?";
}

std::uint64_t
TraceLog::chainHash(std::uint64_t prev, const TraceRecord &record)
{
    std::uint64_t hash = prev;
    hash = fnvWord(hash, clockBits(record.clock));
    hash = fnvWord(hash, record.seq);
    hash = fnvWord(hash, record.kind);
    hash = fnvWord(hash, record.node);
    hash = fnvWord(hash, record.request);
    return hash;
}

void
TraceLog::append(double clock, std::uint64_t seq, std::uint16_t kind,
                 std::uint32_t node, std::uint64_t request)
{
    TraceRecord record;
    record.clock = clock;
    record.seq = seq;
    record.kind = kind;
    record.node = node;
    record.request = request;
    record.hash = chainHash(finalHash(), record);
    records_.push_back(record);
}

std::uint64_t
TraceLog::rechain()
{
    std::uint64_t hash = kTraceHashSeed;
    for (auto &record : records_) {
        hash = chainHash(hash, record);
        record.hash = hash;
    }
    return hash;
}

void
Tracer::onDispatch(double time, std::uint64_t seq,
                   const sim::EventMeta &meta)
{
    lastSeq_ = seq;
    log_->append(time, seq, meta.kind, meta.node, meta.request);
}

void
Tracer::emit(double clock, EventKind kind, std::uint32_t node,
             std::uint64_t request)
{
    log_->append(clock, lastSeq_, static_cast<std::uint16_t>(kind),
                 node, request);
}

std::string
encodeTrace(const TraceLog &log)
{
    std::string out;
    out.reserve(16 + log.size() * 8);
    out.append(kMagic, sizeof(kMagic));
    putVarint(out, kFormatVersion);
    putVarint(out, log.size());
    std::uint64_t prevClockBits = 0;
    std::uint64_t prevSeq = 0;
    for (const auto &record : log.records()) {
        // XOR-delta on the clock bits: smoothly advancing clocks share
        // sign/exponent/high-mantissa bits, so the delta packs into a
        // short varint (and repeated clocks into a single zero byte).
        const std::uint64_t bits = clockBits(record.clock);
        putVarint(out, bits ^ prevClockBits);
        prevClockBits = bits;
        putVarint(out,
                  zigzag(static_cast<std::int64_t>(record.seq -
                                                   prevSeq)));
        prevSeq = record.seq;
        putVarint(out, record.kind);
        putVarint(out, record.node);
        // +1 wraps kNoRequest (all ones) to zero: untagged events cost
        // one byte instead of ten.
        putVarint(out, record.request + 1);
    }
    putVarint(out, log.finalHash());
    return out;
}

TraceLog
decodeTrace(const std::string &data, const char *what)
{
    if (data.size() < sizeof(kMagic) ||
        std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0)
        fatal("%s: not a .mtrace file (bad magic)", what);
    Reader reader{data, sizeof(kMagic), what};
    const std::uint64_t version = reader.varint();
    if (version != kFormatVersion)
        fatal("%s: unsupported .mtrace version %llu", what,
              static_cast<unsigned long long>(version));
    const std::uint64_t count = reader.varint();

    TraceLog log;
    std::uint64_t prevClockBits = 0;
    std::uint64_t prevSeq = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t bits = prevClockBits ^ reader.varint();
        prevClockBits = bits;
        const std::uint64_t seq = prevSeq +
            static_cast<std::uint64_t>(unzigzag(reader.varint()));
        prevSeq = seq;
        const std::uint64_t kind = reader.varint();
        if (kind > 0xffffu)
            fatal("%s: corrupt .mtrace event kind", what);
        const std::uint64_t node = reader.varint();
        if (node > 0xffffffffull)
            fatal("%s: corrupt .mtrace node id", what);
        const std::uint64_t request = reader.varint() - 1;
        log.append(bitsClock(bits), seq,
                   static_cast<std::uint16_t>(kind),
                   static_cast<std::uint32_t>(node), request);
    }
    const std::uint64_t footer = reader.varint();
    if (footer != log.finalHash())
        fatal("%s: .mtrace footer hash mismatch (corrupt log): "
              "stored %016llx, recomputed %016llx",
              what, static_cast<unsigned long long>(footer),
              static_cast<unsigned long long>(log.finalHash()));
    if (reader.pos != data.size())
        fatal("%s: trailing bytes after .mtrace footer", what);
    return log;
}

void
saveTrace(const TraceLog &log, const std::string &path)
{
    const std::string data = encodeTrace(log);
    FILE *file = std::fopen(path.c_str(), "wb");
    if (file == nullptr)
        fatal("cannot write trace %s", path.c_str());
    const std::size_t written =
        std::fwrite(data.data(), 1, data.size(), file);
    const bool ok = written == data.size() && std::fclose(file) == 0;
    if (!ok)
        fatal("short write on trace %s", path.c_str());
}

TraceLog
loadTrace(const std::string &path)
{
    FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        fatal("cannot read trace %s", path.c_str());
    std::string data;
    char buf[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0)
        data.append(buf, got);
    const bool readError = std::ferror(file) != 0;
    std::fclose(file);
    if (readError)
        fatal("read error on trace %s", path.c_str());
    return decodeTrace(data, path.c_str());
}

Divergence
firstDivergence(const TraceLog &a, const TraceLog &b)
{
    Divergence d;
    d.sizeA = a.size();
    d.sizeB = b.size();
    const std::size_t common = std::min(a.size(), b.size());

    // The chained hash makes prefix equality a single compare: find
    // the smallest index whose hashes differ. Invariant: records
    // [0, lo) are equal, some record in [lo, hi) differs (when any
    // does — checked against the last common hash first).
    std::size_t first = common;
    if (common > 0 && a.records()[common - 1].hash !=
                          b.records()[common - 1].hash) {
        std::size_t lo = 0;
        std::size_t hi = common - 1;
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (a.records()[mid].hash == b.records()[mid].hash)
                lo = mid + 1;
            else
                hi = mid;
        }
        first = lo;
    }

    if (first == common && a.size() == b.size())
        return d; // identical
    d.diverged = true;
    d.index = first;
    if (first < a.size()) {
        d.haveA = true;
        d.a = a.records()[first];
    }
    if (first < b.size()) {
        d.haveB = true;
        d.b = b.records()[first];
    }
    return d;
}

namespace {

void
appendRecordLine(std::string &out, const char *side, bool have,
                 const TraceRecord &record)
{
    char buf[192];
    if (!have) {
        std::snprintf(buf, sizeof(buf), "  %s: <log ended>\n", side);
        out += buf;
        return;
    }
    char node[16];
    if (record.node == sim::kNoNode)
        std::snprintf(node, sizeof(node), "-");
    else
        std::snprintf(node, sizeof(node), "%u", record.node);
    char request[24];
    if (record.request == sim::kNoRequest)
        std::snprintf(request, sizeof(request), "-");
    else
        std::snprintf(request, sizeof(request), "%llu",
                      static_cast<unsigned long long>(record.request));
    std::snprintf(buf, sizeof(buf),
                  "  %s: clock=%.9g seq=%llu kind=%s node=%s "
                  "request=%s hash=%016llx\n",
                  side, record.clock,
                  static_cast<unsigned long long>(record.seq),
                  eventKindName(record.kind), node, request,
                  static_cast<unsigned long long>(record.hash));
    out += buf;
}

} // namespace

std::string
formatDivergence(const Divergence &d)
{
    char buf[128];
    std::string out;
    if (!d.diverged) {
        std::snprintf(buf, sizeof(buf),
                      "logs identical (%zu events)\n", d.sizeA);
        return buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "first divergence at event %zu (log A: %zu events, "
                  "log B: %zu events)\n",
                  d.index, d.sizeA, d.sizeB);
    out += buf;
    appendRecordLine(out, "A", d.haveA, d.a);
    appendRecordLine(out, "B", d.haveB, d.b);
    return out;
}

} // namespace modm::obs
