/**
 * @file
 * Event-level tracing for the discrete-event serving stack.
 *
 * Every determinism guarantee in this repo (sweep 1-vs-N bit-identity,
 * frozen digests, scenario goldens) used to rest on the end-of-run
 * serving::resultDigest, which says *that* two runs diverged but never
 * *where*. The tracer records the full dispatched event stream — one
 * TraceRecord per sim::EventQueue dispatch plus app-level sub-events
 * the serving layer emits (route, cache hit/miss, dispatch, serve) —
 * each carrying the virtual clock, queue sequence number, node id,
 * request id, event kind, and a rolling FNV-1a hash chained from the
 * previous record. Because the hash chains, records [0..i] of two logs
 * are identical iff their i-th hashes are equal, so firstDivergence()
 * binary-searches the first divergent event in O(log n) hash compares
 * and reports exactly where two runs parted ways.
 *
 * Logs live in memory (TraceLog) and round-trip through a compact
 * varint-encoded binary format (.mtrace, see encodeTrace): clock bits
 * are XOR-delta'd against the previous record (smoothly advancing
 * clocks share high bits, so the delta packs small), sequence numbers
 * are zigzag deltas, and a final-hash footer makes corruption
 * detectable at load. Tracing is off by default and the zero-trace
 * path schedules and dispatches exactly as before, so every frozen
 * digest and golden is byte-identical with the subsystem compiled in.
 */

#ifndef MODM_OBS_TRACE_HH
#define MODM_OBS_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/hash.hh"
#include "src/sim/event_queue.hh"

namespace modm::obs {

/**
 * Event kinds the serving stack tags its events with. Queue-dispatched
 * events (arrival, completion, monitor tick, fault, knob) carry their
 * kind in sim::EventMeta; the remaining kinds are sub-events the
 * serving layer emits directly on the tracer between dispatches.
 */
enum class EventKind : std::uint16_t
{
    Generic = 0,      ///< untagged queue event
    Arrival,          ///< queue: request arrival at the front-end
    Completion,       ///< queue: a worker finished a generation
    MonitorTick,      ///< queue: periodic monitor tick
    Fault,            ///< queue: scripted kill / drain / rejoin
    Knob,             ///< queue: scripted mid-run reconfiguration
    Route,            ///< emit: router picked a node for a request
    CacheHit,         ///< emit: classification found a usable entry
    CacheMiss,        ///< emit: classification found nothing usable
    DirectReturn,     ///< emit: cache hit served without refinement
    Dispatch,         ///< emit: job handed to a worker
    Serve,            ///< emit: request finished (any serve kind)
    Reroute,          ///< emit: killed-node backlog request re-routed
    Warm,             ///< emit: warm-up admission
};

/** Printable name of an event kind ("?" for out-of-range values). */
const char *eventKindName(std::uint16_t kind);

/** Build a sim::EventMeta tagged with an EventKind. */
inline sim::EventMeta
eventMeta(EventKind kind, std::size_t node = sim::kNoNode,
          std::uint64_t request = sim::kNoRequest)
{
    return {static_cast<std::uint16_t>(kind),
            static_cast<std::uint32_t>(node), request};
}

/** FNV-1a 64 offset basis: the hash of the empty record prefix. */
inline constexpr std::uint64_t kTraceHashSeed = kFnvBasis;

/** One traced event. */
struct TraceRecord
{
    double clock = 0.0;
    /** Queue sequence of the dispatch (emits reuse the enclosing
     *  dispatch's sequence, 0 before the first dispatch). */
    std::uint64_t seq = 0;
    std::uint16_t kind = 0;
    std::uint32_t node = sim::kNoNode;
    std::uint64_t request = sim::kNoRequest;
    /** Rolling FNV-1a hash over every record up to and including this
     *  one; equal i-th hashes mean equal [0..i] prefixes. */
    std::uint64_t hash = kTraceHashSeed;
};

/** In-memory event log with the chained rolling hash. */
class TraceLog
{
  public:
    /** Append one record, chaining its hash onto the previous one. */
    void append(double clock, std::uint64_t seq, std::uint16_t kind,
                std::uint32_t node, std::uint64_t request);

    /** All records, in dispatch order. */
    const std::vector<TraceRecord> &records() const { return records_; }

    /** Mutable record access (perturbation tooling); rechain() after. */
    std::vector<TraceRecord> &mutableRecords() { return records_; }

    /** Number of records. */
    std::size_t size() const { return records_.size(); }

    /** True when nothing was recorded. */
    bool empty() const { return records_.empty(); }

    /** Hash of the whole log (kTraceHashSeed when empty). */
    std::uint64_t finalHash() const
    {
        return records_.empty() ? kTraceHashSeed : records_.back().hash;
    }

    /**
     * Recompute every chained hash from the record fields (after
     * mutating records) and return the final hash.
     */
    std::uint64_t rechain();

    /**
     * Hash one record's fields onto a previous chain value — the
     * single definition of the trace hash, shared by append, rechain,
     * and the decoder.
     */
    static std::uint64_t chainHash(std::uint64_t prev,
                                   const TraceRecord &record);

  private:
    std::vector<TraceRecord> records_;
};

/**
 * Tracing configuration, carried by ServingConfig::trace. Default:
 * off, behaviour and digests byte-identical to a build without the
 * subsystem.
 */
struct TraceConfig
{
    /** Record the event stream into ServingResult::traceLog. */
    bool events = false;
    /** Also write the log as a .mtrace file at end of run ("" = memory
     *  only; ignored unless `events` is set). */
    std::string path;
};

/**
 * The event recorder: a sim::EventTap that appends one chained record
 * per queue dispatch, plus emit() for the serving layer's sub-events.
 * Recording only — installing a tracer cannot change simulation
 * behaviour, which is what keeps traced and untraced runs bitwise
 * equal in everything but the log.
 */
class Tracer : public sim::EventTap
{
  public:
    Tracer() : log_(std::make_shared<TraceLog>()) {}

    void onDispatch(double time, std::uint64_t seq,
                    const sim::EventMeta &meta) override;

    /** Record an app-level sub-event of the current dispatch. */
    void emit(double clock, EventKind kind, std::uint32_t node,
              std::uint64_t request);

    /** The log recorded so far. */
    const TraceLog &log() const { return *log_; }

    /** Shared ownership of the log (ServingResult keeps it alive). */
    std::shared_ptr<const TraceLog> sharedLog() const { return log_; }

  private:
    std::shared_ptr<TraceLog> log_;
    std::uint64_t lastSeq_ = 0;
};

/** Serialize a log to the .mtrace binary format. */
std::string encodeTrace(const TraceLog &log);

/**
 * Decode a .mtrace image; `what` names the source in diagnostics.
 * Exits via fatal() on malformed or corrupt input (footer hash
 * mismatch), so tools never act on a silently truncated log.
 */
TraceLog decodeTrace(const std::string &data, const char *what);

/** Write a log to `path` in .mtrace format (fatal on I/O error). */
void saveTrace(const TraceLog &log, const std::string &path);

/** Load a .mtrace file (fatal on I/O error or corruption). */
TraceLog loadTrace(const std::string &path);

/** Where two logs part ways (see firstDivergence). */
struct Divergence
{
    /** False when the logs are identical (index/records meaningless). */
    bool diverged = false;
    /** Index of the first divergent record. */
    std::size_t index = 0;
    /** Record at `index` in each log; have* false when that log ended
     *  before the divergence (pure prefix). */
    bool haveA = false;
    bool haveB = false;
    TraceRecord a = {};
    TraceRecord b = {};
    std::size_t sizeA = 0;
    std::size_t sizeB = 0;
};

/**
 * Binary-search the first divergent record of two logs using the
 * rolling-hash checkpoints: prefixes [0..i] are equal iff the i-th
 * hashes are equal, so O(log n) hash compares localize the first
 * difference exactly. Two identical-prefix logs of different lengths
 * diverge at the shorter one's end.
 */
Divergence firstDivergence(const TraceLog &a, const TraceLog &b);

/**
 * Human-readable divergence report: clock, queue seq, node, request
 * id, and both event kinds of the first divergent record (or a
 * "logs identical" line).
 */
std::string formatDivergence(const Divergence &d);

} // namespace modm::obs

#endif // MODM_OBS_TRACE_HH
