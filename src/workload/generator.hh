/**
 * @file
 * Prompt-stream generators standing in for the paper's datasets.
 *
 * DiffusionDBModel reproduces the production-trace properties MoDM
 * exploits: user sessions iterating on a concept (users resubmit small
 * variations of a prompt until satisfied), Zipf-skewed topics, and strong
 * temporal locality (paper Fig. 15: >90 % of cache hits retrieve images
 * generated in the last four hours).
 *
 * MJHQModel reproduces the curated MJHQ-30k contrast: independent
 * prompts, no sessions, and therefore weaker cache behaviour (paper
 * Fig. 19 and the lower speedups in Fig. 7).
 */

#ifndef MODM_WORKLOAD_GENERATOR_HH
#define MODM_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.hh"
#include "src/workload/prompt.hh"
#include "src/workload/topics.hh"

namespace modm::workload {

/** Interface for prompt-stream generators. */
class TraceGenerator
{
  public:
    virtual ~TraceGenerator() = default;

    /** Produce the next prompt of the stream. */
    virtual Prompt next() = 0;

    /** Human-readable dataset name ("diffusiondb", "mjhq"). */
    virtual const char *name() const = 0;
};

/** Tunables of the DiffusionDB-like generator. */
struct DiffusionDBConfig
{
    TopicUniverseConfig topics;
    /** Probability a new request starts a session vs continues one. */
    double newSessionProb = 0.25;
    /** Mean prompts per session (geometric). */
    double meanSessionLength = 4.25;
    /** Max concurrently active sessions (bounds locality distance). */
    std::size_t maxActiveSessions = 64;
    /** Concept spread of a fresh session around its topic center. */
    double sessionConceptSpread = 0.50;
    /** Concept drift between iterations of one session. */
    double iterationJitter = 0.09;
    /** Lexical-style spread per user. */
    double lexicalSpread = 0.35;
    /** Number of synthetic users. */
    std::uint32_t numUsers = 4000;
};

/** Production-like generator with sessions and temporal locality. */
class DiffusionDBModel : public TraceGenerator
{
  public:
    /** Construct; deterministic in the seed. */
    DiffusionDBModel(const DiffusionDBConfig &config, std::uint64_t seed);

    Prompt next() override;
    const char *name() const override { return "diffusiondb"; }

    /** Topic universe (shared with evaluation code). */
    const TopicUniverse &topics() const { return topics_; }

  private:
    struct Session
    {
        std::uint64_t id;
        std::uint32_t userId;
        std::uint32_t topicId;
        Vec conceptVec;
        Vec lexical;
        std::uint64_t remaining;
    };

    Session makeSession();
    Prompt emitFromSession(Session &session);

    DiffusionDBConfig config_;
    TopicUniverse topics_;
    Rng rng_;
    /** Open sessions; reserved to maxActiveSessions, never reallocated. */
    std::vector<Session> active_;
    /** Jitter scratch: the direction each in-place jitter draws. */
    Vec noise_;
    std::uint64_t nextPromptId_ = 0;
    std::uint64_t nextSessionId_ = 0;
};

/** Tunables of the MJHQ-like generator. */
struct MJHQConfig
{
    TopicUniverseConfig topics = {
        .numTopics = 1200,
        .dim = 64,
        .zipfExponent = 0.6,
        .wordsPerTopic = 24,
    };
    /**
     * MJHQ is a curated gallery: a share of prompts cluster tightly
     * around popular aesthetics (retrievable) while the rest spread
     * wide (novel one-offs). No session structure either way, so
     * temporal locality is absent — the property behind the paper's
     * smaller MJHQ speedups (Fig. 7) and flat cache-all gains
     * (Fig. 19).
     */
    double tightProb = 0.70;
    /** Concept spread of tightly clustered prompts. */
    double tightSpread = 0.18;
    /** Concept spread of one-off prompts. */
    double wideSpread = 0.95;
    /** Lexical spread. */
    double lexicalSpread = 0.45;
};

/** Curated-dataset generator: i.i.d. prompts, no sessions. */
class MJHQModel : public TraceGenerator
{
  public:
    /** Construct; deterministic in the seed. */
    MJHQModel(const MJHQConfig &config, std::uint64_t seed);

    Prompt next() override;
    const char *name() const override { return "mjhq"; }

    /** Topic universe. */
    const TopicUniverse &topics() const { return topics_; }

  private:
    MJHQConfig config_;
    TopicUniverse topics_;
    Rng rng_;
    /** Jitter scratch: the direction each in-place jitter draws. */
    Vec noise_;
    std::uint64_t nextPromptId_ = 0;
};

/** Factory helpers with the default configurations used in the benches. */
std::unique_ptr<TraceGenerator> makeDiffusionDB(std::uint64_t seed);
std::unique_ptr<TraceGenerator> makeMJHQ(std::uint64_t seed);

} // namespace modm::workload

#endif // MODM_WORKLOAD_GENERATOR_HH
