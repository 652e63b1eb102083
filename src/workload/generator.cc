#include "src/workload/generator.hh"

#include <algorithm>

#include "src/common/log.hh"

namespace modm::workload {

DiffusionDBModel::DiffusionDBModel(const DiffusionDBConfig &config,
                                   std::uint64_t seed)
    : config_(config),
      topics_(config.topics, mix64(seed ^ 0x1111aaaabbbbccccULL)),
      rng_(seed)
{
    MODM_ASSERT(config_.maxActiveSessions > 0,
                "need at least one active session slot");
    active_.reserve(config_.maxActiveSessions);
}

DiffusionDBModel::Session
DiffusionDBModel::makeSession()
{
    Session s;
    s.id = nextSessionId_++;
    s.userId = static_cast<std::uint32_t>(
        rng_.uniformInt(config_.numUsers));
    s.topicId = topics_.sampleTopic(rng_);
    const Topic &topic = topics_.topic(s.topicId);
    s.conceptVec = topic.visualCenter;
    jitterUnitVec(s.conceptVec, config_.sessionConceptSpread, rng_, noise_);
    s.lexical = topic.lexicalCenter;
    jitterUnitVec(s.lexical, config_.lexicalSpread, rng_, noise_);
    // At least one prompt per session.
    const double p = 1.0 / std::max(config_.meanSessionLength, 1.0);
    s.remaining = 1 + rng_.geometric(p);
    return s;
}

Prompt
DiffusionDBModel::emitFromSession(Session &session)
{
    Prompt prompt;
    prompt.id = nextPromptId_++;
    prompt.topicId = session.topicId;
    prompt.userId = session.userId;
    prompt.sessionId = session.id;
    // Iterations drift the concept slightly: the user nudges wording and
    // details while keeping the visual intent.
    jitterUnitVec(session.conceptVec, config_.iterationJitter, rng_,
                  noise_);
    prompt.visualConcept = session.conceptVec;
    prompt.lexicalStyle = session.lexical;
    jitterUnitVec(prompt.lexicalStyle, 0.05, rng_, noise_);
    prompt.text = topics_.realizeText(session.topicId, rng_);
    return prompt;
}

Prompt
DiffusionDBModel::next()
{
    const bool startNew = active_.empty() ||
        (active_.size() < config_.maxActiveSessions &&
         rng_.bernoulli(config_.newSessionProb));
    if (startNew)
        active_.push_back(makeSession());

    const std::size_t pick = rng_.uniformInt(active_.size());
    Session &session = active_[pick];
    Prompt prompt = emitFromSession(session);
    if (--session.remaining == 0) {
        active_[pick] = active_.back();
        active_.pop_back();
    }
    return prompt;
}

MJHQModel::MJHQModel(const MJHQConfig &config, std::uint64_t seed)
    : config_(config),
      topics_(config.topics, mix64(seed ^ 0x2222ddddeeeeffffULL)),
      rng_(seed)
{
}

Prompt
MJHQModel::next()
{
    Prompt prompt;
    prompt.id = nextPromptId_++;
    prompt.topicId = topics_.sampleTopicUniform(rng_);
    prompt.userId = 0;
    prompt.sessionId = prompt.id; // every prompt its own "session"
    const Topic &topic = topics_.topic(prompt.topicId);
    const double spread = rng_.bernoulli(config_.tightProb)
        ? config_.tightSpread
        : config_.wideSpread;
    prompt.visualConcept = topic.visualCenter;
    jitterUnitVec(prompt.visualConcept, spread, rng_, noise_);
    prompt.lexicalStyle = topic.lexicalCenter;
    jitterUnitVec(prompt.lexicalStyle, config_.lexicalSpread, rng_,
                  noise_);
    prompt.text = topics_.realizeText(prompt.topicId, rng_);
    return prompt;
}

std::unique_ptr<TraceGenerator>
makeDiffusionDB(std::uint64_t seed)
{
    return std::make_unique<DiffusionDBModel>(DiffusionDBConfig{}, seed);
}

std::unique_ptr<TraceGenerator>
makeMJHQ(std::uint64_t seed)
{
    return std::make_unique<MJHQModel>(MJHQConfig{}, seed);
}

} // namespace modm::workload
