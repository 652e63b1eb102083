#include "src/workload/topics.hh"

#include "src/common/log.hh"

namespace modm::workload {

namespace {

// Small built-in vocabulary used to synthesise plausible prompt text.
// Nothing parses these words: a prompt's text only seeds the text
// encoder's noise (through tokenHash), so what matters is that prompts
// differ in it the way real ones do.
const char *const kSubjects[] = {
    "dragon", "castle", "forest", "portrait", "cyberpunk", "city",
    "ocean", "mountain", "astronaut", "cat", "dog", "warrior", "robot",
    "garden", "sunset", "galaxy", "village", "knight", "temple", "river",
    "desert", "phoenix", "wizard", "samurai", "lighthouse", "waterfall",
    "island", "butterfly", "raven", "wolf", "tiger", "fox",
};

const char *const kModifiers[] = {
    "ancient", "glowing", "mystical", "futuristic", "ornate", "giant",
    "tiny", "ethereal", "dark", "golden", "crystal", "neon", "rustic",
    "majestic", "haunted", "serene", "vibrant", "stormy", "frozen",
    "emerald", "scarlet", "silver", "obsidian", "radiant",
};

const char *const kStyles[] = {
    "watercolor", "photorealistic", "oil painting", "concept art",
    "studio lighting", "cinematic", "8k", "highly detailed", "anime",
    "impressionist", "unreal engine", "trending on artstation",
    "volumetric lighting", "isometric", "pixel art", "baroque",
};

template <std::size_t N>
const char *
pick(const char *const (&pool)[N], Rng &rng)
{
    return pool[rng.uniformInt(N)];
}

} // namespace

TopicUniverse::TopicUniverse(const TopicUniverseConfig &config,
                             std::uint64_t seed)
    : config_(config),
      popularity_(config.numTopics, config.zipfExponent)
{
    MODM_ASSERT(config_.numTopics > 0, "topic universe must be non-empty");
    Rng rng(seed);
    topics_.reserve(config_.numTopics);
    for (std::size_t t = 0; t < config_.numTopics; ++t) {
        Topic topic;
        topic.visualCenter = randomUnitVec(config_.dim, rng);
        topic.lexicalCenter = randomUnitVec(config_.dim, rng);
        topic.words.reserve(config_.wordsPerTopic);
        for (std::size_t w = 0; w < config_.wordsPerTopic; ++w) {
            std::string word;
            switch (rng.uniformInt(3)) {
              case 0:
                word = pick(kSubjects, rng);
                break;
              case 1:
                word = pick(kModifiers, rng);
                break;
              default:
                word = pick(kStyles, rng);
                break;
            }
            topic.words.push_back(std::move(word));
        }
        topics_.push_back(std::move(topic));
    }
}

std::uint32_t
TopicUniverse::sampleTopic(Rng &rng) const
{
    return static_cast<std::uint32_t>(popularity_.sample(rng));
}

std::uint32_t
TopicUniverse::sampleTopicUniform(Rng &rng) const
{
    return static_cast<std::uint32_t>(rng.uniformInt(topics_.size()));
}

const Topic &
TopicUniverse::topic(std::uint32_t id) const
{
    MODM_ASSERT(id < topics_.size(), "topic id out of range: %u", id);
    return topics_[id];
}

std::string
TopicUniverse::realizeText(std::uint32_t topic_id, Rng &rng) const
{
    const Topic &t = topic(topic_id);
    // Draw the words first (the same draws, in the same order) so the
    // text is sized once.
    constexpr std::size_t kMaxWords = 6;
    const std::size_t count = 3 + rng.uniformInt(kMaxWords - 2);
    const std::string *words[kMaxWords];
    std::size_t length = count - 1; // the separating spaces
    for (std::size_t i = 0; i < count; ++i) {
        words[i] = &t.words[rng.uniformInt(t.words.size())];
        length += words[i]->size();
    }
    std::string text;
    text.reserve(length);
    for (std::size_t i = 0; i < count; ++i) {
        if (i)
            text += ' ';
        text += *words[i];
    }
    return text;
}

} // namespace modm::workload
