/**
 * @file
 * Helpers the serving test suites share: the plain DiffusionDB Poisson
 * workload they replay, a prompt that only names a topic (what the
 * routers hash), a scoped MODM_SWEEP_* override, and a scoped crew
 * helper count.
 */

#ifndef MODM_TESTS_SERVING_FIXTURES_HH
#define MODM_TESTS_SERVING_FIXTURES_HH

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/crew.hh"
#include "src/workload/scenario.hh"

namespace modm::test {

/** `warm` prompts, then `count` DiffusionDB arrivals at `rate`/min. */
inline workload::ScenarioWorkload
ddbBundle(std::size_t warm, std::size_t count, double rate)
{
    return workload::buildScenarioWorkload(
        {.warm = warm, .requests = count, .rate = rate});
}

inline workload::Prompt
topicPrompt(std::uint32_t topic)
{
    workload::Prompt prompt;
    prompt.topicId = topic;
    return prompt;
}

/**
 * Scoped MODM_SWEEP_* override so ambient env (e.g. a developer
 * exporting the knob the way the CI bench steps do) can't leak into
 * the assertions; prior values are restored on destruction. Pass
 * nullptr to assert the variable is absent within the scope.
 */
class ScopedSweepEnv
{
  public:
    explicit ScopedSweepEnv(const char *parallelism)
    {
        save("MODM_SWEEP_PARALLELISM", parallelism);
        save("MODM_SWEEP_PROGRESS", "0");
    }
    ~ScopedSweepEnv()
    {
        for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
            if (it->second.second)
                setenv(it->first.c_str(), it->second.first.c_str(), 1);
            else
                unsetenv(it->first.c_str());
        }
    }

    /** Override (or, with nullptr, clear) one more variable. */
    void set(const char *name, const char *value) { save(name, value); }

  private:
    void save(const char *name, const char *value)
    {
        const char *prev = std::getenv(name);
        saved_.emplace_back(
            name, std::make_pair(prev ? prev : "", prev != nullptr));
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    std::vector<std::pair<std::string, std::pair<std::string, bool>>>
        saved_;
};

/**
 * Forces the helper count of crews started in its lifetime
 * (CrewScope::forceHelpers); restores the CPU rule on destruction.
 */
class ScopedHelpers
{
  public:
    explicit ScopedHelpers(std::optional<std::size_t> helpers)
    {
        CrewScope::forceHelpers(helpers);
    }
    ~ScopedHelpers() { CrewScope::forceHelpers(std::nullopt); }
    ScopedHelpers(const ScopedHelpers &) = delete;
    ScopedHelpers &operator=(const ScopedHelpers &) = delete;
};

} // namespace modm::test

#endif // MODM_TESTS_SERVING_FIXTURES_HH
