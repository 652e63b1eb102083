/**
 * @file
 * Prompt and request records.
 *
 * A Prompt carries both a surface text (what a user typed) and the latent
 * ground truth the synthetic substrate is built on: the *visual concept*
 * the user wants to see and the *lexical style* of how they phrased it.
 * The serving system itself never reads the latents — it only sees
 * embeddings produced by the synthetic CLIP towers — but the evaluation
 * metrics use them as ground truth, the same way the paper uses held-out
 * reference generations.
 */

#ifndef MODM_WORKLOAD_PROMPT_HH
#define MODM_WORKLOAD_PROMPT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/vec.hh"

namespace modm::workload {

/** One user prompt. */
struct Prompt
{
    /** Unique id within a trace. */
    std::uint64_t id = 0;
    /** Surface text. */
    std::string text;
    /** Ground-truth visual concept (unit vector). */
    Vec visualConcept;
    /** Lexical-style component (unit vector). */
    Vec lexicalStyle;
    /** Topic the prompt was drawn from. */
    std::uint32_t topicId = 0;
    /** Synthetic user id. */
    std::uint32_t userId = 0;
    /** Session id; prompts in one session iterate on one concept. */
    std::uint64_t sessionId = 0;
};

/** A prompt with an arrival timestamp (seconds of simulated time). */
struct Request
{
    Prompt prompt;
    double arrival = 0.0;
};

/**
 * Prompts by reference: a served population that points into the trace
 * holding its prompts instead of copying them, so that trace must
 * outlive it.
 */
using PromptRefs = std::vector<std::reference_wrapper<const Prompt>>;

} // namespace modm::workload

#endif // MODM_WORKLOAD_PROMPT_HH
