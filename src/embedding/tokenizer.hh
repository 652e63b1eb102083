/**
 * @file
 * Stable token hash. The text encoder seeds its per-prompt noise with
 * the hash of the prompt's text, and the sampler folds each model's
 * name into its model hash with it.
 */

#ifndef MODM_EMBEDDING_TOKENIZER_HH
#define MODM_EMBEDDING_TOKENIZER_HH

#include <cstdint>
#include <string>

namespace modm::embedding {

/** Stable 64-bit FNV-1a hash of a token. */
std::uint64_t tokenHash(const std::string &token);

} // namespace modm::embedding

#endif // MODM_EMBEDDING_TOKENIZER_HH
