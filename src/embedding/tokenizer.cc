#include "src/embedding/tokenizer.hh"

#include "src/common/hash.hh"

namespace modm::embedding {

std::uint64_t
tokenHash(const std::string &token)
{
    return fnv1a64(token);
}

} // namespace modm::embedding
