#include "src/embedding/tokenizer.hh"

#include <cctype>

#include "src/common/hash.hh"

namespace modm::embedding {

std::vector<std::string>
tokenize(const std::string &text)
{
    std::vector<std::string> tokens;
    std::string current;
    for (unsigned char ch : text) {
        if (std::isalnum(ch)) {
            current.push_back(
                static_cast<char>(std::tolower(ch)));
        } else if (!current.empty()) {
            tokens.push_back(std::move(current));
            current.clear();
        }
    }
    if (!current.empty())
        tokens.push_back(std::move(current));
    return tokens;
}

std::uint64_t
tokenHash(const std::string &token)
{
    return fnv1a64(token);
}

} // namespace modm::embedding
