#include "src/common/table.hh"

#include <cstdint>
#include <cstdio>
#include <sstream>

#include "src/common/log.hh"

namespace modm {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    MODM_ASSERT(!headers_.empty(), "table needs at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    MODM_ASSERT(cells.size() == headers_.size(),
                "table row width %zu != header width %zu",
                cells.size(), headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::fmt(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

std::string
Table::fmt(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
Table::toString() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream out;
    auto emitRow = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            out << row[c];
            if (c + 1 < row.size())
                out << std::string(widths[c] - row[c].size() + 2, ' ');
        }
        out << '\n';
    };
    emitRow(headers_);
    std::size_t ruleWidth = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        ruleWidth += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    out << std::string(ruleWidth, '-') << '\n';
    for (const auto &row : rows_)
        emitRow(row);
    return out.str();
}

std::string
Table::render(const std::string &title) const
{
    return "\n== " + title + " ==\n" + toString();
}

void
Table::print(const std::string &title) const
{
    std::fputs(render(title).c_str(), stdout);
    std::fflush(stdout);
}

} // namespace modm
