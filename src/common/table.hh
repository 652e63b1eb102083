/**
 * @file
 * Plain-text table and CSV emission for the benchmark harnesses. Every
 * figure/table binary prints (1) a human-readable aligned table and
 * optionally (2) a machine-readable CSV block, so EXPERIMENTS.md entries
 * can be regenerated by re-running the binaries.
 */

#ifndef MODM_COMMON_TABLE_HH
#define MODM_COMMON_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace modm {

/** Aligned text table with a header row. */
class Table
{
  public:
    /** Create with column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Append a row; must match the header width. */
    void addRow(std::vector<std::string> cells);

    /** Format a double with the given precision. */
    static std::string fmt(double value, int precision = 2);

    /** Format an integer. */
    static std::string fmt(std::uint64_t value);

    /** Render as an aligned text table. */
    std::string toString() const;

    /**
     * Render exactly what print() would emit (title banner + aligned
     * table) — lets concurrently-computed sections buffer their output
     * and print in deterministic order.
     */
    std::string render(const std::string &title) const;

    /** Print the aligned table (and a title) to stdout. */
    void print(const std::string &title) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace modm

#endif // MODM_COMMON_TABLE_HH
