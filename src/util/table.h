/**
 * @file
 * Tabular result formatting for benchmark harnesses.
 *
 * Each reproduction bench prints one or more tables; TablePrinter
 * renders them as aligned markdown (human-readable) and optionally
 * dumps CSV next to the binary for plotting.
 */

#ifndef LRD_UTIL_TABLE_H
#define LRD_UTIL_TABLE_H

#include <string>
#include <vector>

namespace lrd {

/** A simple column-aligned table builder with markdown and CSV output. */
class TablePrinter
{
  public:
    /** @param title Caption printed above the table. */
    explicit TablePrinter(std::string title);

    /** Set the header row (defines the column count). */
    void setHeader(const std::vector<std::string> &header);

    /** Append a data row; must match the header width. */
    void addRow(const std::vector<std::string> &row);

    /** Render as an aligned markdown table (with title). */
    std::string toMarkdown() const;

    /** Render as CSV (no title). */
    std::string toCsv() const;

    /** Print the markdown rendering to stdout. */
    void print() const;

    /** Write the CSV rendering to the given path; warns on failure. */
    void writeCsv(const std::string &path) const;

    /** Number of data rows added so far. */
    size_t rowCount() const { return rows_.size(); }

    /** Format a double with the given precision (helper for cells). */
    static std::string num(double v, int precision = 3);

    /**
     * Format a count in the largest fitting unit of K (1e3), M (1e6)
     * or B (1e9): 443584 -> "443.584 K", 6.738e9 -> "6.738 B". Counts
     * below 1000 print without a unit.
     */
    static std::string scaled(double v);

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace lrd

#endif // LRD_UTIL_TABLE_H
