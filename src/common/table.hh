/**
 * @file
 * Plain-text table formatter used by every benchmark binary to print the
 * paper's tables with aligned columns.
 */

#ifndef CPS_COMMON_TABLE_HH
#define CPS_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace cps
{

/**
 * Accumulates rows of strings and renders them with per-column alignment.
 *
 * Usage:
 *   TextTable t;
 *   t.setTitle("Table 3: Compression ratio of .text section");
 *   t.addHeader({"Bench", "Original", "Compressed", "Ratio"});
 *   t.addRow({"cc1", "1083808", "654999", "60.4%"});
 *   t.print();
 */
class TextTable
{
  public:
    /** Sets the title line printed above the table. */
    void setTitle(const std::string &title) { title_ = title; }

    /** Adds the header row; a rule is drawn beneath it. */
    void addHeader(const std::vector<std::string> &cells);

    /** Adds a data row. Rows may be ragged; missing cells print empty. */
    void addRow(const std::vector<std::string> &cells);

    /** Adds a horizontal rule between data rows. */
    void addRule();

    /** Renders the table to a string. */
    std::string render() const;

    /** Renders the table as CSV (title as a comment line). */
    std::string renderCsv() const;

    /**
     * Prints the rendered table to stdout. With CPS_CSV=1 (see
     * envFlag) it prints CSV instead, so bench output can feed
     * plotting scripts directly.
     */
    void print() const;

    /** Formats a double with @p decimals places. */
    static std::string fmt(double value, int decimals = 2);

    /** Formats a percentage ("12.3%") with @p decimals places. */
    static std::string pct(double fraction, int decimals = 1);

    /** Formats an integer with thousands separators ("1,083,808"). */
    static std::string grouped(unsigned long long value);

  private:
    struct Row
    {
        std::vector<std::string> cells;
        bool isRule = false;
        bool isHeader = false;
    };

    std::string title_;
    std::vector<Row> rows_;
};

} // namespace cps

#endif // CPS_COMMON_TABLE_HH
