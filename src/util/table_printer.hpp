/**
 * @file
 * Plain-text and CSV table rendering used by the experiment harnesses to
 * print the paper's tables and figure data series.
 */

#ifndef TAGECON_UTIL_TABLE_PRINTER_HPP
#define TAGECON_UTIL_TABLE_PRINTER_HPP

#include <iosfwd>
#include <string>
#include <vector>

namespace tagecon {

/**
 * Column-aligned text table. Columns are declared up front; rows are
 * appended as vectors of pre-formatted cells. render() pads every column
 * to its widest cell.
 */
class TextTable
{
  public:
    /** Horizontal alignment of a column's cells. */
    enum class Align { Left, Right };

    /** Declare a column with a header and alignment. */
    void addColumn(std::string header, Align align = Align::Right);

    /**
     * Append a row. Rows shorter than the column list are padded with
     * empty cells; longer rows are a usage error.
     */
    void addRow(std::vector<std::string> cells);

    /** Append a horizontal separator row. */
    void addSeparator();

    /** Declared column headers, in order. */
    const std::vector<std::string>& headers() const { return headers_; }

    /**
     * The data rows (separators excluded), each padded to the column
     * count — the structured view the report emitters serialize.
     */
    std::vector<std::vector<std::string>> dataRows() const;

    /** Render with aligned columns into @p os. */
    void render(std::ostream& os) const;

    /** Render as CSV (no alignment padding, comma-separated). */
    void renderCsv(std::ostream& os) const;

    /**
     * Format a double with @p decimals fractional digits. The single
     * low-level float formatter of the repository: always the classic
     * "C" locale ('.' decimal point, no grouping), whatever the global
     * locale — table and report output never drifts with the host.
     */
    static std::string num(double v, int decimals = 2);

    /** Format a fraction (e.g. coverage) as 0.xxx with 3 digits. */
    static std::string frac(double v);

    /** Format an integer with thousands grouping removed (plain). */
    static std::string integer(uint64_t v);

  private:
    struct Row {
        bool separator = false;
        std::vector<std::string> cells;
    };

    std::vector<std::string> headers_;
    std::vector<Align> aligns_;
    std::vector<Row> rows_;
};

} // namespace tagecon

#endif // TAGECON_UTIL_TABLE_PRINTER_HPP
