#include "util/table_printer.hpp"

#include <algorithm>
#include <iomanip>
#include <locale>
#include <ostream>
#include <sstream>

#include "util/logging.hpp"

namespace tagecon {

void
TextTable::addColumn(std::string header, Align align)
{
    headers_.push_back(std::move(header));
    aligns_.push_back(align);
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    TAGECON_ASSERT(cells.size() <= headers_.size(),
                   "row has more cells than declared columns");
    cells.resize(headers_.size());
    rows_.push_back(Row{false, std::move(cells)});
}

void
TextTable::addSeparator()
{
    rows_.push_back(Row{true, {}});
}

void
TextTable::render(std::ostream& os) const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto& r : rows_) {
        if (r.separator)
            continue;
        for (size_t c = 0; c < r.cells.size(); ++c)
            widths[c] = std::max(widths[c], r.cells[c].size());
    }

    auto emit_row = [&](const std::vector<std::string>& cells) {
        for (size_t c = 0; c < headers_.size(); ++c) {
            const std::string& cell = c < cells.size() ? cells[c]
                                                       : std::string{};
            os << (c == 0 ? "" : "  ");
            if (aligns_[c] == Align::Left) {
                os << cell
                   << std::string(widths[c] - cell.size(), ' ');
            } else {
                os << std::string(widths[c] - cell.size(), ' ')
                   << cell;
            }
        }
        os << "\n";
    };

    auto emit_separator = [&] {
        size_t total = 0;
        for (size_t c = 0; c < widths.size(); ++c)
            total += widths[c] + (c == 0 ? 0 : 2);
        os << std::string(total, '-') << "\n";
    };

    emit_row(headers_);
    emit_separator();
    for (const auto& r : rows_) {
        if (r.separator)
            emit_separator();
        else
            emit_row(r.cells);
    }
}

void
TextTable::renderCsv(std::ostream& os) const
{
    // RFC 4180 quoting: cells containing the separator, quotes or
    // newlines (e.g. multi-parameter spec names like
    // "gshare:entries=16,hist=17+jrs") are wrapped in double quotes.
    auto quote = [](const std::string& cell) {
        if (cell.find_first_of(",\"\n") == std::string::npos)
            return cell;
        std::string quoted = "\"";
        for (const char ch : cell) {
            if (ch == '"')
                quoted += '"';
            quoted += ch;
        }
        quoted += '"';
        return quoted;
    };
    auto emit = [&](const std::vector<std::string>& cells) {
        for (size_t c = 0; c < cells.size(); ++c)
            os << (c == 0 ? "" : ",") << quote(cells[c]);
        os << "\n";
    };
    emit(headers_);
    for (const auto& r : rows_) {
        if (!r.separator)
            emit(r.cells);
    }
}

std::vector<std::vector<std::string>>
TextTable::dataRows() const
{
    std::vector<std::vector<std::string>> rows;
    rows.reserve(rows_.size());
    for (const auto& r : rows_) {
        if (!r.separator)
            rows.push_back(r.cells);
    }
    return rows;
}

std::string
TextTable::num(double v, int decimals)
{
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << std::fixed << std::setprecision(decimals) << v;
    return os.str();
}

std::string
TextTable::frac(double v)
{
    return num(v, 3);
}

std::string
TextTable::integer(uint64_t v)
{
    return std::to_string(v);
}

} // namespace tagecon
