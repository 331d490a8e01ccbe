#include "table.hh"

#include <algorithm>
#include <cstdio>

#include "logging.hh"

namespace cps
{

void
TextTable::addHeader(const std::vector<std::string> &cells)
{
    Row r;
    r.cells = cells;
    r.isHeader = true;
    rows_.push_back(std::move(r));
}

void
TextTable::addRow(const std::vector<std::string> &cells)
{
    Row r;
    r.cells = cells;
    rows_.push_back(std::move(r));
}

void
TextTable::addRule()
{
    Row r;
    r.isRule = true;
    rows_.push_back(std::move(r));
}

std::string
TextTable::render() const
{
    size_t ncols = 0;
    for (const auto &r : rows_)
        ncols = std::max(ncols, r.cells.size());

    std::vector<size_t> width(ncols, 0);
    for (const auto &r : rows_) {
        for (size_t c = 0; c < r.cells.size(); ++c)
            width[c] = std::max(width[c], r.cells[c].size());
    }

    size_t total = 0;
    for (size_t w : width)
        total += w + 2;
    if (total >= 2)
        total -= 2;

    std::string out;
    if (!title_.empty()) {
        out += title_;
        out += '\n';
        out.append(std::min(total, title_.size()), '=');
        out += '\n';
    }

    for (const auto &r : rows_) {
        if (r.isRule) {
            out.append(total, '-');
            out += '\n';
            continue;
        }
        for (size_t c = 0; c < ncols; ++c) {
            std::string cell = c < r.cells.size() ? r.cells[c] : "";
            // First column left-aligned, the rest right-aligned: the
            // first column is invariably the benchmark name.
            if (c == 0) {
                out += cell;
                out.append(width[c] - cell.size(), ' ');
            } else {
                out.append(width[c] - cell.size(), ' ');
                out += cell;
            }
            if (c + 1 < ncols)
                out += "  ";
        }
        out += '\n';
        if (r.isHeader) {
            out.append(total, '-');
            out += '\n';
        }
    }
    return out;
}

std::string
TextTable::renderCsv() const
{
    std::string out;
    if (!title_.empty()) {
        out += "# ";
        out += title_;
        out += '\n';
    }
    for (const Row &r : rows_) {
        if (r.isRule)
            continue;
        for (size_t c = 0; c < r.cells.size(); ++c) {
            if (c)
                out += ',';
            // Quote cells containing commas (thousands separators).
            if (r.cells[c].find(',') != std::string::npos) {
                out += '"';
                out += r.cells[c];
                out += '"';
            } else {
                out += r.cells[c];
            }
        }
        out += '\n';
    }
    return out;
}

void
TextTable::print() const
{
    std::string s = envFlag("CPS_CSV", false) ? renderCsv() : render();
    std::fwrite(s.data(), 1, s.size(), stdout);
    std::fflush(stdout);
}

std::string
TextTable::fmt(double value, int decimals)
{
    return strfmt("%.*f", decimals, value);
}

std::string
TextTable::pct(double fraction, int decimals)
{
    return strfmt("%.*f%%", decimals, fraction * 100.0);
}

std::string
TextTable::grouped(unsigned long long value)
{
    std::string digits = strfmt("%llu", value);
    std::string out;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count != 0 && count % 3 == 0)
            out += ',';
        out += *it;
        ++count;
    }
    std::reverse(out.begin(), out.end());
    return out;
}

} // namespace cps
