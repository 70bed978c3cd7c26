#include "fptc/util/table.hpp"

#include "fptc/util/durable.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace fptc::util {

Table::Table(std::string title) : title_(std::move(title)) {}

void Table::set_header(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row)
{
    rows_.push_back(std::move(row));
}

void Table::add_footnote(std::string note)
{
    footnotes_.push_back(std::move(note));
}

namespace {

/// Columns a cell occupies: its UTF-8 code points, so a "±" or "†" counts
/// once however many bytes encode it (continuation bytes are 10xxxxxx).
[[nodiscard]] std::size_t display_width(const std::string& cell)
{
    return static_cast<std::size_t>(std::count_if(cell.begin(), cell.end(), [](char c) {
        return (static_cast<unsigned char>(c) & 0xC0u) != 0x80u;
    }));
}

[[nodiscard]] std::vector<std::size_t> column_widths(const std::vector<std::string>& header,
                                                     const std::vector<std::vector<std::string>>& rows)
{
    std::size_t columns = header.size();
    for (const auto& row : rows) {
        columns = std::max(columns, row.size());
    }
    std::vector<std::size_t> widths(columns, 0);
    for (std::size_t c = 0; c < header.size(); ++c) {
        widths[c] = display_width(header[c]);
    }
    for (const auto& row : rows) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], display_width(row[c]));
        }
    }
    return widths;
}

void append_padded(std::ostringstream& out, const std::string& cell, std::size_t width)
{
    out << cell;
    for (std::size_t i = display_width(cell); i < width; ++i) {
        out << ' ';
    }
}

} // namespace

std::string Table::to_string() const
{
    const auto widths = column_widths(header_, rows_);
    std::ostringstream out;
    if (!title_.empty()) {
        out << title_ << '\n';
    }
    std::size_t total = 0;
    for (const auto w : widths) {
        total += w + 3;
    }
    const std::string rule(total > 1 ? total - 1 : 1, '-');
    if (!header_.empty()) {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            append_padded(out, c < header_.size() ? header_[c] : std::string{}, widths[c]);
            if (c + 1 < widths.size()) {
                out << " | ";
            }
        }
        out << '\n' << rule << '\n';
    }
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            append_padded(out, c < row.size() ? row[c] : std::string{}, widths[c]);
            if (c + 1 < widths.size()) {
                out << " | ";
            }
        }
        out << '\n';
    }
    for (const auto& note : footnotes_) {
        out << note << '\n';
    }
    if (!out) {
        throw std::runtime_error("Table::to_string: render stream failure for table '" + title_ +
                                 "'");
    }
    return out.str();
}

std::string Table::to_markdown() const
{
    std::ostringstream out;
    if (!title_.empty()) {
        out << "### " << title_ << "\n\n";
    }
    if (!header_.empty()) {
        out << '|';
        for (const auto& cell : header_) {
            out << ' ' << cell << " |";
        }
        out << "\n|";
        for (std::size_t c = 0; c < header_.size(); ++c) {
            out << "---|";
        }
        out << '\n';
    }
    for (const auto& row : rows_) {
        out << '|';
        for (const auto& cell : row) {
            out << ' ' << cell << " |";
        }
        out << '\n';
    }
    for (const auto& note : footnotes_) {
        out << "\n_" << note << "_\n";
    }
    if (!out) {
        throw std::runtime_error("Table::to_markdown: render stream failure for table '" +
                                 title_ + "'");
    }
    return out.str();
}

void Table::write_file(const std::string& path, bool markdown) const
{
    DurableFile::write_file(path, markdown ? to_markdown() : to_string());
}

std::string format_double(double value, int decimals)
{
    if (!std::isfinite(value)) {
        return "n/a";
    }
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.*f", decimals, value);
    return buffer;
}

std::string format_mean_ci(double mean, double ci, int decimals)
{
    return format_double(mean, decimals) + " ±" + format_double(ci, decimals);
}

std::string format_degraded_mean_ci(double mean, double ci, std::size_t surviving,
                                    std::size_t missing, int decimals)
{
    if (missing == 0) {
        return format_mean_ci(mean, ci, decimals);
    }
    const std::string marker = " †" + std::to_string(missing);
    if (surviving == 0) {
        return "n/a" + marker;
    }
    return format_mean_ci(mean, ci, decimals) + marker;
}

} // namespace fptc::util
