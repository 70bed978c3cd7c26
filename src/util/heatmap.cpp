#include "fptc/util/heatmap.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace fptc::util {

namespace {

// Shade ramp from empty to dense.
constexpr const char* kShades = " .:-=+*#%@";
constexpr std::size_t kShadeCount = 10;

[[nodiscard]] char shade_for(double normalized) noexcept
{
    const auto idx = static_cast<std::size_t>(normalized * (kShadeCount - 1) + 0.5);
    return kShades[std::min(idx, kShadeCount - 1)];
}

} // namespace

std::string render_heatmap(std::span<const float> values, std::size_t rows, std::size_t cols,
                           const HeatmapOptions& options)
{
    if (rows == 0 || cols == 0 || values.size() < rows * cols) {
        return "(empty heatmap)\n";
    }
    // Downsample by block-summing so large flowpics (e.g. 1500x1500) remain
    // printable while conserving total mass per block.
    const std::size_t out_rows = std::min(rows, options.max_side);
    const std::size_t out_cols = std::min(cols, options.max_side);
    std::vector<double> grid(out_rows * out_cols, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t rr = r * out_rows / rows;
        for (std::size_t c = 0; c < cols; ++c) {
            const std::size_t cc = c * out_cols / cols;
            grid[rr * out_cols + cc] += static_cast<double>(values[r * cols + c]);
        }
    }

    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (auto& v : grid) {
        if (options.log_scale) {
            v = std::log1p(v);
        }
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    const double range = hi - lo;

    std::ostringstream out;
    out << '+' << std::string(out_cols, '-') << "+\n";
    for (std::size_t r = 0; r < out_rows; ++r) {
        out << '|';
        for (std::size_t c = 0; c < out_cols; ++c) {
            const double v = grid[r * out_cols + c];
            const double normalized = range > 0.0 ? (v - lo) / range : 0.0;
            out << shade_for(normalized);
        }
        out << "|\n";
    }
    out << '+' << std::string(out_cols, '-') << "+\n";
    if (options.show_scale) {
        out << "scale: ' '=min";
        if (options.log_scale) {
            out << " (log)";
        }
        out << ", '@'=max  [" << lo << ", " << hi << "]\n";
    }
    if (!out) {
        throw std::runtime_error("render_heatmap: render stream failure");
    }
    return out.str();
}

std::string render_confusion(const std::vector<std::vector<double>>& matrix,
                             const std::vector<std::string>& labels)
{
    std::ostringstream out;
    std::size_t label_width = 4;
    for (const auto& label : labels) {
        label_width = std::max(label_width, label.size());
    }
    out << std::string(label_width + 1, ' ');
    for (std::size_t c = 0; c < labels.size(); ++c) {
        out << std::setw(6) << c;
    }
    out << "   (columns: predicted class index)\n";
    for (std::size_t r = 0; r < matrix.size(); ++r) {
        const std::string& label = r < labels.size() ? labels[r] : std::string{};
        out << label << std::string(label_width - label.size() + 1, ' ');
        for (const double v : matrix[r]) {
            char buffer[16];
            std::snprintf(buffer, sizeof buffer, "%6.2f", v);
            out << buffer;
        }
        out << '\n';
    }
    if (!out) {
        throw std::runtime_error("render_confusion: render stream failure");
    }
    return out.str();
}

std::string render_curve(std::span<const double> xs, std::span<const double> ys,
                         std::size_t width, std::size_t height)
{
    if (xs.empty() || ys.size() != xs.size() || width == 0 || height == 0) {
        return "(empty curve)\n";
    }
    const double x_lo = xs.front();
    const double x_hi = xs.back();
    double y_hi = 0.0;
    for (const double y : ys) {
        y_hi = std::max(y_hi, y);
    }
    if (y_hi <= 0.0) {
        y_hi = 1.0;
    }
    std::vector<std::string> canvas(height, std::string(width, ' '));
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double fx = x_hi > x_lo ? (xs[i] - x_lo) / (x_hi - x_lo) : 0.0;
        const auto col = std::min(static_cast<std::size_t>(fx * (width - 1) + 0.5), width - 1);
        const double fy = std::clamp(ys[i] / y_hi, 0.0, 1.0);
        const auto bar = static_cast<std::size_t>(fy * (height - 1) + 0.5);
        for (std::size_t h = 0; h <= bar; ++h) {
            canvas[height - 1 - h][col] = h == bar ? '*' : ':';
        }
    }
    std::ostringstream out;
    for (const auto& line : canvas) {
        out << '|' << line << '\n';
    }
    out << '+' << std::string(width, '-') << "\n x: [" << x_lo << ", " << x_hi << "], peak y: " << y_hi
        << '\n';
    if (!out) {
        throw std::runtime_error("render_curve: render stream failure");
    }
    return out.str();
}

} // namespace fptc::util
