// Spans the benchmark records around its own calls into each layer.
//
// A span has a name, a start, an end and a parent.  The recorder keeps
// every span in memory until the run ends; then per-name totals and self
// times give the per-layer metrics, and chrome_json() writes the spans in
// the repo's Chrome trace_event format (balanced B/E pairs, microsecond
// timestamps), which Perfetto and chrome://tracing open.  Spans nest on one
// thread: the recorder is not thread-safe and the benchmark opens spans
// only from its main thread.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept
{
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

class SpanRecorder {
public:
    static constexpr std::size_t kNoParent = std::numeric_limits<std::size_t>::max();

    struct Span {
        std::uint32_t name = 0;  ///< index into names()
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;  ///< 0 while open
        std::size_t parent = kNoParent;
    };

    /// Totals over every closed span of one name.
    struct NameTotals {
        std::uint64_t count = 0;
        std::uint64_t total_ns = 0;
        std::uint64_t self_ns = 0;
    };

    /// Stable id for a span name (looked up once, outside hot loops).
    [[nodiscard]] std::uint32_t intern(const std::string& name);

    /// Open a span under the innermost open span; returns its index.
    std::size_t open(std::uint32_t name, std::uint64_t start_ns);
    /// Close the innermost open span, which must be `index`.
    void close(std::size_t index, std::uint64_t end_ns);

    /// Record an already-finished span under the innermost open span.
    void add_closed(std::uint32_t name, std::uint64_t start_ns, std::uint64_t end_ns);

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
    [[nodiscard]] const std::vector<std::string>& names() const noexcept { return names_; }

    /// Duration minus the part of it that the span's children cover (the
    /// union of the child intervals clipped to the span), per span.
    [[nodiscard]] std::vector<std::uint64_t> self_times() const;

    [[nodiscard]] std::map<std::string, NameTotals> totals_by_name() const;

    [[nodiscard]] std::string chrome_json() const;

private:
    std::vector<std::string> names_;
    std::map<std::string, std::uint32_t> ids_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/// RAII span; inert when the recorder is null (the untraced runs).
class ScopedSpan {
public:
    ScopedSpan(SpanRecorder* recorder, std::uint32_t name) : recorder_(recorder)
    {
        if (recorder_ != nullptr) {
            index_ = recorder_->open(name, now_ns());
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    ~ScopedSpan()
    {
        if (recorder_ != nullptr) {
            recorder_->close(index_, now_ns());
        }
    }

private:
    SpanRecorder* recorder_;
    std::size_t index_ = 0;
};

using Interval = std::pair<std::uint64_t, std::uint64_t>;

/// The length of [start_ns, end_ns] minus the part of it that the union of
/// the children's intervals covers (exposed for the unit tests).
[[nodiscard]] std::uint64_t self_time(std::uint64_t start_ns, std::uint64_t end_ns,
                                      std::vector<Interval> children);

} // namespace perfbench
