#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::uint32_t SpanRecorder::intern(const std::string& name)
{
    const auto found = ids_.find(name);
    if (found != ids_.end()) {
        return found->second;
    }
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
}

std::size_t SpanRecorder::open(std::uint32_t name, std::uint64_t start_ns)
{
    const std::size_t parent = open_.empty() ? kNoParent : open_.back();
    spans_.push_back({name, start_ns, 0, parent});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index, std::uint64_t end_ns)
{
    if (open_.empty() || open_.back() != index) {
        throw std::logic_error("span closed out of nesting order");
    }
    open_.pop_back();
    spans_[index].end_ns = std::max(end_ns, spans_[index].start_ns);
}

void SpanRecorder::add_closed(std::uint32_t name, std::uint64_t start_ns, std::uint64_t end_ns)
{
    const std::size_t parent = open_.empty() ? kNoParent : open_.back();
    spans_.push_back({name, start_ns, std::max(end_ns, start_ns), parent});
}

std::uint64_t self_time(std::uint64_t start_ns, std::uint64_t end_ns,
                        std::vector<Interval> children)
{
    const std::uint64_t duration = end_ns > start_ns ? end_ns - start_ns : 0;
    std::sort(children.begin(), children.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = start_ns;  // everything before `reach` is already counted
    for (auto [child_start, child_end] : children) {
        child_start = std::max(child_start, reach);
        child_end = std::min(child_end, end_ns);
        if (child_end > child_start) {
            covered += child_end - child_start;
            reach = child_end;
        }
    }
    return duration - std::min(covered, duration);
}

std::vector<std::uint64_t> SpanRecorder::self_times() const
{
    std::vector<std::vector<Interval>> children(spans_.size());
    for (const Span& span : spans_) {
        if (span.parent != kNoParent) {
            children[span.parent].emplace_back(span.start_ns, span.end_ns);
        }
    }
    std::vector<std::uint64_t> result(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        result[i] = self_time(spans_[i].start_ns, spans_[i].end_ns, std::move(children[i]));
    }
    return result;
}

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::totals_by_name() const
{
    const auto self = self_times();
    std::map<std::string, NameTotals> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        NameTotals& entry = totals[names_[spans_[i].name]];
        ++entry.count;
        entry.total_ns += spans_[i].end_ns - spans_[i].start_ns;
        entry.self_ns += self[i];
    }
    return totals;
}

std::string SpanRecorder::chrome_json() const
{
    // Depth-first over the span tree (children in start order), so every
    // begin precedes its children and every end follows them, even when
    // timestamps tie.
    std::vector<std::vector<std::size_t>> children(spans_.size());
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        (spans_[i].parent == kNoParent ? roots : children[spans_[i].parent]).push_back(i);
    }
    const auto by_start = [this](std::size_t a, std::size_t b) {
        return spans_[a].start_ns != spans_[b].start_ns ? spans_[a].start_ns < spans_[b].start_ns
                                                        : a < b;
    };
    std::sort(roots.begin(), roots.end(), by_start);
    for (auto& list : children) {
        std::sort(list.begin(), list.end(), by_start);
    }
    std::uint64_t origin = std::numeric_limits<std::uint64_t>::max();
    for (const Span& span : spans_) {
        origin = std::min(origin, span.start_ns);
    }
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    const auto emit = [&](std::size_t index, bool begin) {
        const Span& span = spans_[index];
        char ts[32];
        std::snprintf(ts, sizeof(ts), "%.3f",
                      static_cast<double>((begin ? span.start_ns : span.end_ns) - origin) / 1000.0);
        out += first ? "\n" : ",\n";
        first = false;
        out += "{\"name\": \"" + names_[span.name] + "\", \"cat\": \"perfbench\", \"ph\": \"";
        out += begin ? "B" : "E";
        out += "\", \"ts\": ";
        out += ts;
        out += ", \"pid\": 1, \"tid\": 1";
        if (begin) {
            out += ", \"args\": {\"span\": " + std::to_string(index) + ", \"parent\": " +
                   (span.parent == kNoParent ? std::string("null")
                                             : std::to_string(span.parent)) +
                   "}";
        }
        out += "}";
    };
    // Explicit stack of (span, next child) so deep nesting cannot overflow.
    std::vector<std::pair<std::size_t, std::size_t>> stack;
    for (const std::size_t root : roots) {
        emit(root, true);
        stack.emplace_back(root, 0);
        while (!stack.empty()) {
            auto& [index, next] = stack.back();
            if (next < children[index].size()) {
                const std::size_t child = children[index][next++];
                emit(child, true);
                stack.emplace_back(child, 0);
            } else {
                emit(index, false);
                stack.pop_back();
            }
        }
    }
    out += first ? "]}\n" : "\n]}\n";
    return out;
}

} // namespace perfbench
