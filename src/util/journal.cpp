#include "fptc/util/journal.hpp"

#include "fptc/util/durable.hpp"
#include "fptc/util/log.hpp"
#include "fptc/util/telemetry.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace fptc::util {

std::string json_escape(const std::string& text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string to_json_line(const JournalRecord& record)
{
    std::string out = "{\"key\":\"" + json_escape(record.key) + "\"";
    for (const auto& [name, value] : record.fields) {
        out += ",\"" + json_escape(name) + "\":\"" + json_escape(value) + "\"";
    }
    out += "}";
    return out;
}

namespace {

/// Scan a JSON string literal starting at `pos` (which must point at the
/// opening quote).  Returns the decoded value and advances `pos` past the
/// closing quote; std::nullopt on malformed input.
[[nodiscard]] std::optional<std::string> scan_string(const std::string& line, std::size_t& pos)
{
    if (pos >= line.size() || line[pos] != '"') {
        return std::nullopt;
    }
    ++pos;
    std::string out;
    while (pos < line.size()) {
        const char c = line[pos];
        if (c == '"') {
            ++pos;
            return out;
        }
        if (c == '\\') {
            if (pos + 1 >= line.size()) {
                return std::nullopt;
            }
            const char esc = line[pos + 1];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos + 5 >= line.size()) {
                    return std::nullopt;
                }
                const std::string hex = line.substr(pos + 2, 4);
                char* end = nullptr;
                const long code = std::strtol(hex.c_str(), &end, 16);
                if (end != hex.c_str() + 4 || code < 0 || code > 0x7f) {
                    return std::nullopt; // journal only emits \u00xx escapes
                }
                out += static_cast<char>(code);
                pos += 4;
                break;
            }
            default: return std::nullopt;
            }
            pos += 2;
        } else {
            out += c;
            ++pos;
        }
    }
    return std::nullopt; // unterminated string (torn line)
}

void skip_spaces(const std::string& line, std::size_t& pos)
{
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) {
        ++pos;
    }
}

} // namespace

std::optional<JournalRecord> parse_json_line(const std::string& line)
{
    std::size_t pos = 0;
    skip_spaces(line, pos);
    if (pos >= line.size() || line[pos] != '{') {
        return std::nullopt;
    }
    ++pos;
    JournalRecord record;
    bool have_key = false;
    bool first = true;
    while (true) {
        skip_spaces(line, pos);
        if (pos < line.size() && line[pos] == '}') {
            ++pos;
            break;
        }
        if (!first) {
            if (pos >= line.size() || line[pos] != ',') {
                return std::nullopt;
            }
            ++pos;
            skip_spaces(line, pos);
        }
        first = false;
        auto name = scan_string(line, pos);
        if (!name) {
            return std::nullopt;
        }
        skip_spaces(line, pos);
        if (pos >= line.size() || line[pos] != ':') {
            return std::nullopt;
        }
        ++pos;
        skip_spaces(line, pos);
        auto value = scan_string(line, pos);
        if (!value) {
            return std::nullopt;
        }
        if (*name == "key") {
            record.key = *value;
            have_key = true;
        } else {
            record.fields[*name] = *value;
        }
    }
    skip_spaces(line, pos);
    if (!have_key || record.key.empty() || pos != line.size()) {
        return std::nullopt;
    }
    return record;
}

void atomic_write_file(const std::string& path, const std::string& content)
{
    // Full durable transaction: temp + fsync + rename + parent-dir fsync
    // (see util/durable.hpp for the crash-window guarantees).
    DurableFile::write_file(path, content);
}

RunJournal::RunJournal(std::string path) : path_(std::move(path))
{
    // Validate writability up front: a bad path must fail here, before the
    // campaign sinks CPU time into a unit whose record() would then throw.
    probe_appendable(path_);
    std::ifstream in(path_);
    if (!in) {
        return; // fresh journal (the append probe just created it)
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) {
            continue;
        }
        if (auto record = parse_json_line(line)) {
            if (records_.find(record->key) == records_.end()) {
                order_.push_back(record->key);
            }
            records_[record->key] = std::move(record->fields);
            ++recovered_records_;
        } else {
            ++discarded_lines_; // torn tail from a crash mid-append
        }
    }
    if (discarded_lines_ > 0) {
        log_info("journal: dropped " + std::to_string(discarded_lines_) +
                 " torn line(s) from " + path_);
    }
}

bool RunJournal::completed(const std::string& key) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return records_.find(key) != records_.end();
}

const std::map<std::string, std::string>* RunJournal::find(const std::string& key) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = records_.find(key);
    return it == records_.end() ? nullptr : &it->second;
}

std::optional<std::map<std::string, std::string>> RunJournal::find_copy(
    const std::string& key) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = records_.find(key);
    if (it == records_.end()) {
        return std::nullopt;
    }
    return it->second;
}

void RunJournal::record(const std::string& key, std::map<std::string, std::string> fields)
{
    // One durable append (write + fsync) per record, all under the lock:
    // concurrent workers can never interleave bytes within a line, and a
    // record() that returned survives power loss.  A failed append throws
    // *before* the in-memory maps change, so a retried unit re-commits the
    // same line — and even a duplicate line is safe (last record wins on
    // reload).
    const std::lock_guard<std::mutex> lock(mutex_);
    FPTC_TRACE_SPAN("journal_commit");
    durable_append_line(path_, to_json_line(JournalRecord{key, fields}));
    if (records_.find(key) == records_.end()) {
        order_.push_back(key);
    }
    records_[key] = std::move(fields);
}

void RunJournal::compact()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    FPTC_TRACE_SPAN("journal_compact");
    std::string content;
    for (const auto& key : order_) {
        content += to_json_line(JournalRecord{key, records_.at(key)});
        content += '\n';
    }
    atomic_write_file(path_, content);
}

std::size_t RunJournal::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return order_.size();
}

CampaignJournal::CampaignJournal(std::string campaign) : campaign_(std::move(campaign))
{
    const char* path = std::getenv("FPTC_JOURNAL");
    if (path == nullptr || *path == '\0') {
        return;
    }
    journal_.emplace(path);
    if (journal_->size() > 0) {
        log_info("journal: resuming from " + journal_->path() + " (" +
                 std::to_string(journal_->size()) + " completed unit(s) on record)");
    }
}

std::map<std::string, std::string> CampaignJournal::run_or_replay(
    const std::string& key, const std::function<std::map<std::string, std::string>()>& run)
{
    if (auto fields = try_replay(key)) {
        return *std::move(fields);
    }
    auto fields = run();
    commit(key, fields);
    return fields;
}

std::optional<std::map<std::string, std::string>> CampaignJournal::try_replay(
    const std::string& key)
{
    if (!journal_) {
        return std::nullopt;
    }
    const std::string full_key = campaign_ + "|" + key;
    auto fields = journal_->find_copy(full_key);
    if (!fields) {
        return std::nullopt;
    }
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++replayed_;
    }
    log_debug("journal: replaying " + full_key);
    return fields;
}

void CampaignJournal::commit(const std::string& key,
                             const std::map<std::string, std::string>& fields)
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++executed_;
    }
    if (journal_) {
        journal_->record(campaign_ + "|" + key, fields);
    }
}

std::size_t CampaignJournal::replayed() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return replayed_;
}

std::size_t CampaignJournal::executed() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return executed_;
}

std::string CampaignJournal::summary() const
{
    if (!journal_) {
        return {};
    }
    return "journal " + journal_->path() + ": " + std::to_string(replayed()) + " replayed, " +
           std::to_string(executed()) + " executed";
}

std::string field_from_double(double value)
{
    std::ostringstream out;
    out << std::setprecision(17) << value;
    return out.str();
}

double field_double(const std::map<std::string, std::string>& fields, const std::string& name)
{
    const auto it = fields.find(name);
    if (it == fields.end()) {
        throw std::runtime_error("journal record is missing field '" + name + "'");
    }
    return std::strtod(it->second.c_str(), nullptr);
}

long field_long(const std::map<std::string, std::string>& fields, const std::string& name)
{
    const auto it = fields.find(name);
    if (it == fields.end()) {
        throw std::runtime_error("journal record is missing field '" + name + "'");
    }
    return std::strtol(it->second.c_str(), nullptr, 10);
}

} // namespace fptc::util
