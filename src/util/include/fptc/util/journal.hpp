// Run journal: crash-safe campaign progress on disk.
//
// The paper's evaluation is a long campaign of repeated trainings (splits x
// seeds x configurations, Sec. 4.2-4.5); a single killed process should not
// discard hours of finished CPU work.  A RunJournal records each completed
// (config, split, seed) unit as one JSON line in an append-only file, so a
// re-launched bench binary can skip finished runs and rebuild its tables
// from the recorded metrics — producing output identical to an
// uninterrupted run with the same seeds.
//
// Durability model: each record() appends one line via the durable I/O
// layer (util/durable.hpp: one O_APPEND write + fsync), so a kill or power
// loss loses at most the in-flight run.  A crash mid-append leaves a torn
// final line; reload detects and drops it (counted in discarded_lines()).
// compact() rewrites the journal atomically and durably (temp file + fsync
// + rename + parent-dir fsync) to shed torn or superseded lines; a crash
// anywhere inside compact() leaves either the old or the new journal fully
// readable, never a mix.
//
// Line format (flat JSON object, "key" is reserved):
//   {"key":"table4|res=32|aug=rotate|split=0|seed=1","script":"98.25",...}
//
// Thread safety: the campaign executor commits finished units from a worker
// pool, so RunJournal and CampaignJournal synchronize internally — each
// record() appends and flushes its one line under the journal mutex, so
// concurrent appends never interleave bytes within a line.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace fptc::util {

/// One committed unit of campaign work.
struct JournalRecord {
    std::string key;                            ///< unique unit id within the campaign
    std::map<std::string, std::string> fields;  ///< recorded metrics (flat, string-valued)
};

/// Escape a string for embedding in a JSON string literal.
[[nodiscard]] std::string json_escape(const std::string& text);

/// Serialize a record to one JSON line (no trailing newline).
[[nodiscard]] std::string to_json_line(const JournalRecord& record);

/// Parse one journal line; std::nullopt on torn/malformed input.
[[nodiscard]] std::optional<JournalRecord> parse_json_line(const std::string& line);

/// Write `content` to `path` atomically and durably: temp file in the same
/// directory, fsynced, renamed over the target, parent directory fsynced
/// (a thin wrapper over util::DurableFile).  Readers never observe a
/// partial file and the replacement survives power loss.  Throws
/// util::IoError (a std::runtime_error) on I/O failure.
void atomic_write_file(const std::string& path, const std::string& content);

/// Append-only JSONL journal of completed campaign units.
class RunJournal {
public:
    /// Open (creating if absent) and load existing records, dropping any
    /// torn tail left by a crash.
    explicit RunJournal(std::string path);

    /// True when `key` has a committed record.
    [[nodiscard]] bool completed(const std::string& key) const;

    /// Recorded fields for `key`, or nullptr.  The pointer is only stable
    /// while no other thread records; concurrent readers should prefer
    /// find_copy().
    [[nodiscard]] const std::map<std::string, std::string>* find(const std::string& key) const;

    /// Copy of the recorded fields for `key` (safe under concurrent record()).
    [[nodiscard]] std::optional<std::map<std::string, std::string>> find_copy(
        const std::string& key) const;

    /// Commit a finished unit: append one line and flush it, all under the
    /// journal lock.  Re-recording a key replaces the in-memory entry (last
    /// record wins on reload too).
    void record(const std::string& key, std::map<std::string, std::string> fields);

    /// Rewrite the file atomically with one line per live record (drops torn
    /// lines and superseded duplicates).
    void compact();

    [[nodiscard]] std::size_t size() const;

    /// Records loaded from disk at open time.
    [[nodiscard]] std::size_t recovered_records() const noexcept { return recovered_records_; }

    /// Torn/malformed lines dropped at open time.
    [[nodiscard]] std::size_t discarded_lines() const noexcept { return discarded_lines_; }

    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    mutable std::mutex mutex_;
    std::string path_;
    std::map<std::string, std::map<std::string, std::string>> records_;
    std::vector<std::string> order_;  ///< first-commit order, for compact()
    std::size_t recovered_records_ = 0;
    std::size_t discarded_lines_ = 0;
};

/// Bench-binary convenience wrapper: journaling is armed by FPTC_JOURNAL=
/// <path> (otherwise every unit executes).  Keys are namespaced by the
/// campaign name so several benches can share one journal file.
class CampaignJournal {
public:
    explicit CampaignJournal(std::string campaign);

    [[nodiscard]] bool enabled() const noexcept { return journal_.has_value(); }

    /// FPTC_JOURNAL as given ("" when journaling is disabled).
    [[nodiscard]] std::string path() const { return journal_ ? journal_->path() : std::string(); }

    /// Replay the recorded fields for `key`, or execute `run` and commit
    /// what it returns.  Without a journal, always executes.
    std::map<std::string, std::string> run_or_replay(
        const std::string& key,
        const std::function<std::map<std::string, std::string>()>& run);

    /// Recorded fields for `key` if the unit already completed (counts as a
    /// replay); std::nullopt when absent or journaling is disabled.
    [[nodiscard]] std::optional<std::map<std::string, std::string>> try_replay(
        const std::string& key);

    /// Commit a finished unit (counts as an execution).  No-op append when
    /// journaling is disabled; the execution is still counted.
    void commit(const std::string& key, const std::map<std::string, std::string>& fields);

    [[nodiscard]] std::size_t replayed() const;
    [[nodiscard]] std::size_t executed() const;

    /// One-line progress report for campaign summaries ("" when disabled).
    [[nodiscard]] std::string summary() const;

private:
    mutable std::mutex mutex_;  ///< guards the replay/execute counters
    std::string campaign_;
    std::optional<RunJournal> journal_;
    std::size_t replayed_ = 0;
    std::size_t executed_ = 0;
};

/// Full-precision double <-> journal field helpers (round-trip exact, so
/// resumed campaigns reproduce tables bit-for-bit).
[[nodiscard]] std::string field_from_double(double value);
[[nodiscard]] double field_double(const std::map<std::string, std::string>& fields,
                                  const std::string& name);
[[nodiscard]] long field_long(const std::map<std::string, std::string>& fields,
                              const std::string& name);

} // namespace fptc::util
