// Durable file I/O: every persistent artifact survives a crash.
//
// The campaign layer promises that a killed process can resume with
// bit-identical tables (util/journal.hpp).  That promise is only as strong
// as the bytes on disk: a rename without fsync can publish an *empty or
// stale* file after power loss (the metadata reaches the disk before the
// data), and a bare ofstream append can silently drop bytes on a full
// disk.  This module is the single choke point all persistence goes
// through:
//
//   * DurableFile — open temp (O_EXCL, same directory) -> write ->
//     fsync(fd) -> rename over the target -> fsync(parent dir).  Readers
//     never observe a partial file, and after commit() returns the new
//     content survives power loss.  If the object dies before commit() the
//     temp file is unlinked: an aborted write leaves no debris.
//   * durable_append_line — O_APPEND write of one line + fsync, for the
//     run journal.  A crash mid-append can tear the final line (dropped on
//     reload) but never an earlier one.
//
// Every write and fsync funnels through a syscall shim that consults the
// process-wide FaultInjector (util/fault.hpp): deterministic ENOSPC after
// a byte budget, short writes, fsync failures, and a hard _exit at the
// K-th durable write (the kill point swept by tests/run_torture.sh).
//
// Failures surface as IoError carrying a transient/fatal hint that the
// campaign executor's taxonomy maps onto UnitError classes: ENOSPC and
// fsync failures are transient (a retry rewrites from clean state; nothing
// was renamed into place), unexpected syscall errors are fatal.  I/O
// faults therefore retry or degrade one cell (†N) — they never abort a
// campaign or publish a corrupt artifact.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace fptc::util {

/// Exit code of the injected FPTC_FAULT_CRASH_AT_WRITE hard _exit; the
/// torture harness asserts crashed runs die with exactly this code.
inline constexpr int kCrashExitCode = 86;

/// Typed durable-I/O failure.  `transient()` hints the executor taxonomy:
/// true means a re-execution plausibly succeeds (ENOSPC may clear, an
/// fsync failure left only a discarded temp file behind).
class IoError : public std::runtime_error {
public:
    IoError(const std::string& message, bool transient)
        : std::runtime_error(message), transient_(transient)
    {
    }

    [[nodiscard]] bool transient() const noexcept { return transient_; }

private:
    bool transient_;
};

/// One atomic, durable file replacement.  Construction opens a uniquely
/// named temp file next to `path` (same filesystem, so the rename is
/// atomic); write() appends through the fault shim; commit() makes the new
/// content the file's durable state.  Destruction before commit() unlinks
/// the temp file.  Not thread-safe per instance; distinct instances are
/// independent.
class DurableFile {
public:
    explicit DurableFile(std::string path);
    DurableFile(const DurableFile&) = delete;
    DurableFile& operator=(const DurableFile&) = delete;
    ~DurableFile();

    /// Append bytes to the temp file (full-write loop through the shim).
    void write(std::string_view data);

    /// fsync the temp file, rename it over the target, fsync the parent
    /// directory.  After this returns the new content is crash-durable.
    void commit();

    [[nodiscard]] const std::string& path() const noexcept { return target_; }
    [[nodiscard]] const std::string& temp_path() const noexcept { return temp_; }

    /// Convenience: write `content` to `path` in one durable transaction.
    static void write_file(const std::string& path, std::string_view content);

private:
    std::string target_;
    std::string temp_;
    int fd_ = -1;
    bool committed_ = false;
};

/// Durably append `line` + '\n' to `path` (created 0644 if absent): one
/// O_APPEND write through the fault shim, then fsync.  Concurrent callers
/// must serialize externally (RunJournal holds its mutex across the call).
void durable_append_line(const std::string& path, std::string_view line);

/// Directory of `path` ("." for a bare filename, "/" for root children).
[[nodiscard]] std::string parent_dir_of(const std::string& path);

/// Startup scavenge of crash debris: unlink `*.tmp.<pid>.<seq>` files in
/// `dir` whose creating process is gone (kill(pid, 0) == ESRCH).  A crash
/// between a DurableFile's write and its commit leaks exactly such a temp;
/// a live writer's in-flight temps (this process or another running one)
/// are left alone.  Returns the number of files removed; a missing or
/// unreadable directory scavenges nothing.
std::size_t scavenge_orphan_temps(const std::string& dir);

/// Throwing writability probe: opens `path` for append (creating it if
/// absent) and closes it, so a bad path fails before any work is sunk.
void probe_appendable(const std::string& path);

/// fsync the directory containing `path`, making a completed rename of
/// `path` itself durable.  No-op errors (e.g. the directory cannot be
/// opened on this filesystem) are ignored: the rename already happened and
/// directory fsync is a best-effort durability upgrade everywhere else.
void fsync_parent_dir(const std::string& path);

} // namespace fptc::util
