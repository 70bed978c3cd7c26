#include "fptc/util/durable.hpp"

#include "fptc/util/fault.hpp"
#include "fptc/util/telemetry.hpp"

#include "fptc/util/log.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

namespace fptc::util {

namespace {

[[nodiscard]] std::string errno_text(int err)
{
    return std::string(std::strerror(err)) + " (errno " + std::to_string(err) + ")";
}

/// Resource-exhaustion errors pass with time; anything else is a
/// deterministic environment/programming problem.
[[nodiscard]] bool errno_is_transient(int err) noexcept
{
    return err == ENOSPC || err == EDQUOT || err == EAGAIN || err == EMFILE || err == ENFILE;
}


/// The syscall shim: every durable byte goes through here.  Handles the
/// injector's kill point (partial payload then _exit — a simulated power
/// loss), injected ENOSPC/short writes, EINTR, and real partial writes.
void shim_write_fully(int fd, std::string_view data, const std::string& path)
{
    while (!data.empty()) {
        if (fault_injector().inject_crash_at_write()) {
            // Tear the artifact for real: half the payload reaches the
            // file, then the process dies without unwinding.  _exit skips
            // atexit/destructors exactly like a power cut skips them.
            const auto half = data.size() / 2;
            if (half > 0) {
                [[maybe_unused]] const auto n = ::write(fd, data.data(), half);
            }
            ::_exit(kCrashExitCode);
        }
        const std::size_t want = fault_injector().clamp_write(data.size());
        if (fault_injector().inject_enospc(want)) {
            throw IoError("durable write to " + path + " failed: injected " + errno_text(ENOSPC),
                          /*transient=*/true);
        }
        const ssize_t n = ::write(fd, data.data(), want);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            const int err = errno;
            throw IoError("durable write to " + path + " failed: " + errno_text(err),
                          errno_is_transient(err));
        }
        data.remove_prefix(static_cast<std::size_t>(n));
    }
}

void shim_fsync(int fd, const std::string& path)
{
    if (fault_injector().inject_fsync_failure()) {
        throw IoError("fsync of " + path + " failed: injected " + errno_text(EIO),
                      /*transient=*/true);
    }
    if (::fsync(fd) != 0) {
        const int err = errno;
        // A failed fsync means the kernel may have dropped dirty pages; the
        // caller's temp file (or appended line) cannot be trusted.  The
        // un-renamed state on disk is still clean, so a retry is plausible.
        throw IoError("fsync of " + path + " failed: " + errno_text(err),
                      errno_is_transient(err) || err == EIO);
    }
}

} // namespace

DurableFile::DurableFile(std::string path) : target_(std::move(path))
{
    // Unique temp name in the same directory: rename() must stay within one
    // filesystem to be atomic, and O_EXCL guards against collisions with a
    // concurrent writer or crash debris.
    static std::atomic<std::uint64_t> sequence{0};
    for (int attempt = 0; attempt < 16; ++attempt) {
        temp_ = target_ + ".tmp." + std::to_string(static_cast<unsigned long>(::getpid())) + "." +
                std::to_string(sequence.fetch_add(1) + 1);
        fd_ = ::open(temp_.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
        if (fd_ >= 0) {
            return;
        }
        if (errno != EEXIST) {
            break;
        }
    }
    const int err = errno;
    throw IoError("DurableFile: cannot create temp file for " + target_ + ": " + errno_text(err),
                  errno_is_transient(err));
}

DurableFile::~DurableFile()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    if (!committed_ && !temp_.empty()) {
        ::unlink(temp_.c_str());  // aborted transaction: leave no debris
    }
}

void DurableFile::write(std::string_view data)
{
    if (fd_ < 0) {
        throw IoError("DurableFile: write after commit to " + target_, /*transient=*/false);
    }
    shim_write_fully(fd_, data, temp_);
}

void DurableFile::commit()
{
    // The fsync + rename + parent fsync dominate a durable transaction; one
    // span here covers every DurableFile user (checkpoints, tables, traces).
    FPTC_TRACE_SPAN("durable_write");
    if (fd_ < 0) {
        throw IoError("DurableFile: double commit to " + target_, /*transient=*/false);
    }
    shim_fsync(fd_, temp_);
    if (::close(fd_) != 0) {
        const int err = errno;
        fd_ = -1;
        throw IoError("DurableFile: close of " + temp_ + " failed: " + errno_text(err),
                      errno_is_transient(err));
    }
    fd_ = -1;
    if (::rename(temp_.c_str(), target_.c_str()) != 0) {
        const int err = errno;
        throw IoError("DurableFile: rename to " + target_ + " failed: " + errno_text(err),
                      errno_is_transient(err));
    }
    committed_ = true;  // from here the temp file no longer exists
    fsync_parent_dir(target_);
}

void DurableFile::write_file(const std::string& path, std::string_view content)
{
    DurableFile file(path);
    file.write(content);
    file.commit();
}

void durable_append_line(const std::string& path, std::string_view line)
{
    FPTC_TRACE_SPAN("durable_write");
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) {
        const int err = errno;
        throw IoError("durable append: cannot open " + path + ": " + errno_text(err),
                      errno_is_transient(err));
    }
    try {
        std::string payload(line);
        payload += '\n';
        // One shim write for the whole line: concurrent appenders (already
        // serialized by the journal mutex) and the kill point both operate
        // on whole-line granularity.
        shim_write_fully(fd, payload, path);
        shim_fsync(fd, path);
    } catch (...) {
        ::close(fd);
        throw;
    }
    ::close(fd);
}

void probe_appendable(const std::string& path)
{
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) {
        const int err = errno;
        throw IoError("cannot open " + path + " for writing: " + errno_text(err),
                      errno_is_transient(err));
    }
    ::close(fd);
}

std::string parent_dir_of(const std::string& path)
{
    const auto slash = path.find_last_of('/');
    if (slash == std::string::npos) {
        return ".";
    }
    if (slash == 0) {
        return "/";
    }
    return path.substr(0, slash);
}

std::size_t scavenge_orphan_temps(const std::string& dir)
{
    DIR* handle = ::opendir(dir.c_str());
    if (handle == nullptr) {
        return 0;
    }
    std::size_t removed = 0;
    while (const dirent* entry = ::readdir(handle)) {
        const std::string name = entry->d_name;
        const auto marker = name.find(".tmp.");
        if (marker == std::string::npos) {
            continue;
        }
        // DurableFile temps are "<target>.tmp.<pid>.<seq>"; anything that
        // does not parse that way is not ours to touch.
        const std::string tail = name.substr(marker + 5);
        const auto dot = tail.find('.');
        if (dot == std::string::npos || dot == 0 || dot + 1 >= tail.size()) {
            continue;
        }
        char* end = nullptr;
        const long pid = std::strtol(tail.c_str(), &end, 10);
        if (pid <= 0 || end != tail.c_str() + dot ||
            tail.find_first_not_of("0123456789", dot + 1) != std::string::npos) {
            continue;
        }
        if (pid == static_cast<long>(::getpid())) {
            continue;  // our own in-flight transaction
        }
        if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH) {
            continue;  // writer still alive (or unknowable): not debris
        }
        const std::string path = dir + "/" + name;
        if (::unlink(path.c_str()) == 0) {
            ++removed;
        }
    }
    ::closedir(handle);
    if (removed > 0) {
        log_info("durable: scavenged " + std::to_string(removed) +
                 " orphan temp file(s) in " + dir);
    }
    return removed;
}

void fsync_parent_dir(const std::string& path)
{
    const std::string dir = parent_dir_of(path);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
        return;  // best-effort: some filesystems refuse O_RDONLY on dirs
    }
    // Directory fsync failures are not actionable (the rename itself
    // succeeded); deliberately not routed through the injector either, so
    // the kill-point indexes count only data writes.
    ::fsync(fd);
    ::close(fd);
}

} // namespace fptc::util
