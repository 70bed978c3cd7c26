#include "fptc/serve/supervisor.hpp"

#include "fptc/serve/flightrec.hpp"
#include "fptc/serve/watchdog.hpp"
#include "fptc/util/codec.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/env.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/log.hpp"
#include "fptc/util/shutdown.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

namespace fptc::serve {

namespace {

/// A heartbeat file older than this (refreshed every 0.25 s) draws a SIGKILL.
constexpr double kHeartbeatStaleSeconds = 20.0;

/// Wall-clock seconds (heartbeat staleness compares against file mtime,
/// which is realtime).
[[nodiscard]] double wall_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/// Heartbeat file mtime in wall seconds, or nullopt when absent.
[[nodiscard]] std::optional<double> heartbeat_mtime(const std::string& path)
{
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) {
        return std::nullopt;
    }
    return static_cast<double>(st.st_mtim.tv_sec) +
           static_cast<double>(st.st_mtim.tv_nsec) * 1e-9;
}

/// Blocking waitpid that still honours the double-signal escape hatch in
/// the shutdown handler (which _exits on the second SIGTERM/SIGINT).
[[nodiscard]] int wait_for_exit(int pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return status;
}

/// One environment assignment for the spawned worker.
struct EnvVar {
    std::string name;
    std::string value;  ///< empty + unset=true removes the variable
    bool unset = false;
};

/// This process's argv, recovered from /proc/self/cmdline (NUL-separated).
[[nodiscard]] std::vector<std::string> self_cmdline()
{
    const std::string raw = util::read_file("/proc/self/cmdline").value_or("");
    std::vector<std::string> argv;
    std::size_t start = 0;
    while (start < raw.size()) {
        const auto nul = raw.find('\0', start);
        const auto end = nul == std::string::npos ? raw.size() : nul;
        argv.push_back(raw.substr(start, end - start));
        start = end + 1;
    }
    return argv;
}

/// Fork/exec the worker: re-runs this process's own binary and argv
/// (/proc/self/exe, /proc/self/cmdline) with `env` applied; the child
/// shares the supervisor's stdout.  Returns the child pid; throws IoError
/// when the fork or the argv recovery fails.  Called from the supervisor's
/// single thread, so the child may use the heap until exec.
[[nodiscard]] int spawn_self(const std::vector<EnvVar>& env)
{
    const auto argv_strings = self_cmdline();
    if (argv_strings.empty()) {
        throw util::IoError("spawn_self: cannot read /proc/self/cmdline", /*transient=*/false);
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        const int err = errno;
        throw util::IoError("spawn_self: fork failed: " + std::string(std::strerror(err)),
                            err == EAGAIN);
    }
    if (pid > 0) {
        return static_cast<int>(pid);
    }
    for (const auto& var : env) {
        if (var.unset) {
            ::unsetenv(var.name.c_str());
        } else {
            ::setenv(var.name.c_str(), var.value.c_str(), 1);
        }
    }
    std::vector<char*> argv;
    argv.reserve(argv_strings.size() + 1);
    for (const auto& arg : argv_strings) {
        argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv("/proc/self/exe", argv.data());
    // exec failed: nothing sane to do in the child but die loudly.
    const char* note = "[fptc] spawn_self: execv(/proc/self/exe) failed\n";
    [[maybe_unused]] const auto n = ::write(STDERR_FILENO, note, std::strlen(note));
    ::_exit(127);
}

} // namespace

SupervisorConfig SupervisorConfig::from_env()
{
    SupervisorConfig config;
    config.max_restarts = static_cast<int>(
        util::env_size("FPTC_SERVE_MAX_RESTARTS", static_cast<std::size_t>(config.max_restarts), 0));
    config.backoff_ms = util::env_positive("FPTC_SERVE_BACKOFF_MS", config.backoff_ms, true);
    config.snapshot_path = util::env_string("FPTC_SERVE_SNAPSHOT");
    config.heartbeat_path = serve_heartbeat_path(config.snapshot_path);
    config.postmortem_path = util::env_string("FPTC_SERVE_POSTMORTEM");
    return config;
}

double backoff_delay_ms(const SupervisorConfig& config, int restart)
{
    double delay = config.backoff_ms;
    for (int i = 1; i < restart; ++i) {
        delay *= 2.0;
        if (delay >= config.backoff_cap_ms) {
            return config.backoff_cap_ms;
        }
    }
    return delay < config.backoff_cap_ms ? delay : config.backoff_cap_ms;
}

std::string serve_heartbeat_path(const std::string& snapshot_path)
{
    return snapshot_path.empty() ? std::string{} : snapshot_path + ".heartbeat";
}

bool is_serve_worker()
{
    return util::env_string(kServeRoleEnv) == kServeRoleWorker;
}

std::uint32_t serve_generation()
{
    return static_cast<std::uint32_t>(util::env_int(kServeGenerationEnv).value_or(0));
}

int run_supervisor(const SupervisorConfig& config)
{
    util::install_shutdown_handlers();
    if (!config.snapshot_path.empty()) {
        // Crash debris from a previous incarnation: half-written snapshot
        // temps whose writer is gone (same scavenger the journal/checkpoint
        // layer uses at startup).
        const std::size_t removed =
            util::scavenge_orphan_temps(util::parent_dir_of(config.snapshot_path));
        if (removed > 0) {
            util::log_info("serve supervisor: scavenged " + std::to_string(removed) +
                           " orphaned snapshot temp file(s)");
        }
    }
    if (!config.heartbeat_path.empty()) {
        ::unlink(config.heartbeat_path.c_str());  // stale liveness from a previous run
    }

    int restarts = 0;
    bool degraded = false;
    int last_status = 0;
    while (true) {
        const bool final_attempt = restarts == config.max_restarts && config.max_restarts > 0;
        std::vector<EnvVar> env{
            {kServeRoleEnv, kServeRoleWorker, false},
            {kServeGenerationEnv, std::to_string(restarts), false},
        };
        if (!config.postmortem_path.empty()) {
            // The worker derives its ring file from this path, as the
            // supervisor does (frec_ring_path).
            env.push_back({"FPTC_SERVE_POSTMORTEM", config.postmortem_path, false});
        }
        if (restarts > 0) {
            // Injected one-shot faults must not replay in the recovered
            // generation — the point is to recover from the crash, not to
            // loop it.
            for (const util::FaultClassSpec& fault : util::kFaultClasses) {
                if (fault.kind == util::FaultKind::one_shot) {
                    env.push_back({fault.knob, "", true});
                }
            }
        }
        if (final_attempt) {
            degraded = true;
            env.push_back({"FPTC_SERVE_GBT_ONLY", "1", false});
            util::log_info("serve supervisor: final restart — degrading worker to GBT-only");
        }

        const double spawned_at = wall_seconds();
        const int pid = spawn_self(env);
        util::log_info("serve supervisor: worker generation " + std::to_string(restarts) +
                       " started (pid " + std::to_string(pid) + ")");

        // Watch: death via waitpid, wedge via heartbeat staleness.
        int status = 0;
        bool beat_seen = false;
        bool killed_for_stall = false;
        while (true) {
            const int reaped = ::waitpid(pid, &status, WNOHANG);
            if (reaped == pid) {
                break;
            }
            if (util::shutdown_requested()) {
                ::kill(pid, SIGTERM);
                status = wait_for_exit(pid);
                util::log_info("serve supervisor: shutdown signal forwarded to worker");
                return util::shutdown_exit_code(util::shutdown_signal());
            }
            if (!config.heartbeat_path.empty() && !killed_for_stall) {
                const auto mtime = heartbeat_mtime(config.heartbeat_path);
                if (mtime.has_value() && *mtime > spawned_at - 1.0) {
                    beat_seen = true;
                }
                if (beat_seen && mtime.has_value() &&
                    wall_seconds() - *mtime > kHeartbeatStaleSeconds) {
                    util::log_info("serve supervisor: worker heartbeat stale for over " +
                                   std::to_string(kHeartbeatStaleSeconds) +
                                   "s — SIGKILLing wedged worker");
                    ::kill(pid, SIGKILL);
                    killed_for_stall = true;
                }
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }

        if (WIFEXITED(status)) {
            const int code = WEXITSTATUS(status);
            if (code == 0) {
                util::log_info("serve supervisor: worker finished cleanly after " +
                               std::to_string(restarts) + " restart(s)" +
                               (degraded ? " (degraded to GBT-only)" : ""));
                util::log_raw("SUPERVISOR_OK restarts=" + std::to_string(restarts) +
                              " degraded=" + std::to_string(degraded ? 1 : 0));
                return 0;
            }
            if (code == 1 || code == 2 || code == 127) {
                // The worker's own verdict (1: a self-check failed, 2: a
                // malformed knob) or an exec failure: a restart would replay
                // the same fault, or hide a failed check behind a cold start.
                util::log_info("serve supervisor: worker exited with code " +
                               std::to_string(code) + "; not retrying");
                return code;
            }
            last_status = code;
            util::log_info(std::string("serve supervisor: worker ") +
                           (code == kHangExitCode ? "hang-exited (watchdog)" : "crashed") +
                           " with code " + std::to_string(code));
        } else if (WIFSIGNALED(status)) {
            const int signum = WTERMSIG(status);
            last_status = 128 + signum;
            util::log_info("serve supervisor: worker killed by signal " + std::to_string(signum) +
                           (killed_for_stall ? " (supervisor stall kill)" : ""));
            // A signalled worker ran no handlers, but its flight-recorder
            // stores landed in the mmap'd ring file: seal them into a
            // postmortem *before* the next generation reinitializes the
            // rings.  Sealing failure (no recorder armed, corrupt file)
            // costs diagnostics, never the restart.
            const std::string ring_path = frec_ring_path(config.postmortem_path);
            if (!ring_path.empty() &&
                !FlightRecorder::seal_from_ring_file(
                    ring_path, config.postmortem_path, PostmortemReason::sigkill_reap,
                    static_cast<std::uint32_t>(restarts), "signal " + std::to_string(signum))) {
                util::log_info("serve supervisor: no sealable ring file at " + ring_path);
            }
        } else {
            last_status = 1;
        }

        if (restarts >= config.max_restarts) {
            util::log_info("serve supervisor: crash-loop budget exhausted (" +
                           std::to_string(config.max_restarts) + " restart(s)); giving up");
            return last_status;
        }
        ++restarts;
        const double delay = backoff_delay_ms(config, restarts);
        util::log_info("serve supervisor: restarting in " + std::to_string(delay) + "ms");
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay));
    }
}

} // namespace fptc::serve
