// Serve worker supervision: crash containment for the streaming classifier.
//
// The campaign executor makes offline runs crash-recoverable (journal
// resume); this module does the same for the online serve pipeline.  With
// FPTC_SERVE_SUPERVISE=1 the serve binary forks into a two-process shape:
//
//   supervisor (parent) ── fork/exec /proc/self/exe ──> worker (child)
//        │  waitpid + heartbeat-file staleness              │
//        │                                                  ├ runs the
//        │  exit 0 ─────────── done, exit 0                 │ 3-thread
//        │  crash/hang exit ── restart w/ backoff           │ pipeline
//        │  heartbeat stale ── SIGKILL, then restart        │ + watchdog
//        │  SIGTERM/SIGINT ─── forward, wait, 128+sig       │ + snapshots
//
// The worker is this same binary re-executed (fork + exec of
// /proc/self/exe with the same argv) with FPTC_SERVE_ROLE=worker and its
// generation number in the environment.  Restart policy:
//
//   * exponential backoff: FPTC_SERVE_BACKOFF_MS × 2^(restart-1), capped —
//     a crash loop burns the budget slowly instead of fork-bombing;
//   * a crash-loop budget (FPTC_SERVE_MAX_RESTARTS): on the *last* allowed
//     restart the worker is degraded to GBT-only mode
//     (FPTC_SERVE_GBT_ONLY=1 clamps the breaker ladder to the fallback
//     tier) — if the CNN path is what keeps crashing, the cheap tier still
//     serves; only when that too dies does the supervisor give up and
//     propagate the worker's status;
//   * one-shot fault injections (FPTC_FAULT_KILL_SERVE,
//     FPTC_FAULT_SERVE_HANG) are unset for generations > 0, so an injected
//     crash is recovered from rather than replayed forever;
//   * a worker that exits 1 (its self-check failed), 2 (malformed knob) or
//     127 (exec failure) is not retried — restarting cannot fix a bad
//     binary or configuration, and a cold-started retry would hide a
//     failed check behind a clean exit.
//
// Liveness is watched two ways: waitpid catches death, and the heartbeat
// file (serve_heartbeat_path, next to the snapshot) the worker's watchdog
// refreshes every poll catches a worker so wedged that even its own
// watchdog thread is stuck — a file older than 20 s draws a SIGKILL and the
// normal restart path takes over.  Without a snapshot there is no
// heartbeat, and waitpid alone watches the worker.
#pragma once

#include <cstdint>
#include <string>

namespace fptc::serve {

/// Environment variable that routes a re-exec'd child into the worker
/// branch of the serve binary's main().
inline constexpr const char* kServeRoleEnv = "FPTC_SERVE_ROLE";
inline constexpr const char* kServeRoleWorker = "worker";

/// Worker generation (0 = first launch), set by the supervisor.
inline constexpr const char* kServeGenerationEnv = "FPTC_SERVE_GENERATION";

struct SupervisorConfig {
    int max_restarts = 3;            ///< FPTC_SERVE_MAX_RESTARTS: respawns before giving up
    double backoff_ms = 200.0;       ///< FPTC_SERVE_BACKOFF_MS: base of the exponential backoff
    double backoff_cap_ms = 5000.0;  ///< ceiling on a single backoff sleep
    std::string heartbeat_path;      ///< serve_heartbeat_path(snapshot_path)
    std::string snapshot_path;       ///< FPTC_SERVE_SNAPSHOT: scavenged + preserved across restarts
    std::string postmortem_path;     ///< FPTC_SERVE_POSTMORTEM: sealed from a signalled worker's rings

    /// Build from FPTC_SERVE_* environment (strict parsing — EnvError on
    /// malformed values, like every other knob).
    [[nodiscard]] static SupervisorConfig from_env();
};

/// Backoff before restart number `restart` (1-based): base × 2^(restart-1),
/// capped.  Pure — unit-tested directly.
[[nodiscard]] double backoff_delay_ms(const SupervisorConfig& config, int restart);

/// Run the supervision loop: spawn the worker, watch it, restart within
/// budget, degrade to GBT-only on the final attempt.  Returns the process
/// exit status: the final worker's exit code, or 128+signum when the
/// supervisor itself was told to shut down.  Must be called before this
/// process starts any threads (it forks).
[[nodiscard]] int run_supervisor(const SupervisorConfig& config);

/// True when this process is a supervisor-spawned worker.
[[nodiscard]] bool is_serve_worker();

/// "<snapshot_path>.heartbeat", or "" without a snapshot: the liveness file
/// a supervised worker refreshes and its supervisor watches.
[[nodiscard]] std::string serve_heartbeat_path(const std::string& snapshot_path);

/// This worker's generation (0 when unsupervised or first launch).
[[nodiscard]] std::uint32_t serve_generation();

} // namespace fptc::serve
