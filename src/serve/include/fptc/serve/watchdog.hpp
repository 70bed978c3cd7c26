// In-worker watchdog for the serve pipeline threads.
//
// The supervisor (supervisor.hpp) can restart a worker that *dies*, but a
// worker that *wedges* — a pipeline thread stuck in a loop or blocked on
// something that will never complete — looks alive from outside: the
// process exists, the queues sit full, and nothing makes progress.  The
// watchdog closes that gap from inside: each pipeline thread (driver,
// assembler, classifier) registers a slot and stamps it with a relaxed
// monotonic timestamp every loop iteration; a background thread polls the
// stamps and, when any active slot goes stale past the stall budget,
// declares the FPTC_FAULT_SERVE_HANG fault class and self-terminates with
// kHangExitCode so the supervisor treats it exactly like a crash and
// restarts from the last snapshot.  `_exit` (not `exit`) is deliberate:
// a wedged pipeline cannot run an orderly teardown — destructors would
// block on the very queues that are stuck.
//
// The same poll loop refreshes the external heartbeat file the supervisor
// watches, so "worker wedged so hard even the watchdog thread is stuck"
// is also covered: the file goes stale and the supervisor SIGKILLs.  It
// also runs the caller's on_poll hook (the serve status export), so a
// worker has one periodic thread.
//
// Slots distinguish three states: active (stall-checked), idle (blocked on
// intentionally-unbounded waits, e.g. a closed-queue drain — not checked),
// and done (thread exited cleanly — never checked again).  Unit tests
// inject `on_stall` to observe detection without process death.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace fptc::serve {

/// Worker exit code for a watchdog-detected pipeline stall; the supervisor
/// accounts it separately from crashes (kCrashExitCode) in its log line but
/// recovers identically.
inline constexpr int kHangExitCode = 88;

struct WatchdogConfig {
    double stall_seconds = 0.0;   ///< max silence per active slot; <= 0 disables stall checks
    double poll_seconds = 0.25;   ///< watchdog loop cadence
    std::string heartbeat_path;   ///< file refreshed every poll; empty = none
    /// Called (from the watchdog thread) with the stalled slot's name.
    /// Default action when empty: log + std::_Exit(kHangExitCode).
    std::function<void(const std::string&)> on_stall;
};

class Watchdog {
public:
    /// `on_poll` runs on every poll, after the heartbeat, and once from
    /// start() on the caller's thread; a set hook alone enables the thread.
    explicit Watchdog(WatchdogConfig config, std::function<void()> on_poll = {});
    ~Watchdog();

    Watchdog(const Watchdog&) = delete;
    Watchdog& operator=(const Watchdog&) = delete;

    /// Register a pipeline thread before start(); returns its slot index.
    [[nodiscard]] std::size_t add_thread(const std::string& name);

    /// Stamp "I made progress" — called every loop iteration; wait-free.
    void beat(std::size_t slot);

    /// Mark a slot idle (blocked on an intentionally long wait) or active.
    void set_idle(std::size_t slot, bool idle);

    /// Thread exited cleanly; the slot is never checked again.
    void mark_done(std::size_t slot);

    void start();
    void stop();

    [[nodiscard]] bool enabled() const noexcept
    {
        return config_.stall_seconds > 0.0 || !config_.heartbeat_path.empty() ||
               on_poll_ != nullptr;
    }

private:
    enum class SlotState : int { active = 0, idle = 1, done = 2 };

    struct Slot {
        std::string name;
        std::atomic<std::int64_t> last_beat_ns{0};
        std::atomic<int> state{static_cast<int>(SlotState::active)};
    };

    [[nodiscard]] static std::int64_t now_ns();
    void run();
    void poll_tasks() const;

    WatchdogConfig config_;
    std::function<void()> on_poll_;
    std::vector<std::unique_ptr<Slot>> slots_;
    std::thread thread_;
    std::atomic<bool> stop_{false};
    std::mutex wake_mutex_;
    std::condition_variable wake_cv_;
};

} // namespace fptc::serve
