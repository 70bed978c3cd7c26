#include "fptc/serve/watchdog.hpp"

#include "fptc/util/log.hpp"

#include <chrono>
#include <cstdlib>
#include <string>

#include <fcntl.h>
#include <unistd.h>

namespace fptc::serve {

Watchdog::Watchdog(WatchdogConfig config, std::function<void()> on_poll)
    : config_(std::move(config)), on_poll_(std::move(on_poll))
{
}

Watchdog::~Watchdog()
{
    stop();
}

std::int64_t Watchdog::now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::size_t Watchdog::add_thread(const std::string& name)
{
    auto slot = std::make_unique<Slot>();
    slot->name = name;
    slot->last_beat_ns.store(now_ns(), std::memory_order_relaxed);
    slots_.push_back(std::move(slot));
    return slots_.size() - 1;
}

void Watchdog::beat(std::size_t slot)
{
    slots_[slot]->last_beat_ns.store(now_ns(), std::memory_order_relaxed);
}

void Watchdog::set_idle(std::size_t slot, bool idle)
{
    // Re-stamp on every transition so time spent idle never counts toward
    // the stall budget once the slot goes active again.
    slots_[slot]->last_beat_ns.store(now_ns(), std::memory_order_relaxed);
    slots_[slot]->state.store(static_cast<int>(idle ? SlotState::idle : SlotState::active),
                              std::memory_order_relaxed);
}

void Watchdog::mark_done(std::size_t slot)
{
    slots_[slot]->state.store(static_cast<int>(SlotState::done), std::memory_order_relaxed);
}

void Watchdog::poll_tasks() const
{
    // Plain truncate-and-write, deliberately NOT the durable path: the
    // heartbeat is a liveness signal for the co-resident supervisor (which
    // watches the file's mtime), not persistent state; an fsync per beat
    // would be pure overhead and a torn beat is indistinguishable from a
    // fresh one.
    const int fd = config_.heartbeat_path.empty()
                       ? -1
                       : ::open(config_.heartbeat_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                0644);
    if (fd >= 0) {
        const std::string stamp = std::to_string(now_ns()) + "\n";
        [[maybe_unused]] const ssize_t written = ::write(fd, stamp.data(), stamp.size());
        ::close(fd);
    }
    if (on_poll_) {
        on_poll_();
    }
}

void Watchdog::start()
{
    if (!enabled() || thread_.joinable()) {
        return;
    }
    stop_.store(false, std::memory_order_relaxed);
    poll_tasks();
    thread_ = std::thread([this] { run(); });
}

void Watchdog::stop()
{
    if (!thread_.joinable()) {
        return;
    }
    {
        std::lock_guard lock(wake_mutex_);
        stop_.store(true, std::memory_order_relaxed);
    }
    wake_cv_.notify_all();
    thread_.join();
}

void Watchdog::run()
{
    const auto poll = std::chrono::duration<double>(config_.poll_seconds);
    const double stall_ns = config_.stall_seconds * 1e9;
    while (true) {
        {
            std::unique_lock lock(wake_mutex_);
            if (wake_cv_.wait_for(lock, poll,
                                  [this] { return stop_.load(std::memory_order_relaxed); })) {
                return;
            }
        }
        poll_tasks();
        if (config_.stall_seconds <= 0.0) {
            continue;
        }
        const std::int64_t now = now_ns();
        for (const auto& slot : slots_) {
            if (slot->state.load(std::memory_order_relaxed) !=
                static_cast<int>(SlotState::active)) {
                continue;
            }
            const std::int64_t last = slot->last_beat_ns.load(std::memory_order_relaxed);
            if (static_cast<double>(now - last) <= stall_ns) {
                continue;
            }
            if (config_.on_stall) {
                config_.on_stall(slot->name);
                // Injected handler (tests): stamp the slot so one stall is
                // reported once, not once per poll.
                slot->last_beat_ns.store(now_ns(), std::memory_order_relaxed);
                continue;
            }
            util::log_info("serve watchdog: thread '" + slot->name + "' stalled for over " +
                           std::to_string(config_.stall_seconds) +
                           "s; exiting with kHangExitCode for supervisor recovery");
            // No orderly teardown: the pipeline is wedged and destructors
            // would block on it.  _Exit skips atexit/static destructors.
            std::_Exit(kHangExitCode);
        }
    }
}

} // namespace fptc::serve
