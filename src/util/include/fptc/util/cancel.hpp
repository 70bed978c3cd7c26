// Cooperative cancellation for supervised campaign units.
//
// The campaign executor runs every (config, split, seed) unit under a
// supervisor: a per-unit watchdog deadline plus campaign-wide cancellation.
// Training is plain CPU compute with no blocking syscalls, so enforcement is
// cooperative — the executor arms a CancelToken and the training loops poll
// it once per batch (see TrainHooks in fptc/core/trainer.hpp).  A tripped
// token makes poll() throw CancelledError, which unwinds the unit before any
// result is recorded: a cancelled unit leaves no partial journal entry.
//
// Tokens chain: a per-unit token with its own deadline links to the
// campaign-wide token, so cancel_all() reaches into running units.
//
// The token also hosts the `stall` fault (FPTC_FAULT_STALL_UNITS): when the
// executor arms a stall, the next poll() sleeps — simulating a hung unit —
// until the watchdog deadline trips it, or a hard cap elapses so a stall
// without a watchdog cannot hang the process.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>

namespace fptc::util {

/// Why a token tripped.  `none` means "still running".
enum class CancelKind : int {
    none = 0,
    cancelled = 1,  ///< explicit cancellation (cancel_all, shutdown)
    timeout = 2,    ///< the per-unit watchdog deadline expired
};

/// Thrown by CancelToken::poll() once the token trips.
class CancelledError : public std::runtime_error {
public:
    CancelledError(CancelKind kind, const std::string& message)
        : std::runtime_error(message), kind_(kind)
    {
    }

    [[nodiscard]] CancelKind kind() const noexcept { return kind_; }

private:
    CancelKind kind_;
};

/// Lock-free cancellation flag with an optional watchdog deadline and an
/// optional parent token.  All methods are safe to call concurrently.
class CancelToken {
public:
    CancelToken() = default;

    /// Chain to a parent (campaign-wide) token; the parent must outlive this
    /// token.  A tripped parent trips the child at the next state() check.
    void set_parent(const CancelToken* parent) noexcept { parent_ = parent; }

    /// Trip the token.  The first kind to land wins; later calls are no-ops.
    void cancel(CancelKind kind = CancelKind::cancelled) const noexcept
    {
        int expected = 0;
        state_.compare_exchange_strong(expected, static_cast<int>(kind),
                                       std::memory_order_acq_rel);
    }

    /// Arm the watchdog: trip with CancelKind::timeout once `seconds` have
    /// elapsed from now.  seconds <= 0 disables the deadline.
    void set_timeout(double seconds) noexcept
    {
        if (seconds <= 0.0) {
            deadline_ns_.store(0, std::memory_order_release);
            return;
        }
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
        deadline_ns_.store(deadline.time_since_epoch().count(), std::memory_order_release);
    }

    /// Arm an injected stall (the `stall` fault class): the next poll()
    /// sleeps until the token trips or `cap` elapses.
    void arm_stall(std::chrono::milliseconds cap) const noexcept
    {
        stall_cap_ms_.store(static_cast<std::int64_t>(cap.count()), std::memory_order_release);
    }

    /// Current state; promotes an expired deadline or tripped parent to a
    /// latched cancellation.
    [[nodiscard]] CancelKind state() const noexcept
    {
        const int latched = state_.load(std::memory_order_acquire);
        if (latched != 0) {
            return static_cast<CancelKind>(latched);
        }
        if (parent_ != nullptr && parent_->state() != CancelKind::none) {
            cancel(CancelKind::cancelled);
            return static_cast<CancelKind>(state_.load(std::memory_order_acquire));
        }
        const std::int64_t deadline = deadline_ns_.load(std::memory_order_acquire);
        if (deadline != 0 &&
            std::chrono::steady_clock::now().time_since_epoch().count() >= deadline) {
            cancel(CancelKind::timeout);
            return static_cast<CancelKind>(state_.load(std::memory_order_acquire));
        }
        return CancelKind::none;
    }

    [[nodiscard]] bool cancelled() const noexcept { return state() != CancelKind::none; }

    /// Cancellation point: serves a pending injected stall, then throws
    /// CancelledError when the token has tripped.  Cheap when idle (one
    /// relaxed atomic load plus a clock read when a deadline is armed).
    void poll() const
    {
        const std::int64_t stall_ms = stall_cap_ms_.exchange(0, std::memory_order_acq_rel);
        if (stall_ms > 0) {
            serve_stall(std::chrono::milliseconds(stall_ms));
        }
        const CancelKind kind = state();
        if (kind == CancelKind::none) {
            return;
        }
        throw CancelledError(kind, kind == CancelKind::timeout
                                       ? "unit watchdog deadline exceeded"
                                       : "unit cancelled");
    }

private:
    void serve_stall(std::chrono::milliseconds cap) const
    {
        const auto give_up = std::chrono::steady_clock::now() + cap;
        while (state() == CancelKind::none && std::chrono::steady_clock::now() < give_up) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    mutable std::atomic<int> state_{0};
    std::atomic<std::int64_t> deadline_ns_{0};
    mutable std::atomic<std::int64_t> stall_cap_ms_{0};
    const CancelToken* parent_ = nullptr;
};

} // namespace fptc::util
