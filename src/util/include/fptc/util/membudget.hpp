// Budgeted memory accounting for campaign workloads.
//
// The paper's campaigns sweep thousands of training units across three
// flowpic resolutions, and the 1500x1500 cells dominate memory by ~3 orders
// of magnitude — the workload shape where a production system dies not from
// crashes but from the kernel OOM killer.  Following the resource-accounting
// discipline of large training stacks (PyTorch's caching-allocator budget
// reporting, XGBoost's external-memory mode), this module makes the cost of
// every large buffer explicit:
//
//   * MemBudget    — a process-wide atomic accountant.  Owners of large
//                    buffers reserve() bytes before (logically) allocating
//                    and release() them on destruction; when FPTC_MEM_BUDGET_MB
//                    is set, a reservation that would push in_use() past the
//                    budget is refused with BudgetExceeded instead of letting
//                    the process grow until SIGKILL.
//   * Charge       — the RAII handle the hot owners hold (nn::Tensor
//                    storage, flowpic::Flowpic grids, core::SampleSet images,
//                    GBT histogram/margin buffers).  Copying a Charge
//                    re-reserves (a copied tensor really does double the
//                    footprint); moving transfers the reservation; the
//                    destructor credits it back, so accounting is balanced
//                    by construction.
//   * BudgetExceeded — typed refusal carrying requested/available bytes and
//                    a transient hint.  core::classify_exception routes it
//                    into the executor's retry/degrade taxonomy: the unit is
//                    retried once at half batch size, then degraded (†N)
//                    like a timeout — the campaign never aborts.
//
// Enforcement is at the accounting layer, not the allocator: untracked
// allocations (flow vectors, STL bookkeeping) do not count against the
// budget.  The budget therefore bounds the *accounted* working set — the
// flowpic grids, sample sets and tensors that dominate a campaign's
// footprint — which is what the executor's admission control reasons about.
//
// Determinism: with FPTC_JOBS=1 every charge is sequential, so peak_bytes()
// and the refusal points are exactly reproducible run to run.  The fault
// classes FPTC_FAULT_ALLOC_FAIL_AFTER_MB / _UNITS (util/fault.hpp) scope
// their byte budgets per unit execution, so injected refusals hit the same
// units for any FPTC_JOBS value.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace fptc::util {

/// Thrown when a reservation would exceed the memory budget (or an injected
/// allocation fault refuses it).  Transient by default: memory pressure
/// passes once concurrently running units release their charges, and a
/// shrunk batch size lowers the unit's own footprint.
class BudgetExceeded : public std::runtime_error {
public:
    BudgetExceeded(const std::string& what_for, std::size_t requested_bytes,
                   std::size_t available_bytes, bool transient = true)
        : std::runtime_error("memory budget exceeded (" + what_for + "): requested " +
                             std::to_string(requested_bytes) + " bytes, available " +
                             std::to_string(available_bytes)),
          requested_(requested_bytes), available_(available_bytes), transient_(transient)
    {
    }

    [[nodiscard]] std::size_t requested() const noexcept { return requested_; }
    [[nodiscard]] std::size_t available() const noexcept { return available_; }
    [[nodiscard]] bool transient() const noexcept { return transient_; }

private:
    std::size_t requested_;
    std::size_t available_;
    bool transient_;
};

/// Process-wide atomic memory accountant.  All methods are thread-safe and
/// lock-free, so charging on the tensor hot path is cheap.  Every charge
/// writes the atomics, so they fill cache lines of their own: a flag beside
/// them (the serve driver's per-event shutdown check) would miss each time.
class alignas(64) MemBudget {
public:
    MemBudget() = default;

    /// Cap accounted bytes (0 = unlimited).  Replaces the current budget;
    /// already-reserved bytes are unaffected.
    void set_budget_bytes(std::size_t bytes) noexcept
    {
        budget_.store(bytes, std::memory_order_relaxed);
    }

    [[nodiscard]] std::size_t budget_bytes() const noexcept
    {
        return budget_.load(std::memory_order_relaxed);
    }

    /// Charge `bytes` against the budget.  Throws BudgetExceeded when the
    /// budget is set and the reservation would push in_use() past it, or
    /// when the fault injector refuses the allocation
    /// (FPTC_FAULT_ALLOC_FAIL_AFTER_MB).  `what` names the owner for the
    /// exception message (string literal; not stored).
    void reserve(std::size_t bytes, const char* what = "alloc");

    /// Credit a prior reservation back.  Never throws; releasing more than
    /// reserved clamps at zero (indicates an accounting bug; see tests).
    void release(std::size_t bytes) noexcept;

    /// Currently reserved bytes.  Returns to zero when every Charge has been
    /// destroyed — the balance check the test harness asserts in teardown.
    [[nodiscard]] std::size_t in_use() const noexcept
    {
        return in_use_.load(std::memory_order_acquire);
    }

    /// High-water mark of in_use() since the last reset_peak().
    [[nodiscard]] std::size_t peak_bytes() const noexcept
    {
        return peak_.load(std::memory_order_acquire);
    }

    /// Cumulative bytes ever reserved (monotonic; not reset by release).
    [[nodiscard]] std::uint64_t reserved_total() const noexcept
    {
        return reserved_total_.load(std::memory_order_relaxed);
    }

    /// Reservations refused (budget or injected fault) since construction.
    [[nodiscard]] std::uint64_t rejections() const noexcept
    {
        return rejections_.load(std::memory_order_relaxed);
    }

    /// Restart the high-water mark from the current in_use().
    void reset_peak() noexcept
    {
        peak_.store(in_use_.load(std::memory_order_acquire), std::memory_order_release);
    }

    /// One-line report, e.g. "in_use=0 peak=1048576 budget=16777216 rejections=2".
    [[nodiscard]] std::string summary() const;

private:
    std::atomic<std::size_t> budget_{0};
    std::atomic<std::size_t> in_use_{0};
    std::atomic<std::size_t> peak_{0};
    std::atomic<std::uint64_t> reserved_total_{0};
    std::atomic<std::uint64_t> rejections_{0};
};

/// The process-wide accountant.  First use reads FPTC_MEM_BUDGET_MB (0 or
/// unset = unlimited); tests may set_budget_bytes() directly.
[[nodiscard]] MemBudget& mem_budget();

/// RAII reservation against the process-wide accountant.  Value semantics
/// mirror the buffer the charge covers: copying re-reserves (may throw
/// BudgetExceeded), moving transfers, the destructor releases.  A
/// default-constructed Charge covers zero bytes, so aggregate owners
/// (core::SampleSet) stay aggregate-initializable.
class Charge {
public:
    Charge() = default;

    explicit Charge(std::size_t bytes, const char* what = "alloc") : bytes_(bytes), what_(what)
    {
        mem_budget().reserve(bytes_, what_);
    }

    Charge(const Charge& other) : bytes_(other.bytes_), what_(other.what_)
    {
        mem_budget().reserve(bytes_, what_);
    }

    Charge(Charge&& other) noexcept : bytes_(other.bytes_), what_(other.what_)
    {
        other.bytes_ = 0;
    }

    Charge& operator=(const Charge& other)
    {
        if (this != &other) {
            // Reserve-then-release so a refused copy leaves *this intact.
            mem_budget().reserve(other.bytes_, other.what_);
            mem_budget().release(bytes_);
            bytes_ = other.bytes_;
            what_ = other.what_;
        }
        return *this;
    }

    Charge& operator=(Charge&& other) noexcept
    {
        if (this != &other) {
            mem_budget().release(bytes_);
            bytes_ = other.bytes_;
            what_ = other.what_;
            other.bytes_ = 0;
        }
        return *this;
    }

    ~Charge() { mem_budget().release(bytes_); }

    /// Reserve `delta` more bytes on top of the current charge (incremental
    /// growth, e.g. SampleSet image pushes).  Throws BudgetExceeded without
    /// changing the charge when refused.
    void grow(std::size_t delta)
    {
        mem_budget().reserve(delta, what_);
        bytes_ += delta;
    }

    /// Credit `delta` bytes back (e.g. quarantined samples scrubbed from a
    /// set).  Clamps at zero; never throws.
    void shrink(std::size_t delta) noexcept
    {
        const std::size_t credited = delta < bytes_ ? delta : bytes_;
        mem_budget().release(credited);
        bytes_ -= credited;
    }

    /// Release everything and reserve `bytes` afresh.
    void reset(std::size_t bytes = 0)
    {
        mem_budget().release(bytes_);
        bytes_ = 0;
        if (bytes > 0) {
            mem_budget().reserve(bytes, what_);
            bytes_ = bytes;
        }
    }

    [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

private:
    std::size_t bytes_ = 0;
    const char* what_ = "alloc";  ///< owner label (string literal, never freed)
};

} // namespace fptc::util
