#include "fptc/util/isa.hpp"

#include <atomic>

namespace fptc::util {

namespace {

std::atomic<bool> baseline_forced{false};

} // namespace

Isa selected_isa() noexcept
{
#if defined(__x86_64__)
    static const Isa chosen = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") ? Isa::avx2 : Isa::baseline;
    }();
    return chosen;
#else
    return Isa::baseline;
#endif
}

Isa active_isa() noexcept
{
    return baseline_forced.load(std::memory_order_relaxed) ? Isa::baseline : selected_isa();
}

void force_baseline(bool on) noexcept
{
    baseline_forced.store(on, std::memory_order_relaxed);
}

} // namespace fptc::util
