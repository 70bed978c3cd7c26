// The instruction set the vector kernels of fptc_nn and fptc_gbt run.
//
// Each library compiles its kernels twice from one templated source: once
// at the x86-64 baseline and once, in a unit of its own, with -mavx2.  The
// set is chosen here, once per process, by one CPUID probe, so both
// libraries always run the same one; a test or benchmark can force the
// baseline for both at once.
#pragma once

namespace fptc::util {

/// The instruction sets the kernels are compiled for.
enum class Isa { baseline, avx2 };

/// The set chosen once per process: AVX2 when the CPU has it (x86-64
/// only; every other target runs the baseline kernels).
[[nodiscard]] Isa selected_isa() noexcept;

/// The set the next kernel call runs: selected_isa() unless a test or
/// benchmark forced the baseline.
[[nodiscard]] Isa active_isa() noexcept;

/// Test and benchmark hook: run the baseline kernels (true) or the
/// selected ones again (false).  Not for library code.
void force_baseline(bool on) noexcept;

} // namespace fptc::util
