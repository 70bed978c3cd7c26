// The AVX2 instantiation of histogram_kernel.hpp: the default-slot pass on
// four double lanes.  This unit alone in fptc_gbt is built with -mavx2
// (src/gbt/CMakeLists.txt); histogram.cpp calls it only on a CPU that has
// AVX2.  Its only global symbol is the entry point in detail::avx2; the
// GbtIsaHygiene test checks that with nm.
#if defined(__x86_64__)

#include "histogram_kernel.hpp"

namespace fptc::gbt::detail::avx2 {

void sum_default_slots(const DefaultSlots& d, const std::uint32_t* samples, std::size_t count,
                       const double* gh, double* hist) noexcept
{
    default_slot_lanes<v4d>(d, samples, count, gh, hist);
}

} // namespace fptc::gbt::detail::avx2

#endif
