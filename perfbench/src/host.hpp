// Per-run host record: what the machine was doing while the numbers were
// taken, so a slow-host run is visible next to its figures.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Counters sampled at the start and end of a run.
struct HostSample {
    double wall_s = 0.0;        ///< steady clock
    double cpu_s = 0.0;         ///< process user + system CPU time
    double system_s = 0.0;      ///< of which in the kernel (page faults, mmap)
    std::uint64_t minor_faults = 0;
    std::uint64_t steal_ticks = 0;  ///< /proc/stat aggregate steal, clock ticks
};

[[nodiscard]] HostSample sample_host();

/// nproc, load1, steal seconds, and process CPU vs wall time between two
/// samples, as one JSON object.
[[nodiscard]] std::string host_record(const HostSample& start, const HostSample& end);

/// Peak resident set size (VmHWM) in MiB; 0 when /proc is unavailable.
[[nodiscard]] double peak_rss_mb();

} // namespace perfbench
