#include "host.hpp"

#include "trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

namespace perfbench {

namespace {

double seconds_of(const timeval& tv)
{
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

/// The steal column (8th value) of the aggregate "cpu" line of /proc/stat.
std::uint64_t steal_ticks()
{
    std::ifstream stat("/proc/stat");
    std::string label;
    stat >> label;
    if (label != "cpu") {
        return 0;
    }
    std::uint64_t value = 0;
    for (int column = 0; column < 8 && (stat >> value); ++column) {
    }
    return stat ? value : 0;
}

} // namespace

HostSample sample_host()
{
    HostSample sample;
    sample.wall_s = static_cast<double>(now_ns()) / 1e9;
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
        sample.cpu_s = seconds_of(usage.ru_utime) + seconds_of(usage.ru_stime);
        sample.system_s = seconds_of(usage.ru_stime);
        sample.minor_faults = static_cast<std::uint64_t>(usage.ru_minflt);
    }
    sample.steal_ticks = steal_ticks();
    return sample;
}

std::string host_record(const HostSample& start, const HostSample& end)
{
    double load1 = 0.0;
    (void)getloadavg(&load1, 1);
    const long ticks_per_s = sysconf(_SC_CLK_TCK);
    const double steal_s =
        ticks_per_s > 0 && end.steal_ticks >= start.steal_ticks
            ? static_cast<double>(end.steal_ticks - start.steal_ticks) /
                  static_cast<double>(ticks_per_s)
            : 0.0;
    std::ostringstream out;
    out << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"load1\": " << load1
        << ", \"steal_s\": " << steal_s << ", \"cpu_s\": " << (end.cpu_s - start.cpu_s)
        << ", \"system_s\": " << (end.system_s - start.system_s)
        << ", \"minor_faults\": " << (end.minor_faults - start.minor_faults)
        << ", \"wall_s\": " << (end.wall_s - start.wall_s) << "}";
    return out.str();
}

double peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
        }
    }
    return 0.0;
}

} // namespace perfbench
