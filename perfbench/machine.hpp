// Machine context for the traced run: process high-water RSS, last-level
// cache size and a STREAM-triad bandwidth ceiling.
#pragma once

#include <cstddef>

namespace perfbench {

/// Process high-water resident set size in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Cumulative CPU time of the whole machine from /proc/stat, in clock ticks.
struct CpuTimes {
  unsigned long long demanded = 0;  ///< user + nice + system + irq + softirq + steal
  unsigned long long steal = 0;     ///< time the hypervisor ran someone else
};
CpuTimes cpu_times();

/// Share of the CPU time demanded between two readings that the hypervisor
/// gave to other guests; 0 when /proc/stat is unavailable.
double steal_frac(const CpuTimes& before, const CpuTimes& after);

/// Last-level cache size in bytes (sysconf, then sysfs); 0 when unknown.
std::size_t llc_bytes();

struct TriadResult {
  double gbs = 0;       ///< best-of-reps bandwidth, 24 bytes per element
  double array_mb = 0;  ///< size of each of the three arrays
};

/// STREAM triad a = b + s*c over three arrays of `array_bytes` each, on the
/// current OpenMP team; the arrays are first-touched by the same team.
TriadResult stream_triad(std::size_t array_bytes, int reps);

}  // namespace perfbench
