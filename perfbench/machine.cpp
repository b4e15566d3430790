#include "machine.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>

namespace perfbench {

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                     irq = 0, softirq = 0, steal = 0;
  if (!(in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal) ||
      cpu != "cpu") {
    return {};
  }
  return {user + nice + system + irq + softirq + steal, steal};
}

double steal_frac(const CpuTimes& before, const CpuTimes& after) {
  const unsigned long long demanded = after.demanded - before.demanded;
  if (demanded == 0) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(demanded);
}

std::size_t llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::size_t>(l3);
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (!(in >> s) || s.empty()) return 0;
  std::size_t mult = 1;
  if (s.back() == 'K') mult = std::size_t{1} << 10;
  if (s.back() == 'M') mult = std::size_t{1} << 20;
  if (mult != 1) s.pop_back();
  return static_cast<std::size_t>(std::stoull(s)) * mult;
}

TriadResult stream_triad(std::size_t array_bytes, int reps) {
  const std::size_t n = array_bytes / sizeof(double);
  const long ln = static_cast<long>(n);
  // Uninitialized storage so the first touch happens in the parallel loop
  // below, placing pages the way the timed loop uses them.
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  double* pa = a.get();
  double* pb = b.get();
  double* pc = c.get();
#pragma omp parallel for schedule(static)
  for (long i = 0; i < ln; ++i) {
    pa[i] = 0.0;
    pb[i] = 1.0;
    pc[i] = 2.0;
  }
  const double s = 3.0;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
#pragma omp parallel for schedule(static)
    for (long i = 0; i < ln; ++i) pa[i] = pb[i] + s * pc[i];
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    best = std::min(best, dt);
  }
  TriadResult res;
  // Keep the result observable so the loop cannot be elided.
  if (pa[n / 2] != 7.0) return res;
  res.gbs = 3.0 * static_cast<double>(array_bytes) / best / 1e9;
  res.array_mb = static_cast<double>(array_bytes) / (1024.0 * 1024.0);
  return res;
}

}  // namespace perfbench
