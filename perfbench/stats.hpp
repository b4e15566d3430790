// Summary statistics of the benchmark's samples. Header-only so the
// self-test (selftest.cpp) checks exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// p-th percentile (0 <= p <= 100) with linear interpolation between the
/// order statistics at rank p/100 * (n - 1) (numpy's default method). Throws
/// on an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of empty sample");
  if (p < 0 || p > 100) throw std::invalid_argument("percentile out of range");
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// Samples of n that lie beyond the integer percentile p: n * (100 - p) / 100,
/// rounded down.
inline long samples_beyond(long n, int p) {
  return n * (100 - p) / 100;
}

/// A percentile is reported only when at least ten samples lie beyond it
/// (p90 needs n >= 100); otherwise the tail estimate is a handful of points.
inline bool percentile_reportable(long n, int p) {
  return p >= 0 && p < 100 && samples_beyond(n, p) >= 10;
}

/// Median seconds per unit of work of each class of operations. Operations
/// of one class do the same kind of work (same panel width), and work (the
/// matrix rows) makes operations of different sizes comparable. Throws on
/// mismatched inputs or non-positive work.
inline std::map<long, double> median_rates(const std::vector<long>& cls,
                                           const std::vector<double>& work,
                                           const std::vector<double>& seconds) {
  if (cls.size() != work.size() || cls.size() != seconds.size()) {
    throw std::invalid_argument("median_rates: mismatched samples");
  }
  std::map<long, std::vector<double>> per_work;
  for (std::size_t i = 0; i < cls.size(); ++i) {
    if (!(work[i] > 0)) throw std::invalid_argument("work must be positive");
    per_work[cls[i]].push_back(seconds[i] / work[i]);
  }
  std::map<long, double> rate;
  for (auto& [c, v] : per_work) rate[c] = median(std::move(v));
  return rate;
}

/// Loop time robust to bursts of interference: each operation's time is
/// replaced by its class's median seconds per unit of work times its work.
/// A stall that slows a few operations does not move the estimate; a
/// uniformly slower run moves it fully. Throws on an empty sample.
inline double robust_loop_time(const std::vector<long>& cls,
                               const std::vector<double>& work,
                               const std::vector<double>& seconds) {
  if (cls.empty()) throw std::invalid_argument("robust_loop_time: no samples");
  const std::map<long, double> rate = median_rates(cls, work, seconds);
  double total = 0;
  for (std::size_t i = 0; i < cls.size(); ++i) total += rate.at(cls[i]) * work[i];
  return total;
}

/// Relative slowdown of sample b against sample a on the same operations:
/// both priced with their own median_rates over b's operations whose class
/// also occurs in a. A plain median of mixed-width operations would compare
/// different mixes of widths instead. 0 when no class is shared.
inline double relative_slowdown(const std::vector<long>& cls_a,
                                const std::vector<double>& work_a,
                                const std::vector<double>& sec_a,
                                const std::vector<long>& cls_b,
                                const std::vector<double>& work_b,
                                const std::vector<double>& sec_b) {
  const std::map<long, double> ra = median_rates(cls_a, work_a, sec_a);
  const std::map<long, double> rb = median_rates(cls_b, work_b, sec_b);
  double ta = 0, tb = 0;
  for (std::size_t i = 0; i < cls_b.size(); ++i) {
    const auto it = ra.find(cls_b[i]);
    if (it == ra.end()) continue;
    ta += it->second * work_b[i];
    tb += rb.at(cls_b[i]) * work_b[i];
  }
  return ta > 0 ? tb / ta - 1 : 0.0;
}

/// Failed operations as a share of those attempted. Throws when nothing was
/// attempted: a run that did no work has no failure rate.
inline double failed_frac(long failed, long attempted) {
  if (attempted <= 0) throw std::invalid_argument("no operations attempted");
  if (failed < 0 || failed > attempted) {
    throw std::invalid_argument("failed count outside [0, attempted]");
  }
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace perfbench
