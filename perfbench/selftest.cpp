// Self-check of the benchmark's own statistics on fixed inputs: percentiles,
// the ten-samples-beyond rule, failed-fraction arithmetic and span self
// times. Exits non-zero on the first wrong answer. run.py runs it before
// every benchmark run.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-12 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "selftest: %s = %.17g, expected %.17g\n", what, got, want);
    ++failures;
  }
}

void expect(const char* what, bool ok) {
  if (!ok) {
    std::fprintf(stderr, "selftest: %s failed\n", what);
    ++failures;
  }
}

template <class F>
void expect_throws(const char* what, F f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return;
  }
  std::fprintf(stderr, "selftest: %s did not throw\n", what);
  ++failures;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Percentiles: linear interpolation at rank p/100*(n-1), order-independent.
  const std::vector<double> ten = {7, 1, 10, 3, 5, 2, 9, 4, 8, 6};
  expect_near("median of 1..10", median(ten), 5.5);
  expect_near("p90 of 1..10", percentile(ten, 90), 9.1);
  expect_near("p0 of 1..10", percentile(ten, 0), 1);
  expect_near("p100 of 1..10", percentile(ten, 100), 10);
  expect_near("p25 of 1..10", percentile(ten, 25), 3.25);
  expect_near("median of odd sample", median({3, 1, 2}), 2);
  expect_near("median of one sample", median({4.5}), 4.5);
  expect_throws("percentile of empty sample", [] { percentile({}, 50); });
  expect_throws("percentile above 100", [] { percentile({1}, 101); });

  // Ten samples beyond: p90 needs 100 operations, p50 needs 20.
  expect("p90 reportable at n=100", percentile_reportable(100, 90));
  expect("p90 dropped at n=99", !percentile_reportable(99, 90));
  expect("p50 reportable at n=20", percentile_reportable(20, 50));
  expect("p50 dropped at n=19", !percentile_reportable(19, 50));
  expect("p99 reportable at n=1000", percentile_reportable(1000, 99));
  expect("p99 dropped at n=999", !percentile_reportable(999, 99));
  expect("samples beyond p90 of 250", samples_beyond(250, 90) == 25);

  // Robust loop time: per-class median seconds per unit of work.
  // Class 1: per-work rates {1, 1, 10} -> median 1; class 4: {2, 4} -> 3.
  expect_near("robust loop time",
              robust_loop_time({1, 1, 1, 4, 4}, {2, 3, 1, 1, 2},
                               {2, 3, 10, 2, 8}),
              1 * 2 + 1 * 3 + 1 * 1 + 3 * 1 + 3 * 2);
  expect_near("robust loop time of a steady loop",
              robust_loop_time({1, 1}, {5, 5}, {0.5, 0.5}), 1.0);
  expect_throws("robust loop time of nothing",
                [] { robust_loop_time({}, {}, {}); });
  // Slowdown on the same mix: b's class-1 rate 2 vs a's 1, class 4 absent
  // from a (ignored), so b's time over a's on class 1 is 2x.
  expect_near("relative slowdown",
              relative_slowdown({1, 1, 1}, {1, 1, 1}, {1, 1, 5},
                                {1, 1, 4}, {2, 2, 1}, {4, 4, 9}),
              1.0);
  expect_near("relative slowdown without shared classes",
              relative_slowdown({1}, {1}, {1}, {4}, {1}, {1}), 0.0);
  expect_throws("robust loop time with zero work",
                [] { robust_loop_time({1}, {0}, {1}); });

  // Failed fraction.
  expect_near("failed 0 of 37", failed_frac(0, 37), 0.0);
  expect_near("failed 3 of 12", failed_frac(3, 12), 0.25);
  expect_near("failed 5 of 5", failed_frac(5, 5), 1.0);
  expect_throws("failed of 0 attempted", [] { failed_frac(0, 0); });
  expect_throws("failed above attempted", [] { failed_frac(4, 3); });
  expect_throws("negative failed", [] { failed_frac(-1, 3); });

  // Self time: a parent's duration minus its direct children's.
  SpanLog log;
  log.set_enabled(true);
  log.set_op(7);
  const int root = log.open("op");
  const int a = log.open("solver");
  const int b = log.open("ilu.apply");
  log.close(b);
  log.close(a);
  log.close(root);
  std::vector<Span> spans = log.spans();
  expect("parents recorded", spans[1].parent == root && spans[2].parent == a);
  expect("op ids recorded", spans[0].op == 7 && spans[2].op == 7);
  const std::vector<double> self = log.self_times();
  expect_near("root self time", self[0], spans[0].dur() - spans[1].dur());
  expect_near("solver self time", self[1], spans[1].dur() - spans[2].dur());
  expect_near("leaf self time", self[2], spans[2].dur());
  const auto agg = log.by_op();
  expect("one op aggregated", agg.size() == 1 && agg.at(7).size() == 3);
  log.set_enabled(false);
  expect("disabled log records nothing", log.open("x") == -1);

  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("selftest: statistics checks passed\n");
  return 0;
}
