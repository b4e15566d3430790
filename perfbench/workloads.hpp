// The three closed-loop workloads of the end-to-end solve benchmark. Each
// operation generates its inputs from the workload seed (untimed), times the
// calls into the library, then checks the solution against its own
// right-hand side (untimed). See README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "javelin/ilu/options.hpp"
#include "javelin/obs/exec_obs.hpp"
#include "javelin/solver/krylov.hpp"
#include "spans.hpp"

namespace perfbench {

/// Relative true residual every solved column must reach.
inline constexpr double kTolerance = 1e-8;

/// How much of one operation the traced run observes. Spans cost a clock
/// read per library call; the ExecObs counters instrument every sweep, so
/// they get operations of their own and the layer times come from
/// spans-only operations.
enum class Observe { kOff, kSpans, kSpansAndExec };

/// What the traced run collects. Unobserved operations leave it alone.
struct Probe {
  SpanLog log;
  javelin::obs::ExecObs exec;
  /// Computed bytes of every traced preconditioner apply (see apply_bytes).
  double apply_bytes = 0;
  /// (panel width k, seconds) of every traced panel apply.
  std::vector<std::pair<long, double>> panel_calls;
};

/// Where one operation ran and what it produced.
struct OpRecord {
  long id = 0;
  Observe observe = Observe::kOff;
  double latency_s = 0;  ///< wall time of the timed calls
  double setup_s = -1;   ///< set-up inside the operation (cold_grid3d), else -1
  long rhs = 0;          ///< right-hand sides solved to the tolerance
  bool failed = false;
  std::string failure;    ///< first reason, for the log
  long iterations = 0;      ///< solver iterations (max over panel columns)
  long col_iterations = 0;  ///< sum over columns of their iterations
  long width = 1;           ///< right-hand sides in the operation
  /// Factor structure (exact counts).
  long levels_fwd = 0, levels_bwd = 0, rows_moved = 0, factor_nnz = 0;
  long n = 0;  ///< rows of the operation's matrix
  double working_set_bytes = 0;  ///< computed: matrix + factor + solver vectors
  double apply_bytes = 0;  ///< computed bytes of the observed applies
  std::vector<double> x;  ///< solution, kept only when asked (T=1 check)
};

/// Per-call computed bytes, used for GB/s: a lower bound on the traffic of
/// one call, not a measurement.
/// Preconditioner apply over k right-hand sides: the factor's values and
/// column indices once (12 B per nonzero), its row pointers, diagonal
/// positions and permutation (12 B per row), and per right-hand side the
/// input and output vectors plus the permuted work vector read and written
/// by each of the two sweeps (48 B per row).
inline double apply_bytes(double n, double nnz_lu, double k) {
  return 12 * nnz_lu + 12 * n + 48 * n * k;
}
/// SpMV over k vectors: values and column indices once, row pointers, and
/// per vector one read of x and one write of y.
inline double spmv_bytes(double n, double nnz, double k) {
  return 12 * nnz + 4 * (n + 1) + 16 * n * k;
}

class Workload {
 public:
  virtual ~Workload() = default;

  /// Time `reps` set-ups of the preconditioner the loop reuses and keep the
  /// last one. Returns the samples; empty for a workload whose every
  /// operation pays its own set-up.
  virtual std::vector<double> setup(int reps, Probe& probe) = 0;
  /// One operation. An observed operation wraps the preconditioner calls
  /// in spans (the caller switches probe.log on) and, at kSpansAndExec,
  /// attaches probe.exec to the factor; kOff runs the library untouched.
  virtual OpRecord run_op(long id, Probe& probe, Observe observe,
                          bool keep_solution) = 0;
  /// Traced run only: time the SpMV the Krylov solvers call and, where the loop has
  /// no panel apply, panel applies at k = 1, 4, 16 on this workload's factor.
  /// Returns (spmv seconds per call, spmv computed bytes) and appends panel
  /// calls to probe.panel_calls.
  virtual std::pair<double, double> microbench(Probe& probe) = 0;
};

/// Names accepted by make_workload.
std::vector<std::string> workload_names();

/// Builds the inputs shared by all operations (untimed). `threads` sets
/// IluOptions::num_threads; the caller sets the OpenMP team.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int threads);

}  // namespace perfbench
