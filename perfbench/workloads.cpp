#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <stdexcept>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/batch.hpp"
#include "javelin/ilu/factorization.hpp"
#include "javelin/solver/batch.hpp"
#include "javelin/sparse/spmv.hpp"
#include "javelin/support/rng.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using javelin::CsrMatrix;
using javelin::Factorization;
using javelin::index_t;
using javelin::value_t;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Deterministic stream of inputs: one generator per (seed, purpose, index),
/// so an operation's inputs do not depend on which operations ran before it.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t purpose, long index)
      : sm_(javelin::SplitMix64(seed ^ (purpose * 0xD1B54A32D192ED03ull) ^
                                (static_cast<std::uint64_t>(index) *
                                 0x9E3779B97F4A7C15ull))
                .next()) {}
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(sm_.next() >> 11) * 0x1.0p-53;
  }
  std::uint64_t below(std::uint64_t n) { return sm_.next() % n; }

  /// Fisher-Yates permutation of 0..N-1.
  template <std::size_t N>
  std::array<int, N> permutation() {
    std::array<int, N> p{};
    for (std::size_t i = 0; i < N; ++i) p[i] = static_cast<int>(i);
    for (std::size_t i = N - 1; i > 0; --i) {
      std::swap(p[i], p[static_cast<std::size_t>(below(i + 1))]);
    }
    return p;
  }

 private:
  javelin::SplitMix64 sm_;
};

// Purposes of the input streams.
enum : std::uint64_t {
  kGridSides = 1,
  kRhs = 2,
  kStepValues = 3,
  kBatchWidth = 4,
  kProbeVector = 5,
};

std::vector<value_t> random_vector(std::size_t n, Rng& rng) {
  std::vector<value_t> v(n);
  for (value_t& e : v) e = rng.uniform(-1.0, 1.0);
  return v;
}

javelin::IluOptions ilu_options(int threads) {
  javelin::IluOptions o;
  o.num_threads = threads;
  return o;
}

javelin::SolverOptions solver_options() {
  javelin::SolverOptions s;
  s.tolerance = kTolerance;
  return s;
}

void fail(OpRecord& rec, const std::string& why) {
  if (!rec.failed) rec.failure = why;
  rec.failed = true;
}

/// Checks one solved column independently of the solver: the solver must
/// report convergence, and ||b - A x|| / ||b||, recomputed with the serial
/// reference SpMV against the benchmark's own b, must be finite and within
/// the tolerance.
bool check_column(OpRecord& rec, const CsrMatrix& a,
                  std::span<const value_t> b, std::span<const value_t> x,
                  const javelin::SolverResult& res) {
  if (!res.converged) {
    fail(rec, std::string("solver did not converge: ") +
                  javelin::to_string(res.stop));
    return false;
  }
  std::vector<value_t> ax(b.size());
  javelin::spmv_serial(a, x, ax);
  double rr = 0, bb = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double d = b[i] - ax[i];
    rr += d * d;
    bb += b[i] * b[i];
  }
  const double rel = std::sqrt(rr) / std::sqrt(bb);
  if (!std::isfinite(rel) || rel > kTolerance) {
    fail(rec, "true residual " + std::to_string(rel) + " over tolerance");
    return false;
  }
  return true;
}

void record_structure(OpRecord& rec, const Factorization& f,
                      const CsrMatrix& a, double vector_bytes) {
  rec.levels_fwd = f.fwd.num_levels;
  rec.levels_bwd = f.bwd.num_levels;
  rec.rows_moved = f.plan.rows_moved;
  rec.factor_nnz = f.lu.nnz();
  const double n = static_cast<double>(a.rows());
  rec.working_set_bytes = spmv_bytes(n, static_cast<double>(a.nnz()), 0) +
                          apply_bytes(n, static_cast<double>(f.lu.nnz()), 0) +
                          vector_bytes;
}

/// Wraps a scalar preconditioner so each call is a span of the traced run.
javelin::PrecondFn traced(javelin::PrecondFn inner, Probe& probe,
                          double bytes) {
  return [inner = std::move(inner), &probe, bytes](
             std::span<const value_t> r, std::span<value_t> z) {
    ScopedSpan s(probe.log, "ilu.apply");
    inner(r, z);
    probe.apply_bytes += bytes;
  };
}

/// Time `calls` SpMVs over the partition the Krylov solvers use; median per call.
double time_spmv(const CsrMatrix& a, std::uint64_t seed, int calls) {
  const javelin::RowPartition part = javelin::RowPartition::build(a);
  Rng rng(seed, kProbeVector, 0);
  const std::vector<value_t> x =
      random_vector(static_cast<std::size_t>(a.cols()), rng);
  std::vector<value_t> y(static_cast<std::size_t>(a.rows()));
  javelin::spmv(a, part, x, y);  // warm
  std::vector<double> t;
  for (int c = 0; c < calls; ++c) {
    const auto t0 = Clock::now();
    javelin::spmv(a, part, x, y);
    t.push_back(since(t0));
  }
  return median(t);
}

/// Panel applies at k = 1, 4, 16 on `f` (workloads whose loop has none).
void time_panel_applies(const Factorization& f, std::uint64_t seed,
                        Probe& probe) {
  javelin::SolveWorkspace ws;
  const std::size_t n = static_cast<std::size_t>(f.n());
  for (const long k : {1L, 4L, 16L}) {
    Rng rng(seed, kProbeVector, k);
    const std::vector<value_t> r = random_vector(n * static_cast<std::size_t>(k), rng);
    std::vector<value_t> z(r.size());
    javelin::ilu_apply_panel(f, r, z, static_cast<index_t>(k), ws);  // warm
    for (int c = 0; c < 5; ++c) {
      const auto t0 = Clock::now();
      javelin::ilu_apply_panel(f, r, z, static_cast<index_t>(k), ws);
      probe.panel_calls.emplace_back(k, since(t0));
    }
  }
}

// ---------------------------------------------------------------------------
// cold_grid3d: a first solve of a system the program has not seen.

class ColdGrid3d final : public Workload {
 public:
  ColdGrid3d(std::uint64_t seed, int threads)
      : seed_(seed), opts_(ilu_options(threads)) {}

  std::vector<double> setup(int, Probe&) override { return {}; }

  OpRecord run_op(long id, Probe& probe, Observe observe,
                  bool keep_solution) override {
    OpRecord rec;
    rec.id = id;
    rec.observe = observe;
    const bool traced_op = observe != Observe::kOff;
    javelin::obs::ExecObs* const exec =
        observe == Observe::kSpansAndExec ? &probe.exec : nullptr;
    const std::array<index_t, 3> s = sides(id);
    const CsrMatrix a = javelin::gen::laplacian3d(s[0], s[1], s[2], 7);
    const std::size_t n = static_cast<std::size_t>(a.rows());
    rec.n = a.rows();
    Rng rng(seed_, kRhs, id);
    const std::vector<value_t> b = random_vector(n, rng);
    std::vector<value_t> x(n, 0.0);
    javelin::IluOptions o = opts_;
    o.exec_obs = exec;

    javelin::SolverResult res;
    std::optional<javelin::FusedIluOperator> op;
    const auto t0 = Clock::now();
    try {
      ScopedSpan op_span(probe.log, "op");
      std::optional<Factorization> f;
      {
        ScopedSpan span(probe.log, "ilu.prepare");
        f.emplace(javelin::ilu_prepare(a, o));
      }
      {
        ScopedSpan span(probe.log, "ilu.numeric");
        javelin::ilu_factor_numeric(*f);
      }
      {
        ScopedSpan span(probe.log, "ilu.operator_build");
        op.emplace(a, std::move(*f));
      }
      rec.setup_s = since(t0);
      javelin::KrylovOperator kop = op->op();
      if (traced_op) {
        const double dn = static_cast<double>(n);
        const double nnz_lu = static_cast<double>(op->factorization().lu.nnz());
        const double fused_bytes =
            apply_bytes(dn, nnz_lu, 1) +
            spmv_bytes(dn, static_cast<double>(a.nnz()), 1);
        kop.precond = traced(std::move(kop.precond), probe,
                             apply_bytes(dn, nnz_lu, 1));
        kop.apply_spmv = [inner = std::move(kop.apply_spmv), &probe,
                          fused_bytes](std::span<const value_t> r,
                                       std::span<value_t> z,
                                       std::span<value_t> t) {
          ScopedSpan span(probe.log, "ilu.apply");
          inner(r, z, t);
          probe.apply_bytes += fused_bytes;
        };
      }
      ScopedSpan span(probe.log, "solver");
      res = javelin::pcg_fused(a, b, x, kop, solver_options());
    } catch (const std::exception& e) {
      fail(rec, std::string("threw: ") + e.what());
    }
    rec.latency_s = since(t0);
    if (!rec.failed && check_column(rec, a, b, x, res)) rec.rhs = 1;
    rec.iterations = res.iterations;
    rec.col_iterations = res.iterations;
    // PCG keeps about eight vectors of n live.
    if (op) record_structure(rec, op->factorization(), a, 64.0 * static_cast<double>(n));
    if (keep_solution) rec.x = std::move(x);
    return rec;
  }

  std::pair<double, double> microbench(Probe& probe) override {
    // The middle of the side range stands for the workload's matrices.
    const CsrMatrix a = javelin::gen::laplacian3d(60, 60, 60, 7);
    const Factorization f = javelin::ilu_factor(a, opts_);
    time_panel_applies(f, seed_, probe);
    return {time_spmv(a, seed_, 20),
            spmv_bytes(static_cast<double>(a.rows()),
                       static_cast<double>(a.nnz()), 1)};
  }

 private:
  /// Grid sides in [56, 64]. Each block of nine operations uses every side
  /// length once per axis, in an order drawn from the seed, so a run's mix of
  /// sizes does not drift with the seed while every operation still has its
  /// own pattern. The warm-up operation (id -1) is the largest grid.
  std::array<index_t, 3> sides(long id) const {
    if (id < 0) return {64, 64, 64};
    std::array<index_t, 3> s{};
    for (int axis = 0; axis < 3; ++axis) {
      Rng rng(seed_, kGridSides + 16 * static_cast<std::uint64_t>(axis), id / 9);
      s[static_cast<std::size_t>(axis)] =
          56 + rng.permutation<9>()[static_cast<std::size_t>(id % 9)];
    }
    return s;
  }

  std::uint64_t seed_;
  javelin::IluOptions opts_;
};

// ---------------------------------------------------------------------------
// refactor_power: time stepping, fixed pattern, new values every step.

class RefactorPower final : public Workload {
 public:
  RefactorPower(std::uint64_t seed, int threads)
      : seed_(seed), opts_(ilu_options(threads)) {
    javelin::gen::SuiteOptions so;
    so.scale = 3.0;
    pattern_ = javelin::gen::make_suite_matrix("TSOPF_RS_b300_c2", so).matrix;
    a0_ = step_matrix(-1);
  }

  std::vector<double> setup(int reps, Probe& probe) override {
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
      pre_.reset();
      const auto t0 = Clock::now();
      ScopedSpan op_span(probe.log, "setup");
      std::optional<Factorization> f;
      {
        ScopedSpan span(probe.log, "ilu.prepare");
        f.emplace(javelin::ilu_prepare(a0_, opts_));
      }
      {
        ScopedSpan span(probe.log, "ilu.numeric");
        javelin::ilu_factor_numeric(*f);
      }
      {
        ScopedSpan span(probe.log, "ilu.operator_build");
        pre_.emplace(std::move(*f));
      }
      samples.push_back(since(t0));
    }
    return samples;
  }

  OpRecord run_op(long id, Probe& probe, Observe observe,
                  bool keep_solution) override {
    OpRecord rec;
    rec.id = id;
    rec.observe = observe;
    const bool traced_op = observe != Observe::kOff;
    javelin::obs::ExecObs* const exec =
        observe == Observe::kSpansAndExec ? &probe.exec : nullptr;
    const CsrMatrix a = step_matrix(id);
    const std::size_t n = static_cast<std::size_t>(a.rows());
    rec.n = a.rows();
    Rng rng(seed_, kRhs, id);
    const std::vector<value_t> b = random_vector(n, rng);
    std::vector<value_t> x(n, 0.0);
    Factorization& f = pre_->factorization();
    f.opts.exec_obs = exec;

    javelin::SolverResult res;
    const auto t0 = Clock::now();
    try {
      ScopedSpan op_span(probe.log, "op");
      {
        ScopedSpan span(probe.log, "ilu.numeric");
        javelin::ilu_refactor(f, a);
      }
      javelin::PrecondFn m = pre_->fn();
      if (traced_op) {
        m = traced(std::move(m), probe,
                   apply_bytes(static_cast<double>(n),
                               static_cast<double>(f.lu.nnz()), 1));
      }
      ScopedSpan span(probe.log, "solver");
      res = javelin::gmres(a, b, x, m, solver_options());
    } catch (const std::exception& e) {
      fail(rec, std::string("threw: ") + e.what());
    }
    rec.latency_s = since(t0);
    f.opts.exec_obs = nullptr;
    if (!rec.failed && check_column(rec, a, b, x, res)) rec.rhs = 1;
    rec.iterations = res.iterations;
    rec.col_iterations = res.iterations;
    // GMRES(m) keeps the m+1 Krylov basis vectors plus about five more.
    const double basis = solver_options().restart + 6.0;
    record_structure(rec, f, a, 8.0 * basis * static_cast<double>(n));
    if (keep_solution) rec.x = std::move(x);
    return rec;
  }

  std::pair<double, double> microbench(Probe& probe) override {
    time_panel_applies(pre_->factorization(), seed_, probe);
    return {time_spmv(a0_, seed_, 20),
            spmv_bytes(static_cast<double>(a0_.rows()),
                       static_cast<double>(a0_.nnz()), 1)};
  }

 private:
  /// The step's matrix: the fixed pattern with every value scaled by a
  /// factor in [0.5, 1.5] drawn from the seed, then made strictly
  /// diagonally dominant. Step -1 is the matrix the set-up factors.
  CsrMatrix step_matrix(long step) const {
    CsrMatrix a = pattern_;
    Rng rng(seed_, kStepValues, step);
    for (value_t& v : a.values_mut()) v *= rng.uniform(0.5, 1.5);
    javelin::gen::make_diagonally_dominant(a, 1.0);
    return a;
  }

  std::uint64_t seed_;
  javelin::IluOptions opts_;
  CsrMatrix pattern_;
  CsrMatrix a0_;
  std::optional<javelin::IluPreconditioner> pre_;
};

// ---------------------------------------------------------------------------
// batch_fem: many right-hand sides against one factor.

class BatchFem final : public Workload {
 public:
  BatchFem(std::uint64_t seed, int threads)
      : seed_(seed), opts_(ilu_options(threads)) {
    javelin::gen::SuiteOptions so;
    so.scale = 0.2;
    a_ = javelin::gen::make_suite_matrix("thermal2", so).matrix;
  }

  ~BatchFem() override { release(); }

  std::vector<double> setup(int reps, Probe& probe) override {
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
      release();
      const auto t0 = Clock::now();
      ScopedSpan op_span(probe.log, "setup");
      std::optional<Factorization> f;
      {
        ScopedSpan span(probe.log, "ilu.prepare");
        f.emplace(javelin::ilu_prepare(a_, opts_));
      }
      {
        ScopedSpan span(probe.log, "ilu.numeric");
        javelin::ilu_factor_numeric(*f);
      }
      {
        ScopedSpan span(probe.log, "ilu.operator_build");
        f_ = std::make_unique<Factorization>(std::move(*f));
        pool_ = std::make_unique<javelin::WorkspacePool>();
        m_ = javelin::ilu_panel_preconditioner(*f_, *pool_);
      }
      samples.push_back(since(t0));
    }
    return samples;
  }

  OpRecord run_op(long id, Probe& probe, Observe observe,
                  bool keep_solution) override {
    OpRecord rec;
    rec.id = id;
    rec.observe = observe;
    const bool traced_op = observe != Observe::kOff;
    javelin::obs::ExecObs* const exec =
        observe == Observe::kSpansAndExec ? &probe.exec : nullptr;
    const long k = width(id);
    rec.width = k;
    const std::size_t n = static_cast<std::size_t>(a_.rows());
    rec.n = a_.rows();
    Rng rng(seed_, kRhs, id);
    const std::vector<value_t> b = random_vector(n * static_cast<std::size_t>(k), rng);
    std::vector<value_t> x(b.size(), 0.0);
    f_->opts.exec_obs = exec;

    javelin::PanelPrecondFn m = m_;
    if (traced_op) {
      const double dn = static_cast<double>(n);
      const double nnz_lu = static_cast<double>(f_->lu.nnz());
      m = [inner = m_, &probe, dn, nnz_lu](std::span<const value_t> r,
                                          std::span<value_t> z, index_t kk) {
        ScopedSpan span(probe.log, "ilu.apply");
        const auto t0 = Clock::now();
        inner(r, z, kk);
        probe.panel_calls.emplace_back(kk, since(t0));
        probe.apply_bytes += apply_bytes(dn, nnz_lu, static_cast<double>(kk));
      };
    }
    std::vector<javelin::SolverResult> res;
    const auto t0 = Clock::now();
    try {
      ScopedSpan op_span(probe.log, "op");
      ScopedSpan span(probe.log, "solver");
      res = javelin::pcg_many(a_, b, x, static_cast<index_t>(k), m,
                              solver_options());
    } catch (const std::exception& e) {
      fail(rec, std::string("threw: ") + e.what());
    }
    rec.latency_s = since(t0);
    f_->opts.exec_obs = nullptr;
    if (!rec.failed && res.size() != static_cast<std::size_t>(k)) {
      fail(rec, "solver returned a result count other than k");
    }
    if (!rec.failed) {
      for (long j = 0; j < k; ++j) {
        const std::size_t off = static_cast<std::size_t>(j) * n;
        const javelin::SolverResult& rj = res[static_cast<std::size_t>(j)];
        if (check_column(rec, a_, std::span<const value_t>(b).subspan(off, n),
                         std::span<const value_t>(x).subspan(off, n), rj)) {
          rec.rhs += 1;
        }
        rec.iterations = std::max<long>(rec.iterations, rj.iterations);
        rec.col_iterations += rj.iterations;
      }
      // A column that failed fails its whole operation.
      if (rec.failed) rec.rhs = 0;
    }
    // pcg_many keeps about eight n x k panels live.
    record_structure(rec, *f_, a_, 64.0 * static_cast<double>(n) * static_cast<double>(k));
    if (keep_solution) rec.x = std::move(x);
    return rec;
  }

  std::pair<double, double> microbench(Probe&) override {
    return {time_spmv(a_, seed_, 20),
            spmv_bytes(static_cast<double>(a_.rows()),
                       static_cast<double>(a_.nnz()), 1)};
  }

 private:
  /// Panel width from {1, 4, 16}: each block of three operations uses each
  /// width once, in an order drawn from the seed. The warm-up (id -1) uses 16.
  long width(long id) const {
    if (id < 0) return 16;
    static constexpr std::array<long, 3> kWidths = {1, 4, 16};
    Rng rng(seed_, kBatchWidth, id / 3);
    return kWidths[static_cast<std::size_t>(
        rng.permutation<3>()[static_cast<std::size_t>(id % 3)])];
  }

  /// The preconditioner references the pool and the factor: drop it first.
  void release() {
    m_ = nullptr;
    pool_.reset();
    f_.reset();
  }

  std::uint64_t seed_;
  javelin::IluOptions opts_;
  CsrMatrix a_;
  std::unique_ptr<Factorization> f_;
  std::unique_ptr<javelin::WorkspacePool> pool_;
  javelin::PanelPrecondFn m_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"cold_grid3d", "refactor_power", "batch_fem"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int threads) {
  if (name == "cold_grid3d") return std::make_unique<ColdGrid3d>(seed, threads);
  if (name == "refactor_power") {
    return std::make_unique<RefactorPower>(seed, threads);
  }
  if (name == "batch_fem") return std::make_unique<BatchFem>(seed, threads);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
