// The forward (L) sweep shared by the unfused solve path (trsv_forward,
// where x already holds the permuted rhs) and the fused solve+SpMV path
// (fused_forward, where the rhs gather x = P r is folded into each row).
// One implementation keeps the tail policy — the small-tail cutoff, the
// ER-style parallel partial sums, the ordered corner resolve — in a single
// place, so the bitwise fused/unfused parity contract cannot drift.
//
// run_sweep is the one dispatch every scheduled factor sweep goes through
// (forward, backward, panel and fused): fault hook, instrumentation or the
// plain hot loop.
#pragma once

#include <span>

#include "javelin/exec/run.hpp"
#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/ilu/trsv_kernels.hpp"
#include "javelin/support/parallel.hpp"

namespace javelin::detail {

/// Run one scheduled sweep of `f` under its execution policy: with a fault
/// hook installed, a guarded row function whose hook veto at `site` aborts
/// the region; with an ExecObs attached, the instrumented region recorded
/// under `region`; otherwise the plain region, whose void row function keeps
/// every wait on the no-polling path. `tail` is empty or the
/// (ExecTail, tail_fn) pair of exec_run's tail overload. Only the hooked
/// form can return kAborted.
template <class RowFn, class... Tail>
ExecStatus run_sweep(const Factorization& f, const ExecSchedule& s,
                     ProgressCounters& progress, obs::Region region,
                     FaultSite site, RowFn row_fn, Tail&&... tail) {
  if (const FaultHook& hook = f.opts.fault_hook) {
    return exec_run(
        s,
        [&](index_t r, int t) -> bool {
          row_fn(r, t);
          return hook(site, r);
        },
        progress, std::forward<Tail>(tail)...);
  }
  if (f.opts.exec_obs != nullptr) {
    return exec_run_obs(s, row_fn, progress, *f.opts.exec_obs, region,
                        std::forward<Tail>(tail)...);
  }
  return exec_run(s, row_fn, progress, std::forward<Tail>(tail)...);
}

/// In-place P2P forward sweep on the permuted factor: on exit L x' = rhs,
/// where `rhs(r)` yields row r's right-hand side (read before x[r] is
/// written, so `[&x](index_t r) { return x[r]; }` expresses the in-place
/// pre-gathered case). Upper-stage rows run under f.fwd; lower-stage rows
/// run as a parallel partial-sum pass plus an ordered corner sweep
/// (ws.lower_acc is the scratch). Every row's accumulation is
/// `rhs(r) - <fixed CSR-order partial sums>` — bitwise-identical across all
/// rhs functors that return the same values.
///
/// Returns kAborted when the factor's fault-injection hook (tests only)
/// vetoed a row: the scheduled part drains through the cooperative-abort
/// protocol of exec_run, the tails stop at the vetoed row. With no hook
/// installed the sweep runs the historical unguarded path and always
/// returns kOk.
template <class RhsFn>
ExecStatus forward_sweep(const Factorization& f, RhsFn rhs,
                         std::span<value_t> x, SolveWorkspace& ws) {
  const CsrMatrix& lu = f.lu;
  const index_t n = f.n();
  const index_t n_upper = f.plan.n_upper;
  const index_t n_lower = n - n_upper;
  const FaultHook& hook = f.opts.fault_hook;

  // Upper-stage rows: same schedule, same synchronization as the
  // factorization, retargeted when the runtime team differs from the plan.
  // lower_partial reads only columns < r, whose completion the schedule's
  // waits (or level barriers) guarantee.
  const ExecSchedule& fwd = runtime_fwd(f, ws.sched);
  const ExecStatus st = run_sweep(
      f, fwd, ws.progress, obs::Region::kForward, FaultSite::kForwardRow,
      [&](index_t r, int) {
        x[static_cast<std::size_t>(r)] = rhs(r) - lower_partial(lu, r, r, x, 0);
      });
  if (!st.ok()) return st;

  if (n_lower == 0) return {};
  if (fwd.threads <= 1 || n_lower < 64) {
    // Small tail: plain ordered sweep (corner coupling resolved in order).
    for (index_t r = n_upper; r < n; ++r) {
      x[static_cast<std::size_t>(r)] = rhs(r) - lower_partial(lu, r, n, x, 0);
      if (hook && !hook(FaultSite::kForwardRow, r)) {
        return {ExecOutcome::kAborted, r};
      }
    }
    return {};
  }
  // ER-style tail: the upper-column products of the moved rows are mutually
  // independent once the upper stage finished — accumulate them in parallel,
  // then resolve the (small) corner coupling in row order.
  if (ws.lower_acc.size() < static_cast<std::size_t>(n_lower)) {
    ws.lower_acc.resize(static_cast<std::size_t>(n_lower));
  }
  std::span<value_t> acc(ws.lower_acc);
#pragma omp parallel for schedule(static)
  for (index_t r = n_upper; r < n; ++r) {
    acc[static_cast<std::size_t>(r - n_upper)] =
        lower_partial(lu, r, n_upper, x, 0);
  }
  for (index_t r = n_upper; r < n; ++r) {
    x[static_cast<std::size_t>(r)] =
        rhs(r) - corner_partial(lu, r, n_upper, x,
                                acc[static_cast<std::size_t>(r - n_upper)]);
    if (hook && !hook(FaultSite::kForwardRow, r)) {
      return {ExecOutcome::kAborted, r};
    }
  }
  return {};
}

/// Panel (multi-RHS) forward sweep: the column-major n×k panel at `x`
/// (column stride `ld`) is solved in place, L x_j = rhs(r, j) for every
/// column j. Same schedule, same tail policy and same per-row accumulation
/// order as the scalar sweep above — column j is bitwise equal to a scalar
/// forward_sweep of that column — but every L entry is loaded once per
/// register block of kPanelBlockCols columns instead of once per column.
template <class RhsFn>
ExecStatus forward_sweep_panel(const Factorization& f, RhsFn rhs, value_t* x,
                               std::size_t ld, index_t k, SolveWorkspace& ws) {
  const CsrMatrix& lu = f.lu;
  const index_t n = f.n();
  const index_t n_upper = f.plan.n_upper;
  const index_t n_lower = n - n_upper;
  const FaultHook& hook = f.opts.fault_hook;

  const auto forward_row = [&](index_t r, index_t col_hi) {
    for_each_panel_block(k, [&](index_t j0, auto kb) {
      constexpr int KB = decltype(kb)::value;
      value_t acc[KB] = {};
      value_t* xb = x + static_cast<std::size_t>(j0) * ld;
      lower_partial_panel<KB>(lu, r, col_hi, xb, ld, acc);
      for (int j = 0; j < KB; ++j) {
        xb[static_cast<std::size_t>(r) + static_cast<std::size_t>(j) * ld] =
            rhs(r, j0 + j) - acc[j];
      }
    });
  };

  const ExecSchedule& fwd = runtime_fwd(f, ws.sched);
  const ExecStatus st =
      run_sweep(f, fwd, ws.progress, obs::Region::kForward,
                FaultSite::kForwardRow, [&](index_t r, int) { forward_row(r, n); });
  if (!st.ok()) return st;

  if (n_lower == 0) return {};
  if (fwd.threads <= 1 || n_lower < 64) {
    for (index_t r = n_upper; r < n; ++r) {
      forward_row(r, n);
      if (hook && !hook(FaultSite::kForwardRow, r)) {
        return {ExecOutcome::kAborted, r};
      }
    }
    return {};
  }
  // ER-style tail, panel-wide: parallel upper-column partial sums into an
  // n_lower×k scratch panel, then the ordered corner resolve.
  const std::size_t acc_ld = static_cast<std::size_t>(n_lower);
  if (ws.lower_acc.size() < acc_ld * static_cast<std::size_t>(k)) {
    ws.lower_acc.resize(acc_ld * static_cast<std::size_t>(k));
  }
  value_t* acc_panel = ws.lower_acc.data();
#pragma omp parallel for schedule(static)
  for (index_t r = n_upper; r < n; ++r) {
    for_each_panel_block(k, [&](index_t j0, auto kb) {
      constexpr int KB = decltype(kb)::value;
      value_t acc[KB] = {};
      lower_partial_panel<KB>(lu, r, n_upper,
                              x + static_cast<std::size_t>(j0) * ld, ld, acc);
      value_t* ar = acc_panel + static_cast<std::size_t>(r - n_upper) +
                    static_cast<std::size_t>(j0) * acc_ld;
      for (int j = 0; j < KB; ++j) ar[static_cast<std::size_t>(j) * acc_ld] = acc[j];
    });
  }
  for (index_t r = n_upper; r < n; ++r) {
    for_each_panel_block(k, [&](index_t j0, auto kb) {
      constexpr int KB = decltype(kb)::value;
      value_t acc[KB];
      const value_t* ar = acc_panel + static_cast<std::size_t>(r - n_upper) +
                          static_cast<std::size_t>(j0) * acc_ld;
      for (int j = 0; j < KB; ++j) acc[j] = ar[static_cast<std::size_t>(j) * acc_ld];
      value_t* xb = x + static_cast<std::size_t>(j0) * ld;
      corner_partial_panel<KB>(lu, r, n_upper, xb, ld, acc);
      for (int j = 0; j < KB; ++j) {
        xb[static_cast<std::size_t>(r) + static_cast<std::size_t>(j) * ld] =
            rhs(r, j0 + j) - acc[j];
      }
    });
    if (hook && !hook(FaultSite::kForwardRow, r)) {
      return {ExecOutcome::kAborted, r};
    }
  }
  return {};
}

}  // namespace javelin::detail
