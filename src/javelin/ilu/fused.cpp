#include "javelin/ilu/fused.hpp"

#include <algorithm>

#include "javelin/exec/run.hpp"
#include "javelin/ilu/forward_sweep.hpp"
#include "javelin/ilu/trsv_kernels.hpp"
#include "javelin/sparse/ops.hpp"
#include "javelin/sparse/spmv.hpp"

namespace javelin {

using detail::backward_row;
using detail::spmv_row;

FusedApplySpmv build_fused_apply_spmv(const ExecSchedule& bwd,
                                      const TwoStagePlan& plan,
                                      const CsrMatrix& a, index_t chunk_rows) {
  JAVELIN_CHECK(a.rows() == plan.n && a.cols() == plan.n,
                "fused apply+spmv requires A with the factor's dimension");
  FusedApplySpmv fs;
  const int T = bwd.threads;
  fs.threads = T;
  fs.n = plan.n;
  fs.chunk_rows = std::max<index_t>(1, chunk_rows);
  fs.thread_ptr.assign(static_cast<std::size_t>(std::max(T, 1)) + 1, 0);
  if (T <= 1) return fs;  // the serial path never consults the chunks

  // Producer lookup: which backward item finishes each permuted row.
  std::vector<index_t> owner, item_of;
  bwd.producer_positions(owner, item_of);
  // Column c of A is finished by permuted row to_perm[c] of the backward
  // sweep (to_perm inverts the plan's new-to-old permutation).
  const std::vector<index_t> to_perm = invert_permutation(plan.perm);

  // nnz-balanced thread ranges, blocked into chunks. The chunk is the wait
  // granule: one merged wait list amortized over chunk_rows rows.
  const index_t chunk = fs.chunk_rows;
  const RowPartition part = RowPartition::build(a, T);
  for (int t = 0; t < T; ++t) {
    const index_t lo = part.bounds[static_cast<std::size_t>(t)];
    const index_t hi = part.bounds[static_cast<std::size_t>(t) + 1];
    for (index_t b = lo; b < hi; b += chunk) {
      fs.chunk_begin.push_back(b);
      fs.chunk_end.push_back(std::min<index_t>(b + chunk, hi));
    }
    fs.thread_ptr[static_cast<std::size_t>(t) + 1] =
        static_cast<index_t>(fs.chunk_begin.size());
  }
  // Sparsified waits via the shared schedule-builder machinery. The consumer
  // thread has already performed every wait of its OWN backward items before
  // it reaches the SpMV phase (program order), so those high-water marks
  // seed the pruning.
  build_sparsified_waits(
      T, fs.thread_ptr,
      /*seed=*/
      [&bwd](int t, std::span<index_t> last_wait) {
        for (index_t i = bwd.thread_ptr[static_cast<std::size_t>(t)];
             i < bwd.thread_ptr[static_cast<std::size_t>(t) + 1]; ++i) {
          for (index_t w = bwd.wait_ptr[static_cast<std::size_t>(i)];
               w < bwd.wait_ptr[static_cast<std::size_t>(i) + 1]; ++w) {
            index_t& lw = last_wait[static_cast<std::size_t>(
                bwd.wait_thread[static_cast<std::size_t>(w)])];
            lw = std::max(lw, bwd.wait_count[static_cast<std::size_t>(w)]);
          }
        }
      },
      [&](int t, index_t c,
          const std::function<void(index_t, index_t)>& yield) {
        for (index_t r = fs.chunk_begin[static_cast<std::size_t>(c)];
             r < fs.chunk_end[static_cast<std::size_t>(c)]; ++r) {
          for (index_t col : a.row_cols(r)) {
            const index_t pr = to_perm[static_cast<std::size_t>(col)];
            const index_t ot = owner[static_cast<std::size_t>(pr)];
            JAVELIN_CHECK(ot != kInvalidIndex,
                          "backward schedule does not cover every row");
            if (ot == static_cast<index_t>(t)) continue;
            yield(ot, item_of[static_cast<std::size_t>(pr)] + 1);
          }
        }
      },
      fs.wait_ptr, fs.wait_thread, fs.wait_count, fs.deps_total,
      fs.deps_kept);

  return fs;
}

FusedApplySpmv build_fused_apply_spmv(const Factorization& f,
                                      const CsrMatrix& a, index_t chunk_rows) {
  return build_fused_apply_spmv(f.bwd, f.plan, a, chunk_rows);
}

namespace {

/// Forward sweep with the rhs gather folded into each row: on exit
/// L x = P r, without the separate permute-in pass. The shared forward_sweep
/// makes this bitwise-identical to trsv_forward on a pre-gathered x by
/// construction.
ExecStatus fused_forward(const Factorization& f, std::span<const value_t> rv,
                         std::span<value_t> x, SolveWorkspace& ws) {
  const auto& perm = f.plan.perm;
  return detail::forward_sweep(
      f,
      [&rv, &perm](index_t r) {
        return rv[static_cast<std::size_t>(perm[static_cast<std::size_t>(r)])];
      },
      x, ws);
}

[[noreturn]] void throw_fused_abort(index_t row) {
  throw AbortError("fused apply+spmv aborted at permuted row " +
                   std::to_string(row) + " (fault injection)");
}

/// The (backward schedule, fused-SpMV chunk structure) pair a fused pass
/// should run right now: the factor's own when the runtime team matches the
/// factor-time plan, otherwise retargeted through ws.sched (the cached
/// companion is rebuilt when the team, the matrix identity or the chunk
/// size changed). A team of one never reads the chunks.
struct FusedRuntime {
  const ExecSchedule* bwd = nullptr;
  const FusedApplySpmv* chunks = nullptr;
};

FusedRuntime runtime_fused_schedule(const Factorization& f, const CsrMatrix& a,
                                    const FusedApplySpmv& fs,
                                    SolveWorkspace& ws) {
  JAVELIN_CHECK(fs.n == f.n() && fs.threads == f.bwd.threads,
                "fused schedule does not match this factorization");
  const ExecSchedule& bwd = runtime_bwd(f, ws.sched);
  if (bwd.threads == fs.threads || bwd.threads <= 1) return {&bwd, &fs};
  // The chunk wait lists depend on A's column structure, so the cache is
  // keyed on the matrix as well as the team — address, nnz and column array
  // together, so a recycled allocation cannot alias a different matrix into
  // a stale chunk structure.
  if (!ws.sched.fused || ws.sched.fused->threads != bwd.threads ||
      ws.sched.fused_matrix != &a || ws.sched.fused_nnz != a.nnz() ||
      ws.sched.fused_cols != a.col_idx().data() ||
      ws.sched.fused->chunk_rows != fs.chunk_rows) {
    ws.sched.fused = std::make_unique<FusedApplySpmv>(
        build_fused_apply_spmv(bwd, f.plan, a, fs.chunk_rows));
    ws.sched.fused_matrix = &a;
    ws.sched.fused_cols = a.col_idx().data();
    ws.sched.fused_nnz = a.nnz();
  }
  return {&bwd, ws.sched.fused.get()};
}

}  // namespace

void ilu_apply_spmv(const Factorization& f, const CsrMatrix& a,
                    const FusedApplySpmv& fs, std::span<const value_t> r,
                    std::span<value_t> z, std::span<value_t> t,
                    SolveWorkspace& ws) {
  ws.resize(f.n(), f.plan.num_lower_rows());
  std::span<value_t> x(ws.x);
  const auto& perm = f.plan.perm;
  const FusedRuntime rt = runtime_fused_schedule(f, a, fs, ws);

  const ExecStatus fst = fused_forward(f, r, x, ws);
  if (!fst.ok()) throw_fused_abort(fst.row);
  // Backward sweep with the z scatter folded into each row, the SpMV as the
  // region's tail: the cooperative abort of a hooked sweep also drains the
  // chunk waits on rows that will never publish.
  const ExecStatus bst = detail::run_sweep(
      f, *rt.bwd, ws.progress, obs::Region::kFused, FaultSite::kBackwardRow,
      [&](index_t row, int) {
        backward_row(f.lu, f.diag_pos, row, x);
        z[static_cast<std::size_t>(perm[static_cast<std::size_t>(row)])] =
            x[static_cast<std::size_t>(row)];
      },
      rt.chunks->exec_tail(),
      [&](index_t row, int) {
        t[static_cast<std::size_t>(row)] = spmv_row(a, row, z);
      });
  if (!bst.ok()) throw_fused_abort(bst.row);
}

}  // namespace javelin
