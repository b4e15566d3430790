// End-to-end solve benchmark.
//
//   perfbench --workload <cold_grid3d|refactor_power|batch_fem> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Runs one closed-loop workload (one caller, the next operation starts when
// the previous one returns) on half the cores for --seconds and prints one
// line per metric, then, as the last line of standard output, a JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics of a traced
// run (see README.md for every name).
#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "machine.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

/// Set-ups timed before the loop on the workloads that reuse one
/// preconditioner; single samples spread too much to report one.
constexpr int kSetupReps = 9;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
        have_seconds = true;
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
        have_trace = true;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< printed on the human-readable line only
  bool json;         ///< also part of the JSON result
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), std::move(note), true});
  }
  /// A line for the reader that is not a metric of the JSON result.
  void note(std::string name, double value, std::string unit,
            std::string note) {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), std::move(note), false});
  }

  void print(bool correct, long attempted, long failed) const {
    for (const Metric& m : metrics_) {
      std::printf("%-40s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    const char* sep = "";
    for (const Metric& m : metrics_) {
      if (!m.json) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                  m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                  m.unit.c_str());
      sep = ", ";
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double e : v) s += e;
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string samples(std::size_t n) { return "n=" + std::to_string(n); }

/// End-to-end metrics of an untraced run.
void report_end_to_end(const std::vector<OpRecord>& ops,
                       const std::vector<double>& setup_samples,
                       long failed, Report& rep) {
  std::vector<double> lat, setup, rows;
  std::vector<long> width;
  double rhs = 0;
  for (const OpRecord& r : ops) {
    lat.push_back(r.latency_s);
    width.push_back(r.width);
    rows.push_back(static_cast<double>(r.n));
    rhs += static_cast<double>(r.rhs);
    if (r.setup_s >= 0) setup.push_back(r.setup_s);
  }
  if (setup.empty()) setup = setup_samples;
  const long n = static_cast<long>(ops.size());
  rep.add("solves_per_s", rhs / robust_loop_time(width, rows, lat), "1/s",
          samples(ops.size()) +
              " ops, right-hand sides solved per second of median-robust "
              "loop time");
  rep.note("solves_per_s.raw", rhs / sum(lat), "1/s",
           "right-hand sides / summed operation time");
  rep.add("latency_s.p50", median(lat), "s", samples(ops.size()));
  // p90 only with ten samples beyond it; never part of the JSON result,
  // whose metric set must not depend on the operation count.
  if (percentile_reportable(n, 90)) {
    rep.note("latency_s.p90", percentile(lat, 90), "s",
             samples(ops.size()) + ", not in the JSON result");
  } else {
    rep.note("latency_s.p90", std::nan(""), "s",
             samples(ops.size()) + ": dropped, fewer than 10 samples beyond");
  }
  rep.add("setup_s", median(setup), "s", samples(setup.size()));
  rep.add("peak_rss_mb", peak_rss_mb(), "MB", "process high-water RSS");
  const double ff = failed_frac(failed, n);
  rep.note("failed_frac", ff, "fraction",
           samples(ops.size()) + ", in the JSON result as success_frac");
  rep.add("success_frac", 1.0 - ff, "fraction", samples(ops.size()));
}

struct TracedExtras {
  TriadResult triad;
  double llc_mb = 0;
  double spmv_s = 0, spmv_bytes = 0;
  std::vector<double> t1_latency;  ///< T=1 replay of the first operations
  std::vector<double> loop_latency;  ///< the same operations in the loop
  double steal_frac = 0;           ///< CPU steal during the loop
};

/// Per-layer metrics of a traced run: layer times from the spans of the
/// spans-only operations, exec.* from the ExecObs operations, and the traced
/// run's extra passes.
void report_per_layer(const std::vector<OpRecord>& ops, const Probe& probe,
                      const TracedExtras& ex, Report& rep) {
  const auto per_op = probe.log.by_op();
  const auto spans_only = [&](long op) {
    return op >= 0 && op < static_cast<long>(ops.size()) &&
           ops[static_cast<std::size_t>(op)].observe == Observe::kSpans;
  };
  // Per-call durations of the set-up layers, wherever they ran: in the set-up
  // (op -1) or in spans-only loop operations.
  std::map<std::string, std::vector<double>> call_s;
  for (const Span& s : probe.log.spans()) {
    if (s.op < 0 || spans_only(s.op)) call_s[s.layer].push_back(s.dur());
  }
  const auto call_median = [&](const char* layer) {
    const auto it = call_s.find(layer);
    return it == call_s.end() ? 0.0 : median(it->second);
  };
  rep.add("ilu.prepare_s", call_median("ilu.prepare"), "s",
          "median per ilu_prepare call, loop or set-up");
  rep.add("ilu.numeric_s", call_median("ilu.numeric"), "s",
          "median per ilu_factor_numeric / ilu_refactor call");
  rep.add("ilu.operator_build_s", call_median("ilu.operator_build"), "s",
          "median per operator construction");

  // Latency samples by Observe class: (panel width, rows, seconds).
  std::vector<long> width[3];
  std::vector<double> rows[3], lat[3];
  std::vector<double> apply_s, apply_calls, solver_self, iters;
  std::vector<double> lv_fwd, lv_bwd, moved, fnnz;
  std::map<std::string, double> layer_self;
  double op_total = 0, col_iters = 0, panel_iters = 0, working_set = 0;
  double apply_total = 0, apply_n = 0, apply_bytes_total = 0;
  for (const OpRecord& r : ops) {
    working_set = std::max(working_set, r.working_set_bytes);
    const int o = static_cast<int>(r.observe);
    width[o].push_back(r.width);
    rows[o].push_back(static_cast<double>(r.n));
    lat[o].push_back(r.latency_s);
    if (r.observe != Observe::kSpans) continue;
    iters.push_back(static_cast<double>(r.iterations));
    col_iters += static_cast<double>(r.col_iterations);
    panel_iters += static_cast<double>(r.width) * static_cast<double>(r.iterations);
    lv_fwd.push_back(static_cast<double>(r.levels_fwd));
    lv_bwd.push_back(static_cast<double>(r.levels_bwd));
    moved.push_back(static_cast<double>(r.rows_moved));
    fnnz.push_back(static_cast<double>(r.factor_nnz));
    apply_bytes_total += r.apply_bytes;
    const auto it = per_op.find(r.id);
    if (it == per_op.end()) continue;
    const auto& layers = it->second;
    const auto get = [&](const char* l) {
      const auto jt = layers.find(l);
      return jt == layers.end() ? LayerSample{} : jt->second;
    };
    const LayerSample apply = get("ilu.apply");
    apply_s.push_back(apply.total_s);
    apply_calls.push_back(static_cast<double>(apply.calls));
    apply_total += apply.total_s;
    apply_n += static_cast<double>(apply.calls);
    solver_self.push_back(get("solver").self_s);
    op_total += get("op").total_s;
    for (const auto& [name, ls] : layers) layer_self[name] += ls.self_s;
  }
  const auto med = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : median(v);
  };
  const int off = static_cast<int>(Observe::kOff);
  const auto slowdown_vs_off = [&](Observe o) {
    const int i = static_cast<int>(o);
    return relative_slowdown(width[off], rows[off], lat[off], width[i],
                             rows[i], lat[i]);
  };

  const std::string nt =
      samples(lat[static_cast<int>(Observe::kSpans)].size()) + " spans-only ops";
  rep.add("ilu.apply_s", med(apply_s), "s", "apply time per operation, " + nt);
  rep.add("ilu.apply_calls", med(apply_calls), "count", "per operation");
  const double apply_gbs = ratio(apply_bytes_total, apply_total) / 1e9;
  rep.add("ilu.apply_gbs", apply_gbs, "GB/s", "computed bytes / measured time");
  rep.add("ilu.apply_frac_of_triad", ratio(apply_gbs, ex.triad.gbs), "fraction");
  rep.add("ilu.apply_bytes_computed", ratio(apply_bytes_total, apply_n), "B",
          "computed from n and nnz, per call");

  std::map<long, std::vector<double>> per_rhs;
  for (const auto& [k, s] : probe.panel_calls) {
    per_rhs[k].push_back(s / static_cast<double>(k));
  }
  for (const long k : {1L, 4L, 16L}) {
    const auto it = per_rhs.find(k);
    rep.add("ilu.panel_apply_s_per_rhs.k" + std::to_string(k),
            it == per_rhs.end() ? 0.0 : median(it->second), "s",
            samples(it == per_rhs.end() ? 0 : it->second.size()) + " calls");
  }

  rep.add("sparse.spmv_s", ex.spmv_s, "s", "median per call, workload matrix");
  rep.add("sparse.spmv_gbs", ratio(ex.spmv_bytes, ex.spmv_s) / 1e9, "GB/s",
          "computed bytes / measured time");
  rep.add("sparse.spmv_bytes_computed", ex.spmv_bytes, "B",
          "computed from n and nnz, per call");

  rep.add("solver.iterations", med(iters), "count", "median per operation");
  rep.add("solver.self_s", med(solver_self), "s",
          "solver time outside the wrapped apply, per operation");
  rep.add("solver.panel_useful_col_frac", ratio(col_iters, panel_iters),
          "fraction", "sum column iterations / (k x max iterations)");

  for (const char* layer : {"ilu.prepare", "ilu.numeric", "ilu.operator_build",
                            "ilu.apply", "solver"}) {
    const auto it = layer_self.find(layer);
    rep.add(std::string("loop_frac.") + layer,
            ratio(it == layer_self.end() ? 0.0 : it->second, op_total),
            "fraction", "self time / loop operation time");
  }

  rep.add("ilu.levels_fwd", med(lv_fwd), "count");
  rep.add("ilu.levels_bwd", med(lv_bwd), "count");
  rep.add("ilu.rows_moved", med(moved), "count");
  rep.add("ilu.factor_nnz", med(fnnz), "count");

  using javelin::obs::Region;
  for (const Region r : {Region::kFactor, Region::kCorner, Region::kForward,
                         Region::kBackward, Region::kFused}) {
    const javelin::obs::ExecStats& st = probe.exec.stats(r);
    const std::string p = std::string("exec.") + javelin::obs::region_name(r);
    const bool has = probe.exec.has(r);
    rep.add(p + ".sync_wait_frac", has ? st.sync_wait_frac() : 0.0, "fraction",
            "sweeps=" + std::to_string(st.sweeps));
    rep.add(p + ".occupancy", has ? st.occupancy() : 0.0, "fraction");
    rep.add(p + ".stalled_wait_frac",
            ratio(static_cast<double>(st.total.waits_stalled),
                  static_cast<double>(st.total.waits)),
            "fraction");
    rep.add(p + ".barrier_crossings_per_sweep",
            ratio(static_cast<double>(st.total.barrier_waits),
                  static_cast<double>(st.sweeps)),
            "count");
  }

  const double ws_mb = working_set / (1024.0 * 1024.0);
  rep.add("machine.triad_gbs", ex.triad.gbs, "GB/s", "STREAM triad, best of 5");
  rep.add("machine.triad_array_mb", ex.triad.array_mb, "MB", "each of 3 arrays");
  rep.add("machine.llc_mb", ex.llc_mb, "MB", "last-level cache");
  rep.add("machine.working_set_mb", ws_mb, "MB",
          "computed: matrix + factor + solver vectors, largest operation");
  rep.add("machine.working_set_frac_of_llc", ratio(ws_mb, ex.llc_mb), "fraction");

  const double t1 = med(ex.t1_latency);
  rep.add("baseline_t1.latency_s.p50", t1, "s",
          samples(ex.t1_latency.size()) + " replayed ops at T=1");
  rep.add("speedup_vs_t1", ratio(t1, med(ex.loop_latency)), "ratio",
          "same operations in the loop");
  rep.add("trace.overhead_frac", slowdown_vs_off(Observe::kSpans), "fraction",
          "spans-only vs unobserved ops, median time per row by width");
  rep.add("trace.exec_obs_overhead_frac",
          slowdown_vs_off(Observe::kSpansAndExec), "fraction",
          "spans+ExecObs vs unobserved ops, median time per row by width");
}

int run(const Args& args) {
  // Half the cores: a team on every core spin-waits on the host's other
  // load, so its times measure the scheduler more than the library (see
  // README.md). The other half stays free for everything else.
  const int threads = std::max(1, omp_get_num_procs() / 2);
  const std::string spans_out = ".bench_out/spans-" + args.workload + "-" +
                                std::to_string(args.seed) + ".json";
  omp_set_num_threads(threads);
  Probe probe;
  TracedExtras ex;
  if (args.trace) {
    // Bandwidth ceiling first, with each array at least 4x the LLC.
    const std::size_t llc = llc_bytes();
    ex.llc_mb = static_cast<double>(llc) / (1024.0 * 1024.0);
    const std::size_t array = std::max<std::size_t>(4 * llc, std::size_t{256} << 20);
    ex.triad = stream_triad(array, 5);
  }

  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed, threads);
  probe.log.set_enabled(args.trace);
  probe.log.set_op(-1);
  const std::vector<double> setup_samples = w->setup(kSetupReps, probe);
  probe.log.set_enabled(false);

  bool correct = true;
  {
    const OpRecord warm = w->run_op(-1, probe, Observe::kOff, false);
    if (warm.failed) {
      std::fprintf(stderr, "warm-up operation failed: %s\n", warm.failure.c_str());
      correct = false;
    }
  }

  // The traced run interleaves unobserved, spans-only and spans+ExecObs
  // operations (period 4, prime to the workloads' input blocks of 3 and 9),
  // so each overhead is measured against the same stretch of time.
  const auto observe_of = [&](long id) {
    if (!args.trace || id % 2 == 0) return Observe::kOff;
    return id % 4 == 1 ? Observe::kSpans : Observe::kSpansAndExec;
  };
  constexpr long kReplay = 3;  // operations replayed at T=1 in the traced run
  std::vector<OpRecord> ops;
  const CpuTimes cpu0 = cpu_times();
  const auto t0 = std::chrono::steady_clock::now();
  for (long id = 0;; ++id) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (elapsed >= args.seconds && !ops.empty()) break;
    const Observe obs = observe_of(id);
    probe.log.set_enabled(obs != Observe::kOff);
    probe.log.set_op(id);
    const double bytes0 = probe.apply_bytes;
    const std::size_t calls0 = probe.panel_calls.size();
    OpRecord rec = w->run_op(id, probe, obs, args.trace && id < kReplay);
    rec.apply_bytes = probe.apply_bytes - bytes0;
    // Panel-apply times come from spans-only operations.
    if (obs == Observe::kSpansAndExec) probe.panel_calls.resize(calls0);
    ops.push_back(std::move(rec));
  }
  probe.log.set_enabled(false);
  ex.steal_frac = steal_frac(cpu0, cpu_times());

  if (args.trace) {
    // T=1 replay of the first operations: the library guarantees the same
    // solution bitwise at every thread count; a mismatch fails the operation.
    omp_set_num_threads(1);
    std::unique_ptr<Workload> w1 = make_workload(args.workload, args.seed, 1);
    w1->setup(1, probe);
    for (long id = 0; id < kReplay && id < static_cast<long>(ops.size()); ++id) {
      OpRecord& r4 = ops[static_cast<std::size_t>(id)];
      const OpRecord r1 = w1->run_op(id, probe, Observe::kOff, true);
      ex.t1_latency.push_back(r1.latency_s);
      ex.loop_latency.push_back(r4.latency_s);
      const bool same = r1.x.size() == r4.x.size() &&
                        std::memcmp(r1.x.data(), r4.x.data(),
                                    r1.x.size() * sizeof(double)) == 0;
      if (!same && !r4.failed) {
        r4.failed = true;
        r4.failure = "T=1 solution differs bitwise from T=" +
                     std::to_string(threads);
      }
    }
    w1.reset();
    omp_set_num_threads(threads);
    std::tie(ex.spmv_s, ex.spmv_bytes) = w->microbench(probe);

    std::filesystem::create_directories(
        std::filesystem::path(spans_out).parent_path());
    if (!probe.log.write_json(spans_out)) {
      std::fprintf(stderr, "could not write spans to %s\n", spans_out.c_str());
    }
  }

  long failed = 0;
  for (const OpRecord& r : ops) {
    if (!r.failed) continue;
    ++failed;
    std::fprintf(stderr, "operation %ld failed: %s\n", r.id, r.failure.c_str());
  }
  correct = correct && failed == 0;

  std::printf("workload %s seed %llu threads %d seconds %g trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              threads, args.seconds, args.trace ? 1 : 0);
  Report rep;
  const char* steal_note =
      "CPU time other guests took during the loop (noise context)";
  if (args.trace) {
    std::printf("spans written to %s\n", spans_out.c_str());
    report_per_layer(ops, probe, ex, rep);
    rep.add("machine.cpu_steal_frac", ex.steal_frac, "fraction", steal_note);
  } else {
    report_end_to_end(ops, setup_samples, failed, rep);
    rep.note("machine.cpu_steal_frac", ex.steal_frac, "fraction", steal_note);
  }
  rep.print(correct, static_cast<long>(ops.size()), failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
