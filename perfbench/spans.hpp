// In-memory span log of the traced run: one span per call the benchmark makes
// into a library layer, with its parent span and the operation it belongs to.
// Spans are recorded by the benchmark around its own calls (the library is
// not instrumented here), kept in memory and written out at exit.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string layer;
  long op = -1;     ///< operation id shared by all spans of one operation
  int parent = -1;  ///< index of the enclosing span, -1 at the root
  double t0 = 0;    ///< seconds since the log was created
  double t1 = 0;
  double dur() const { return t1 - t0; }
};

/// Per-(operation, layer) aggregate of the spans.
struct LayerSample {
  double total_s = 0;  ///< sum of span durations
  double self_s = 0;   ///< sum of durations minus the time child spans cover
  long calls = 0;
};

class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  /// Recording is switched per operation (the traced run interleaves traced
  /// and untraced operations); open/close are no-ops while off.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_op(long op) { op_ = op; }

  int open(const char* layer) {
    if (!enabled_) return -1;
    Span s;
    s.layer = layer;
    s.op = op_;
    s.parent = current_;
    s.t0 = now();
    spans_.push_back(std::move(s));
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1 = now();
    current_ = s.parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the durations of its
  /// direct children (children of one parent never overlap: one caller).
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur();
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur();
    }
    return self;
  }

  /// op id -> layer -> aggregate.
  std::map<long, std::map<std::string, LayerSample>> by_op() const {
    std::map<long, std::map<std::string, LayerSample>> out;
    const std::vector<double> self = self_times();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      LayerSample& ls = out[spans_[i].op][spans_[i].layer];
      ls.total_s += spans_[i].dur();
      ls.self_s += self[i];
      ls.calls += 1;
    }
    return out;
  }

  /// Write every span as one JSON document. Returns false on I/O failure.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<double> self = self_times();
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"layer\": \"%s\", \"op\": %ld, "
                   "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f, "
                   "\"self_s\": %.9f}%s\n",
                   i, s.layer.c_str(), s.op, s.parent, s.t0, s.t1, self[i],
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  bool enabled_ = false;
  long op_ = -1;
  int current_ = -1;
};

/// RAII span: opens on construction, closes on scope exit (exceptions too).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* layer) : log_(log), id_(log.open(layer)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench
