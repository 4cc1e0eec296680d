// Shared plumbing of the CQA pipeline benchmark: run options, the
// outcome every workload returns, an in-memory span recorder used only
// by traced runs, and small statistics and process-memory helpers.
#ifndef CQABENCH_PERFBENCH_BENCH_H_
#define CQABENCH_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory for scratch files (.tbl directories, trace output).
  std::string work_dir = ".bench_work";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports. `end_to_end` is the metric set of an
// untraced run; `per_layer` that of a traced run. `workload_metrics` are
// the workload's own named figures (noise_s, natural_s, serve_p99_ms...),
// printed with every run.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> workload_metrics;
  std::vector<std::string> errors;

  // Records a failed correctness check; the run then reports
  // correct = false.
  void Fail(const std::string& what);
};

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One span: a call into a program layer, timed from the benchmark.
struct Span {
  std::string name;
  double start = 0.0;  // Seconds since the run began.
  double end = 0.0;
  int64_t parent = -1;  // Index of the enclosing span, -1 for top level.
  int64_t pair = -1;    // Pair / cell / request-class id, -1 if none.
  // True for calls made only to split a layer (they run only when
  // traced and are kept apart from the tracing overhead).
  bool split_only = false;
};

// Records spans in memory for one workload run; a disabled tracer records
// nothing. Single-threaded: spans nest by call order.
class Tracer {
 public:
  Tracer(bool enabled, std::string workload);

  bool enabled() const { return enabled_; }
  double Elapsed() const { return NowSeconds() - origin_; }
  int64_t Begin(const std::string& name, int64_t pair, bool split_only);
  void End(int64_t id);

  const std::string& workload() const { return workload_; }

  // Total duration of the split-only spans.
  double SplitOnlyTotal() const;
  // Share of the run's wall time covered by top-level spans.
  double TopLevelCoverage(double wall_seconds) const;
  // Per-name count, total and self time, as a text table.
  std::string SelfTimeTable(double wall_seconds) const;
  // Writes one JSON object per span. False on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::string workload_;
  double origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int64_t pair = -1,
             bool split_only = false)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.Begin(name, pair, split_only) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int64_t id_;
};

// q-quantile (0 <= q <= 1) by linear interpolation; 0 for empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Resident set size now and at its peak, in MB (from /proc/self/status).
double CurrentRssMb();
double PeakRssMb();

// Runs the oracles' self-test inside a span; failures fail the run.
void RunSelfTest(Tracer& tracer, Outcome* out);
// Prints a run's round times to standard error.
void PrintRoundTimes(const std::vector<double>& round_times);
// For a traced run: adds trace.coverage and trace.split_only_s, prints
// the self-time table and writes the spans to
// <work_dir>/trace_<workload>.jsonl.
void FinishTrace(const Tracer& tracer, const Options& options, Outcome* out);

// The workloads.
Outcome RunTpchPrep(const Options& options);
Outcome RunGridSchemes(const Options& options);
Outcome RunServeMixed(const Options& options);

}  // namespace perfbench

#endif  // CQABENCH_PERFBENCH_BENCH_H_
