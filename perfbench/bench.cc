#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "bench.h"
#include "oracles.h"

namespace perfbench {

void Outcome::Fail(const std::string& what) {
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
}

Tracer::Tracer(bool enabled, std::string workload)
    : enabled_(enabled), workload_(std::move(workload)), origin_(NowSeconds()) {
  if (enabled_) spans_.reserve(1 << 16);
}

int64_t Tracer::Begin(const std::string& name, int64_t pair,
                      bool split_only) {
  Span span;
  span.name = name;
  span.start = Elapsed();
  span.parent = open_.empty() ? -1 : open_.back();
  span.pair = pair;
  span.split_only = split_only;
  spans_.push_back(std::move(span));
  const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  spans_[static_cast<size_t>(id)].end = Elapsed();
  // Spans are RAII-scoped, so the one ending is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::SplitOnlyTotal() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.split_only) total += s.end - s.start;
  }
  return total;
}

double Tracer::TopLevelCoverage(double wall_seconds) const {
  double covered = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) covered += s.end - s.start;
  }
  return wall_seconds > 0 ? covered / wall_seconds : 0.0;
}

std::string Tracer::SelfTimeTable(double wall_seconds) const {
  // Self time = duration minus the time covered by direct children
  // (children of one span never overlap: the benchmark is sequential).
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  struct Row {
    size_t count = 0;
    double total = 0.0;
    double self = 0.0;
    bool split_only = false;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Row& row = rows[s.name];
    ++row.count;
    row.total += s.end - s.start;
    row.self += (s.end - s.start) - child_time[i];
    row.split_only = row.split_only || s.split_only;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self > b.second.self;
  });
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %8s %11s %11s %7s\n", "span",
                "count", "total_s", "self_s", "self%");
  out << line;
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof(line), "%-28s %8zu %11.4f %11.4f %6.1f%%%s\n",
                  name.c_str(), row.count, row.total, row.self,
                  wall_seconds > 0 ? 100.0 * row.self / wall_seconds : 0.0,
                  row.split_only ? "  (split-only)" : "");
    out << line;
  }
  std::snprintf(line, sizeof(line),
                "wall %.4f s, top-level spans cover %.1f%%\n", wall_seconds,
                100.0 * TopLevelCoverage(wall_seconds));
  out << line;
  return out.str();
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are benchmark-chosen identifiers: no escaping needed.
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                  "\"end_s\":%.9f,\"parent\":%lld,\"workload\":\"%s\","
                  "\"pair\":%lld,\"split_only\":%s}\n",
                  i, s.name.c_str(), s.start, s.end,
                  static_cast<long long>(s.parent), workload_.c_str(),
                  static_cast<long long>(s.pair),
                  s.split_only ? "true" : "false");
    out << line;
  }
  return static_cast<bool>(out);
}

void RunSelfTest(Tracer& tracer, Outcome* out) {
  ScopedSpan span(tracer, "check.self_test");
  std::vector<std::string> failures;
  SelfTest(&failures);
  for (const std::string& f : failures) out->Fail(f);
}

void PrintRoundTimes(const std::vector<double>& round_times) {
  std::fprintf(stderr, "round times (s):");
  for (double r : round_times) std::fprintf(stderr, " %.4f", r);
  std::fprintf(stderr, "\n");
}

void FinishTrace(const Tracer& tracer, const Options& options, Outcome* out) {
  if (!tracer.enabled()) return;
  const double wall = tracer.Elapsed();
  out->per_layer.push_back(
      {"trace.coverage", tracer.TopLevelCoverage(wall), "ratio"});
  out->per_layer.push_back(
      {"trace.split_only_s", tracer.SplitOnlyTotal(), "s"});
  std::fprintf(stderr, "%s", tracer.SelfTimeTable(wall).c_str());
  const std::string path =
      options.work_dir + "/trace_" + tracer.workload() + ".jsonl";
  if (!tracer.WriteJsonl(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

namespace {

double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB → MB.
    }
  }
  return 0.0;
}

}  // namespace

double CurrentRssMb() { return StatusFieldMb("VmRSS"); }
double PeakRssMb() { return StatusFieldMb("VmHWM"); }

}  // namespace perfbench
