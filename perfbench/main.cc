// cqa_perfbench: runs one workload of the CQA pipeline benchmark and
// prints its result as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer metrics this workload measures (run.py completes them to the
// list in BENCHMARK.json). Human-readable tables go to standard error.
//
//   cqa_perfbench --workload <tpch-prep|grid-schemes|serve-mixed>
//                 --seed <n> --seconds <s> --trace <0|1> [--work-dir <d>]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: cqa_perfbench --workload <tpch-prep|grid-schemes|"
               "serve-mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (arg == "--work-dir") {
      options->work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  Outcome outcome;
  if (options.workload == "tpch-prep") {
    outcome = RunTpchPrep(options);
  } else if (options.workload == "grid-schemes") {
    outcome = RunGridSchemes(options);
  } else if (options.workload == "serve-mixed") {
    outcome = RunServeMixed(options);
  } else {
    PrintUsage();
    return 2;
  }

  const std::vector<Metric>& reported =
      options.trace ? outcome.per_layer : outcome.end_to_end;

  std::fprintf(stderr, "workload %s seed %llu: attempted %llu failed %llu\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(outcome.attempted),
               static_cast<unsigned long long>(outcome.failed));
  PrintTable("end-to-end metrics:", outcome.end_to_end);
  PrintTable("workload metrics:", outcome.workload_metrics);
  if (options.trace) PrintTable("per-layer metrics:", outcome.per_layer);
  for (const std::string& e : outcome.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + reported[i].name + "\": {\"value\": " +
            FormatNumber(reported[i].value) + ", \"unit\": \"" +
            reported[i].unit + "\"}";
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  return 0;
}
