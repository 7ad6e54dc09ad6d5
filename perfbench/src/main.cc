// perfbench: one workload of the end-to-end benchmark in a fresh process.
//
//   perfbench --workload dt-basic --seed 1 --seconds 30 --trace 0
//             [--trace-out trace.json]
//
// Prints progress and notes on stderr and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The traced
// mode also writes the run's spans as Chrome trace-event JSON to
// --trace-out and prints its end-to-end figures on stderr. Exits 0 only
// when every operation succeeded and every output checked out.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workload.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\nworkloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

void PrintMetrics(const std::vector<perfbench::Metric>& metrics, FILE* out) {
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ", ", metrics[i].name.c_str(),
                 metrics[i].value, metrics[i].unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
      have_seconds = opts.seconds > 0.0;
    } else if (flag == "--trace") {
      opts.trace = std::string(value) == "1";
      have_trace = opts.trace || std::string(value) == "0";
    } else if (flag == "--trace-out") {
      opts.trace_path = value;
    } else {
      Usage();
      return 2;
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr || !have_seed || !have_seconds || !have_trace ||
      argc % 2 != 1) {
    Usage();
    return 2;
  }

  const perfbench::RunReport report = perfbench::RunWorkload(*spec, opts);
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  if (opts.trace) {
    std::fprintf(stderr, "traced run, end to end: {");
    PrintMetrics(report.end_to_end, stderr);
    std::fprintf(stderr, "}\n");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  PrintMetrics(opts.trace ? report.per_layer : report.end_to_end, stdout);
  std::printf("}}\n");
  return report.correct && report.failed == 0 ? 0 : 1;
}
