#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The benchmark's workloads and the one pipeline they all run: set-up ->
// training -> bulk prediction of a held-out set -> open-loop serving, as
// one in-process 3-party federation. See perfbench/README.md for the
// make-up of each workload and for what every metric means.

#include <cstdint>
#include <string>
#include <vector>

#include "pivot/params.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  pivot::Protocol protocol;
  int n;                // training rows
  int d;                // features per party
  int b;                // max splits per feature
  int h;                // max tree depth
  int c;                // classes
  int crypto_threads;
  int heldout;          // rows of the bulk-scored held-out set
  int batch_size;       // serving: requests coalesced per protocol sweep
  double offered_rps;   // serving: the fixed open-loop arrival rate
  int drain_requests;   // serving: backlog per capacity drain
};

// The workload table; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

inline constexpr int kParties = 3;
inline constexpr int kKeyBits = 512;

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  // Traced mode: where the Chrome trace-event JSON goes.
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // Human-readable notes (failed checks, self-time table) for stderr.
  std::vector<std::string> notes;
};

RunReport RunWorkload(const WorkloadSpec& spec, const RunOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
