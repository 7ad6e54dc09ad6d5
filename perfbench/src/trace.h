#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Span recording for the traced benchmark mode, the timing wrapper around
// each party's network endpoint, and the timing helpers the phases share.
//
// A span is one call into a public entry point of the program, made by the
// benchmark on behalf of one party (or of the harness itself, party -1).
// Spans nest through `parent` and carry the id of the phase they belong
// to, so the per-layer self times can be read off the tree and the whole
// run can be opened as a Chrome trace-event file in Perfetto.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/endpoint.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

struct Span {
  std::string name;
  int party = -1;   // -1 = the harness thread
  int parent = -1;  // index of the enclosing span, -1 = top level
  int phase = -1;   // index of the phase span this span belongs to
  double start_us = 0.0;
  double end_us = 0.0;
  // Time the party spent blocked in Recv inside this span (leaf spans
  // around protocol calls only); subtracted from the self time.
  double recv_wait_us = 0.0;
};

// Thread-safe in-memory span store. Disabled tracers record nothing, so the
// untraced mode pays one branch per layer call.
class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}

  // Opens a span and returns its index (-1 when disabled).
  int Begin(const std::string& name, int party, int parent, int phase);
  void End(int index, double recv_wait_s = 0.0);

  // Per span name: summed self time in seconds (duration minus child
  // spans minus the recorded recv wait).
  std::map<std::string, double> SelfSeconds() const;
  // Summed self time of party `party`'s spans in phase `phase`.
  double PhasePartySelfSeconds(int phase, int party) const;

  // Writes the spans as Chrome trace-event JSON ("X" complete events, one
  // track per party). Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<double> ChildSeconds() const;

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; `recv_wait` (optional) is read at open and close so the span
// records the recv wait accrued inside it.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int party, int parent,
             int phase, const double* recv_wait = nullptr)
      : tracer_(tracer),
        recv_wait_(recv_wait),
        wait_at_open_(recv_wait != nullptr ? *recv_wait : 0.0),
        index_(tracer.Begin(name, party, parent, phase)) {}
  ~ScopedSpan() {
    tracer_.End(index_, recv_wait_ != nullptr ? *recv_wait_ - wait_at_open_
                                              : 0.0);
  }
  int index() const { return index_; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  const double* recv_wait_;
  double wait_at_open_;
  int index_;
};

// Wraps the endpoint a party is handed: forwards every Send/Recv, keeps the
// logical byte/message/round counters of its own (per party, so phase
// deltas are exact) and accumulates the time spent blocked in Recv.
// Owned and driven by one party thread; the harness reads the counters
// only between phases, after the party threads joined.
class TimedEndpoint : public pivot::Endpoint {
 public:
  explicit TimedEndpoint(pivot::Endpoint& inner)
      : Endpoint(inner.id(), inner.num_parties()), inner_(inner) {}

  [[nodiscard]] pivot::Status Send(int to, pivot::Bytes msg) override;
  pivot::Result<pivot::Bytes> Recv(int from) override;

  const double& recv_wait_s() const { return recv_wait_s_; }
  const pivot::Endpoint& inner() const { return inner_; }

 private:
  pivot::Endpoint& inner_;
  double recv_wait_s_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
