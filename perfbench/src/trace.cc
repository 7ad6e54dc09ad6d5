#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

int Tracer::Begin(const std::string& name, int party, int parent,
                  int phase) {
  if (!enabled_) return -1;
  const double now_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.party = party;
  span.parent = parent;
  span.phase = phase;
  span.start_us = now_us;
  span.end_us = now_us;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int index, double recv_wait_s) {
  if (index < 0) return;
  const double now_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end_us = now_us;
  spans_[index].recv_wait_us = recv_wait_s * 1e6;
}

std::vector<double> Tracer::ChildSeconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[s.parent] += (s.end_us - s.start_us) * 1e-6;
  }
  return child;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> child = ChildSeconds();
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double self =
        (s.end_us - s.start_us - s.recv_wait_us) * 1e-6 - child[i];
    out[s.name] += std::max(0.0, self);
  }
  return out;
}

double Tracer::PhasePartySelfSeconds(int phase, int party) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> child = ChildSeconds();
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.phase != phase || s.party != party) continue;
    total += std::max(
        0.0, (s.end_us - s.start_us - s.recv_wait_us) * 1e-6 - child[i]);
  }
  return total;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  // Track names: tid 0 is the harness, tid p+1 is party p.
  int max_party = -1;
  for (const Span& s : spans_) max_party = std::max(max_party, s.party);
  const char* sep = "\n";
  for (int tid = 0; tid <= max_party + 1; ++tid) {
    const std::string track =
        tid == 0 ? "harness" : "party" + std::to_string(tid - 1);
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 sep, tid, track.c_str());
    sep = ",\n";
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"phase\":%d,\"recv_wait_us\":%.3f}}",
                 sep, s.name.c_str(), s.party + 1, s.start_us,
                 s.end_us - s.start_us, i, s.parent, s.phase, s.recv_wait_us);
    sep = ",\n";
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

pivot::Status TimedEndpoint::Send(int to, pivot::Bytes msg) {
  const size_t bytes = msg.size();
  NoteSendPhase();
  pivot::Status st = inner_.Send(to, std::move(msg));
  if (st.ok()) CountSend(bytes);
  return st;
}

pivot::Result<pivot::Bytes> TimedEndpoint::Recv(int from) {
  const Clock::time_point start = Clock::now();
  pivot::Result<pivot::Bytes> r = inner_.Recv(from);
  recv_wait_s_ += SecondsSince(start);
  NoteRecvPhase();
  if (r.ok()) CountRecv(r.value().size());
  return r;
}

}  // namespace perfbench
