#ifndef PERFBENCH_SERVE_LOAD_H_
#define PERFBENCH_SERVE_LOAD_H_

// Open-loop load for the serving phase: a seeded Poisson arrival schedule
// and a generator thread that feeds every party's mirrored request queue
// at the scheduled times.

#include <cstdint>
#include <thread>
#include <vector>

#include "serve/batch_scheduler.h"

namespace perfbench {

// Request i is due `due_s[i]` seconds after the stream starts and asks for
// held-out row `rows[i]`. rate <= 0 makes every request due at once (a
// backlog to drain).
struct Arrivals {
  std::vector<double> due_s;
  std::vector<size_t> rows;
};
Arrivals MakeArrivals(double rate, int count, size_t num_rows,
                      uint64_t seed);

// Pushes every request into each party's queue at its due time from a
// thread of its own, never waiting on the servers, then closes the
// queues. A push that runs behind schedule is made at once; how late each
// push ran, and how long the pushes took, is recorded.
class Generator {
 public:
  // party_rows[p] = party p's feature slices of the held-out rows.
  Generator(const Arrivals& arrivals,
            const std::vector<std::vector<std::vector<double>>>& party_rows,
            std::vector<pivot::serve::RequestQueue*> queues);
  ~Generator() { Join(); }
  void Join();
  const std::vector<double>& late_ms() const { return late_ms_; }
  // How long each request's pushes into all queues took.
  const std::vector<double>& enqueue_ms() const { return enqueue_ms_; }

 private:
  void Run();

  const Arrivals& arrivals_;
  const std::vector<std::vector<std::vector<double>>>& party_rows_;
  std::vector<pivot::serve::RequestQueue*> queues_;
  std::vector<double> late_ms_;
  std::vector<double> enqueue_ms_;
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_LOAD_H_
