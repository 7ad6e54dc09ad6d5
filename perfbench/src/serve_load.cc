#include "serve_load.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "common/rng.h"

namespace perfbench {

namespace serve = pivot::serve;

Arrivals MakeArrivals(double rate, int count, size_t num_rows,
                      uint64_t seed) {
  pivot::Rng rng(seed);
  Arrivals a;
  a.due_s.reserve(count);
  a.rows.reserve(count);
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    if (rate > 0.0) {
      // Exponential gap; 1 - u lies in (0, 1], so the log is finite.
      t += -std::log(1.0 - rng.NextDouble()) / rate;
    }
    a.due_s.push_back(t);
    a.rows.push_back(static_cast<size_t>(rng.NextBelow(num_rows)));
  }
  return a;
}

Generator::Generator(
    const Arrivals& arrivals,
    const std::vector<std::vector<std::vector<double>>>& party_rows,
    std::vector<serve::RequestQueue*> queues)
    : arrivals_(arrivals), party_rows_(party_rows), queues_(std::move(queues)) {
  late_ms_.reserve(arrivals_.due_s.size());
  enqueue_ms_.reserve(arrivals_.due_s.size());
  thread_ = std::thread([this] { Run(); });
}

void Generator::Join() {
  if (thread_.joinable()) thread_.join();
}

void Generator::Run() {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < arrivals_.due_s.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrivals_.due_s[i]));
    std::this_thread::sleep_until(due);
    const Clock::time_point push = Clock::now();
    late_ms_.push_back(
        std::chrono::duration<double, std::milli>(push - due).count());
    for (size_t p = 0; p < queues_.size(); ++p) {
      queues_[p]->Push(party_rows_[p][arrivals_.rows[i]]);
    }
    enqueue_ms_.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - push)
            .count());
  }
  for (serve::RequestQueue* q : queues_) q->Close();
}

}  // namespace perfbench
