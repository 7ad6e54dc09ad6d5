#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "common/op_counters.h"
#include "crypto/threshold_paillier.h"
#include "data/synthetic.h"
#include "net/network.h"
#include "pivot/prediction.h"
#include "pivot/trainer.h"
#include "probes.h"
#include "reference.h"
#include "serve/serving_session.h"
#include "serve_load.h"
#include "trace.h"

namespace perfbench {

using pivot::Dataset;
using pivot::OpSnapshot;
using pivot::PartyContext;
using pivot::PivotTree;
using pivot::Protocol;
using pivot::Result;
using pivot::Status;
namespace serve = pivot::serve;

namespace {

// Depth 2 keeps every node large enough to split on every seed, so the
// training counts do not depend on the seed. The offered rates keep the
// servers mostly idle. dt-enhanced serves at batch 64: at batch 16 each
// request paid four times the MPC rounds, and its drains were bound by
// thread wake-ups between rounds.
//
// name, protocol, n, d, b, h, c, crypto_threads, heldout, batch_size,
// offered_rps, drain_requests
constexpr WorkloadSpec kWorkloads[] = {
    {"dt-basic", Protocol::kBasic, 160, 3, 8, 2, 4, 3, 96, 16, 40.0, 192},
    {"dt-enhanced", Protocol::kEnhanced, 80, 3, 4, 2, 4, 1, 96, 64, 100.0,
     1024},
};

// Set-up, training and the serving warm-up are fixed work, measured on
// this many fresh federations and reported as medians.
constexpr int kRepeats = 3;
// Shares of --seconds given to each measured phase after training.
constexpr double kPredictShare = 0.3;  // bulk passes over the held-out set
constexpr double kServeShare = 0.2;    // the fixed-rate run, at its rate
constexpr double kDrainShare = 0.3;    // backlog drains for the capacity
constexpr int kMinServeRequests = 200;  // enough for a p99
constexpr size_t kMinSamples = 10;      // passes or drains per window
// Rates are reported at this percentile of a window's samples. The host
// takes CPU from a run in stretches of seconds, which slowed up to half
// the samples of a window by 2-5x; the upper decile is the rate the
// program reaches when it is not interrupted.
constexpr double kRatePercentile = 90.0;

uint64_t Mix(uint64_t seed, uint64_t stream) {
  return pivot::DeriveStreamSeed(seed * 0x100000001b3ULL, stream);
}

// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void ForEachParty(const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  for (int p = 0; p < kParties; ++p) threads.emplace_back(fn, p);
  for (std::thread& t : threads) t.join();
}

// Everything the set-up phase builds: the data, the keys and one party
// context per party over the in-memory mesh, each handed a TimedEndpoint.
struct Federation {
  Dataset train, test;
  pivot::ThresholdPaillier keys;
  std::unique_ptr<pivot::InMemoryNetwork> net;
  std::vector<std::unique_ptr<TimedEndpoint>> endpoints;
  std::vector<std::unique_ptr<PartyContext>> contexts;
  // test_rows[p][i] = party p's slice of held-out row i.
  std::vector<std::vector<std::vector<double>>> test_rows;
  // feature_map[p][j] = global index of party p's local feature j.
  std::vector<std::vector<int>> feature_map;
  double keygen_s = 0.0;
  double context_s = 0.0;
};

pivot::PivotParams MakeParams(const WorkloadSpec& spec, uint64_t seed) {
  pivot::PivotParams params;
  params.tree.task = pivot::TreeTask::kClassification;
  params.tree.num_classes = spec.c;
  params.tree.max_depth = spec.h;
  params.tree.max_splits = spec.b;
  params.tree.min_samples_split = 5;
  params.key_bits = kKeyBits;
  params.crypto_threads = spec.crypto_threads;
  params.run_seed = Mix(seed, 1);
  params.prep_seed = Mix(seed, 2);
  return params;
}

std::unique_ptr<Federation> BuildFederation(const WorkloadSpec& spec,
                                            const pivot::PivotParams& params,
                                            uint64_t seed, int repeat,
                                            Tracer& tracer, int phase) {
  auto fed = std::make_unique<Federation>();
  {
    ScopedSpan span(tracer, "data.MakeClassification", -1, phase, phase);
    pivot::ClassificationSpec data_spec;
    data_spec.num_samples = spec.n + spec.heldout;
    data_spec.num_features = spec.d * kParties;
    data_spec.num_classes = spec.c;
    data_spec.seed = Mix(seed, 0);
    Dataset all = pivot::MakeClassification(data_spec);
    fed->train.features.assign(all.features.begin(),
                               all.features.begin() + spec.n);
    fed->train.labels.assign(all.labels.begin(), all.labels.begin() + spec.n);
    fed->test.features.assign(all.features.begin() + spec.n,
                              all.features.end());
    fed->test.labels.assign(all.labels.begin() + spec.n, all.labels.end());
  }
  {
    ScopedSpan span(tracer, "crypto.GenerateThresholdPaillier", -1, phase,
                    phase);
    const Clock::time_point start = Clock::now();
    pivot::Rng key_rng(Mix(seed, 100 + repeat));
    fed->keys = pivot::GenerateThresholdPaillier(kKeyBits, kParties, key_rng);
    fed->keygen_s = SecondsSince(start);
  }
  pivot::VerticalPartition partition;
  {
    ScopedSpan span(tracer, "data.PartitionVertically", -1, phase, phase);
    partition = pivot::PartitionVertically(fed->train, kParties);
    const pivot::VerticalPartition test_part =
        pivot::PartitionVertically(fed->test, kParties);
    for (int p = 0; p < kParties; ++p) {
      fed->test_rows.push_back(test_part.views[p].features);
      fed->feature_map.push_back(partition.views[p].feature_indices);
    }
  }
  pivot::NetConfig net_config;
  net_config.recv_timeout_ms = 600'000;
  fed->net = std::make_unique<pivot::InMemoryNetwork>(kParties, net_config);
  for (int p = 0; p < kParties; ++p) {
    fed->endpoints.push_back(
        std::make_unique<TimedEndpoint>(fed->net->endpoint(p)));
  }
  fed->contexts.resize(kParties);
  const Clock::time_point start = Clock::now();
  ForEachParty([&](int p) {
    ScopedSpan span(tracer, "pivot.PartyContext", p, phase, phase);
    fed->contexts[p] = std::make_unique<PartyContext>(
        p, /*super_client_id=*/0, fed->endpoints[p].get(), fed->keys.pk,
        fed->keys.partial_keys[p], partition.views[p],
        p == 0 ? partition.labels : std::vector<double>{}, params);
  });
  fed->context_s = SecondsSince(start);
  return fed;
}

// Counter state at a phase boundary (read while no party thread runs).
struct Mark {
  OpSnapshot ops;
  std::vector<uint64_t> bytes, messages, rounds;
  std::vector<double> recv_wait_s;
  uint64_t nacks = 0, retransmits = 0;
};

Mark TakeMark(const Federation& fed) {
  Mark m;
  m.ops = OpSnapshot::Take();
  for (const auto& ep : fed.endpoints) {
    m.bytes.push_back(ep->bytes_sent());
    m.messages.push_back(ep->messages_sent());
    m.rounds.push_back(ep->Rounds());
    m.recv_wait_s.push_back(ep->recv_wait_s());
    m.nacks += ep->inner().nacks_sent();
    m.retransmits += ep->inner().retransmits();
  }
  return m;
}

// What one phase cost over all its repeats, summed over parties unless
// noted. The per-layer figures are per repeat, so that they do not depend
// on how many repeats fit in the run.
struct PhaseCost {
  uint64_t ce = 0, cd = 0, cs = 0, cc = 0;
  uint64_t pool_hits = 0, pool_misses = 0, pool_tasks = 0, batch_calls = 0;
  double mb = 0.0;
  uint64_t messages = 0;
  uint64_t rounds = 0;  // largest per-party count, summed over the marks
  std::vector<double> recv_wait_s = std::vector<double>(kParties, 0.0);
  uint64_t nacks = 0, retransmits = 0;
  std::vector<int> spans;  // the phase's spans, whose party spans give busy time
  int repeats = 0;
};

// Adds what one federation did between two marks.
void AddCost(PhaseCost& c, const Mark& a, const Mark& b) {
  const OpSnapshot ops = b.ops.Delta(a.ops);
  c.ce += ops.ce;
  c.cd += ops.cd;
  c.cs += ops.cs;
  c.cc += ops.cc;
  c.pool_hits += ops.enc_pool_hits;
  c.pool_misses += ops.enc_pool_misses;
  c.pool_tasks += ops.pool_tasks;
  c.batch_calls += ops.batch_calls;
  uint64_t rounds = 0;
  for (int p = 0; p < kParties; ++p) {
    c.mb += static_cast<double>(b.bytes[p] - a.bytes[p]) / 1e6;
    c.messages += b.messages[p] - a.messages[p];
    rounds = std::max<uint64_t>(rounds, b.rounds[p] - a.rounds[p]);
    c.recv_wait_s[p] += b.recv_wait_s[p] - a.recv_wait_s[p];
  }
  c.rounds += rounds;
  c.nacks += b.nacks - a.nacks;
  c.retransmits += b.retransmits - a.retransmits;
}

bool SameBasicTree(const PivotTree& a, const PivotTree& b) {
  if (a.nodes.size() != b.nodes.size()) return false;
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    const pivot::PivotNode& x = a.nodes[i];
    const pivot::PivotNode& y = b.nodes[i];
    if (x.is_leaf != y.is_leaf || x.owner != y.owner ||
        x.feature_local != y.feature_local || x.threshold != y.threshold ||
        x.leaf_value != y.leaf_value || x.left != y.left ||
        x.right != y.right) {
      return false;
    }
  }
  return true;
}

class Run {
 public:
  Run(const WorkloadSpec& spec, const RunOptions& opts)
      : spec_(spec),
        opts_(opts),
        params_(MakeParams(spec, opts.seed)),
        tracer_(opts.trace) {}

  RunReport Go();

 private:
  void Fail(const std::string& what, const Status& st, uint64_t ops) {
    report_.failed += ops;
    report_.notes.push_back(what + ": " + st.ToString());
  }
  void Wrong(const std::string& what) {
    report_.correct = false;
    report_.notes.push_back("wrong output: " + what);
  }
  void E2e(const std::string& name, double value, const std::string& unit) {
    report_.end_to_end.push_back(Metric{name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    report_.per_layer.push_back(Metric{name, value, unit});
  }

  void Setup(int repeat);
  bool Train();
  void CheckTraining();
  bool Predict();
  bool Warmup();
  bool Serve();
  void Probes();
  void EmitPhase(const std::string& phase, const PhaseCost& cost);

  // Runs `body` on every party thread, inside a span named `layer` of the
  // current phase.
  Status RunParties(const std::string& layer,
                    const std::function<Status(int)>& body);

  // One open-loop serving run; fills served predictions per party.
  struct ServeRun {
    serve::ServingStats stats;  // party 0's
    Arrivals arrivals;
    std::vector<double> late_ms;
    std::vector<double> enqueue_ms;
  };
  Result<ServeRun> ServeOnce(double rate, int count, uint64_t stream);
  bool CheckServed(const ServeRun& run,
                   const std::vector<std::vector<double>>& preds);

  const WorkloadSpec& spec_;
  const RunOptions& opts_;
  pivot::PivotParams params_;
  Tracer tracer_;
  RunReport report_;
  std::unique_ptr<Federation> fed_;
  std::vector<PivotTree> trees_;  // the released tree, one view per party
  std::vector<std::unique_ptr<serve::ServingSession>> sessions_;
  PlainTree plain_;           // the released tree, rebuilt in the clear
  std::vector<double> bulk_;  // party 0's bulk predictions of the held-out set

  // Per repeat: set-up without the warm-up, key ceremony, contexts,
  // warm-up, training.
  std::vector<double> build_s_, keygen_s_, context_s_, warmup_s_, train_s_;
  double setup_rss_mb_ = 0.0;
  double train_rss_mb_ = 0.0;
  int serve_requests_ = 0;  // of the fixed-rate run
  uint64_t prewarm_pairs_ = 0;
  uint64_t prewarm_used_ = 0;
  int phase_ = -1;
  PhaseCost train_, predict_, serve_;
  serve::ServingStats serve_stats_;  // party 0's, at the offered rate
  double serve_late_p99_ms_ = 0.0;
  double serve_enqueue_p99_ms_ = 0.0;
};

Status Run::RunParties(const std::string& layer,
                       const std::function<Status(int)>& body) {
  return pivot::RunParties(*fed_->net, [&](int id, pivot::Endpoint&) {
    ScopedSpan span(tracer_, layer, id, phase_, phase_,
                    &fed_->endpoints[id]->recv_wait_s());
    return body(id);
  });
}

void Run::Setup(int repeat) {
  ScopedSpan phase(tracer_, "phase.setup", -1, -1, -1);
  const Clock::time_point start = Clock::now();
  fed_ = BuildFederation(spec_, params_, opts_.seed, repeat, tracer_,
                         phase.index());
  build_s_.push_back(SecondsSince(start));
  keygen_s_.push_back(fed_->keygen_s);
  context_s_.push_back(fed_->context_s);
  if (repeat == 0) setup_rss_mb_ = PeakRssMb();
}

bool Run::Train() {
  ScopedSpan phase(tracer_, "phase.train", -1, -1, -1);
  phase_ = phase.index();
  trees_.assign(kParties, PivotTree{});
  const Mark before = TakeMark(*fed_);
  const Clock::time_point start = Clock::now();
  report_.attempted += 1;
  Status st = RunParties("pivot.TrainPivotTree", [&](int id) {
    pivot::TrainTreeOptions opts;
    opts.protocol = spec_.protocol;
    Result<PivotTree> tree = pivot::TrainPivotTree(*fed_->contexts[id], opts);
    if (tree.ok()) trees_[id] = std::move(tree).value();
    return tree.status();
  });
  train_s_.push_back(SecondsSince(start));
  if (!st.ok()) {
    Fail("training", st, 1);
    return false;
  }
  AddCost(train_, before, TakeMark(*fed_));
  train_.spans.push_back(phase_);
  train_.repeats += 1;
  if (train_.repeats == 1) train_rss_mb_ = PeakRssMb();
  CheckTraining();
  return true;
}

void Run::CheckTraining() {
  const Federation& fed = *fed_;
  if (spec_.protocol == Protocol::kBasic) {
    for (int p = 1; p < kParties; ++p) {
      if (!SameBasicTree(trees_[0], trees_[p])) {
        Wrong("party " + std::to_string(p) + " holds another tree");
      }
    }
    plain_ = FromBasic(trees_[0], fed.feature_map);
  } else {
    plain_ = FromEnhanced(trees_, fed.feature_map);
  }
  const std::string cart = CheckAgainstCart(plain_, fed.train, params_.tree);
  if (!cart.empty()) Wrong("released tree is not a CART tree: " + cart);
}

bool Run::Predict() {
  ScopedSpan phase(tracer_, "phase.predict", -1, -1, -1);
  phase_ = phase.index();
  const Federation& fed = *fed_;
  const size_t rows = fed.test.features.size();

  // The reference, made apart from the protocol.
  std::vector<double> expect;
  for (const auto& row : fed.test.features) {
    expect.push_back(plain_.Evaluate(row));
  }

  const Mark before = TakeMark(fed);
  std::vector<double> rps;
  const Clock::time_point phase_start = Clock::now();
  while (rps.size() < kMinSamples ||
         SecondsSince(phase_start) < kPredictShare * opts_.seconds) {
    std::vector<std::vector<double>> preds(kParties);
    report_.attempted += rows;
    const Clock::time_point start = Clock::now();
    Status st = RunParties("pivot.PredictPivotMany", [&](int id) {
      Result<std::vector<double>> r = pivot::PredictPivotMany(
          *fed_->contexts[id], trees_[id], fed.test_rows[id]);
      if (r.ok()) preds[id] = std::move(r).value();
      return r.status();
    });
    const double seconds = SecondsSince(start);
    if (!st.ok()) {
      Fail("bulk prediction", st, rows);
      return false;
    }
    rps.push_back(static_cast<double>(rows) / seconds);
    for (int p = 1; p < kParties; ++p) {
      if (preds[p] != preds[0]) {
        Wrong("party " + std::to_string(p) + " got other predictions");
      }
    }
    if (bulk_.empty()) {
      bulk_ = preds[0];
      int disagree = 0;
      for (size_t i = 0; i < rows; ++i) {
        disagree += bulk_[i] != expect[i];
      }
      if (disagree > 0) {
        Wrong(std::to_string(disagree) + " bulk predictions differ from "
              "the plaintext reference");
      }
    } else if (preds[0] != bulk_) {
      Wrong("bulk predictions changed between passes");
    }
  }
  AddCost(predict_, before, TakeMark(fed));
  predict_.spans.push_back(phase_);
  predict_.repeats = static_cast<int>(rps.size());
  E2e("predict_rps", Percentile(rps, kRatePercentile), "rows/s");
  return true;
}

bool Run::Warmup() {
  // Warm serving state, sized the way `pivot_cli serve` sizes it: one
  // randomness pair per leaf for every request of the fixed-rate run,
  // whatever the protocol draws. Counted in set-up.
  serve_requests_ = std::max(
      kMinServeRequests,
      static_cast<int>(spec_.offered_rps * kServeShare * opts_.seconds));
  prewarm_pairs_ = static_cast<uint64_t>(serve_requests_) *
                   static_cast<uint64_t>(trees_[0].NumLeaves());
  ScopedSpan phase(tracer_, "phase.warmup", -1, -1, -1);
  sessions_.resize(kParties);
  std::vector<Status> status(kParties);
  const Clock::time_point start = Clock::now();
  ForEachParty([&](int p) {
    ScopedSpan span(tracer_, "serve.Warmup", p, phase.index(), phase.index());
    serve::ServeOptions opts;
    opts.batch_size = spec_.batch_size;
    opts.prewarm_pairs = prewarm_pairs_;
    sessions_[p] = std::make_unique<serve::ServingSession>(
        *fed_->contexts[p], trees_[p], opts);
    status[p] = sessions_[p]->Warmup();
  });
  warmup_s_.push_back(SecondsSince(start));
  for (const Status& st : status) {
    if (!st.ok()) {
      Fail("serving warm-up", st, 0);
      return false;
    }
  }
  return true;
}

Result<Run::ServeRun> Run::ServeOnce(double rate, int count,
                                     uint64_t stream) {
  ServeRun run;
  run.arrivals = MakeArrivals(rate, count, fed_->test.features.size(),
                              Mix(opts_.seed, stream));
  std::vector<serve::RequestQueue> queues(kParties);
  std::vector<serve::RequestQueue*> queue_ptrs;
  for (auto& q : queues) queue_ptrs.push_back(&q);
  std::vector<std::vector<double>> preds(kParties);
  std::vector<serve::ServingStats> stats(kParties);
  report_.attempted += count;
  Status st;
  {
    Generator gen(run.arrivals, fed_->test_rows, queue_ptrs);
    st = RunParties("serve.Serve", [&](int id) {
      Result<serve::ServingStats> r =
          sessions_[id]->Serve(queues[id], &preds[id]);
      if (r.ok()) stats[id] = r.value();
      return r.status();
    });
    if (!st.ok()) {
      // Unblock the generator's last pushes; it never waits on servers.
      for (auto& q : queues) q.Close();
    }
    gen.Join();
    run.late_ms = gen.late_ms();
    run.enqueue_ms = gen.enqueue_ms();
  }
  if (!st.ok()) {
    Fail("serving", st, static_cast<uint64_t>(count));
    return st;
  }
  run.stats = stats[0];
  if (!CheckServed(run, preds)) {
    return Status::Internal("served predictions are wrong");
  }
  return run;
}

bool Run::CheckServed(const ServeRun& run,
                      const std::vector<std::vector<double>>& preds) {
  for (int p = 0; p < kParties; ++p) {
    if (preds[p].size() != run.arrivals.rows.size()) {
      Wrong("party " + std::to_string(p) + " answered " +
            std::to_string(preds[p].size()) + " of " +
            std::to_string(run.arrivals.rows.size()) + " requests");
      return false;
    }
    int wrong = 0;
    for (size_t i = 0; i < preds[p].size(); ++i) {
      // The bulk prediction of the same row, which matched the plaintext
      // reference exactly.
      wrong += preds[p][i] != bulk_[run.arrivals.rows[i]];
    }
    if (wrong > 0) {
      Wrong(std::to_string(wrong) + " served predictions differ at party " +
            std::to_string(p));
      return false;
    }
  }
  return true;
}

bool Run::Serve() {
  ScopedSpan phase(tracer_, "phase.serve", -1, -1, -1);
  phase_ = phase.index();
  const Mark before = TakeMark(*fed_);
  std::vector<uint64_t> pool_before;
  for (const auto& ctx : fed_->contexts) {
    pool_before.push_back(ctx->enc_pool().next_index());
  }

  // 1. The fixed offered rate, which the warm state was sized for.
  Result<ServeRun> fixed = ServeOnce(spec_.offered_rps, serve_requests_, 10);
  if (!fixed.ok()) return false;
  serve_stats_ = fixed.value().stats;
  serve_late_p99_ms_ = Percentile(fixed.value().late_ms, 99.0);
  serve_enqueue_p99_ms_ = Percentile(fixed.value().enqueue_ms, 99.0);
  // The warm pairs it drew: each party's advance along its pool's stream,
  // up to the pairs that party prewarmed.
  for (int p = 0; p < kParties; ++p) {
    prewarm_used_ += std::min<uint64_t>(
        prewarm_pairs_,
        fed_->contexts[p]->enc_pool().next_index() - pool_before[p]);
  }

  // 2. Capacity: the rate at which the server drains a backlog of full
  // batches, which is the highest arrival rate it sustains without a
  // growing queue.
  std::vector<double> drains;
  uint64_t stream = 11;
  const Clock::time_point drain_start = Clock::now();
  while (drains.size() < kMinSamples ||
         SecondsSince(drain_start) < kDrainShare * opts_.seconds) {
    Result<ServeRun> drain =
        ServeOnce(0.0, spec_.drain_requests, stream++);
    if (!drain.ok()) return false;
    drains.push_back(drain.value().stats.requests_per_sec);
  }
  AddCost(serve_, before, TakeMark(*fed_));
  serve_.spans.push_back(phase_);
  serve_.repeats = 1;
  E2e("serve_capacity_rps", Percentile(drains, kRatePercentile), "req/s");
  return true;
}

void Run::EmitPhase(const std::string& ph, const PhaseCost& cost) {
  const double per = static_cast<double>(cost.repeats);
  const auto count = [per](uint64_t v) { return static_cast<double>(v) / per; };
  Layer("crypto." + ph + ".ce", count(cost.ce), "count");
  Layer("crypto." + ph + ".cd", count(cost.cd), "count");
  Layer("crypto." + ph + ".pool_hits", count(cost.pool_hits), "count");
  Layer("crypto." + ph + ".pool_misses", count(cost.pool_misses),
        "count");
  Layer("mpc." + ph + ".cs", count(cost.cs), "count");
  Layer("mpc." + ph + ".cc", count(cost.cc), "count");
  Layer("net." + ph + ".mb", cost.mb / per, "MB");
  Layer("net." + ph + ".messages", count(cost.messages), "count");
  Layer("net." + ph + ".rounds", count(cost.rounds), "count");
  Layer("net." + ph + ".nacks", count(cost.nacks), "count");
  Layer("net." + ph + ".retransmits", count(cost.retransmits), "count");
  for (int p = 0; p < kParties; ++p) {
    const std::string party = ".p" + std::to_string(p);
    Layer("net." + ph + ".recv_wait_s" + party, cost.recv_wait_s[p] / per,
          "s");
    double busy_s = 0.0;
    for (int span : cost.spans) busy_s += tracer_.PhasePartySelfSeconds(span, p);
    Layer("pivot." + ph + ".busy_s" + party, busy_s / per, "s");
  }
  Layer("common." + ph + ".pool_tasks", count(cost.pool_tasks), "count");
  Layer("common." + ph + ".batch_calls", count(cost.batch_calls),
        "count");
}

void Run::Probes() {
  ScopedSpan phase(tracer_, "phase.probes", -1, -1, -1);
  const KernelProbes k = ProbeKernels(fed_->keys, spec_.n, Mix(opts_.seed, 7),
                                      tracer_, phase.index());
  Result<MpcProbes> mpc =
      ProbeMpc(*fed_->net, fed_->contexts, spec_.n, tracer_, phase.index());
  if (!mpc.ok()) {
    Fail("MPC probes", mpc.status(), 0);
    return;
  }
  Layer("bigint.montmul_ns", k.montmul_ns, "ns");
  Layer("bigint.modexp_us", k.modexp_us, "us");
  Layer("crypto.keygen_s", Median(keygen_s_), "s");
  Layer("crypto.encrypt_us", k.encrypt_us, "us");
  Layer("crypto.partial_decrypt_us", k.partial_decrypt_us, "us");
  Layer("crypto.scalar_mul_us", k.scalar_mul_us, "us");
  Layer("crypto.dot_indicator_us", k.dot_indicator_us, "us");
  Layer("crypto.prewarm_pairs",
        static_cast<double>(prewarm_pairs_ * kParties), "count");
  Layer("crypto.prewarm_used", static_cast<double>(prewarm_used_), "count");
  Layer("mpc.ltz_us", mpc.value().ltz_us, "us");
  Layer("mpc.mul_us", mpc.value().mul_us, "us");
  Layer("pivot.context_s", Median(context_s_), "s");
  EmitPhase("train", train_);
  EmitPhase("predict", predict_);
  EmitPhase("serve", serve_);
  Layer("serve.warmup_s", Median(warmup_s_), "s");
  Layer("serve.p50_ms", serve_stats_.p50_ms, "ms");
  Layer("serve.p99_ms", serve_stats_.p99_ms, "ms");
  Layer("serve.batches", static_cast<double>(serve_stats_.batches), "count");
  Layer("serve.occupancy", serve_stats_.mean_occupancy, "ratio");
  Layer("serve.max_queue_depth",
        static_cast<double>(serve_stats_.max_queue_depth), "count");
  Layer("serve.enqueue_p99_ms", serve_enqueue_p99_ms_, "ms");
  Layer("serve.gen_late_p99_ms", serve_late_p99_ms_, "ms");
  Layer("mem.setup_rss_mb", setup_rss_mb_, "MB");
  Layer("mem.train_rss_mb", train_rss_mb_, "MB");

  report_.notes.push_back("self time per layer (s, summed over parties):");
  for (const auto& [name, seconds] : tracer_.SelfSeconds()) {
    report_.notes.push_back("  " + name + " " + std::to_string(seconds));
  }
  if (!opts_.trace_path.empty() && !tracer_.WriteChromeTrace(opts_.trace_path)) {
    report_.notes.push_back("cannot write " + opts_.trace_path);
  }
}

RunReport Run::Go() {
  // Set-up, training and the serving warm-up run on kRepeats fresh
  // federations, each with its own key ceremony. The last one bulk-scores
  // the held-out set before its warm-up, so that prediction does not draw
  // the pool warmed for serving, and then serves.
  std::vector<double> setup_s;
  for (int r = 0; r < kRepeats; ++r) {
    sessions_.clear();  // they refer to the previous federation
    Setup(r);
    if (!Train()) return report_;
    if (r + 1 == kRepeats && !Predict()) return report_;
    if (!Warmup()) return report_;
    setup_s.push_back(build_s_.back() + warmup_s_.back());
  }
  E2e("setup_s", Median(setup_s), "s");
  E2e("train_s", Median(train_s_), "s");
  E2e("train_mb", train_.mb / train_.repeats, "MB");
  E2e("train_rounds", static_cast<double>(train_.rounds) / train_.repeats,
      "count");
  if (!Serve()) return report_;
  E2e("peak_rss_mb", PeakRssMb(), "MB");
  if (opts_.trace) Probes();
  return report_;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : kWorkloads) names.emplace_back(w.name);
  return names;
}

RunReport RunWorkload(const WorkloadSpec& spec, const RunOptions& opts) {
  return Run(spec, opts).Go();
}

}  // namespace perfbench
