#include "probes.h"

#include <functional>

#include "common/fixed_point.h"
#include "common/rng.h"
#include "crypto/paillier_batch.h"
#include "mpc/field.h"

namespace perfbench {

using pivot::BigInt;
using pivot::Ciphertext;
using pivot::Result;
using pivot::Status;

namespace {

constexpr int kReps = 5;

// Median over kReps batches of the per-call time of `op` in microseconds;
// one span per probe.
double TimeUs(Tracer& tracer, int parent, const char* name, int calls,
              const std::function<void()>& op) {
  ScopedSpan span(tracer, name, -1, parent, parent);
  std::vector<double> per_call;
  for (int r = 0; r < kReps; ++r) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < calls; ++i) op();
    per_call.push_back(SecondsSince(start) * 1e6 / calls);
  }
  return Median(per_call);
}

}  // namespace

KernelProbes ProbeKernels(const pivot::ThresholdPaillier& keys, int n,
                          uint64_t seed, Tracer& tracer, int parent) {
  const pivot::PaillierPublicKey& pk = keys.pk;
  pivot::Rng rng(seed);
  KernelProbes out;

  const pivot::MontgomeryContext& mont = pk.mont_n2();
  BigInt a = mont.ToMontgomery(BigInt::RandomBelow(pk.n_squared(), rng));
  const BigInt b = mont.ToMontgomery(BigInt::RandomBelow(pk.n_squared(), rng));
  out.montmul_ns =
      1e3 * TimeUs(tracer, parent, "bigint.MontMul", 2000,
                   [&] { a = mont.MontMul(a, b); });

  const BigInt r = BigInt::RandomBelow(pk.n(), rng);
  BigInt sink;
  out.modexp_us = TimeUs(tracer, parent, "bigint.ModExp", 4,
                         [&] { sink = pk.PowModN2(r, pk.n()); });

  const BigInt m = BigInt::RandomBits(64, rng);
  Ciphertext c = pk.Encrypt(m, rng);
  out.encrypt_us = TimeUs(tracer, parent, "crypto.Encrypt", 4,
                          [&] { c = pk.Encrypt(m, rng); });

  out.partial_decrypt_us =
      TimeUs(tracer, parent, "crypto.PartialDecrypt", 4, [&] {
        sink = pivot::PartialDecrypt(pk, keys.partial_keys[0], c).value;
      });

  const BigInt k = BigInt::RandomBits(64, rng);
  Ciphertext scaled;
  out.scalar_mul_us = TimeUs(tracer, parent, "crypto.ScalarMul", 16,
                             [&] { scaled = pk.ScalarMul(k, c); });

  std::vector<Ciphertext> cts;
  std::vector<uint8_t> indicator;
  cts.reserve(n);
  for (int i = 0; i < n; ++i) {
    cts.push_back(pk.Encrypt(BigInt(rng.NextBelow(2)), rng));
    indicator.push_back(static_cast<uint8_t>(rng.NextBelow(2)));
  }
  const pivot::PreparedCiphertexts prepared(pk, cts);
  out.dot_indicator_us =
      TimeUs(tracer, parent, "crypto.DotIndicator", 4,
             [&] { scaled = prepared.DotIndicator(indicator, false); });
  return out;
}

Result<MpcProbes> ProbeMpc(
    pivot::InMemoryNetwork& net,
    std::vector<std::unique_ptr<pivot::PartyContext>>& contexts, int n,
    Tracer& tracer, int parent) {
  std::vector<MpcProbes> per_party(contexts.size());
  PIVOT_RETURN_IF_ERROR(pivot::RunParties(
      net, [&](int id, pivot::Endpoint&) -> Status {
        pivot::PartyContext& ctx = *contexts[id];
        pivot::MpcEngine& eng = ctx.engine();
        // Party 0 holds the values, the others hold zero shares.
        std::vector<pivot::u128> xs(n, 0), ys(n, 0);
        if (id == 0) {
          for (int i = 0; i < n; ++i) {
            xs[i] = pivot::FpFromSigned(pivot::FixedFromDouble(i - n / 2));
            ys[i] = pivot::FpFromSigned(pivot::FixedFromDouble(0.5 * i));
          }
        }
        const int k_bound = ctx.params().mpc.value_bits;
        std::vector<double> ltz, mul;
        for (int r = 0; r < kReps; ++r) {
          ScopedSpan span(tracer, "mpc.LessThanZeroVec", id, parent, parent);
          const Clock::time_point start = Clock::now();
          PIVOT_RETURN_IF_ERROR(eng.LessThanZeroVec(xs, k_bound).status());
          ltz.push_back(SecondsSince(start) * 1e6 / n);
        }
        for (int r = 0; r < kReps; ++r) {
          ScopedSpan span(tracer, "mpc.MulVec", id, parent, parent);
          const Clock::time_point start = Clock::now();
          PIVOT_RETURN_IF_ERROR(eng.MulVec(xs, ys).status());
          mul.push_back(SecondsSince(start) * 1e6 / n);
        }
        per_party[id] = MpcProbes{Median(ltz), Median(mul)};
        return Status::Ok();
      }));
  return per_party[0];
}

}  // namespace perfbench
