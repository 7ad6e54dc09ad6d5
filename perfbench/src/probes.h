#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

// Kernel probes of the traced mode: the bigint, Paillier and MPC kernels
// timed in isolation at the workload's modulus and n, so a change in one
// layer can be told apart from a change in the protocol above it.

#include <memory>
#include <vector>

#include "crypto/threshold_paillier.h"
#include "net/network.h"
#include "pivot/context.h"
#include "trace.h"

namespace perfbench {

struct KernelProbes {
  double montmul_ns = 0.0;          // one Montgomery product mod n^2
  double modexp_us = 0.0;           // one r^n mod n^2
  double encrypt_us = 0.0;          // one Encrypt (fresh randomness)
  double partial_decrypt_us = 0.0;  // one party's partial decryption
  double scalar_mul_us = 0.0;       // one ScalarMul by a 64-bit scalar
  double dot_indicator_us = 0.0;    // one n-long 0/1 indicator dot product
};

// Single-threaded, on the calling thread; each figure is the median of
// several timed batches. Every probe is recorded as a span under `parent`.
KernelProbes ProbeKernels(const pivot::ThresholdPaillier& keys, int n,
                          uint64_t seed, Tracer& tracer, int parent);

struct MpcProbes {
  double ltz_us = 0.0;  // per element of one LessThanZeroVec
  double mul_us = 0.0;  // per element of one MulVec
};

// Runs on the federation's 3-party mesh over vectors of `n` elements.
pivot::Result<MpcProbes> ProbeMpc(
    pivot::InMemoryNetwork& net,
    std::vector<std::unique_ptr<pivot::PartyContext>>& contexts, int n,
    Tracer& tracer, int parent);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
