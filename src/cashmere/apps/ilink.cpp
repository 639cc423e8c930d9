// Ilink (Section 3.2) — genetic linkage analysis from FASTLINK.
//
// The real inputs are proprietary pedigree data; this synthetic workload
// reproduces the communication structure the paper analyses: the main
// shared data is a pool of sparse arrays of genotype probabilities;
// non-zero elements are assigned to processors round-robin; computation is
// master-slave with one-to-all distribution of the updated pool and
// all-to-one collection of partial results, barriers for synchronization,
// and an inherent serial component that limits scalability.
#include "cashmere/apps/apps.hpp"

#include <cmath>
#include <vector>

namespace cashmere {

namespace {

double Recombine(double p, double theta) { return p * (1.0 - theta) + (1.0 - p) * theta; }

}  // namespace

IlinkApp::IlinkApp(int size_class) {
  switch (size_class) {
    case kSizeTest:
      buckets_ = 2048;
      iters_ = 6;
      sparsity_ = 3;
      data_mbytes32_ = 2.0875;
      break;
    case kSizeLarge:
      buckets_ = 32768;
      iters_ = 40;
      sparsity_ = 3;
      data_mbytes32_ = 72.6890;
      break;
    default:
      buckets_ = 8192;
      iters_ = 16;
      sparsity_ = 3;
      data_mbytes32_ = 10.5464;
      break;
  }
}

std::size_t IlinkApp::HeapBytes() const {
  return static_cast<std::size_t>(buckets_) * sizeof(double) +
         static_cast<std::size_t>(kMaxProcs) * kPageBytes;
}

std::string IlinkApp::ProblemSize() const {
  return std::to_string(buckets_) + " buckets x" + std::to_string(iters_);
}

double IlinkApp::RunParallel(Runtime& rt) {
  const int buckets = buckets_;
  const int iters = iters_;
  const int sparsity = sparsity_;
  const GlobalAddr pool_addr =
      rt.heap().AllocPageAligned(static_cast<std::size_t>(buckets) * sizeof(double));
  // One page-separated result slot per processor (all-to-one collection).
  const GlobalAddr partial_addr =
      rt.heap().AllocPageAligned(static_cast<std::size_t>(kMaxProcs) * kPageBytes);
  const GlobalAddr total_addr = rt.heap().AllocPageAligned(sizeof(double));
  rt.Run([&](Context& ctx) {
    double* pool = ctx.Ptr<double>(pool_addr);
    const int procs = ctx.total_procs();
    if (ctx.proc() == 0) {
      for (int b = 0; b < buckets; ++b) {
        pool[b] = (b % sparsity == 0) ? 0.5 + 0.4 * std::sin(0.01 * b) : 0.0;
      }
      *ctx.Ptr<double>(total_addr) = 0.0;
    }
    ctx.Barrier(0);
    ctx.InitDone();
    for (int t = 0; t < iters; ++t) {
      ctx.Poll();
      // Serial master phase: update the genotype-probability pool
      // (one-to-all communication; the serial component).
      if (ctx.proc() == 0) {
        const double theta = 0.01 + 0.3 * (t % 5) / 5.0;
        for (int b = 0; b < buckets; b += sparsity) {
          pool[b] = Recombine(pool[b], theta);
        }
      }
      ctx.Barrier(0);
      // Parallel slave phase: round-robin non-zeros; each processor writes
      // its page-separated partial likelihood (all-to-one).
      double local = 0.0;
      int idx = 0;
      for (int b = 0; b < buckets; b += sparsity, ++idx) {
        if (idx % procs != ctx.proc()) {
          continue;
        }
        const double p = pool[b];
        local += std::log(p * p + 0.5) + p * (1.0 - p);
      }
      double* mine =
          ctx.Ptr<double>(partial_addr + static_cast<GlobalAddr>(ctx.proc()) * kPageBytes);
      *mine = local;
      ctx.Barrier(0);
      // Serial reduction by the master (fixed order: deterministic).
      if (ctx.proc() == 0) {
        double sum = 0.0;
        for (int p = 0; p < procs; ++p) {
          sum += *ctx.Ptr<double>(partial_addr + static_cast<GlobalAddr>(p) * kPageBytes);
        }
        *ctx.Ptr<double>(total_addr) += sum;
      }
      ctx.Barrier(0);
    }
  });
  return rt.Read<double>(total_addr);
}

double IlinkApp::RunSequential() {
  std::vector<double> pool(static_cast<std::size_t>(buckets_));
  for (int b = 0; b < buckets_; ++b) {
    pool[b] = (b % sparsity_ == 0) ? 0.5 + 0.4 * std::sin(0.01 * b) : 0.0;
  }
  double total = 0.0;
  for (int t = 0; t < iters_; ++t) {
    const double theta = 0.01 + 0.3 * (t % 5) / 5.0;
    for (int b = 0; b < buckets_; b += sparsity_) {
      pool[b] = Recombine(pool[b], theta);
    }
    double sum = 0.0;
    for (int b = 0; b < buckets_; b += sparsity_) {
      const double p = pool[b];
      sum += std::log(p * p + 0.5) + p * (1.0 - p);
    }
    total += sum;
  }
  return total;
}

CASHMERE_REGISTER_APP(IlinkApp, AppKind::kIlink, "Ilink");

}  // namespace cashmere
