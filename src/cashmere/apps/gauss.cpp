// Gaussian elimination with back-substitution (Section 3.2).
//
// Rows of the augmented matrix are distributed cyclically for load balance;
// a synchronization flag per row announces that the pivot row is available
// (single-producer/multiple-consumer — the paper notes this is ideally a
// broadcast, which is why Gauss benefits so strongly from intra-node
// sharing). Elimination order is fixed, so results are bit-exact.
#include "cashmere/apps/apps.hpp"

#include <cmath>
#include <vector>

namespace cashmere {

namespace {

void InitSystem(double* a, int n) {
  // Augmented matrix n x (n+1): diagonally dominant, deterministic.
  const int w = n + 1;
  for (int i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (int j = 0; j < n; ++j) {
      const double v = 0.1 + ((i * 37 + j * 11) % 53) / 53.0;
      a[static_cast<std::size_t>(i) * w + j] = v;
      row_sum += v;
    }
    a[static_cast<std::size_t>(i) * w + i] += row_sum;  // dominance
    a[static_cast<std::size_t>(i) * w + n] = 1.0 + (i % 7);  // rhs
  }
}

void EliminateRow(double* a, int n, int i, int k) {
  const int w = n + 1;
  double* ri = a + static_cast<std::size_t>(i) * w;
  const double* rk = a + static_cast<std::size_t>(k) * w;
  const double factor = ri[k] / rk[k];
  for (int j = k; j <= n; ++j) {
    ri[j] -= factor * rk[j];
  }
}

void BackSubstitute(const double* a, int n, double* x) {
  const int w = n + 1;
  for (int i = n - 1; i >= 0; --i) {
    double v = a[static_cast<std::size_t>(i) * w + n];
    for (int j = i + 1; j < n; ++j) {
      v -= a[static_cast<std::size_t>(i) * w + j] * x[j];
    }
    x[i] = v / a[static_cast<std::size_t>(i) * w + i];
  }
}

double Checksum(const double* x, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += x[i] * ((i % 11) + 1);
  }
  return sum;
}

}  // namespace

GaussApp::GaussApp(int size_class) {
  switch (size_class) {
    case kSizeTest:
      n_ = 64;
      data_mbytes32_ = 2.1391;
      break;
    case kSizeLarge:
      n_ = 320;
      data_mbytes32_ = 25.1320;
      break;
    default:
      n_ = 160;
      data_mbytes32_ = 8.6089;
      break;
  }
}

std::size_t GaussApp::HeapBytes() const {
  return static_cast<std::size_t>(n_) * (n_ + 1) * sizeof(double) +
         static_cast<std::size_t>(n_) * sizeof(double);
}

SyncShape GaussApp::Sync() const {
  SyncShape s;
  s.flags = n_ + 8;
  return s;
}

std::string GaussApp::ProblemSize() const {
  return std::to_string(n_) + "x" + std::to_string(n_);
}

double GaussApp::RunParallel(Runtime& rt) {
  const int n = n_;
  const GlobalAddr a_addr =
      rt.heap().AllocPageAligned(static_cast<std::size_t>(n) * (n + 1) * sizeof(double));
  const GlobalAddr x_addr = rt.heap().AllocPageAligned(static_cast<std::size_t>(n) * sizeof(double));
  rt.Run([&](Context& ctx) {
    double* a = ctx.Ptr<double>(a_addr);
    const int procs = ctx.total_procs();
    if (ctx.proc() == 0) {
      InitSystem(a, n);
    }
    ctx.Barrier(0);
    ctx.InitDone();
    // Cyclic row ownership: row i belongs to processor i % procs. A row is
    // published through its flag once it has been eliminated against every
    // earlier pivot.
    if (0 % procs == ctx.proc()) {
      ctx.FlagSet(0, 1);  // row 0 is a ready pivot immediately
    }
    for (int k = 0; k < n - 1; ++k) {
      ctx.Poll();
      ctx.FlagWaitGe(k, 1);
      for (int i = k + 1; i < n; ++i) {
        if (i % procs != ctx.proc()) {
          continue;
        }
        EliminateRow(a, n, i, k);
        if (i == k + 1) {
          ctx.FlagSet(k + 1, 1);  // next pivot row fully eliminated
        }
      }
    }
    ctx.Barrier(0);
    if (ctx.proc() == 0) {
      double* x = ctx.Ptr<double>(x_addr);
      BackSubstitute(a, n, x);
    }
    ctx.Barrier(0);
  });
  std::vector<double> x(static_cast<std::size_t>(n));
  rt.CopyOut(x_addr, x.data(), x.size() * sizeof(double));
  return Checksum(x.data(), n);
}

double GaussApp::RunSequential() {
  const int n = n_;
  std::vector<double> a(static_cast<std::size_t>(n) * (n + 1));
  InitSystem(a.data(), n);
  for (int k = 0; k < n - 1; ++k) {
    for (int i = k + 1; i < n; ++i) {
      EliminateRow(a.data(), n, i, k);
    }
  }
  std::vector<double> x(static_cast<std::size_t>(n));
  BackSubstitute(a.data(), n, x.data());
  return Checksum(x.data(), n);
}

CASHMERE_REGISTER_APP(GaussApp, AppKind::kGauss, "Gauss");

}  // namespace cashmere
