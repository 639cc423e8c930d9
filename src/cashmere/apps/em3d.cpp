// Em3d (Section 3.2) — electromagnetic wave propagation through 3D objects
// (from Split-C). The major data structure is an array of electric and
// magnetic nodes, equally distributed among processors. With the standard
// input, a node depends only on nodes owned by the same or neighbouring
// processors, which is what the nearest-neighbour dependency pattern below
// reproduces. Barriers separate the E and H update phases; updates are
// per-element deterministic, so results are bit-exact.
#include "cashmere/apps/apps.hpp"

#include <vector>

#include "cashmere/common/rng.hpp"

namespace cashmere {

namespace {

// Dependencies of element i: `degree` neighbours centred on i in the other
// field's array (wrapping), with deterministic weights.
void UpdateField(double* dst, const double* src, int n, int degree, int begin, int end) {
  for (int i = begin; i < end; ++i) {
    double v = dst[i];
    for (int d = 0; d < degree; ++d) {
      const int j = (i + d - degree / 2 + n) % n;
      const double w = 0.01 + 0.002 * ((i * 7 + d * 13) % 11);
      v -= w * src[j];
    }
    dst[i] = v * 0.999;
  }
}

void InitField(double* f, int n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  for (int i = 0; i < n; ++i) {
    f[i] = rng.NextDouble() - 0.5;
  }
}

double Checksum(const double* e, const double* h, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += e[i] - h[i];
  }
  return sum;
}

}  // namespace

Em3dApp::Em3dApp(int size_class) {
  degree_ = 5;
  switch (size_class) {
    case kSizeTest:
      nodes_ = 4096;
      iters_ = 4;
      data_mbytes32_ = 0.8778;
      break;
    case kSizeLarge:
      nodes_ = 65536;
      iters_ = 20;
      data_mbytes32_ = 11.0022;
      break;
    default:
      nodes_ = 16384;
      iters_ = 10;
      data_mbytes32_ = 3.3931;
      break;
  }
}

std::size_t Em3dApp::HeapBytes() const {
  return 2 * static_cast<std::size_t>(nodes_ / 2) * sizeof(double);
}

std::string Em3dApp::ProblemSize() const {
  return std::to_string(nodes_) + " nodes x" + std::to_string(iters_);
}

double Em3dApp::RunParallel(Runtime& rt) {
  const int half = nodes_ / 2;
  const int degree = degree_;
  const int iters = iters_;
  const GlobalAddr e_addr =
      rt.heap().AllocPageAligned(static_cast<std::size_t>(half) * sizeof(double));
  const GlobalAddr h_addr =
      rt.heap().AllocPageAligned(static_cast<std::size_t>(half) * sizeof(double));
  rt.Run([&](Context& ctx) {
    double* e = ctx.Ptr<double>(e_addr);
    double* h = ctx.Ptr<double>(h_addr);
    const int procs = ctx.total_procs();
    const int chunk = (half + procs - 1) / procs;
    const int begin = ctx.proc() * chunk;
    const int end = begin + chunk < half ? begin + chunk : half;
    if (ctx.proc() == 0) {
      InitField(e, half, 111);
      InitField(h, half, 222);
    }
    ctx.Barrier(0);
    ctx.InitDone();
    for (int it = 0; it < iters; ++it) {
      ctx.Poll();
      UpdateField(e, h, half, degree, begin, end);
      ctx.Barrier(0);
      UpdateField(h, e, half, degree, begin, end);
      ctx.Barrier(0);
    }
  });
  std::vector<double> e(static_cast<std::size_t>(half));
  std::vector<double> h(static_cast<std::size_t>(half));
  rt.CopyOut(e_addr, e.data(), e.size() * sizeof(double));
  rt.CopyOut(h_addr, h.data(), h.size() * sizeof(double));
  return Checksum(e.data(), h.data(), half);
}

double Em3dApp::RunSequential() {
  const int half = nodes_ / 2;
  std::vector<double> e(static_cast<std::size_t>(half));
  std::vector<double> h(static_cast<std::size_t>(half));
  InitField(e.data(), half, 111);
  InitField(h.data(), half, 222);
  for (int it = 0; it < iters_; ++it) {
    UpdateField(e.data(), h.data(), half, degree_, 0, half);
    UpdateField(h.data(), e.data(), half, degree_, 0, half);
  }
  return Checksum(e.data(), h.data(), half);
}

CASHMERE_REGISTER_APP(Em3dApp, AppKind::kEm3d, "Em3d");

}  // namespace cashmere
