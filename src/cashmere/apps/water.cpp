// SPLASH-1 Water (Section 3.2), simplified to its sharing pattern: an
// n-squared molecular-dynamics step. The shared molecule array is divided
// into equal contiguous chunks; the inter-molecular force phase accumulates
// into other processors' molecules under per-molecule locks, producing the
// migratory sharing (and false sharing) the paper analyses; barriers
// separate phases.
//
// Force accumulation order differs between schedules, so verification uses
// a small relative tolerance.
#include "cashmere/apps/apps.hpp"

#include <cmath>
#include <vector>

namespace cashmere {

namespace {

struct Mol {
  double pos[3];
  double vel[3];
  double force[3];
};

constexpr double kDt = 1e-3;
constexpr double kCutoff2 = 6.25;  // cutoff distance squared
constexpr int kLockStride = 64;    // locks 64.. are molecule locks

void InitMols(Mol* mols, int n) {
  // Deterministic pseudo-random cloud in a box sized so the cutoff keeps a
  // healthy number of interacting pairs.
  const double box = std::cbrt(static_cast<double>(n)) * 1.2;
  std::uint64_t s = 12345;
  auto next = [&s] {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(s >> 11) * 0x1.0p-53;
  };
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < 3; ++d) {
      mols[i].pos[d] = next() * box;
      mols[i].vel[d] = (next() - 0.5) * 0.1;
      mols[i].force[d] = 0.0;
    }
  }
}

// Pair force: soft Lennard-Jones-ish with cutoff; returns force on i (j
// receives the negation).
bool PairForce(const Mol& a, const Mol& b, double* f) {
  double d[3];
  double r2 = 0.0;
  for (int k = 0; k < 3; ++k) {
    d[k] = a.pos[k] - b.pos[k];
    r2 += d[k] * d[k];
  }
  if (r2 >= kCutoff2 || r2 < 1e-12) {
    return false;
  }
  const double inv2 = 1.0 / (r2 + 0.1);
  const double mag = inv2 * inv2 - 0.02 * inv2;
  for (int k = 0; k < 3; ++k) {
    f[k] = mag * d[k];
  }
  return true;
}

void Integrate(Mol* mols, int begin, int end) {
  for (int i = begin; i < end; ++i) {
    for (int k = 0; k < 3; ++k) {
      mols[i].vel[k] += mols[i].force[k] * kDt;
      mols[i].pos[k] += mols[i].vel[k] * kDt;
      mols[i].force[k] = 0.0;
    }
  }
}

double Checksum(const Mol* mols, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < 3; ++k) {
      sum += mols[i].pos[k] + 0.1 * mols[i].vel[k];
    }
  }
  return sum;
}

}  // namespace

WaterApp::WaterApp(int size_class) {
  switch (size_class) {
    case kSizeTest:
      mols_ = 64;
      steps_ = 2;
      data_mbytes32_ = 4.0491;
      break;
    case kSizeLarge:
      mols_ = 512;
      steps_ = 4;
      data_mbytes32_ = 16.9354;
      break;
    default:
      mols_ = 216;
      steps_ = 3;
      data_mbytes32_ = 17.6247;
      break;
  }
}

std::size_t WaterApp::HeapBytes() const { return static_cast<std::size_t>(mols_) * sizeof(Mol); }

SyncShape WaterApp::Sync() const {
  SyncShape s;
  s.locks = kLockStride + mols_;
  return s;
}

std::string WaterApp::ProblemSize() const {
  return std::to_string(mols_) + " mols x" + std::to_string(steps_);
}

double WaterApp::RunParallel(Runtime& rt) {
  const GlobalAddr mols_addr = rt.heap().AllocPageAligned(HeapBytes());
  const int n = mols_;
  const int steps = steps_;
  rt.Run([&](Context& ctx) {
    Mol* mols = ctx.Ptr<Mol>(mols_addr);
    const int procs = ctx.total_procs();
    const int chunk = (n + procs - 1) / procs;
    const int begin = ctx.proc() * chunk;
    const int end = begin + chunk < n ? begin + chunk : n;
    if (ctx.proc() == 0) {
      InitMols(mols, n);
    }
    ctx.Barrier(0);
    ctx.InitDone();
    std::vector<double> acc(static_cast<std::size_t>(n) * 3, 0.0);
    for (int step = 0; step < steps; ++step) {
      // Inter-molecular forces: i in my chunk, j > i anywhere. Local
      // accumulation first, then lock-protected updates into the shared
      // array — the migratory pattern the paper describes.
      std::fill(acc.begin(), acc.end(), 0.0);
      for (int i = begin; i < end; ++i) {
        ctx.Poll();
        for (int j = i + 1; j < n; ++j) {
          double f[3];
          if (PairForce(mols[i], mols[j], f)) {
            for (int k = 0; k < 3; ++k) {
              acc[static_cast<std::size_t>(i) * 3 + k] += f[k];
              acc[static_cast<std::size_t>(j) * 3 + k] -= f[k];
            }
          }
        }
      }
      for (int i = 0; i < n; ++i) {
        const double* a = &acc[static_cast<std::size_t>(i) * 3];
        if (a[0] == 0.0 && a[1] == 0.0 && a[2] == 0.0) {
          continue;
        }
        ctx.LockAcquire(kLockStride + i);
        for (int k = 0; k < 3; ++k) {
          mols[i].force[k] += a[k];
        }
        ctx.LockRelease(kLockStride + i);
      }
      ctx.Barrier(0);
      Integrate(mols, begin, end);
      ctx.Barrier(0);
    }
  });
  std::vector<Mol> out(static_cast<std::size_t>(n));
  rt.CopyOut(mols_addr, out.data(), out.size() * sizeof(Mol));
  return Checksum(out.data(), n);
}

double WaterApp::RunSequential() {
  std::vector<Mol> mols(static_cast<std::size_t>(mols_));
  InitMols(mols.data(), mols_);
  for (int step = 0; step < steps_; ++step) {
    for (int i = 0; i < mols_; ++i) {
      for (int j = i + 1; j < mols_; ++j) {
        double f[3];
        if (PairForce(mols[i], mols[j], f)) {
          for (int k = 0; k < 3; ++k) {
            mols[i].force[k] += f[k];
            mols[j].force[k] -= f[k];
          }
        }
      }
    }
    Integrate(mols.data(), 0, mols_);
  }
  return Checksum(mols.data(), mols_);
}

CASHMERE_REGISTER_APP(WaterApp, AppKind::kWater, "Water");

}  // namespace cashmere
