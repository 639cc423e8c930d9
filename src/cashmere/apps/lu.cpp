// SPLASH-2 blocked dense LU factorization (Section 3.2).
//
// The matrix is divided into square blocks, stored block-contiguously for
// locality; each block is owned by one processor (2D scatter), which
// performs all computation on it. Three barrier-separated phases per step:
// diagonal factorization, perimeter update, interior update. Block
// computations are independent, so the result is bit-identical to the
// sequential reference.
#include "cashmere/apps/apps.hpp"

#include <vector>

namespace cashmere {

namespace {

struct LuGeometry {
  int n;
  int block;
  int nb;  // blocks per dimension

  std::size_t BlockOffset(int bi, int bj) const {
    return (static_cast<std::size_t>(bi) * nb + bj) * block * block;
  }
};

// In-place LU of a b x b diagonal block (no pivoting; matrix constructed
// diagonally dominant).
void FactorDiagonal(double* a, int b) {
  for (int k = 0; k < b; ++k) {
    for (int i = k + 1; i < b; ++i) {
      a[i * b + k] /= a[k * b + k];
      const double lik = a[i * b + k];
      for (int j = k + 1; j < b; ++j) {
        a[i * b + j] -= lik * a[k * b + j];
      }
    }
  }
}

// Row-perimeter block: A := L(diag)^-1 * A (forward solve).
void UpdateRowPerimeter(const double* diag, double* a, int b) {
  for (int k = 0; k < b; ++k) {
    for (int i = k + 1; i < b; ++i) {
      const double lik = diag[i * b + k];
      for (int j = 0; j < b; ++j) {
        a[i * b + j] -= lik * a[k * b + j];
      }
    }
  }
}

// Column-perimeter block: A := A * U(diag)^-1 (backward solve on columns).
void UpdateColPerimeter(const double* diag, double* a, int b) {
  for (int k = 0; k < b; ++k) {
    const double ukk = diag[k * b + k];
    for (int i = 0; i < b; ++i) {
      a[i * b + k] /= ukk;
      const double aik = a[i * b + k];
      for (int j = k + 1; j < b; ++j) {
        a[i * b + j] -= aik * diag[k * b + j];
      }
    }
  }
}

// Interior block: A -= L * U.
void UpdateInterior(const double* l, const double* u, double* a, int b) {
  for (int i = 0; i < b; ++i) {
    for (int k = 0; k < b; ++k) {
      const double lik = l[i * b + k];
      for (int j = 0; j < b; ++j) {
        a[i * b + j] -= lik * u[k * b + j];
      }
    }
  }
}

void InitMatrix(double* a, const LuGeometry& g) {
  // Diagonally dominant deterministic matrix (stable without pivoting).
  for (int bi = 0; bi < g.nb; ++bi) {
    for (int bj = 0; bj < g.nb; ++bj) {
      double* blk = a + g.BlockOffset(bi, bj);
      for (int i = 0; i < g.block; ++i) {
        for (int j = 0; j < g.block; ++j) {
          const int gi = bi * g.block + i;
          const int gj = bj * g.block + j;
          double v = 0.5 + 0.25 * (((gi * 131 + gj * 17) % 97) / 97.0);
          if (gi == gj) {
            v += 2.0 * g.n;
          }
          blk[i * g.block + j] = v;
        }
      }
    }
  }
}

// 2D processor scatter: choose pr x pc close to square.
void ProcGrid(int procs, int* pr, int* pc) {
  int r = 1;
  for (int d = 1; d * d <= procs; ++d) {
    if (procs % d == 0) {
      r = d;
    }
  }
  *pr = r;
  *pc = procs / r;
}

int OwnerOf(int bi, int bj, int pr, int pc) { return (bi % pr) * pc + (bj % pc); }

void FactorStep(double* a, const LuGeometry& g, int k, int me, int procs, int pr, int pc,
                int phase) {
  double* diag = a + g.BlockOffset(k, k);
  switch (phase) {
    case 0:
      if (me < 0 || OwnerOf(k, k, pr, pc) == me) {
        FactorDiagonal(diag, g.block);
      }
      break;
    case 1:
      for (int j = k + 1; j < g.nb; ++j) {
        if (me < 0 || OwnerOf(k, j, pr, pc) == me) {
          UpdateRowPerimeter(diag, a + g.BlockOffset(k, j), g.block);
        }
      }
      for (int i = k + 1; i < g.nb; ++i) {
        if (me < 0 || OwnerOf(i, k, pr, pc) == me) {
          UpdateColPerimeter(diag, a + g.BlockOffset(i, k), g.block);
        }
      }
      break;
    case 2:
      for (int i = k + 1; i < g.nb; ++i) {
        const double* l = a + g.BlockOffset(i, k);
        for (int j = k + 1; j < g.nb; ++j) {
          if (me < 0 || OwnerOf(i, j, pr, pc) == me) {
            UpdateInterior(l, a + g.BlockOffset(k, j), a + g.BlockOffset(i, j), g.block);
          }
        }
      }
      break;
    default:
      break;
  }
}

double Checksum(const double* a, const LuGeometry& g) {
  double sum = 0.0;
  const std::size_t total = static_cast<std::size_t>(g.n) * g.n;
  for (std::size_t i = 0; i < total; ++i) {
    sum += a[i] * ((i % 13) + 1);
  }
  return sum;
}

}  // namespace

LuApp::LuApp(int size_class) {
  switch (size_class) {
    case kSizeTest:
      n_ = 64;
      block_ = 16;
      data_mbytes32_ = 0.1595;
      break;
    case kSizeLarge:
      n_ = 384;
      block_ = 32;
      data_mbytes32_ = 7.1621;
      break;
    default:
      n_ = 192;
      block_ = 16;
      data_mbytes32_ = 2.4037;
      break;
  }
}

std::size_t LuApp::HeapBytes() const {
  return static_cast<std::size_t>(n_) * n_ * sizeof(double);
}

std::string LuApp::ProblemSize() const {
  return std::to_string(n_) + "x" + std::to_string(n_) + " b" + std::to_string(block_);
}

double LuApp::RunParallel(Runtime& rt) {
  const LuGeometry g{n_, block_, n_ / block_};
  const GlobalAddr a_addr = rt.heap().AllocPageAligned(HeapBytes());
  rt.Run([&](Context& ctx) {
    double* a = ctx.Ptr<double>(a_addr);
    int pr = 1;
    int pc = 1;
    ProcGrid(ctx.total_procs(), &pr, &pc);
    if (ctx.proc() == 0) {
      InitMatrix(a, g);
    }
    ctx.Barrier(0);
    ctx.InitDone();
    for (int k = 0; k < g.nb; ++k) {
      ctx.Poll();
      FactorStep(a, g, k, ctx.proc(), ctx.total_procs(), pr, pc, 0);
      ctx.Barrier(0);
      FactorStep(a, g, k, ctx.proc(), ctx.total_procs(), pr, pc, 1);
      ctx.Barrier(0);
      FactorStep(a, g, k, ctx.proc(), ctx.total_procs(), pr, pc, 2);
      ctx.Barrier(0);
    }
  });
  std::vector<double> out(static_cast<std::size_t>(n_) * n_);
  rt.CopyOut(a_addr, out.data(), out.size() * sizeof(double));
  return Checksum(out.data(), g);
}

double LuApp::RunSequential() {
  const LuGeometry g{n_, block_, n_ / block_};
  std::vector<double> a(static_cast<std::size_t>(n_) * n_);
  InitMatrix(a.data(), g);
  for (int k = 0; k < g.nb; ++k) {
    FactorStep(a.data(), g, k, -1, 1, 1, 1, 0);
    FactorStep(a.data(), g, k, -1, 1, 1, 1, 1);
    FactorStep(a.data(), g, k, -1, 1, 1, 1, 2);
  }
  return Checksum(a.data(), g);
}

CASHMERE_REGISTER_APP(LuApp, AppKind::kLu, "LU");

}  // namespace cashmere
