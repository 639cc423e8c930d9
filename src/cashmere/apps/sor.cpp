// Red-Black Successive Over-Relaxation (Section 3.2).
//
// The grid is divided into roughly equal bands of rows, one band per
// processor; communication happens across band boundaries; processors
// synchronize with barriers after each colour phase. The red/black split
// makes the computation deterministic, so the parallel checksum matches the
// sequential reference bit for bit.
#include "cashmere/apps/apps.hpp"

#include <vector>

namespace cashmere {

namespace {

// One colour phase over rows [row_begin, row_end).
void RelaxPhase(double* grid, int rows, int cols, int row_begin, int row_end, int colour) {
  for (int i = row_begin; i < row_end; ++i) {
    if (i == 0 || i == rows - 1) {
      continue;  // fixed boundary
    }
    double* row = grid + static_cast<std::size_t>(i) * cols;
    const double* up = row - cols;
    const double* down = row + cols;
    for (int j = 1 + ((i + 1 + colour) % 2); j < cols - 1; j += 2) {
      row[j] = 0.25 * (up[j] + down[j] + row[j - 1] + row[j + 1]);
    }
  }
}

void InitGrid(double* grid, int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      const bool boundary = i == 0 || i == rows - 1 || j == 0 || j == cols - 1;
      grid[static_cast<std::size_t>(i) * cols + j] = boundary ? 1.0 : 0.0;
    }
  }
}

double Checksum(const double* grid, int rows, int cols) {
  double sum = 0.0;
  for (std::size_t k = 0; k < static_cast<std::size_t>(rows) * cols; ++k) {
    sum += grid[k];
  }
  return sum;
}

}  // namespace

SorApp::SorApp(int size_class) {
  switch (size_class) {
    case kSizeTest:
      rows_ = 48;
      cols_ = 64;
      iters_ = 4;
      data_mbytes32_ = 0.5763;
      break;
    case kSizeLarge:
      rows_ = 512;
      cols_ = 512;
      iters_ = 24;
      data_mbytes32_ = 9.8996;
      break;
    default:
      rows_ = 192;
      cols_ = 256;
      iters_ = 12;
      data_mbytes32_ = 3.3242;
      break;
  }
}

std::size_t SorApp::HeapBytes() const {
  return static_cast<std::size_t>(rows_) * cols_ * sizeof(double);
}

std::string SorApp::ProblemSize() const {
  return std::to_string(rows_) + "x" + std::to_string(cols_) + " x" + std::to_string(iters_);
}

double SorApp::RunParallel(Runtime& rt) {
  const GlobalAddr grid_addr = rt.heap().AllocPageAligned(HeapBytes());
  const int rows = rows_;
  const int cols = cols_;
  const int iters = iters_;
  rt.Run([&](Context& ctx) {
    double* grid = ctx.Ptr<double>(grid_addr);
    const int procs = ctx.total_procs();
    const int band = (rows + procs - 1) / procs;
    const int begin = ctx.proc() * band;
    const int end = begin + band < rows ? begin + band : rows;
    if (ctx.proc() == 0) {
      InitGrid(grid, rows, cols);
    }
    ctx.Barrier(0);
    ctx.InitDone();
    for (int it = 0; it < iters; ++it) {
      ctx.Poll();
      RelaxPhase(grid, rows, cols, begin, end, 0);
      ctx.Barrier(0);
      RelaxPhase(grid, rows, cols, begin, end, 1);
      ctx.Barrier(0);
    }
  });
  std::vector<double> out(static_cast<std::size_t>(rows) * cols);
  rt.CopyOut(grid_addr, out.data(), out.size() * sizeof(double));
  return Checksum(out.data(), rows, cols);
}

double SorApp::RunSequential() {
  std::vector<double> grid(static_cast<std::size_t>(rows_) * cols_);
  InitGrid(grid.data(), rows_, cols_);
  for (int it = 0; it < iters_; ++it) {
    RelaxPhase(grid.data(), rows_, cols_, 0, rows_, 0);
    RelaxPhase(grid.data(), rows_, cols_, 0, rows_, 1);
  }
  return Checksum(grid.data(), rows_, cols_);
}

CASHMERE_REGISTER_APP(SorApp, AppKind::kSor, "SOR");

}  // namespace cashmere
