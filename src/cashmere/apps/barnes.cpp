// SPLASH-1 Barnes-Hut n-body simulation (Section 3.2).
//
// The major shared structures are two arrays: the bodies and the cells (the
// octree). As in the paper's version, tree construction is sequential
// (processor 0) while force computation and integration are parallel, with
// barriers between phases. Force accumulation per body follows a fixed
// traversal order, but the tolerance absorbs platform-level FP ordering.
#include "cashmere/apps/apps.hpp"

#include <cmath>
#include <vector>

#include "cashmere/common/logging.hpp"
#include "cashmere/common/rng.hpp"

namespace cashmere {

namespace {

constexpr double kTheta = 0.6;   // opening criterion
constexpr double kSoft2 = 1e-4;  // softening
constexpr double kDt = 1e-2;

struct Body {
  double pos[3];
  double vel[3];
  double acc[3];
  double mass;
};

// Octree cell: child[i] >= 0 is a cell index; child[i] <= -2 encodes body
// (-child - 2); -1 is empty.
struct Cell {
  double center[3];
  double half;
  double mass;
  double com[3];
  std::int32_t child[8];
};

struct Tree {
  std::int32_t ncells = 0;
  std::int32_t root = -1;
};

int OctantOf(const Cell& c, const double* p) {
  int o = 0;
  for (int k = 0; k < 3; ++k) {
    if (p[k] >= c.center[k]) {
      o |= 1 << k;
    }
  }
  return o;
}

std::int32_t NewCell(Cell* cells, Tree* t, int max_cells, const double* center, double half) {
  CSM_CHECK(t->ncells < max_cells);
  const std::int32_t idx = t->ncells++;
  Cell& c = cells[idx];
  for (int k = 0; k < 3; ++k) {
    c.center[k] = center[k];
  }
  c.half = half;
  c.mass = 0.0;
  c.com[0] = c.com[1] = c.com[2] = 0.0;
  for (auto& ch : c.child) {
    ch = -1;
  }
  return idx;
}

void InsertBody(Cell* cells, Tree* t, int max_cells, const Body* bodies, std::int32_t cell,
                std::int32_t body) {
  Cell& c = cells[cell];
  const int o = OctantOf(c, bodies[body].pos);
  const std::int32_t ch = c.child[o];
  if (ch == -1) {
    c.child[o] = -static_cast<std::int32_t>(body) - 2;
    return;
  }
  if (ch <= -2) {
    // Split: replace the body leaf with a sub-cell holding both bodies.
    const std::int32_t other = -ch - 2;
    double center[3];
    const double half = c.half / 2.0;
    for (int k = 0; k < 3; ++k) {
      center[k] = c.center[k] + ((o >> k & 1) ? half : -half);
    }
    const std::int32_t sub = NewCell(cells, t, max_cells, center, half);
    c.child[o] = sub;
    InsertBody(cells, t, max_cells, bodies, sub, other);
    InsertBody(cells, t, max_cells, bodies, sub, body);
    return;
  }
  InsertBody(cells, t, max_cells, bodies, ch, body);
}

void ComputeMoments(Cell* cells, const Body* bodies, std::int32_t cell) {
  Cell& c = cells[cell];
  c.mass = 0.0;
  c.com[0] = c.com[1] = c.com[2] = 0.0;
  for (const std::int32_t ch : c.child) {
    if (ch == -1) {
      continue;
    }
    if (ch <= -2) {
      const Body& b = bodies[-ch - 2];
      c.mass += b.mass;
      for (int k = 0; k < 3; ++k) {
        c.com[k] += b.mass * b.pos[k];
      }
    } else {
      ComputeMoments(cells, bodies, ch);
      c.mass += cells[ch].mass;
      for (int k = 0; k < 3; ++k) {
        c.com[k] += cells[ch].mass * cells[ch].com[k];
      }
    }
  }
  if (c.mass > 0.0) {
    for (int k = 0; k < 3; ++k) {
      c.com[k] /= c.mass;
    }
  }
}

void BuildTree(Cell* cells, Tree* t, int max_cells, const Body* bodies, int n) {
  t->ncells = 0;
  double lo[3] = {1e30, 1e30, 1e30};
  double hi[3] = {-1e30, -1e30, -1e30};
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < 3; ++k) {
      lo[k] = std::min(lo[k], bodies[i].pos[k]);
      hi[k] = std::max(hi[k], bodies[i].pos[k]);
    }
  }
  double center[3];
  double half = 0.0;
  for (int k = 0; k < 3; ++k) {
    center[k] = (lo[k] + hi[k]) / 2.0;
    half = std::max(half, (hi[k] - lo[k]) / 2.0 + 1e-6);
  }
  t->root = NewCell(cells, t, max_cells, center, half);
  for (int i = 0; i < n; ++i) {
    InsertBody(cells, t, max_cells, bodies, t->root, i);
  }
  ComputeMoments(cells, bodies, t->root);
}

void AccumulateForce(const Cell* cells, const Body* bodies, std::int32_t node,
                     const Body& target, int self, double* acc) {
  if (node <= -2) {
    const int bi = -node - 2;
    if (bi == self) {
      return;
    }
    const Body& b = bodies[bi];
    double d[3];
    double r2 = kSoft2;
    for (int k = 0; k < 3; ++k) {
      d[k] = b.pos[k] - target.pos[k];
      r2 += d[k] * d[k];
    }
    const double inv = b.mass / (r2 * std::sqrt(r2));
    for (int k = 0; k < 3; ++k) {
      acc[k] += inv * d[k];
    }
    return;
  }
  const Cell& c = cells[node];
  double d[3];
  double r2 = kSoft2;
  for (int k = 0; k < 3; ++k) {
    d[k] = c.com[k] - target.pos[k];
    r2 += d[k] * d[k];
  }
  const double size = 2.0 * c.half;
  if (size * size < kTheta * kTheta * r2) {
    const double inv = c.mass / (r2 * std::sqrt(r2));
    for (int k = 0; k < 3; ++k) {
      acc[k] += inv * d[k];
    }
    return;
  }
  for (const std::int32_t ch : c.child) {
    if (ch != -1) {
      AccumulateForce(cells, bodies, ch, target, self, acc);
    }
  }
}

void InitBodies(Body* bodies, int n) {
  SplitMix64 rng(777);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < 3; ++k) {
      bodies[i].pos[k] = rng.NextDouble() * 10.0 - 5.0;
      bodies[i].vel[k] = (rng.NextDouble() - 0.5) * 0.1;
      bodies[i].acc[k] = 0.0;
    }
    bodies[i].mass = 0.5 + rng.NextDouble();
  }
}

void ForcePhase(const Cell* cells, const Tree* t, Body* bodies, int begin, int end) {
  for (int i = begin; i < end; ++i) {
    double acc[3] = {0.0, 0.0, 0.0};
    AccumulateForce(cells, bodies, t->root, bodies[i], i, acc);
    for (int k = 0; k < 3; ++k) {
      bodies[i].acc[k] = acc[k];
    }
  }
}

void IntegratePhase(Body* bodies, int begin, int end) {
  for (int i = begin; i < end; ++i) {
    for (int k = 0; k < 3; ++k) {
      bodies[i].vel[k] += bodies[i].acc[k] * kDt;
      bodies[i].pos[k] += bodies[i].vel[k] * kDt;
    }
  }
}

double Checksum(const Body* bodies, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < 3; ++k) {
      sum += bodies[i].pos[k];
    }
  }
  return sum;
}

}  // namespace

BarnesApp::BarnesApp(int size_class) {
  switch (size_class) {
    case kSizeTest:
      bodies_ = 128;
      steps_ = 2;
      data_mbytes32_ = 0.6188;
      break;
    case kSizeLarge:
      bodies_ = 2048;
      steps_ = 4;
      data_mbytes32_ = 7.8258;
      break;
    default:
      bodies_ = 512;
      steps_ = 3;
      data_mbytes32_ = 1.9542;
      break;
  }
}

std::size_t BarnesApp::HeapBytes() const {
  const std::size_t max_cells = 8 * static_cast<std::size_t>(bodies_) + 64;
  return static_cast<std::size_t>(bodies_) * sizeof(Body) + max_cells * sizeof(Cell) +
         sizeof(Tree) + kPageBytes;
}

std::string BarnesApp::ProblemSize() const {
  return std::to_string(bodies_) + " bodies x" + std::to_string(steps_);
}

double BarnesApp::RunParallel(Runtime& rt) {
  const int n = bodies_;
  const int steps = steps_;
  const int max_cells = 8 * n + 64;
  const GlobalAddr bodies_addr =
      rt.heap().AllocPageAligned(static_cast<std::size_t>(n) * sizeof(Body));
  const GlobalAddr cells_addr =
      rt.heap().AllocPageAligned(static_cast<std::size_t>(max_cells) * sizeof(Cell));
  const GlobalAddr tree_addr = rt.heap().AllocPageAligned(sizeof(Tree));
  rt.Run([&](Context& ctx) {
    Body* bodies = ctx.Ptr<Body>(bodies_addr);
    Cell* cells = ctx.Ptr<Cell>(cells_addr);
    Tree* tree = ctx.Ptr<Tree>(tree_addr);
    const int procs = ctx.total_procs();
    const int chunk = (n + procs - 1) / procs;
    const int begin = ctx.proc() * chunk;
    const int end = begin + chunk < n ? begin + chunk : n;
    if (ctx.proc() == 0) {
      InitBodies(bodies, n);
    }
    ctx.Barrier(0);
    ctx.InitDone();
    for (int step = 0; step < steps; ++step) {
      ctx.Poll();
      // Sequential tree construction (as in the paper's Barnes).
      if (ctx.proc() == 0) {
        BuildTree(cells, tree, max_cells, bodies, n);
      }
      ctx.Barrier(0);
      ForcePhase(cells, tree, bodies, begin, end);
      ctx.Barrier(0);
      IntegratePhase(bodies, begin, end);
      ctx.Barrier(0);
    }
  });
  std::vector<Body> out(static_cast<std::size_t>(n));
  rt.CopyOut(bodies_addr, out.data(), out.size() * sizeof(Body));
  return Checksum(out.data(), n);
}

double BarnesApp::RunSequential() {
  const int n = bodies_;
  const int max_cells = 8 * n + 64;
  std::vector<Body> bodies(static_cast<std::size_t>(n));
  std::vector<Cell> cells(static_cast<std::size_t>(max_cells));
  Tree tree;
  InitBodies(bodies.data(), n);
  for (int step = 0; step < steps_; ++step) {
    BuildTree(cells.data(), &tree, max_cells, bodies.data(), n);
    ForcePhase(cells.data(), &tree, bodies.data(), 0, n);
    IntegratePhase(bodies.data(), 0, n);
  }
  return Checksum(bodies.data(), n);
}

CASHMERE_REGISTER_APP(BarnesApp, AppKind::kBarnes, "Barnes");

}  // namespace cashmere
