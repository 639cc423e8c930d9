// Branch-and-bound travelling salesman (Section 3.2).
//
// Unsolved tours live in a shared priority queue protected by a lock;
// updates to the shortest path are protected by a separate lock. The search
// order is non-deterministic (as in the paper), but the optimum is unique,
// so verification compares the final tour length with the sequential
// branch-and-bound.
//
// All shared state is only touched while holding its lock; idle processors
// re-acquire the queue lock to re-examine it (release consistency gives no
// other way to observe remote updates).
#include "cashmere/apps/apps.hpp"

#include <algorithm>
#include <vector>

#include "cashmere/common/logging.hpp"
#include "cashmere/common/rng.hpp"

namespace cashmere {

namespace {

constexpr int kMaxCities = 14;
constexpr int kPool = 4096;
constexpr int kQueueLock = 0;
constexpr int kBestLock = 1;
constexpr int kPushFlag = 0;  // event count of queue pushes
constexpr int kDoneFlag = 1;  // set once when the search terminates
constexpr int kDfsTailCities = 7;  // subtrees this small are solved locally

struct Node {
  std::int32_t bound = 0;
  std::int32_t len = 0;
  std::int32_t count = 0;           // cities in path
  std::int32_t visited = 0;         // bitmask
  std::int8_t path[kMaxCities] = {};
};

struct TspShared {
  std::int32_t dist[kMaxCities][kMaxCities];
  std::int32_t min_edge[kMaxCities];
  std::int32_t best_len;
  std::int32_t done;
  std::int32_t idle;
  std::int32_t push_count;
  std::int32_t heap_size;
  std::int32_t heap[kPool];
  std::int32_t free_top;
  std::int32_t free_list[kPool];
  Node pool[kPool];
};

void BuildDistances(std::int32_t dist[kMaxCities][kMaxCities], std::int32_t* min_edge,
                    int cities) {
  SplitMix64 rng(424242);
  for (int i = 0; i < cities; ++i) {
    for (int j = i + 1; j < cities; ++j) {
      const auto d = static_cast<std::int32_t>(1 + rng.NextBelow(99));
      dist[i][j] = d;
      dist[j][i] = d;
    }
    dist[i][i] = 0;
  }
  for (int i = 0; i < cities; ++i) {
    std::int32_t m = 1 << 20;
    for (int j = 0; j < cities; ++j) {
      if (j != i && dist[i][j] < m) {
        m = dist[i][j];
      }
    }
    min_edge[i] = m;
  }
}

std::int32_t LowerBound(const TspShared& s, const Node& n, int cities) {
  std::int32_t bound = n.len;
  for (int c = 0; c < cities; ++c) {
    if ((n.visited & (1 << c)) == 0) {
      bound += s.min_edge[c];
    }
  }
  return bound;
}

// Heap helpers (caller holds the queue lock).
void HeapPush(TspShared& s, std::int32_t idx) {
  int i = s.heap_size++;
  s.heap[i] = idx;
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (s.pool[s.heap[parent]].bound <= s.pool[s.heap[i]].bound) {
      break;
    }
    std::swap(s.heap[parent], s.heap[i]);
    i = parent;
  }
}

std::int32_t HeapPop(TspShared& s) {
  const std::int32_t top = s.heap[0];
  s.heap[0] = s.heap[--s.heap_size];
  int i = 0;
  while (true) {
    const int l = 2 * i + 1;
    const int r = 2 * i + 2;
    int m = i;
    if (l < s.heap_size && s.pool[s.heap[l]].bound < s.pool[s.heap[m]].bound) {
      m = l;
    }
    if (r < s.heap_size && s.pool[s.heap[r]].bound < s.pool[s.heap[m]].bound) {
      m = r;
    }
    if (m == i) {
      break;
    }
    std::swap(s.heap[i], s.heap[m]);
    i = m;
  }
  return top;
}

// Depth-first completion of a node without touching the shared queue (used
// sequentially and as the pool-exhaustion fallback). Returns the best tour
// length found under `n`, bounded by `best`.
std::int32_t SolveDfs(const TspShared& s, const Node& n, int cities, std::int32_t best) {
  if (n.count == cities) {
    const std::int32_t total = n.len + s.dist[n.path[n.count - 1]][n.path[0]];
    return std::min(best, total);
  }
  const int last = n.path[n.count - 1];
  for (int c = 1; c < cities; ++c) {
    if ((n.visited & (1 << c)) != 0) {
      continue;
    }
    Node child = n;
    child.path[child.count++] = static_cast<std::int8_t>(c);
    child.visited |= 1 << c;
    child.len = n.len + s.dist[last][c];
    if (LowerBound(s, child, cities) < best) {
      best = SolveDfs(s, child, cities, best);
    }
  }
  return best;
}

}  // namespace

TspApp::TspApp(int size_class) {
  switch (size_class) {
    case kSizeTest:
      cities_ = 8;
      data_mbytes32_ = 0.0865;
      break;
    case kSizeLarge:
      cities_ = 13;
      data_mbytes32_ = 0.4816;
      break;
    default:
      cities_ = 11;
      data_mbytes32_ = 0.1008;
      break;
  }
}

std::size_t TspApp::HeapBytes() const { return sizeof(TspShared); }

std::string TspApp::ProblemSize() const { return std::to_string(cities_) + " cities"; }

double TspApp::RunParallel(Runtime& rt) {
  const GlobalAddr s_addr = rt.heap().AllocPageAligned(sizeof(TspShared));
  const int cities = cities_;
  rt.Run([&](Context& ctx) {
    TspShared* s = ctx.Ptr<TspShared>(s_addr);
    if (ctx.proc() == 0) {
      BuildDistances(s->dist, s->min_edge, cities);
      s->best_len = 1 << 20;
      s->done = 0;
      s->idle = 0;
      s->push_count = 0;
      s->heap_size = 0;
      s->free_top = kPool;
      for (int i = 0; i < kPool; ++i) {
        s->free_list[i] = kPool - 1 - i;
      }
      // Seed: the root tour starting at city 0.
      const std::int32_t root = s->free_list[--s->free_top];
      Node& rn = s->pool[root];
      rn = Node{};
      rn.path[0] = 0;
      rn.count = 1;
      rn.visited = 1;
      rn.bound = LowerBound(*s, rn, cities);
      HeapPush(*s, root);
    }
    ctx.Barrier(0);
    ctx.InitDone();

    // Worker loop: pop the most promising tour, expand it, push children.
    // Idle processors wait on the push-event flag rather than hammering the
    // queue lock; the done flag broadcasts termination.
    while (true) {
      ctx.Poll();
      ctx.LockAcquire(kQueueLock);
      if (s->done != 0) {
        ctx.LockRelease(kQueueLock);
        break;
      }
      if (s->heap_size == 0) {
        const std::int32_t seen_pushes = s->push_count;
        s->idle += 1;
        if (s->idle == ctx.total_procs()) {
          s->done = 1;
          ctx.LockRelease(kQueueLock);
          ctx.FlagSet(kDoneFlag, 1);
          break;
        }
        ctx.LockRelease(kQueueLock);
        ctx.IdleWhile([&] {
          return ctx.FlagPeek(kPushFlag) <= static_cast<std::uint64_t>(seen_pushes) &&
                 ctx.FlagPeek(kDoneFlag) == 0;
        });
        if (ctx.FlagPeek(kDoneFlag) != 0) {
          ctx.FlagWaitGe(kDoneFlag, 1);
          break;
        }
        ctx.FlagWaitGe(kPushFlag, static_cast<std::uint64_t>(seen_pushes) + 1);
        ctx.LockAcquire(kQueueLock);
        s->idle -= 1;
        ctx.LockRelease(kQueueLock);
        continue;
      }
      const std::int32_t idx = HeapPop(*s);
      Node n = s->pool[idx];
      s->free_list[s->free_top++] = idx;
      ctx.LockRelease(kQueueLock);

      // Prune against the current best.
      ctx.LockAcquire(kBestLock);
      const std::int32_t best_now = s->best_len;
      ctx.LockRelease(kBestLock);
      if (n.bound >= best_now) {
        continue;
      }

      if (n.count == cities) {
        const std::int32_t total = n.len + s->dist[n.path[n.count - 1]][n.path[0]];
        ctx.LockAcquire(kBestLock);
        if (total < s->best_len) {
          s->best_len = total;
        }
        ctx.LockRelease(kBestLock);
        continue;
      }

      const int last = n.path[n.count - 1];
      std::int32_t announced = -1;
      for (int c = 1; c < cities; ++c) {
        if ((n.visited & (1 << c)) != 0) {
          continue;
        }
        Node child = n;
        child.path[child.count++] = static_cast<std::int8_t>(c);
        child.visited |= 1 << c;
        child.len = n.len + s->dist[last][c];
        child.bound = LowerBound(*s, child, cities);
        if (child.bound >= best_now) {
          continue;
        }
        if (cities - child.count <= kDfsTailCities) {
          // Coarse grain: near the leaves the subtree is cheap enough to
          // finish locally rather than paying a queue round trip per node
          // (standard branch-and-bound practice; keeps the shared queue for
          // the high-value upper tree, as with the paper's 17-city runs).
          const std::int32_t local = SolveDfs(*s, child, cities, best_now);
          if (local < best_now) {
            ctx.LockAcquire(kBestLock);
            if (local < s->best_len) {
              s->best_len = local;
            }
            ctx.LockRelease(kBestLock);
          }
          continue;
        }
        ctx.LockAcquire(kQueueLock);
        if (s->free_top > 0 && s->heap_size < kPool - 1) {
          const std::int32_t ci = s->free_list[--s->free_top];
          s->pool[ci] = child;
          HeapPush(*s, ci);
          s->push_count += 1;
          announced = s->push_count;
          ctx.LockRelease(kQueueLock);
        } else {
          ctx.LockRelease(kQueueLock);
          // Pool exhausted: finish this subtree depth-first locally.
          const std::int32_t local = SolveDfs(*s, child, cities, best_now);
          ctx.LockAcquire(kBestLock);
          if (local < s->best_len) {
            s->best_len = local;
          }
          ctx.LockRelease(kBestLock);
        }
      }
      if (announced >= 0) {
        // One release announces the whole expansion to idle processors.
        ctx.FlagSet(kPushFlag, static_cast<std::uint64_t>(announced));
      }
    }
  });
  TspShared* result = new TspShared;
  rt.CopyOut(s_addr, result, sizeof(TspShared));
  const double best = result->best_len;
  delete result;
  return best;
}

double TspApp::RunSequential() {
  auto s = std::make_unique<TspShared>();
  BuildDistances(s->dist, s->min_edge, cities_);
  Node root;
  root.path[0] = 0;
  root.count = 1;
  root.visited = 1;
  return SolveDfs(*s, root, cities_, 1 << 20);
}

CASHMERE_REGISTER_APP(TspApp, AppKind::kTsp, "TSP");

}  // namespace cashmere
