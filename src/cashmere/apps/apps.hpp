// Concrete application classes (see each .cpp for the workload description
// and its mapping to the paper's Section 3.2 characterization).
#ifndef CASHMERE_APPS_APPS_HPP_
#define CASHMERE_APPS_APPS_HPP_

#include "cashmere/apps/app.hpp"

namespace cashmere {

// Red-Black Successive Over-Relaxation: banded rows, barriers.
class SorApp : public IApp {
 public:
  explicit SorApp(int size_class);
  AppKind kind() const override { return AppKind::kSor; }
  std::size_t HeapBytes() const override;
  double RunParallel(Runtime& rt) override;
  double RunSequential() override;
  double PaperSeqSeconds() const override { return 195.0; }
  const char* PaperProblemSize() const override { return "3072x4096 (50 MB)"; }
  std::size_t PaperDataBytes() const override { return 50ull * 1024 * 1024; }
  double PaperDataMbytes32() const override { return 4.25; }
  double DataMbytes32() const override { return data_mbytes32_; }
  std::string ProblemSize() const override;

 private:
  double data_mbytes32_;
  int rows_;
  int cols_;
  int iters_;
};

// SPLASH-2 blocked dense LU factorization: block ownership, barriers.
class LuApp : public IApp {
 public:
  explicit LuApp(int size_class);
  AppKind kind() const override { return AppKind::kLu; }
  std::size_t HeapBytes() const override;
  double RunParallel(Runtime& rt) override;
  double RunSequential() override;
  double PaperSeqSeconds() const override { return 254.8; }
  const char* PaperProblemSize() const override { return "2046x2046 (33 MB)"; }
  std::size_t PaperDataBytes() const override { return 33ull * 1024 * 1024; }
  double PaperDataMbytes32() const override { return 116.56; }
  double DataMbytes32() const override { return data_mbytes32_; }
  std::string ProblemSize() const override;

 private:
  double data_mbytes32_;
  int n_;
  int block_;
};

// SPLASH-1 Water: n-squared molecular dynamics, per-molecule locks
// (migratory sharing), barriers.
class WaterApp : public IApp {
 public:
  explicit WaterApp(int size_class);
  AppKind kind() const override { return AppKind::kWater; }
  std::size_t HeapBytes() const override;
  SyncShape Sync() const override;
  double RunParallel(Runtime& rt) override;
  double RunSequential() override;
  double Tolerance() const override { return 1e-9; }
  double PaperSeqSeconds() const override { return 1847.6; }
  const char* PaperProblemSize() const override { return "4096 mols (4 MB)"; }
  std::size_t PaperDataBytes() const override { return 4ull * 1024 * 1024; }
  double PaperDataMbytes32() const override { return 277.83; }
  double DataMbytes32() const override { return data_mbytes32_; }
  std::string ProblemSize() const override;

 private:
  double data_mbytes32_;
  int mols_;
  int steps_;
};

// Branch-and-bound travelling salesman: lock-protected priority queue and
// best-tour bound; non-deterministic search order, deterministic optimum.
class TspApp : public IApp {
 public:
  explicit TspApp(int size_class);
  AppKind kind() const override { return AppKind::kTsp; }
  std::size_t HeapBytes() const override;
  double RunParallel(Runtime& rt) override;
  double RunSequential() override;
  double PaperSeqSeconds() const override { return 4029.0; }
  const char* PaperProblemSize() const override { return "17 cities (1 MB)"; }
  std::size_t PaperDataBytes() const override { return 1ull * 1024 * 1024; }
  double PaperDataMbytes32() const override { return 103.23; }
  double DataMbytes32() const override { return data_mbytes32_; }
  std::string ProblemSize() const override;

 private:
  double data_mbytes32_;
  int cities_;
};

// Gaussian elimination with cyclic row distribution and per-row release
// flags (single-producer/multiple-consumer sharing).
class GaussApp : public IApp {
 public:
  explicit GaussApp(int size_class);
  AppKind kind() const override { return AppKind::kGauss; }
  std::size_t HeapBytes() const override;
  SyncShape Sync() const override;
  double RunParallel(Runtime& rt) override;
  double RunSequential() override;
  double PaperSeqSeconds() const override { return 953.7; }
  const char* PaperProblemSize() const override { return "2046x2046 (33 MB)"; }
  std::size_t PaperDataBytes() const override { return 33ull * 1024 * 1024; }
  double PaperDataMbytes32() const override { return 385.31; }
  double DataMbytes32() const override { return data_mbytes32_; }
  std::string ProblemSize() const override;

 private:
  double data_mbytes32_;
  int n_;
};

// Synthetic genetic-linkage workload with the paper's Ilink communication
// shape: master-slave, one-to-all then all-to-one, sparse round-robin work
// assignment, barrier-synchronized, inherent serial component.
class IlinkApp : public IApp {
 public:
  explicit IlinkApp(int size_class);
  AppKind kind() const override { return AppKind::kIlink; }
  std::size_t HeapBytes() const override;
  double RunParallel(Runtime& rt) override;
  double RunSequential() override;
  double Tolerance() const override { return 1e-9; }  // reduction order differs
  double PaperSeqSeconds() const override { return 899.0; }
  const char* PaperProblemSize() const override { return "CLP (15 MB)"; }
  std::size_t PaperDataBytes() const override { return 15ull * 1024 * 1024; }
  double PaperDataMbytes32() const override { return 479.9; }
  double DataMbytes32() const override { return data_mbytes32_; }
  std::string ProblemSize() const override;

 private:
  double data_mbytes32_;
  int buckets_;
  int iters_;
  int sparsity_;  // one nonzero in every `sparsity_` buckets
};

// Split-C Em3d: electromagnetic wave propagation on a bipartite E/H graph
// with nearest-neighbour dependencies, barriers.
class Em3dApp : public IApp {
 public:
  explicit Em3dApp(int size_class);
  AppKind kind() const override { return AppKind::kEm3d; }
  std::size_t HeapBytes() const override;
  double RunParallel(Runtime& rt) override;
  double RunSequential() override;
  double PaperSeqSeconds() const override { return 161.4; }
  const char* PaperProblemSize() const override { return "60106 nodes (49 MB)"; }
  std::size_t PaperDataBytes() const override { return 49ull * 1024 * 1024; }
  double PaperDataMbytes32() const override { return 345.92; }
  double DataMbytes32() const override { return data_mbytes32_; }
  std::string ProblemSize() const override;

 private:
  double data_mbytes32_;
  int nodes_;
  int degree_;
  int iters_;
};

// SPLASH-1 Barnes-Hut n-body: sequential tree build, parallel force
// computation over the shared tree, barriers between phases.
class BarnesApp : public IApp {
 public:
  explicit BarnesApp(int size_class);
  AppKind kind() const override { return AppKind::kBarnes; }
  std::size_t HeapBytes() const override;
  double RunParallel(Runtime& rt) override;
  double RunSequential() override;
  double Tolerance() const override { return 1e-9; }
  double PaperSeqSeconds() const override { return 469.4; }
  const char* PaperProblemSize() const override { return "128K bodies (26 MB)"; }
  std::size_t PaperDataBytes() const override { return 26ull * 1024 * 1024; }
  double PaperDataMbytes32() const override { return 616.75; }
  double DataMbytes32() const override { return data_mbytes32_; }
  std::string ProblemSize() const override;

 private:
  double data_mbytes32_;
  int bodies_;
  int steps_;
};

}  // namespace cashmere

#endif  // CASHMERE_APPS_APPS_HPP_
