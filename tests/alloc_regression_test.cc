// Zero-allocation steady-state regression test (DESIGN.md §13).
//
// The simulator's hot path — NIC rings, engine scheduler, server staging,
// hot-set refresh, stats recording — must not touch the host heap once a run
// reaches steady state: every buffer is preallocated or high-water-marked
// during populate/warmup. This test counts global operator new calls with an
// interposed allocator, runs a fig07-style μTPS point, and asserts that the
// measure phase (population and warmup excluded, via the g_alloc_probe hook
// in harness/experiment.h) performed zero heap allocations.
//
// If this fails after a change, run with MUTPS_ALLOC_TRACE=1 under a
// breakpoint on OnAlloc, or use scripts/profile.sh's allocation histogram,
// to find the new steady-state allocation site.
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "workload/workload.h"

namespace {

std::atomic<uint64_t> g_new_calls{0};

inline void OnAlloc() {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// Global interposers: every heap allocation in the binary (simulator,
// coroutine frames, gtest itself) routes through these. delete variants
// forward straight to free — only the allocation count matters here.
void* operator new(std::size_t size) {
  OnAlloc();
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  OnAlloc();
  return std::malloc(size != 0 ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& nt) noexcept {
  return ::operator new(size, nt);
}

void* operator new(std::size_t size, std::align_val_t align) {
  OnAlloc();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size != 0 ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace utps {
namespace {

uint64_t AllocProbe() { return g_new_calls.load(std::memory_order_relaxed); }

TEST(AllocRegression, InterposerCountsAllocations) {
  const uint64_t before = AllocProbe();
  // Direct operator-new call: a plain `new int` is elidable under
  // -felide-constructors/heap elision and can skip the interposer.
  void* p = ::operator new(sizeof(int));
  EXPECT_NE(p, nullptr);
  ::operator delete(p);
  EXPECT_GT(AllocProbe(), before);
}

// fig07 shape at test scale: tree index, 64 B values, YCSB-A, auto-tuned
// μTPS. The measure window spans many hot-set refresh passes and CR-MR
// batches, so any per-op, per-batch, or per-refresh allocation trips it.
TEST(AllocRegression, MuTpsMeasurePhaseIsAllocationFree) {
  constexpr uint64_t kKeys = 20000;
  TestBed bed(IndexType::kTree, WorkloadSpec::YcsbA(kKeys, 64));

  ExperimentConfig cfg;
  cfg.system = SystemKind::kMuTps;
  cfg.workload = WorkloadSpec::YcsbA(kKeys, 64);
  cfg.client_threads = 32;
  cfg.pipeline_depth = 8;
  cfg.warmup_ns = 500 * sim::kUsec;
  cfg.measure_ns = 2 * sim::kMsec;
  cfg.max_warmup_ns = 20 * sim::kMsec;
  cfg.mutps.autotune = true;  // tuning completes during warmup (tuned() gate)

  g_alloc_probe = &AllocProbe;
  const ExperimentResult res = bed.Run(cfg);
  g_alloc_probe = nullptr;

  EXPECT_GT(res.ops, 0u);
  EXPECT_EQ(res.measure_allocs, 0u)
      << "steady-state heap allocations crept back into the measure phase";
}

// Same invariant for a hash-index point with batching, the other fig07 wing
// (uTPS-H): exercises the CR-MR overlapped-miss path and its staging rings.
TEST(AllocRegression, MuTpsHashMeasurePhaseIsAllocationFree) {
  constexpr uint64_t kKeys = 20000;
  TestBed bed(IndexType::kHash, WorkloadSpec::YcsbA(kKeys, 8));

  ExperimentConfig cfg;
  cfg.system = SystemKind::kMuTps;
  cfg.workload = WorkloadSpec::YcsbA(kKeys, 8);
  cfg.client_threads = 32;
  cfg.pipeline_depth = 8;
  cfg.warmup_ns = 500 * sim::kUsec;
  cfg.measure_ns = 2 * sim::kMsec;
  cfg.max_warmup_ns = 20 * sim::kMsec;
  cfg.mutps.autotune = false;
  cfg.mutps.initial_ncr = 0;
  cfg.mutps.batch_size = 8;

  g_alloc_probe = &AllocProbe;
  const ExperimentResult res = bed.Run(cfg);
  g_alloc_probe = nullptr;

  EXPECT_GT(res.ops, 0u);
  EXPECT_EQ(res.measure_allocs, 0u)
      << "steady-state heap allocations crept back into the measure phase";
}

}  // namespace
}  // namespace utps
