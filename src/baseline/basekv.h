// BaseKV: the paper's run-to-completion baseline (§5.1). Identical plumbing
// to μTPS — reconfigurable RPC (single shared receive ring), batching, and
// prefetch-interleaved indexing — but every worker executes the whole request
// from poll to respond in one monolithic function, share-everything.
//
// eRPCKV is the same server built with one shard per worker: BaseKV with its
// RPC module replaced by an eRPC-style RPC (per-worker receive queues; clients
// pick the worker by modding the key hash) and a share-nothing data layout
// (each worker owns a shard and writes without per-item synchronization).
// Everything that differs is per-worker data fixed in the constructor, so
// the worker loop and request path are one.
#ifndef UTPS_BASELINE_BASEKV_H_
#define UTPS_BASELINE_BASEKV_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/op_exec.h"
#include "core/server.h"
#include "net/resp_buf.h"
#include "net/rpc.h"
#include "sim/batch.h"

namespace utps {

class BaseKvServer final : public KvServer {
 public:
  // Empty `shards`: BaseKV over env.index. Otherwise eRPCKV: `shards[i]` is
  // worker i's private index (borrowed; it must outlive the server).
  explicit BaseKvServer(
      const ServerEnv& env,
      const std::vector<std::unique_ptr<KvIndex>>& shards = {});

  void Start() override {
    for (unsigned i = 0; i < env_.num_workers; i++) {
      if (env_.fault != nullptr) {
        workers_[i].ctx.slow_q8 = env_.fault->SlowPtr(i);
      }
      env_.eng->Spawn(WorkerMain(i));
    }
    if (env_.wal != nullptr) {
      env_.wal->EnsureFlusher(env_.eng);
    }
  }
  void Stop() override { stop_ = true; }
  unsigned NumRings() const override {
    return sharded() ? env_.num_workers : 1;
  }
  unsigned RingForKey(Key key) const override {
    return sharded() ? static_cast<unsigned>(ShardOf(key, env_.num_workers))
                     : 0;
  }
  uint64_t OpsCompleted() const override {
    uint64_t t = 0;
    for (const auto& w : workers_) {
      t += w.ops;
    }
    return t;
  }
  void ResetStats() override {
    for (auto& w : workers_) {
      w.ops = 0;
    }
  }
  const char* Name() const override { return sharded() ? "eRPCKV" : "BaseKV"; }
  void ExportMetrics(obs::MetricsRegistry* m) const override {
    if (m == nullptr || env_.fault == nullptr) {
      return;  // gate on the injector: faultless output stays byte-identical
    }
    const char* ns = sharded() ? "erpckv" : "basekv";
    m->Count(ns, "dedup_done", dedup_.dup_done());
    m->Count(ns, "dedup_inflight", dedup_.dup_inflight());
  }

  // eRPCKV's share-nothing layout: key k lives in shard ShardOf(k, n).
  static uint64_t ShardOf(Key key, unsigned n) { return Mix64(key) % n; }
  // Builds `n` shards over `items` (items[k] holds key k): hash shards of
  // `hash_capacity` slots seeded seed+1.., or bulk-loaded B+-trees.
  static std::vector<std::unique_ptr<KvIndex>> BuildShards(
      sim::Arena* arena, IndexType type, const std::vector<Item*>& items,
      unsigned n, uint64_t hash_capacity, uint64_t seed);

 private:
  struct Worker {
    sim::ExecCtx ctx;
    ServerEnv env;          // this worker's view: its shard under eRPCKV
    RxRing* rx = nullptr;   // receive ring it polls
    unsigned nic_ring = 0;  // NIC ring feeding `rx`
    uint64_t first_seq = 0;  // first slot it claims; then every seq_stride_
    RespBuffer* resp = nullptr;
    uint64_t ops = 0;
  };

  bool sharded() const { return !shards_.empty(); }
  sim::Fiber WorkerMain(unsigned idx);
  sim::Task<void> ProcessOne(unsigned idx, uint64_t seq, unsigned rec_idx);

  ServerEnv env_;
  std::vector<KvIndex*> shards_;
  std::vector<std::unique_ptr<RxRing>> rx_;
  std::vector<std::unique_ptr<RespBuffer>> resp_bufs_;
  std::vector<Worker> workers_;
  unsigned seq_stride_ = 1;
  sim::Tick poll_cpu_ns_ = 4;
  bool unsynchronized_writes_ = false;
  bool stop_ = false;
};

}  // namespace utps

#endif  // UTPS_BASELINE_BASEKV_H_
