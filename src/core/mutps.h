// μTPS: the paper's thread architecture. Worker cores are split into a
// cache-resident (CR) layer and a memory-resident (MR) layer:
//
//  - CR workers (cores [0, ncr)) run the §3.2.3 FSM: poll the shared receive
//    ring (reconfigurable RPC), parse, serve hot keys from the epoch-switched
//    hot structure, forward cold requests through the CR-MR queue, and send
//    responses (their own hits plus MR completions signalled by tail-pointer
//    advancement).
//  - MR workers (cores [ncr, W)) pop descriptor batches from the CR-MR rings
//    and execute index + data stages under sim::RunBatch, overlapping memory
//    stalls across the batch (batched indexing with coroutines, §3.3).
//  - A manager fiber refreshes the hot set (count-min sketch + top-K + epoch
//    switch), monitors throughput in fixed windows, and runs the §3.5
//    auto-tuner: linear probe over cache sizes, trisection over the CR/MR
//    thread split, trisection over the LLC ways reused by the MR layer, all
//    without blocking request processing.
//
// Thread reassignment follows §3.5's predefined-slot protocol: the manager
// publishes {ncr', switch_seq}; receive-ring slots with seq < switch_seq are
// processed under the old split and slots >= switch_seq under the new one;
// workers leaving the CR layer first drain their in-flight CR-MR batches, and
// workers joining it wait until all old CR workers have switched and their
// inbound rings are empty. No request is lost or processed twice.
#ifndef UTPS_CORE_MUTPS_H_
#define UTPS_CORE_MUTPS_H_

#include <memory>
#include <vector>

#include "core/crmr_queue.h"
#include "core/op_exec.h"
#include "core/server.h"
#include "hotset/hotset.h"
#include "net/resp_buf.h"
#include "net/rpc.h"
#include "obs/span.h"
#include "sim/batch.h"
#include "stats/timeseries.h"

namespace utps {

class MuTpsServer final : public KvServer {
 public:
  struct Options {
    unsigned batch_size = 8;        // CR-MR batch size (and MR indexing batch)
    unsigned initial_ncr = 0;       // 0 = num_workers / 3 heuristic
    uint32_t initial_cache_items = 8192;
    bool enable_cache = true;       // CR hot cache (ablation switch)
    bool autotune = true;
    bool tune_llc = true;
    sim::Tick refresh_period_ns = 20 * sim::kMsec;
    sim::Tick tune_window_ns = 1 * sim::kMsec;
    sim::Tick flush_timeout_ns = 600;  // CR staging flush deadline
    double retune_drift = 0.25;     // retune when throughput drifts this much
    // Cache sizes probed by the hierarchical search (the paper linearly
    // probes 1K steps; benchmarks may use a coarser grid for speed).
    std::vector<uint32_t> cache_sizes = {0,    1000, 2000, 3000, 4000, 5000,
                                         6000, 7000, 8000, 9000, 10000};
    sim::ClosId cr_clos = 1;
    sim::ClosId mr_clos = 2;
    RxRing::Config rx;
  };

  MuTpsServer(const ServerEnv& env, const Options& opt);
  ~MuTpsServer() override = default;

  void Start() override;
  void Stop() override { stop_ = true; }
  unsigned NumRings() const override { return 1; }
  uint64_t OpsCompleted() const override;
  void ResetStats() override;
  const char* Name() const override {
    return env_.index_type == IndexType::kHash ? "uTPS-H" : "uTPS-T";
  }

  // Introspection for benchmarks (Figure 13).
  unsigned ncr() const { return cfg_.ncr; }
  unsigned nmr() const { return env_.num_workers - cfg_.ncr; }
  uint32_t cache_items() const { return hot_->ActiveCount(); }
  uint32_t target_cache_items() const { return cache_k_; }
  unsigned mr_ways() const { return mr_ways_; }
  uint64_t reconfig_count() const { return reconfig_count_; }
  // Hot-cache effectiveness over the CR layer (cache-eligible requests only).
  uint64_t hot_hits() const;
  uint64_t hot_misses() const;
  // High-water occupancy (slots) seen on any CR-MR ring since ResetStats.
  uint64_t peak_ring_occ() const { return peak_ring_occ_; }
  // Fault-tolerance introspection (zero without an installed injector).
  uint64_t failover_count() const { return failover_count_; }
  uint64_t salvaged_slots() const { return salvaged_slots_; }
  uint64_t dedup_suppressed() const {
    return dedup_.dup_done() + dedup_.dup_inflight();
  }
  void ExportMetrics(obs::MetricsRegistry* m) const override;
  // True once the auto-tuner has completed its first search (always true when
  // auto-tuning is disabled) — the harness gates measurement on this.
  bool tuned() const { return tuned_once_ || !opt_.autotune; }

  // Manual controls (used by ablation benches and tests when autotune = off).
  void RequestThreadSplit(unsigned ncr) { pending_ncr_request_ = ncr; }
  void SetCacheTarget(uint32_t k) { cache_k_ = k; }

  // Diagnostic dump of worker / queue state (stderr).
  void DebugDump() const;

  // Quiesce audit (DST harness): with all clients done and the engine idle,
  // every CR-MR ring must show head == tail, all staged descriptors must be
  // flushed, no forwarded request may be uncompleted, and the hot-set epoch
  // bookkeeping must be consistent. Returns false with a description in `err`.
  bool AuditQuiesced(std::string* err) const;

 private:
  struct Config {
    unsigned ncr = 1;
    uint64_t switch_seq = 0;
    uint64_t version = 0;
  };

  // Per-worker state.
  struct Worker {
    sim::ExecCtx ctx;
    RespBuffer* resp = nullptr;
    uint64_t ops = 0;
    uint64_t hot_hits = 0;           // CR: cache-eligible requests served hot
    uint64_t hot_misses = 0;         // CR: cache-eligible requests forwarded
    uint64_t peak_outstanding = 0;   // CR: high-water forwarded-not-completed
    uint64_t adopted_version = 0;
    bool is_cr = false;
    // CR staging: per-target-MR pending descriptor batches.
    struct Staging {
      std::vector<CrMrDesc> descs;
      std::vector<CrMrHostDesc> host;
      sim::Tick first_ns = 0;
      // Flushed prefix of descs/host. Flushes advance this cursor instead of
      // erasing from the front (per-flush memmove); storage is reclaimed
      // wholesale once everything staged has been consumed, so steady state
      // recycles the vectors' capacity with no allocation.
      uint32_t consumed = 0;

      bool Empty() const { return consumed == descs.size(); }
      size_t Size() const { return descs.size() - consumed; }
      const CrMrDesc& Desc(unsigned i) const { return descs[consumed + i]; }
      const CrMrHostDesc& Host(unsigned i) const { return host[consumed + i]; }
      void Push(const CrMrDesc& d, const CrMrHostDesc& h) {
        descs.push_back(d);
        host.push_back(h);
      }
      void Consume(unsigned cnt) {
        consumed += cnt;
        if (consumed == descs.size()) {
          descs.clear();
          host.clear();
          consumed = 0;
        }
      }
    };
    std::vector<Staging> staging;       // indexed by target worker id
    std::vector<uint64_t> seen_tail;    // CR: completion cursor per target ring
    std::vector<uint64_t> pop_cursor;   // MR: per producer ring read cursor
    uint64_t next_seq = 0;              // CR: next receive-ring sequence
    unsigned rr_next = 0;               // CR: round-robin MR target cursor
    uint64_t outstanding = 0;           // CR: forwarded, not yet completed
    unsigned local_ncr = 1;             // split under the adopted config
    // Fault tolerance: liveness counter bumped each MR loop iteration, and
    // the crash-stop park flag (set when the worker observes its injected
    // crash at the loop top — the point where pop_cursor == tail on every
    // inbound ring, which is the invariant ring salvage relies on).
    uint64_t heartbeat = 0;
    bool crash_parked = false;
    // CR: host-side summary of which target rings have batches in flight —
    // bit t set iff seen_tail[t] < RingAt(idx, t).head(). Pure bookkeeping
    // (no modeled state): lets CrPollCompletions visit exactly the rings the
    // full scan would, without walking all W of them. Rebuilt on CR entry.
    uint32_t cr_inflight = 0;
  };

  sim::Fiber WorkerMain(unsigned idx);
  sim::Fiber ManagerMain();

  // Role bodies; return when the worker must switch roles (or stop).
  sim::Task<void> CrRun(unsigned idx);
  sim::Task<void> MrRun(unsigned idx);

  // CR helpers.
  sim::Task<void> CrServeHot(unsigned idx, Item* item, const RxRecord& rec,
                             uint64_t rx_seq, unsigned rec_idx);
  sim::Task<bool> CrHandleRecord(unsigned idx, uint64_t rx_seq, unsigned rec_idx);
  sim::Task<void> CrFlushStaging(unsigned idx, unsigned target);
  sim::Task<void> CrPollCompletions(unsigned idx);
  sim::Task<void> CrDrainOutstanding(unsigned idx);
  void SendResponse(Worker& w, const CrMrHostDesc& hd);

  // MR helpers. The slot processors take the execution context explicitly so
  // the manager-side health probe can substitute for a dead consumer (ring
  // salvage) with its own context.
  sim::Task<void> MrProcessSlot(sim::ExecCtx& ctx, unsigned producer,
                                unsigned consumer, uint64_t seq);
  sim::Task<void> MrProcessOne(sim::ExecCtx& ctx, CrMrDesc d, CrMrHostDesc* hd);

  // Fault tolerance (§3.5 reassignment reused for failover; DESIGN.md §9).
  sim::Fiber HealthProbeMain();
  sim::Task<void> SalvageWorker(unsigned dead);

  // Manager / auto-tuner.
  sim::Task<void> RefreshHotSet(uint32_t k);
  sim::Task<void> Reconfigure(unsigned new_ncr);
  sim::Task<double> MeasureWindow();
  sim::Task<unsigned> TrisectThreads(double* best_mops_out);
  sim::Task<void> TuneLlcWays();
  sim::Task<void> Autotune();

  // First sequence >= from with seq % n == residue.
  static uint64_t AlignSeq(uint64_t from, unsigned n, unsigned residue) {
    const uint64_t r = from % n;
    uint64_t s = from - r + residue;
    if (s < from) {
      s += n;
    }
    return s;
  }

  CrMrRing& RingAt(unsigned producer, unsigned consumer) {
    return rings_[size_t{producer} * env_.num_workers + consumer];
  }

  ServerEnv env_;
  Options opt_;
  std::unique_ptr<RxRing> rx_;
  std::vector<CrMrRing> rings_;  // W x W, addressed by global worker ids
  std::vector<Worker> workers_;
  // MR-side mirror of cr_inflight, indexed by CONSUMER (producers write it at
  // AdvanceHead time): bit p set iff workers_[c].pop_cursor[p] <
  // RingAt(p, c).head(). Valid while worker c runs MrRun (rebuilt on entry);
  // lets the MR sweep jump straight to the round-robin-first ready producer.
  std::vector<uint32_t> mr_ready_;
  std::vector<std::unique_ptr<RespBuffer>> resp_bufs_;
  std::unique_ptr<HotSetManager> hot_;
  sim::ExecCtx mgr_ctx_;

  // Fault tolerance (inert without env_.fault). dead_mask_ bit i: worker i is
  // a confirmed-dead MR worker — CR routing skips it and the health probe
  // drains its rings until it restarts.
  sim::ExecCtx probe_ctx_;
  std::vector<uint64_t> hb_seen_;   // heartbeat snapshot per worker (probe)
  uint32_t dead_mask_ = 0;
  bool salvage_busy_ = false;       // a salvage pass is mid-flight
  uint64_t failover_count_ = 0;
  uint64_t restore_count_ = 0;
  uint64_t salvaged_slots_ = 0;

  // Observability (null/empty when disabled; see ServerEnv::obs).
  obs::Tracer* trc_ = nullptr;
  uint32_t mgr_tid_ = 0;                   // tracer tid for the manager fiber
  std::vector<const char*> out_ctr_name_;  // interned per-CR counter names
  uint64_t peak_ring_occ_ = 0;

  Config cfg_;           // current (latest published) configuration
  uint64_t cr_acks_ = 0;  // CR workers that passed the switch point
  uint64_t expected_acks_ = 0;  // CR workers under the previous configuration
  uint32_t cache_k_;
  unsigned mr_ways_ = 0;
  uint64_t reconfig_count_ = 0;
  unsigned pending_ncr_request_ = 0;  // manual split request (0 = none)
  bool stop_ = false;

  // Throughput monitoring.
  double ewma_mops_ = 0.0;
  bool tuned_once_ = false;
};

}  // namespace utps

#endif  // UTPS_CORE_MUTPS_H_
