// Experiment harness: builds the simulated testbed (server machine, NIC,
// client machines), populates the store, runs a workload point, and reports
// paper-style metrics.
//
// A TestBed owns the populated database (items + indexes) and is reused
// across many experiment points (systems x workload mixes) that share the
// same index type and value sizing — exactly how the paper reuses its
// pre-populated 10M-item database. Per-run structures (engine, NIC, server
// rings, response buffers) live in a per-run arena that is discarded after
// the point completes; cache-model state is flushed between points.
#ifndef UTPS_HARNESS_EXPERIMENT_H_
#define UTPS_HARNESS_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "baseline/basekv.h"
#include "baseline/passive.h"
#include "core/mutps.h"
#include "core/server.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "sim/sample.h"
#include "stats/histogram.h"
#include "stats/timeseries.h"
#include "wal/wal.h"
#include "workload/workload.h"

namespace utps {

enum class SystemKind : uint8_t {
  kMuTps = 0,
  kBaseKv,
  kErpcKv,
  kRaceHash,
  kSherman,
};

inline const char* SystemName(SystemKind s) {
  switch (s) {
    case SystemKind::kMuTps:
      return "uTPS";
    case SystemKind::kBaseKv:
      return "BaseKV";
    case SystemKind::kErpcKv:
      return "eRPCKV";
    case SystemKind::kRaceHash:
      return "RaceHash";
    case SystemKind::kSherman:
      return "Sherman";
  }
  return "?";
}

struct ExperimentConfig {
  SystemKind system = SystemKind::kMuTps;
  WorkloadSpec workload;
  unsigned client_threads = 64;
  unsigned pipeline_depth = 4;
  sim::Tick warmup_ns = 4 * sim::kMsec;
  sim::Tick measure_ns = 4 * sim::kMsec;
  sim::Tick max_warmup_ns = 60 * sim::kMsec;  // cap while waiting for tuning
  uint64_t seed = 42;
  MuTpsServer::Options mutps;  // applies when system == kMuTps
  // Fixed thread split / settings overrides for ablations.
  bool record_timeline = false;           // per-100us throughput time series
  const WorkloadSpec* phase2 = nullptr;   // workload switch mid-run (Fig 14)
  sim::Tick phase2_at_ns = 0;
  sim::Tick phase2_extra_ns = 0;          // extra measure time after switch
  // Observability (all off by default; see obs/obs.h and DESIGN.md).
  obs::ObsConfig obs;
  // Fault injection (DESIGN.md §9). Disabled by default; a run with
  // fault.enabled() == false is byte-identical to a build without faults.
  // When enabled, clients of two-sided systems switch to rid-tagged
  // timeout/retry sends (KvClient, harness/kv_client.h) so the run survives
  // drops.
  fault::FaultConfig fault;
  // fig15: also record a per-bucket P99 latency timeline (same bucket width
  // as record_timeline).
  bool record_latency_timeline = false;
  // Durability tier (DESIGN.md §10). Disabled by default; a run with
  // wal.enabled == false is byte-identical to a build without the WAL. When
  // enabled, servers log every PUT/DELETE and gate the ack per wal.mode —
  // the fig17 sweep compares sync vs group vs async commit.
  wal::WalConfig wal;
  // Host threads for the simulation. Only the serial engine exists, so the
  // one supported value is 1 (0 means the same); anything larger fails a
  // CHECK, because the host-parallel backend was removed (DESIGN.md §11).
  unsigned sim_threads = 0;
  // Sampled simulation (DESIGN.md §12). Disabled by default; a run with
  // sample.enabled == false is byte-identical to a build without sampling.
  // When enabled, the measurement interval alternates functional
  // fast-forward segments with seeded detailed windows, and throughput/tail
  // latency are extrapolated from the windows (est fields + CI95 in the
  // result). Incompatible with phase2 (the phase switch would race the
  // window plan).
  sim::SampleConfig sample;
};

// Per-node outcome of a cluster run (src/cluster). One entry per server node
// in ExperimentResult::node_counters; empty for single-node experiments.
struct NodeCounters {
  uint64_t ops_served = 0;        // data ops this node executed as primary
  uint64_t repl_sent = 0;         // replication RPCs sent as primary
  uint64_t repl_applied = 0;      // replication ops applied as backup
  uint64_t not_owner = 0;         // requests answered NOT_OWNER / FROZEN
  uint64_t migrations_out = 0;    // shards this node handed off
  uint64_t migrations_in = 0;     // shards this node took over
  uint64_t promotions = 0;        // backup -> primary promotions
  bool crashed = false;           // node was crash-stopped by the fault plan
  bool fenced = false;            // node self-fenced on lease expiry
};

struct ExperimentResult {
  double mops = 0.0;
  uint64_t ops = 0;
  sim::Tick p50_ns = 0;
  sim::Tick p99_ns = 0;
  sim::Tick mean_ns = 0;
  // Cache behaviour (whole measurement window, server cores only).
  double llc_miss_rate = 0.0;
  double poll_miss_rate = 0.0;   // poll+parse+respond stages
  double index_miss_rate = 0.0;  // index+data stages
  // μTPS introspection.
  unsigned ncr = 0;
  unsigned nmr = 0;
  uint32_t cache_items = 0;
  unsigned mr_ways = 0;
  uint64_t reconfigs = 0;
  // Optional throughput timeline (bucketed ops completions).
  std::vector<double> timeline_mops;
  sim::Tick timeline_bucket_ns = 0;
  // Optional per-bucket P99 latency timeline (record_latency_timeline).
  std::vector<sim::Tick> timeline_p99_ns;
  // Fault-tolerance outcome (all zero when cfg.fault is disabled).
  uint64_t retries = 0;           // client retransmits (attempts - 1)
  uint64_t failovers = 0;         // μTPS MR-worker failover events
  uint64_t salvaged_slots = 0;    // ring slots drained by the health probe
  uint64_t dedup_suppressed = 0;  // duplicate writes suppressed server-side
  fault::FaultCounters fault_counters;
  // Durability outcome (all zero when cfg.wal is disabled).
  wal::WalCounters wal_counters;
  // Observability outputs (populated only when the matching knob is on).
  obs::CycleReport cycles;       // per-op stage breakdown over the window
  std::string trace_file;        // path the Chrome trace JSON was written to
  uint64_t trace_events = 0;
  uint64_t trace_dropped = 0;
  uint64_t hot_hits = 0;         // μTPS CR hot-cache outcome counters
  uint64_t hot_misses = 0;
  std::string metrics_dump;      // MetricsRegistry::ToString() snapshot
  // Host-side simulator effort for the whole run (populate excluded): how
  // many engine events this point cost. wall-clock / sched_events is the
  // simulator's core speed metric (see bench/selfperf.cc).
  uint64_t sched_events = 0;
  size_t sched_peak_pending = 0;
  // ScheduleAt calls that had to clamp a past deadline to now (release
  // builds; debug DCHECKs instead). Nonzero means a scheduling bug.
  uint64_t sched_clamps = 0;
  // Sampled-simulation outputs (sampled == cfg.sample.enabled). In sampled
  // mode `mops`/`p50_ns`/`p99_ns` are the extrapolated estimates (from the
  // detailed windows only) and est_mops_ci95 is the 95% confidence
  // half-width of the throughput estimate across windows.
  bool sampled = false;
  double est_mops = 0.0;
  double est_mops_ci95 = 0.0;
  uint64_t detail_windows = 0;   // windows that contributed measurements
  sim::Tick detail_ns = 0;       // total measured (in-window) virtual time
  // Host heap allocations performed during the measure phase (warmup and
  // populate excluded). Filled only when g_alloc_probe is installed; the
  // zero-allocation steady-state invariant (DESIGN.md §13) is enforced by
  // tests/alloc_regression_test against this value.
  uint64_t measure_allocs = 0;
  // Cluster outcome (src/cluster): per-node counters plus the final ring
  // epoch. Empty / zero for single-node experiments.
  std::vector<NodeCounters> node_counters;
  uint64_t ring_epoch = 0;
  uint64_t shard_migrations = 0;  // completed shard migrations, cluster-wide
};

// Test hook: when non-null, called by TestBed::Run at the measure-phase
// boundaries; the difference lands in ExperimentResult::measure_allocs.
// tests/alloc_regression_test points this at its operator-new counter.
extern uint64_t (*g_alloc_probe)();

class TestBed {
 public:
  // `populate_spec` fixes the key count and per-key value sizing.
  TestBed(IndexType index_type, const WorkloadSpec& populate_spec,
          unsigned server_workers = 28,
          const sim::MachineConfig& machine = sim::MachineConfig{},
          const sim::NicConfig& nic = sim::NicConfig{}, uint64_t seed = 1);
  ~TestBed();

  ExperimentResult Run(const ExperimentConfig& cfg);

  IndexType index_type() const { return index_type_; }
  unsigned server_workers() const { return server_workers_; }
  KvIndex* index() { return index_.get(); }
  sim::MemoryModel* mem() { return mem_.get(); }
  const WorkloadSpec& populate_spec() const { return populate_spec_; }

 private:
  void Populate();
  void BuildRaceHash();
  void BuildSherman();

  IndexType index_type_;
  WorkloadSpec populate_spec_;
  unsigned server_workers_;
  sim::MachineConfig machine_;
  sim::NicConfig nic_cfg_;
  uint64_t seed_;

  std::unique_ptr<sim::Arena> arena_;
  std::unique_ptr<sim::MemoryModel> mem_;
  std::unique_ptr<SlabAllocator> slab_;
  std::unique_ptr<KvIndex> index_;
  std::vector<Item*> items_;  // by key
  std::vector<std::unique_ptr<KvIndex>> shards_;
  std::unique_ptr<RaceHashPassive> racehash_;
  std::unique_ptr<ShermanPassive> sherman_;
};

}  // namespace utps

#endif  // UTPS_HARNESS_EXPERIMENT_H_
