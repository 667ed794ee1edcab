#include "harness/experiment.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "harness/kv_client.h"
#include "index/btree.h"
#include "index/cuckoo.h"
#include "stats/staged.h"
#include "stats/streaming.h"

namespace utps {

uint64_t (*g_alloc_probe)() = nullptr;

using sim::Engine;
using sim::ExecCtx;
using sim::Fiber;
using sim::Nic;
using sim::Tick;

namespace {

// State shared by the harness and every client fiber of one run.
struct ClientShared {
  const WorkloadSpec* spec = nullptr;  // swapped for dynamic workloads
  bool supports_scan = true;
  bool measuring = false;
  bool stop = false;
  uint64_t ops = 0;
  Histogram hist;
  HistogramStage stage;  // staged latency samples; flushed into hist before
                         // any read of it (stats/staged.h)
  TimeSeries* timeline = nullptr;
  // fig15: per-bucket latency histograms for the P99 timeline.
  std::vector<Histogram>* lat_timeline = nullptr;
  Tick lat_bucket_ns = 0;
};

// Closed-loop bench client: generates the workload's ops, issues each
// through its KvClient, and records the latency.
Fiber ClientFiber(ExecCtx* ctx, KvClient* client, ClientShared* sh,
                  uint64_t id, uint64_t seed) {
  WorkloadGenerator gen(*sh->spec, seed + id * 1000003);
  const WorkloadSpec* cur = sh->spec;
  while (!sh->stop) {
    if (cur != sh->spec) {  // dynamic workload switch (Figure 14)
      cur = sh->spec;
      gen = WorkloadGenerator(*cur, seed + id * 1000003 + 17);
    }
    Op op = gen.Next();
    if (op.type == OpType::kScan && !sh->supports_scan) {
      op.type = OpType::kGet;
    }
    const Tick t0 = ctx->Now();
    if (op.type == OpType::kScan) {
      co_await client->Call(*ctx, op.type, op.key, op.value_size, op.scan_count,
                            op.key + op.scan_count - 1);
    } else {
      co_await client->Call(*ctx, op.type, op.key, op.value_size);
    }
    const Tick lat = ctx->Now() - t0;
    if (sh->measuring) {
      sh->ops++;
      sh->stage.Record(lat, &sh->hist);
    }
    if (sh->timeline != nullptr) {
      sh->timeline->Add(ctx->Now(), 1);
    }
    if (sh->lat_timeline != nullptr) {
      const size_t b = static_cast<size_t>(ctx->Now() / sh->lat_bucket_ns);
      if (b >= sh->lat_timeline->size()) {
        sh->lat_timeline->resize(b + 1);
      }
      (*sh->lat_timeline)[b].Record(lat);
    }
  }
}

}  // namespace

TestBed::TestBed(IndexType index_type, const WorkloadSpec& populate_spec,
                 unsigned server_workers, const sim::MachineConfig& machine,
                 const sim::NicConfig& nic, uint64_t seed)
    : index_type_(index_type),
      populate_spec_(populate_spec),
      server_workers_(server_workers),
      machine_(machine),
      nic_cfg_(nic),
      seed_(seed) {
  machine_.num_cores = std::max<unsigned>(machine_.num_cores, server_workers + 1);
  // Size the arena: items + index + shards + passive structures + headroom.
  const uint64_t n = populate_spec.num_keys;
  uint64_t avg_item = 64;
  for (int probe = 0; probe < 256; probe++) {
    avg_item += Item::AllocSize(ValueSizeOfKey(populate_spec, probe * 1315423911u % n));
  }
  avg_item /= 256;
  const size_t bytes = n * (avg_item + 32) * 2 + n * 160 + (1ull << 30);
  arena_ = std::make_unique<sim::Arena>(bytes);
  mem_ = std::make_unique<sim::MemoryModel>(machine_);
  slab_ = std::make_unique<SlabAllocator>(arena_.get());
  Populate();
}

TestBed::~TestBed() = default;

void TestBed::Populate() {
  const uint64_t n = populate_spec_.num_keys;
  items_.resize(n);
  for (Key k = 0; k < n; k++) {
    const uint32_t len = ValueSizeOfKey(populate_spec_, k);
    Item* it = slab_->AllocateItem(k, len);
    // Deterministic value pattern for verification.
    for (uint32_t b = 0; b < len; b++) {
      it->value()[b] = static_cast<uint8_t>(k + b);
    }
    it->value_len = len;
    items_[k] = it;
  }
  if (index_type_ == IndexType::kHash) {
    auto idx = std::make_unique<CuckooIndex>(arena_.get(), n + n / 4, seed_);
    for (Key k = 0; k < n; k++) {
      UTPS_CHECK(idx->InsertDirect(k, items_[k]));
    }
    index_ = std::move(idx);
  } else {
    auto idx = std::make_unique<BTreeIndex>(arena_.get());
    std::vector<std::pair<Key, Item*>> sorted;
    sorted.reserve(n);
    for (Key k = 0; k < n; k++) {
      sorted.emplace_back(k, items_[k]);
    }
    idx->BulkLoadDirect(sorted);
    index_ = std::move(idx);
  }
}

void TestBed::BuildRaceHash() {
  if (racehash_ != nullptr) {
    return;
  }
  racehash_ = std::make_unique<RaceHashPassive>(arena_.get(),
                                                populate_spec_.num_keys);
  for (Key k = 0; k < populate_spec_.num_keys; k++) {
    UTPS_CHECK(racehash_->InsertDirect(k, items_[k]));
  }
}

void TestBed::BuildSherman() {
  if (sherman_ != nullptr) {
    return;
  }
  sherman_ = std::make_unique<ShermanPassive>(arena_.get());
  std::vector<std::pair<Key, Item*>> sorted;
  sorted.reserve(populate_spec_.num_keys);
  for (Key k = 0; k < populate_spec_.num_keys; k++) {
    sorted.emplace_back(k, items_[k]);
  }
  sherman_->BulkLoadDirect(sorted);
}

ExperimentResult TestBed::Run(const ExperimentConfig& cfg) {
  UTPS_CHECK(cfg.workload.num_keys == populate_spec_.num_keys);
  // Only the serial engine exists: fail loudly on a config that still asks
  // for host threads rather than silently running serially.
  UTPS_CHECK_MSG(cfg.sim_threads <= 1,
                 "sim_threads=%u: the host-parallel simulation backend was "
                 "removed; only the serial engine (0 or 1) remains",
                 cfg.sim_threads);
  Engine eng;
  // Per-run arena for server-side structures (rings, response buffers).
  sim::Arena run_arena(512ull << 20);
  mem_->FlushAll();
  mem_->ResetCounters();
  mem_->SetStolenWays(0);  // a prior faulted point must not leak into this one
  ResetItemContention();
  const unsigned rings =
      cfg.system == SystemKind::kErpcKv ? server_workers_ : 1;
  Nic nic(&eng, mem_.get(), nic_cfg_, rings);

  // Observability bundle: one per run so traces/metrics cover exactly this
  // point. Cores [0, W) are server workers, core W the μTPS manager.
  std::unique_ptr<obs::Observer> observer;
  if (cfg.obs.any()) {
    observer = std::make_unique<obs::Observer>(cfg.obs, server_workers_ + 1);
    if (obs::Tracer* trc = observer->tracer()) {
      trc->SetProcessName(obs::Tracer::kServerPid, "server");
      trc->SetProcessName(obs::Tracer::kClientPid, "clients");
      trc->SetProcessName(obs::Tracer::kNicPid, "nic");
    }
  }

  // Fault injection (DESIGN.md §9): armed before the server is built so
  // worker loops see the injector from their first iteration.
  std::unique_ptr<fault::FaultInjector> inj;
  if (cfg.fault.enabled()) {
    inj = std::make_unique<fault::FaultInjector>(cfg.fault);
    inj->Install(&eng, &nic, mem_.get(),
                 observer != nullptr ? observer->tracer() : nullptr);
  }

  // Durable log (DESIGN.md §10): one per run, like the NIC. Null unless
  // configured so default points stay byte-identical.
  std::unique_ptr<wal::WalManager> walm;
  if (cfg.wal.enabled) {
    walm = std::make_unique<wal::WalManager>(cfg.wal);
  }

  ServerEnv env;
  env.eng = &eng;
  env.mem = mem_.get();
  env.nic = &nic;
  env.fault = inj.get();
  env.arena = &run_arena;
  env.slab = slab_.get();
  env.index = index_.get();
  env.index_type = index_type_;
  env.num_workers = server_workers_;
  env.obs = observer.get();
  env.wal = walm.get();

  std::unique_ptr<KvServer> server;
  PassiveKv* passive = nullptr;
  MuTpsServer* mutps = nullptr;
  switch (cfg.system) {
    case SystemKind::kMuTps: {
      auto s = std::make_unique<MuTpsServer>(env, cfg.mutps);
      mutps = s.get();
      server = std::move(s);
      break;
    }
    case SystemKind::kBaseKv: {
      server = std::make_unique<BaseKvServer>(env);
      break;
    }
    case SystemKind::kErpcKv: {
      if (shards_.empty()) {
        const uint64_t n = populate_spec_.num_keys;
        const unsigned w = server_workers_;
        shards_ = BaseKvServer::BuildShards(arena_.get(), index_type_, items_,
                                            w, n / w + n / w / 2 + 64, seed_);
      }
      server = std::make_unique<BaseKvServer>(env, shards_);
      break;
    }
    case SystemKind::kRaceHash: {
      BuildRaceHash();
      passive = racehash_.get();
      break;
    }
    case SystemKind::kSherman: {
      BuildSherman();
      passive = sherman_.get();
      break;
    }
  }
  if (passive != nullptr) {
    passive->SetNic(&nic);
  }
  if (server != nullptr) {
    server->Start();
  }

  // Clients.
  constexpr Tick kTimelineBucketNs = 100 * sim::kUsec;
  ClientShared sh;
  sh.spec = &cfg.workload;
  sh.supports_scan = index_type_ == IndexType::kTree &&
                     cfg.system != SystemKind::kRaceHash;
  // Under faults, two-sided clients must retry (a dropped message would
  // otherwise hang the fiber). One-sided verbs model reliable RDMA.
  const KvTarget target{.nic = &nic, .server = server.get(), .passive = passive,
                        .use_retry = inj != nullptr && server != nullptr};
  TimeSeries timeline(kTimelineBucketNs);
  std::vector<Histogram> lat_timeline;
  if (cfg.record_timeline) {
    sh.timeline = &timeline;
  }
  if (cfg.record_latency_timeline) {
    sh.lat_timeline = &lat_timeline;
    sh.lat_bucket_ns = kTimelineBucketNs;
  }
  const unsigned num_fibers = cfg.client_threads * cfg.pipeline_depth;
  // Clients live here, not in the fiber frames: a fault plan can deliver
  // delayed/duplicated messages after a fiber has exited.
  std::vector<KvClient> clients;
  clients.reserve(num_fibers);
  std::vector<ExecCtx> cli_ctxs(num_fibers);
  for (unsigned i = 0; i < num_fibers; i++) {
    clients.emplace_back(&target, i, 1536, static_cast<uint8_t>(i + 1),
                         /*copy_responses=*/false);
    cli_ctxs[i] = ExecCtx{.eng = &eng, .mem = nullptr, .core = 0};
    eng.Spawn(ClientFiber(&cli_ctxs[i], &clients[i], &sh, i, cfg.seed));
  }

  // Warm up; for auto-tuned μTPS, wait until the first tuning pass finishes.
  eng.Run(cfg.warmup_ns);
  if (mutps != nullptr) {
    while (!mutps->tuned() && eng.now() < cfg.max_warmup_ns) {
      eng.Run(eng.now() + sim::kMsec);
    }
    eng.Run(eng.now() + sim::kMsec);  // settle after tuning
  }

  // Measure.
  if (server != nullptr) {
    server->ResetStats();
  }
  mem_->ResetCounters();
  if (observer != nullptr) {
    observer->ResetCycles();  // cycle accounting covers the window only
  }
  const bool sampled = cfg.sample.enabled;
  const uint64_t allocs0 = g_alloc_probe != nullptr ? g_alloc_probe() : 0;
  const Tick t0 = eng.now();
  stats::StreamingCi win_rate;  // per-window throughput observations (Mops)
  Tick detail_ns = 0;
  if (sampled) {
    // Sampled simulation (DESIGN.md §12): alternate functional fast-forward
    // segments with detailed windows placed by the seeded plan. The window
    // plan is a pure function of (sample config, period index), and every
    // mode flip and counter read happens between eng.Run calls, so the whole
    // measure phase is deterministic.
    UTPS_CHECK(cfg.phase2 == nullptr);  // phase switch would race the plan
    const sim::SampleConfig& sc = cfg.sample;
    UTPS_CHECK(sc.period_ns >= sc.DetailPerPeriod());
    const Tick end = t0 + cfg.measure_ns;
    uint64_t period = 0;
    for (Tick pstart = t0; pstart < end; pstart += sc.period_ns, period++) {
      const Tick pend = std::min(pstart + sc.period_ns, end);
      const Tick dstart = pstart + sim::SampleWindowOffset(sc, period);
      const Tick wstart = dstart + sc.rewarm_ns;
      const Tick wend = wstart + sc.window_ns;
      if (wend > pend) {
        // Tail period too short for a full window: fast-forward through it
        // rather than biasing the estimate with a truncated sample.
        mem_->SetFastForward(true);
        eng.Run(pend);
        continue;
      }
      mem_->SetFastForward(true);
      eng.Run(dstart);
      // Rewarm prefix: detailed but unmeasured — absorbs cache re-warm and
      // drains requests issued under functional costs. The biased negative-
      // control plan skips the switch and "measures" functional execution.
      if (sc.plan != sim::SamplePlan::kBiased) {
        mem_->SetFastForward(false);
      }
      eng.Run(wstart);
      const uint64_t before = sh.ops;
      sh.measuring = true;
      eng.Run(wend);
      sh.measuring = false;
      const uint64_t delta = sh.ops - before;
      win_rate.Add(static_cast<double>(delta) * 1000.0 /
                   static_cast<double>(sc.window_ns));
      detail_ns += sc.window_ns;
      mem_->SetFastForward(true);
      eng.Run(pend);
    }
    mem_->SetFastForward(false);  // drain and shutdown run fully detailed
  } else {
    sh.measuring = true;
    eng.Run(t0 + cfg.measure_ns);
    // Dynamic-workload phase (Figure 14): switch the spec and keep running.
    if (cfg.phase2 != nullptr) {
      eng.Run(t0 + cfg.phase2_at_ns);
      sh.spec = cfg.phase2;
      eng.Run(t0 + cfg.phase2_at_ns + cfg.phase2_extra_ns);
    }
    sh.measuring = false;
  }
  const Tick t1 = eng.now();
  const uint64_t measure_allocs =
      g_alloc_probe != nullptr ? g_alloc_probe() - allocs0 : 0;

  sh.stage.FlushTo(&sh.hist);
  const uint64_t total_ops = sh.ops;
  const Histogram& hist = sh.hist;

  ExperimentResult res;
  res.ops = total_ops;
  res.mops = t1 == t0 ? 0.0
                      : static_cast<double>(total_ops) * 1000.0 /
                            static_cast<double>(t1 - t0);
  if (sampled) {
    // Extrapolation: mean per-window rate projects onto the full interval;
    // P50/P99 come from the merged in-window histograms below.
    res.sampled = true;
    res.est_mops = win_rate.Mean();
    res.est_mops_ci95 = win_rate.Ci95();
    res.detail_windows = win_rate.Count();
    res.detail_ns = detail_ns;
    res.mops = res.est_mops;
  }
  res.p50_ns = hist.Percentile(0.5);
  res.p99_ns = hist.Percentile(0.99);
  res.mean_ns = static_cast<Tick>(hist.Mean());
  // Stage-attributed cache stats over the server cores.
  sim::StageCounters net{};
  sim::StageCounters idx{};
  sim::StageCounters all{};
  for (unsigned c = 0; c < server_workers_; c++) {
    const auto& cc = mem_->Counters(c);
    net.Add(cc.by_stage[static_cast<unsigned>(sim::Stage::kPoll)]);
    net.Add(cc.by_stage[static_cast<unsigned>(sim::Stage::kParse)]);
    net.Add(cc.by_stage[static_cast<unsigned>(sim::Stage::kRespond)]);
    net.Add(cc.by_stage[static_cast<unsigned>(sim::Stage::kCacheCheck)]);
    idx.Add(cc.by_stage[static_cast<unsigned>(sim::Stage::kIndex)]);
    idx.Add(cc.by_stage[static_cast<unsigned>(sim::Stage::kData)]);
    all.Add(cc.Total());
  }
  res.poll_miss_rate = net.LlcMissRate();
  res.index_miss_rate = idx.LlcMissRate();
  res.llc_miss_rate = all.LlcMissRate();
  if (mutps != nullptr) {
    res.ncr = mutps->ncr();
    res.nmr = mutps->nmr();
    res.cache_items = mutps->cache_items();
    res.mr_ways = mutps->mr_ways();
    res.reconfigs = mutps->reconfig_count();
  }
  if (cfg.record_timeline) {
    res.timeline_bucket_ns = timeline.bucket_ns();
    for (size_t i = 0; i < timeline.NumBuckets(); i++) {
      res.timeline_mops.push_back(timeline.RateAt(i) / 1e6);
    }
  }
  if (mutps != nullptr) {
    res.hot_hits = mutps->hot_hits();
    res.hot_misses = mutps->hot_misses();
  }
  for (const KvClient& c : clients) {
    res.retries += c.retries();
  }
  if (inj != nullptr) {
    res.fault_counters = inj->counters();
  }
  if (mutps != nullptr) {
    res.failovers = mutps->failover_count();
    res.salvaged_slots = mutps->salvaged_slots();
    res.dedup_suppressed = mutps->dedup_suppressed();
  }
  if (cfg.record_latency_timeline) {
    if (res.timeline_bucket_ns == 0) {
      res.timeline_bucket_ns = kTimelineBucketNs;
    }
    for (auto& h : lat_timeline) {
      res.timeline_p99_ns.push_back(h.Percentile(0.99));
    }
  }
  if (walm != nullptr) {
    res.wal_counters = walm->counters();
  }

  // Observability outputs — built at t1, before the drain below, so the
  // report covers exactly the measurement window.
  if (observer != nullptr) {
    const uint64_t server_ops =
        server != nullptr ? server->OpsCompleted() : total_ops;
    res.cycles = observer->BuildCycleReport(server_workers_ + 1, server_ops);
    if (obs::MetricsRegistry* m = observer->metrics()) {
      const Engine::Stats& es = eng.stats();
      m->Count("engine", "events_processed", es.events_processed);
      m->Count("engine", "events_scheduled", es.events_scheduled);
      m->SetGauge("engine", "peak_heap", es.peak_heap);
      m->Count("nic", "rx_messages", nic.rx_messages());
      m->Count("nic", "tx_messages", nic.tx_messages());
      m->Count("nic", "rx_bytes", nic.rx_bytes());
      m->Count("nic", "tx_bytes", nic.tx_bytes());
      m->SetGauge("nic", "peak_ring_depth", nic.peak_ring_depth());
      const sim::StageCounters mc = mem_->TotalCounters();
      m->Count("cache", "accesses", mc.accesses);
      m->Count("cache", "priv_hits", mc.priv_hits);
      m->Count("cache", "llc_hits", mc.llc_hits);
      m->Count("cache", "llc_misses", mc.llc_misses);
      m->Count("cache", "io_reads", mem_->io_reads());
      m->Count("cache", "io_writes", mem_->io_writes());
      if (server != nullptr) {
        server->ExportMetrics(m);
      }
      res.metrics_dump = m->ToString();
    }
    if (obs::Tracer* trc = observer->tracer()) {
      res.trace_events = trc->num_events();
      res.trace_dropped = trc->dropped();
      // Skip event-less traces (passive systems have no instrumented server),
      // so a sweep's shared trace path keeps the last point that recorded
      // anything instead of a metadata-only file.
      if (!cfg.obs.trace_path.empty() && trc->num_events() > 0) {
        if (trc->WriteFile(cfg.obs.trace_path)) {
          res.trace_file = cfg.obs.trace_path;
        } else {
          std::fprintf(stderr, "obs: failed to write trace to %s\n",
                       cfg.obs.trace_path.c_str());
        }
      }
    }
  }

  // Drain and shut down.
  sh.stop = true;
  eng.Run(eng.now() + 500 * sim::kUsec);
  if (server != nullptr) {
    server->Stop();
  }
  eng.Run(eng.now() + 200 * sim::kUsec);
  if (walm != nullptr) {
    walm->Stop();  // log-writer drains pending syncs and exits
    eng.Run(eng.now() + 100 * sim::kUsec);
  }
  const Engine::Stats& sched = eng.stats();
  res.sched_events = sched.events_processed;
  res.sched_peak_pending = sched.peak_heap;
  res.sched_clamps = sched.sealed_clamps;
  res.measure_allocs = measure_allocs;
  return res;
}

}  // namespace utps
