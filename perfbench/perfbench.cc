// perfbench: one workload of the repository benchmark (README.md in this
// directory). Drives the auto-tuned μTPS server through the public TestBed
// API, audits the store after every run, and prints one JSON line with the
// raw numbers; run.py builds this binary, runs it and formats the result.
//
//   perfbench --workload tree-ycsba --seed 1 --trace 0 --seconds 30
//             --trace-out trace.json
//
// --trace 0 measures the end-to-end metrics: the workload's `runs` bed.Run
// calls on seeds derived from --seed, each on a freshly populated TestBed and
// followed by the store audit. Before each run, kExtraSetups more TestBeds
// are constructed for set-up samples only; every construction is one setup_s
// sample. While the CPU time spent in bed.Run is below --seconds, further
// runs replay the same seeds in turn; they add host-time samples only, so the
// simulated metrics depend on the seed alone.
// --trace 1 measures the per-layer metrics: one untraced and one traced run
// on the first derived seed (their simulated metrics must be identical),
// then host-side kernels timed against the public layer functions.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness/bench_util.h"
#include "harness/experiment.h"
#include "obs/trace.h"
#include "rules.h"
#include "sim/arena.h"
#include "sim/cache.h"
#include "sim/engine.h"
#include "sim/exec.h"
#include "store/item.h"
#include "workload/workload.h"

// ----------------------------------------------------------- allocation probe
// Every heap allocation in this binary passes through these; the harness reads
// the counter at its measure-phase boundaries (harness.measure_allocs).
namespace {
std::atomic<uint64_t> g_new_calls{0};
uint64_t AllocProbe() { return g_new_calls.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& nt) noexcept {
  return ::operator new(size, nt);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
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

namespace {

using utps::ExperimentConfig;
using utps::ExperimentResult;
using utps::IndexType;
using utps::TestBed;
using utps::WorkloadSpec;
namespace sim = utps::sim;

// ------------------------------------------------------------------ workloads
// Why each one exists is in README.md; keep the two in step.
struct Workload {
  const char* name;
  IndexType index;
  WorkloadSpec spec;
  // bed.Run calls on distinct seeds per --trace 0 invocation. A run costs
  // 5-16 s of host time (a stalled tree-scan run up to 26 s), so these keep
  // an invocation near a minute even on a host slowed 2x.
  unsigned runs;
};

std::vector<Workload> Workloads() {
  return {
      {"tree-ycsba", IndexType::kTree, WorkloadSpec::YcsbA(2'000'000, 64), 4},
      {"hash-ycsbc", IndexType::kHash, WorkloadSpec::YcsbC(200'000, 64), 4},
      {"tree-scan", IndexType::kTree, WorkloadSpec::YcsbE(2'000'000, 64), 2},
  };
}

// TestBed constructions made only for setup_s samples, before each run's own.
// Most of a populate's host time is page faults on fresh arena memory, whose
// cost drifts with the host over seconds, so the samples are spread over the
// invocation instead of taken in one burst. A tree populate costs 0.2-0.35 s.
constexpr unsigned kExtraSetups = 3;

// The figure benches' tuned μTPS point, pinned to the serial engine and with
// every environment-selected profile (faults, WAL, sampling, observability)
// off: the benchmark's inputs come from its arguments only.
ExperimentConfig BenchConfig(const Workload& w, uint64_t seed) {
  ExperimentConfig cfg = utps::bench::StdConfig(utps::SystemKind::kMuTps, w.spec);
  cfg.fault = {};
  cfg.wal = {};
  cfg.sample = {};
  cfg.obs = {};
  cfg.sim_threads = 1;
  cfg.seed = seed;
  cfg.record_timeline = true;
  return cfg;
}

// Seed of the i-th run of a benchmark invocation.
uint64_t RunSeed(uint64_t seed, unsigned i) {
  return utps::Mix64(seed * 0x9e3779b97f4a7c15ULL + i + 1);
}

// FNV-1a over every configuration value that shapes the simulated result.
uint64_t ConfigDigest(const Workload& w, const ExperimentConfig& c) {
  char buf[1024];
  std::string opt;
  for (uint32_t s : c.mutps.cache_sizes) {
    opt += std::to_string(s) + ",";
  }
  std::snprintf(
      buf, sizeof(buf),
      "%s|idx%d|keys%" PRIu64 "|v%u|z%.4f|g%.4f|p%.4f|s%.4f|sl%u|c%u|d%u|"
      "w%" PRIu64 "|m%" PRIu64 "|mw%" PRIu64 "|at%d|tl%d|tw%" PRIu64
      "|rp%" PRIu64 "|cs%s|st%u|runs%u",
      w.name, static_cast<int>(w.index), c.workload.num_keys,
      c.workload.value_size, c.workload.zipf_theta, c.workload.get_ratio,
      c.workload.put_ratio, c.workload.scan_ratio, c.workload.scan_len_avg,
      c.client_threads, c.pipeline_depth, c.warmup_ns, c.measure_ns,
      c.max_warmup_ns, c.mutps.autotune ? 1 : 0, c.mutps.tune_llc ? 1 : 0,
      c.mutps.tune_window_ns, c.mutps.refresh_period_ns, opt.c_str(),
      c.sim_threads, w.runs);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char* p = buf; *p != '\0'; p++) {
    h = (h ^ static_cast<uint8_t>(*p)) * 0x100000001b3ULL;
  }
  return h;
}

// ------------------------------------------------------------- host clocks
double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  double mb = 0.0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

volatile uint64_t g_sink = 0;

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Host spans around the benchmark's own calls (populate, each bed.Run, each
// kernel) go to a utps::obs::Tracer whose ticks are these nanoseconds.
uint64_t HostNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

constexpr uint32_t kSpanPid = 1;
constexpr uint32_t kSpanTid = 1;

// ------------------------------------------------------------- correctness
// The store must be intact after every run: the index audits clean, holds
// exactly the populated keys, and each key resolves to an item with that key.
bool AuditStore(TestBed& bed, uint64_t keys, std::string* err) {
  utps::KvIndex* idx = bed.index();
  if (!idx->AuditDirect(err)) {
    return false;
  }
  if (idx->SizeDirect() != keys) {
    *err = "index holds " + std::to_string(idx->SizeDirect()) + " keys, want " +
           std::to_string(keys);
    return false;
  }
  for (utps::Key k = 0; k < keys; k++) {
    const utps::Item* it = idx->GetDirect(k);
    if (it == nullptr || it->key != k) {
      *err = "key " + std::to_string(k) + " does not resolve to its item";
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------- one run, accounted
struct SimRow {
  double mops = 0.0;
  uint64_t ops = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool located = false;
  bool stalled = false;
  uint64_t mismatch = 0;  // timeline sum over the window vs. the harness ops
  unsigned ncr = 0;
  unsigned nmr = 0;
  uint64_t reconfigs = 0;
  uint64_t events = 0;
  uint64_t answered_total = 0;  // every answered request, warm-up included
  uint64_t answered_to_end = 0;  // answered before the window closed
};

SimRow Account(const ExperimentConfig& cfg, const ExperimentResult& r) {
  SimRow row;
  std::vector<uint64_t> counts;
  counts.reserve(r.timeline_mops.size());
  for (double mops : r.timeline_mops) {
    // RateAt() = count * 1e9 / bucket_ns ops/s; the timeline holds Mops.
    counts.push_back(static_cast<uint64_t>(
        std::llround(mops * static_cast<double>(r.timeline_bucket_ns) / 1e3)));
    row.answered_total += counts.back();
  }
  // The warm-up advances in whole milliseconds, so the window ends on one.
  const uint64_t bucket = r.timeline_bucket_ns > 0 ? r.timeline_bucket_ns : 1;
  const perfbench::WindowVerdict v = perfbench::LocateWindow(
      counts, r.ops, cfg.measure_ns / bucket, sim::kMsec / bucket,
      /*tolerance=*/64);
  const uint64_t in_flight =
      static_cast<uint64_t>(cfg.client_threads) * cfg.pipeline_depth;
  const perfbench::Outcome out =
      perfbench::CountOutcome(r.ops, in_flight, v.stalled);
  const double run_len_us = static_cast<double>(cfg.measure_ns) / 1e3;
  row.mops = r.mops;
  row.ops = r.ops;
  row.p50_us = perfbench::MergedPercentile(0.5, r.ops, out.failed,
                                           static_cast<double>(r.p50_ns) / 1e3,
                                           run_len_us);
  row.p99_us = perfbench::MergedPercentile(0.99, r.ops, out.failed,
                                           static_cast<double>(r.p99_ns) / 1e3,
                                           run_len_us);
  row.attempted = out.attempted;
  row.failed = out.failed;
  row.located = v.located;
  row.stalled = v.stalled;
  row.mismatch = v.mismatch;
  row.ncr = r.ncr;
  row.nmr = r.nmr;
  row.reconfigs = r.reconfigs;
  row.events = r.sched_events;
  const size_t end = v.located && v.end_bucket > 0
                         ? std::min<size_t>(v.end_bucket, counts.size())
                         : counts.size();
  for (size_t i = 0; i < end; i++) {
    row.answered_to_end += counts[i];
  }
  return row;
}

// Simulated outputs that tracing must leave untouched.
bool SameSimulation(const ExperimentResult& a, const ExperimentResult& b) {
  return a.ops == b.ops && a.mops == b.mops && a.p50_ns == b.p50_ns &&
         a.p99_ns == b.p99_ns && a.mean_ns == b.mean_ns &&
         a.llc_miss_rate == b.llc_miss_rate &&
         a.poll_miss_rate == b.poll_miss_rate &&
         a.index_miss_rate == b.index_miss_rate && a.ncr == b.ncr &&
         a.nmr == b.nmr && a.cache_items == b.cache_items &&
         a.reconfigs == b.reconfigs && a.hot_hits == b.hot_hits &&
         a.hot_misses == b.hot_misses && a.timeline_mops == b.timeline_mops;
}

// ------------------------------------------------------------ JSON output
class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  body_.empty() ? "" : ",", name.c_str(), value, unit);
    body_ += buf;
    std::printf("  %-34s %16.6f %s\n", name.c_str(), value, unit);
  }
  std::string Json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ------------------------------------------------------------ host kernels
// Host cost of single calls into the layers the simulator spends its time
// in, each timed as CPU time over `n` calls, median of five repetitions.
template <typename Fn>
double KernelNs(utps::obs::Tracer& spans, const char* name, uint64_t n,
                Fn&& body) {
  const uint64_t start = HostNs();
  std::vector<double> reps;
  for (int rep = 0; rep < 5; rep++) {
    const double t0 = CpuSeconds();
    body(n);
    reps.push_back((CpuSeconds() - t0) * 1e9 / static_cast<double>(n));
  }
  spans.Span("perfbench", name, kSpanPid, kSpanTid, start, HostNs());
  return Median(reps);
}

sim::Fiber DelayLoop(sim::ExecCtx* ctx, uint64_t n, uint64_t seed) {
  utps::Rng rng(seed);
  for (uint64_t i = 0; i < n; i++) {
    // A fixed mix of wake-up horizons, the same for every workload and not
    // measured from any run (the engine does not record its horizons):
    // 13/16 under 64 ns, 2/16 of 0.1-1.1 us, 1/16 of 2-10 us, which partly
    // lands beyond the 8 us ring in the far heap.
    const uint64_t r = rng.Next();
    sim::Tick d = (r >> 8) % 64;
    if ((r & 15) == 0) {
      d = 2000 + (r >> 8) % 8000;
    } else if ((r & 15) < 3) {
      d = 100 + (r >> 8) % 1000;
    }
    co_await ctx->Delay(d);
  }
}

// Fixed host loop that uses no repository code: a dependent xorshift chain
// over a 256 KB table. Its ns/iteration is the host-speed reference.
double CalibNs() {
  std::vector<uint32_t> table(1u << 16);
  for (uint32_t i = 0; i < table.size(); i++) {
    table[i] = i * 2654435761u;
  }
  std::vector<double> reps;
  constexpr uint64_t kIters = 20'000'000;
  for (int rep = 0; rep < 3; rep++) {
    uint64_t x = 88172645463325252ULL;
    uint32_t idx = 0;
    const double t0 = CpuSeconds();
    for (uint64_t i = 0; i < kIters; i++) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      idx = (idx + table[x & 0xffff]) & 0xffff;
      table[idx] += static_cast<uint32_t>(x);
    }
    reps.push_back((CpuSeconds() - t0) * 1e9 / static_cast<double>(kIters));
    g_sink = g_sink + idx;
  }
  return Median(reps);
}

std::map<std::string, uint64_t> ParseMetrics(const std::string& dump) {
  std::map<std::string, uint64_t> m;
  size_t pos = 0;
  while (pos < dump.size()) {
    size_t nl = dump.find('\n', pos);
    if (nl == std::string::npos) {
      nl = dump.size();
    }
    const std::string line = dump.substr(pos, nl - pos);
    const size_t eq = line.find(" = ");
    if (eq != std::string::npos && line.find('[') == std::string::npos) {
      m[line.substr(0, eq)] = std::strtoull(line.c_str() + eq + 3, nullptr, 10);
    }
    pos = nl + 1;
  }
  return m;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int trace = 0;
  double seconds = 0.0;
  std::string trace_out;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--trace <0|1> [--seconds s] "
               "[--trace-out file]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return Usage(("unknown flag " + k).c_str());
    }
  }
  const Workload* w = nullptr;
  const std::vector<Workload> all = Workloads();
  for (const Workload& cand : all) {
    if (a.workload == cand.name) {
      w = &cand;
    }
  }
  if (w == nullptr) {
    return Usage("unknown workload");
  }
  if (a.trace != 0 && a.trace != 1) {
    return Usage("--trace must be 0 or 1");
  }
  if (utps::BenchScale() != 1.0) {
    return Usage("MUTPS_BENCH_SCALE must be unset: it resizes the windows");
  }
  const uint64_t keys = w->spec.num_keys;
  const ExperimentConfig base = BenchConfig(*w, RunSeed(a.seed, 0));
  const double calib_ns = CalibNs();
  std::printf(
      "provenance: workload=%s seed=%" PRIu64 " config_digest=%016" PRIx64
      " host.calib_ns=%.4f\n",
      w->name, a.seed, ConfigDigest(*w, base), calib_ns);

  utps::obs::Tracer spans;
  const uint64_t root_start = HostNs();
  bool correct = true;
  std::string err;
  JsonMetrics metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Every bed.Run gets a freshly populated TestBed: puts move items, so a
  // reused bed would make each run depend on the ones before it. Each
  // construction is one set-up sample.
  std::unique_ptr<TestBed> bed;
  std::vector<double> setup_s;
  const auto Populate = [&] {
    bed.reset();
    const uint64_t start = HostNs();
    const double s0 = CpuSeconds();
    bed = std::make_unique<TestBed>(w->index, w->spec);
    setup_s.push_back(CpuSeconds() - s0);
    spans.Span("perfbench", "populate", kSpanPid, kSpanTid, start, HostNs());
  };
  const auto TimedRun = [&](const ExperimentConfig& cfg, const char* label,
                            double* cpu_s) {
    Populate();
    if (correct && !AuditStore(*bed, keys, &err)) {
      std::fprintf(stderr, "perfbench: audit after populate failed: %s\n",
                   err.c_str());
      correct = false;
    }
    const uint64_t start = HostNs();
    const double t0 = CpuSeconds();
    ExperimentResult r = bed->Run(cfg);
    *cpu_s = CpuSeconds() - t0;
    spans.Span("perfbench", label, kSpanPid, kSpanTid, start, HostNs());
    if (correct && !AuditStore(*bed, keys, &err)) {
      std::fprintf(stderr, "perfbench: audit after %s failed: %s\n", label,
                   err.c_str());
      correct = false;
    }
    return r;
  };

  if (a.trace == 0) {
    std::vector<SimRow> rows(w->runs);
    std::vector<double> host_s;
    double spent = 0.0;
    for (unsigned k = 0; k < w->runs || spent < a.seconds; k++) {
      const unsigned pass = k / w->runs;
      const unsigned i = k % w->runs;
      const ExperimentConfig cfg = BenchConfig(*w, RunSeed(a.seed, i));
      for (unsigned j = 0; j < kExtraSetups; j++) {
        Populate();
      }
      double cpu = 0.0;
      const ExperimentResult r = TimedRun(cfg, "bed.Run", &cpu);
      host_s.push_back(cpu);
      spent += cpu;
      const SimRow row = Account(cfg, r);
      if (pass == 0) {
        rows[i] = row;
      } else if (row.ops != rows[i].ops || row.mops != rows[i].mops ||
                 row.p99_us != rows[i].p99_us) {
        // A repeated seed must replay the same simulation exactly.
        std::fprintf(stderr, "perfbench: run %u is not deterministic\n", i);
        correct = false;
      }
      if (!row.located) {
        std::fprintf(stderr,
                     "perfbench: run %u: no window position matches the "
                     "%" PRIu64 " ops the harness counted\n",
                     i, r.ops);
        correct = false;
      }
      std::printf(
          "  run %u.%u seed=%" PRIu64 " host_s=%.4f sim_mops=%.3f "
          "p50_us=%.3f p99_us=%.3f (ops %" PRIu64 ") attempted=%" PRIu64
          " failed=%" PRIu64 "%s ncr=%u nmr=%u reconfigs=%" PRIu64
          " events=%" PRIu64 " window_mismatch=%" PRIu64 "\n",
          pass, i, cfg.seed, cpu, row.mops, row.p50_us, row.p99_us, row.ops,
          row.attempted, row.failed, row.stalled ? " STALLED" : "", row.ncr,
          row.nmr, row.reconfigs, row.events, row.mismatch);
      std::fflush(stdout);
    }
    std::vector<double> mops;
    std::vector<double> p50;
    std::vector<double> p99;
    uint64_t samples = 0;
    for (const SimRow& row : rows) {
      mops.push_back(row.mops);
      p50.push_back(row.p50_us);
      p99.push_back(row.p99_us);
      attempted += row.attempted;
      failed += row.failed;
      samples = samples == 0 ? row.attempted : std::min(samples, row.attempted);
    }
    if (perfbench::TailPercentile(samples) < 0.99) {
      std::fprintf(stderr,
                   "perfbench: a run has %" PRIu64
                   " samples, too few for 10 beyond P99\n",
                   samples);
    }
    metrics.Add("sim_mops", Median(mops), "Mops");
    metrics.Add("sim_p50_us", Median(p50), "us");
    metrics.Add("sim_p99_us", Median(p99), "us");
    metrics.Add("failed_frac",
                static_cast<double>(failed) / static_cast<double>(attempted),
                "fraction");
    metrics.Add("host_s", Median(host_s), "s");
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // Untraced and traced runs of one seed; the traced one also snapshots
    // cycle accounting and the metrics registry at the end of its window.
    double plain_s = 0.0;
    utps::g_alloc_probe = &AllocProbe;
    const ExperimentResult r0 = TimedRun(base, "bed.Run untraced", &plain_s);
    utps::g_alloc_probe = nullptr;
    ExperimentConfig traced = base;
    traced.obs.cycle_accounting = true;
    traced.obs.metrics = true;
    traced.obs.trace = true;
    double traced_s = 0.0;
    const ExperimentResult r1 = TimedRun(traced, "bed.Run traced", &traced_s);
    if (!SameSimulation(r0, r1)) {
      std::fprintf(stderr,
                   "perfbench: tracing changed the simulation (ops %" PRIu64
                   " vs %" PRIu64 ")\n",
                   r0.ops, r1.ops);
      correct = false;
    }
    const SimRow row = Account(base, r0);
    if (!row.located) {
      std::fprintf(stderr, "perfbench: no window position matches the run\n");
      correct = false;
    }
    attempted = row.attempted;
    failed = row.failed;
    const std::map<std::string, uint64_t> m = ParseMetrics(r1.metrics_dump);
    const auto mv = [&m](const char* k) -> double {
      const auto it = m.find(k);
      return it == m.end() ? 0.0 : static_cast<double>(it->second);
    };
    // Per-op figures are the cycle report's; a stalled window answered
    // nothing, and there they read as window totals.
    const bool per_op = r1.cycles.ops > 0;
    const double ops = static_cast<double>(std::max<uint64_t>(r1.cycles.ops, 1));
    const auto stage_ns = [&](sim::Stage s) {
      const unsigned i = static_cast<unsigned>(s);
      return per_op ? r1.cycles.ns_per_op[i]
                    : static_cast<double>(r1.cycles.total_ns[i]);
    };
    double busy = r1.cycles.busy_ns_per_op;
    if (!per_op) {
      for (sim::Tick t : r1.cycles.total_ns) {
        busy += static_cast<double>(t);
      }
    }
    metrics.Add("net.poll_ns_per_op", stage_ns(sim::Stage::kPoll), "ns");
    metrics.Add("net.parse_ns_per_op", stage_ns(sim::Stage::kParse), "ns");
    metrics.Add("net.respond_ns_per_op", stage_ns(sim::Stage::kRespond), "ns");
    metrics.Add("net.llc_miss_rate", r1.poll_miss_rate, "fraction");
    metrics.Add("core.cache_check_ns_per_op", stage_ns(sim::Stage::kCacheCheck),
                "ns");
    const double lookups = static_cast<double>(r1.hot_hits + r1.hot_misses);
    metrics.Add("hotset.hit_ratio",
                lookups > 0 ? static_cast<double>(r1.hot_hits) / lookups : 0.0,
                "fraction");
    metrics.Add("hotset.items", r1.cache_items, "count");
    metrics.Add("core.queue_ns_per_op", stage_ns(sim::Stage::kQueue), "ns");
    metrics.Add("core.peak_ring_occ", mv("mutps.peak_ring_occ"), "slots");
    metrics.Add("index.ns_per_op", stage_ns(sim::Stage::kIndex), "ns");
    metrics.Add("index.llc_miss_rate", r1.index_miss_rate, "fraction");
    metrics.Add("store.data_ns_per_op", stage_ns(sim::Stage::kData), "ns");
    metrics.Add("core.idle_ns_per_op", stage_ns(sim::Stage::kIdle), "ns");
    metrics.Add("core.busy_ns_per_op", busy, "ns");
    metrics.Add("core.ncr", r1.ncr, "cores");
    metrics.Add("core.nmr", r1.nmr, "cores");
    metrics.Add("core.reconfigs", static_cast<double>(r1.reconfigs), "count");
    // NIC counters run from time 0 to the window's end.
    const double answered_to_end =
        static_cast<double>(std::max<uint64_t>(row.answered_to_end, 1));
    metrics.Add("sim.nic.rx_msgs_per_op",
                mv("nic.rx_messages") / answered_to_end, "msgs");
    metrics.Add("sim.nic.tx_bytes_per_op", mv("nic.tx_bytes") / answered_to_end,
                "B");
    metrics.Add("sim.nic.peak_ring_depth", mv("nic.peak_ring_depth"), "slots");

    // Host side. Counts are exact. The cache and workload kernels use this
    // workload's item size and key distribution; the engine kernel is the
    // same on every workload (see DelayLoop).
    const double answered =
        static_cast<double>(std::max<uint64_t>(row.answered_total, 1));
    const double events = static_cast<double>(r0.sched_events);
    metrics.Add("sim.engine.events_per_op", events / answered, "events");
    const double accesses = mv("cache.accesses");
    metrics.Add("sim.cache.accesses_per_op", accesses / ops, "accesses");
    metrics.Add("sim.engine.host_ns_per_event",
                events > 0 ? plain_s * 1e9 / events : 0.0, "ns");

    const unsigned fibers =
        base.client_threads * base.pipeline_depth + bed->server_workers() + 1;
    const double schedule_ns =
        KernelNs(spans, "kernel Engine::ScheduleAt", 2'000'000,
                 [&](uint64_t n) {
                   sim::Engine eng;
                   std::vector<sim::ExecCtx> ctxs(fibers);
                   for (unsigned f = 0; f < fibers; f++) {
                     ctxs[f] = sim::ExecCtx{.eng = &eng};
                     eng.Spawn(DelayLoop(&ctxs[f], n / fibers, a.seed + f));
                   }
                   eng.RunToQuiescence(~sim::Tick{0});
                 });
    const sim::MachineConfig machine{};
    sim::MemoryModel mem(machine);
    sim::Arena arena(64ull << 20);
    const size_t item_len = utps::Item::AllocSize(w->spec.value_size);
    uint8_t* hit_line = arena.AllocateArray<uint8_t>(4096);
    constexpr uint64_t kLlcSpan = 8ull << 20;  // ~6x a private cache, 1/6 LLC
    uint8_t* llc_base = arena.AllocateArray<uint8_t>(kLlcSpan + 4096);
    for (uint64_t off = 0; off < kLlcSpan; off += 64) {
      mem.Access(1, 0, sim::Stage::kData, llc_base + off, 8, false);
    }
    const double hit_ns =
        KernelNs(spans, "kernel MemoryModel::Access hit", 4'000'000,
                 [&](uint64_t n) {
                   uint64_t lat = 0;
                   for (uint64_t i = 0; i < n; i++) {
                     lat += mem.Access(0, 0, sim::Stage::kData, hit_line,
                                       item_len, false)
                                .latency;
                   }
                   g_sink = g_sink + lat;
                 });
    uint64_t llc_off = 0;
    const double llc_ns =
        KernelNs(spans, "kernel MemoryModel::Access llc", 4'000'000,
                 [&](uint64_t n) {
                   uint64_t lat = 0;
                   for (uint64_t i = 0; i < n; i++) {
                     lat += mem.Access(2, 0, sim::Stage::kData,
                                       llc_base + llc_off, item_len, false)
                                .latency;
                     llc_off = (llc_off + 4096 + 64) & (kLlcSpan - 1);
                   }
                   g_sink = g_sink + lat;
                 });
    // Random lines of a 4 GB span the model has never seen: every access
    // misses, across all sets, and victimizes and installs. The model only
    // hashes the address; nothing is dereferenced.
    const uint64_t line0 = reinterpret_cast<uint64_t>(hit_line) >> 6;
    utps::Rng miss_rng(a.seed);
    const double miss_ns =
        KernelNs(spans, "kernel MemoryModel::Access miss", 4'000'000,
                 [&](uint64_t n) {
                   uint64_t lat = 0;
                   for (uint64_t i = 0; i < n; i++) {
                     const uint64_t addr =
                         (line0 + (1ull << 27) + (miss_rng.Next() >> 38)) << 6;
                     lat += mem.Access(3, 0, sim::Stage::kData,
                                       reinterpret_cast<const void*>(addr),
                                       item_len, false)
                                .latency;
                   }
                   g_sink = g_sink + lat;
                 });
    const double next_ns =
        KernelNs(spans, "kernel WorkloadGenerator::Next", 4'000'000,
                 [&](uint64_t n) {
                   utps::WorkloadGenerator gen(w->spec, a.seed);
                   uint64_t sum = 0;
                   for (uint64_t i = 0; i < n; i++) {
                     sum += gen.Next().key;
                   }
                   g_sink = g_sink + sum;
                 });
    metrics.Add("sim.engine.schedule_ns", schedule_ns, "ns");
    metrics.Add("sim.cache.access_hit_ns", hit_ns, "ns");
    metrics.Add("sim.cache.access_llc_ns", llc_ns, "ns");
    metrics.Add("sim.cache.access_miss_ns", miss_ns, "ns");
    metrics.Add("workload.next_ns", next_ns, "ns");
    // Host time the kernels account for: count x cost per kernel over the
    // untraced run. What is left of its host time is fiber bodies and the
    // rest. An estimate: the engine term prices every event at the fixed-mix
    // schedule_ns, not at this run's horizons (host_ns_per_event is the
    // measured whole cost). Cache counters cover the window only, so they are
    // scaled to the run by answered requests (a stalled window answered none
    // and is left unscaled, which makes its residual an upper bound).
    const double to_run = r1.cycles.ops > 0 ? answered / ops : 1.0;
    const double model_s =
        (events * schedule_ns +
         to_run * (mv("cache.priv_hits") * hit_ns +
                   mv("cache.llc_hits") * llc_ns +
                   mv("cache.llc_misses") * miss_ns) +
         answered * next_ns) /
        1e9;
    metrics.Add("sim.fiber.residual_frac",
                plain_s > 0 ? 1.0 - model_s / plain_s : 0.0, "fraction");
    metrics.Add("harness.measure_allocs", static_cast<double>(r0.measure_allocs),
                "count");
    metrics.Add("trace.overhead_frac",
                plain_s > 0 ? traced_s / plain_s - 1.0 : 0.0, "fraction");
    metrics.Add("trace.dropped", static_cast<double>(r1.trace_dropped),
                "count");
  }
  spans.Span("perfbench", spans.Intern(std::string("perfbench ") + w->name),
             kSpanPid, kSpanTid, root_start, HostNs());
  if (!a.trace_out.empty() && !spans.WriteFile(a.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_out.c_str());
    correct = false;
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
      ",\"metrics\":%s}\n",
      correct ? "true" : "false", attempted, failed, metrics.Json().c_str());
  return correct ? 0 : 1;
}
