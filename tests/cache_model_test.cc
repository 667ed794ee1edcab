// Tests for the LLC/private-cache model: hit/miss behaviour, LRU, CAT way
// masks, DDIO allocation policy, and coherence — plus a differential test
// that drives MemoryModel and a plain reference model with one seeded
// operation stream and requires identical results at every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "sim/arena.h"
#include "sim/cache.h"

namespace utps::sim {
namespace {

MachineConfig SmallConfig() {
  MachineConfig cfg;
  cfg.num_cores = 4;
  cfg.priv_sets_log2 = 4;  // 16 sets
  cfg.priv_ways = 2;
  cfg.llc_sets_log2 = 6;  // 64 sets
  cfg.llc_ways = 4;
  cfg.ddio_ways = 2;
  return cfg;
}

class CacheModelTest : public ::testing::Test {
 protected:
  CacheModelTest() : arena_(8 << 20), mem_(SmallConfig()) {}

  // Returns a pointer whose line maps to the given LLC set.
  void* AddrAtSet(unsigned set, unsigned stride_idx = 0) {
    const uintptr_t period = 64ull << SmallConfig().llc_sets_log2;
    return reinterpret_cast<void*>(arena_.base() + set * 64ull +
                                   stride_idx * period);
  }

  Arena arena_;
  MemoryModel mem_;
};

TEST_F(CacheModelTest, FirstAccessMissesThenHits) {
  void* p = AddrAtSet(3);
  auto r1 = mem_.Access(0, 0, Stage::kData, p, 8, false);
  EXPECT_EQ(r1.latency, SmallConfig().dram_ns);
  EXPECT_FALSE(r1.private_hit);
  auto r2 = mem_.Access(0, 0, Stage::kData, p, 8, false);
  EXPECT_TRUE(r2.private_hit);
  EXPECT_EQ(r2.latency, SmallConfig().priv_hit_ns);
  const auto& c = mem_.Counters(0).by_stage[static_cast<unsigned>(Stage::kData)];
  EXPECT_EQ(c.llc_misses, 1u);
  EXPECT_EQ(c.priv_hits, 1u);
}

TEST_F(CacheModelTest, LlcHitAfterPrivateEviction) {
  // Fill the private set (2 ways) with 3 lines mapping to the same private
  // set but different LLC sets... simpler: same LLC set, different tags.
  void* a = AddrAtSet(5, 0);
  void* b = AddrAtSet(5, 1);
  void* c = AddrAtSet(5, 2);
  mem_.Access(0, 0, Stage::kData, a, 8, false);
  mem_.Access(0, 0, Stage::kData, b, 8, false);
  mem_.Access(0, 0, Stage::kData, c, 8, false);  // evicts `a` from private
  auto r = mem_.Access(0, 0, Stage::kData, a, 8, false);
  EXPECT_FALSE(r.private_hit);
  EXPECT_EQ(r.latency, SmallConfig().llc_hit_ns);  // still resident in LLC
}

TEST_F(CacheModelTest, LlcEvictionRespectsLru) {
  // 4 LLC ways: touch 5 distinct lines in one set; the first should be gone.
  for (unsigned i = 0; i < 5; i++) {
    mem_.Access(0, 0, Stage::kData, AddrAtSet(7, i), 8, false);
  }
  auto r = mem_.Access(0, 0, Stage::kData, AddrAtSet(7, 0), 8, false);
  EXPECT_EQ(r.latency, SmallConfig().dram_ns);  // was evicted
}

TEST_F(CacheModelTest, CatMaskConfinesVictimSelection) {
  // CLOS 1 may only allocate in ways {2,3}; CLOS 0 in ways {0,1}.
  mem_.SetClosMask(0, 0b0011);
  mem_.SetClosMask(1, 0b1100);
  // Core 0 (CLOS 0) fills its two ways.
  mem_.Access(0, 0, Stage::kData, AddrAtSet(9, 0), 8, false);
  mem_.Access(0, 0, Stage::kData, AddrAtSet(9, 1), 8, false);
  // Core 1 (CLOS 1) streams many lines; must not evict CLOS 0's lines.
  for (unsigned i = 2; i < 12; i++) {
    mem_.Access(1, 1, Stage::kData, AddrAtSet(9, i), 8, false);
  }
  // CLOS 0's lines still hit in LLC (they were evicted from core 0's private
  // cache? no — private cache of core 0 untouched, so force LLC check via
  // core 2 which never cached them privately).
  auto r0 = mem_.Access(2, 0, Stage::kData, AddrAtSet(9, 0), 8, false);
  auto r1 = mem_.Access(2, 0, Stage::kData, AddrAtSet(9, 1), 8, false);
  EXPECT_EQ(r0.latency, SmallConfig().llc_hit_ns);
  EXPECT_EQ(r1.latency, SmallConfig().llc_hit_ns);
}

TEST_F(CacheModelTest, DdioAllocatesOnlyInIoWays) {
  // CPU fills all 4 ways of a set.
  for (unsigned i = 0; i < 4; i++) {
    mem_.Access(0, 0, Stage::kData, AddrAtSet(11, i), 8, false);
  }
  // NIC writes two new lines: they may only displace ways 0/1 (DDIO ways).
  mem_.IoWrite(AddrAtSet(11, 4), 8);
  mem_.IoWrite(AddrAtSet(11, 5), 8);
  // Exactly two of the CPU's lines were displaced (DDIO ways 0 and 1 held
  // the two LRU CPU lines); the other two must remain. Probe with IoRead,
  // which does not perturb cache state.
  unsigned llc_hits = 0;
  for (unsigned i = 0; i < 4; i++) {
    if (mem_.IoRead(AddrAtSet(11, i), 8) == SmallConfig().llc_hit_ns) {
      llc_hits++;
    }
  }
  EXPECT_EQ(llc_hits, 2u);
  // And the IO lines are present.
  EXPECT_EQ(mem_.IoRead(AddrAtSet(11, 4), 8), SmallConfig().llc_hit_ns);
  EXPECT_EQ(mem_.IoRead(AddrAtSet(11, 5), 8), SmallConfig().llc_hit_ns);
}

TEST_F(CacheModelTest, DdioUpdatesInPlaceOnHit) {
  // CPU caches a line in way outside DDIO range (LRU will pick way 0 first
  // though); regardless, an IoWrite to a cached line must not be a miss.
  void* p = AddrAtSet(13);
  mem_.Access(0, 0, Stage::kData, p, 8, false);
  const uint64_t misses_before = mem_.io_write_misses();
  mem_.IoWrite(p, 8);
  EXPECT_EQ(mem_.io_write_misses(), misses_before);
  // And the CPU's private copy was invalidated: next access is not a
  // private hit.
  auto r = mem_.Access(0, 0, Stage::kData, p, 8, false);
  EXPECT_FALSE(r.private_hit);
  EXPECT_EQ(r.latency, SmallConfig().llc_hit_ns);
}

TEST_F(CacheModelTest, WriteInvalidatesOtherCoresPrivateCopies) {
  void* p = AddrAtSet(15);
  mem_.Access(0, 0, Stage::kData, p, 8, false);
  mem_.Access(1, 0, Stage::kData, p, 8, false);
  // Core 1 writes: core 0's private copy must be invalidated and a coherence
  // transfer charged.
  auto w = mem_.Access(1, 0, Stage::kData, p, 8, true);
  EXPECT_EQ(w.latency, SmallConfig().llc_hit_ns + SmallConfig().coherence_ns);
  auto r = mem_.Access(0, 0, Stage::kData, p, 8, false);
  EXPECT_FALSE(r.private_hit);
}

TEST_F(CacheModelTest, ReadAfterRemoteDirtyWriteChargesTransfer) {
  void* p = AddrAtSet(16);
  mem_.Access(0, 0, Stage::kData, p, 8, true);  // core 0 owns dirty
  auto r = mem_.Access(1, 0, Stage::kData, p, 8, false);
  EXPECT_EQ(r.latency, SmallConfig().llc_hit_ns + SmallConfig().coherence_ns);
}

TEST_F(CacheModelTest, MultiLineAccessChargesStreamCost) {
  void* p = AddrAtSet(20);
  auto r = mem_.Access(0, 0, Stage::kData, p, 256, false);  // 4 lines
  const auto& cfg = SmallConfig();
  EXPECT_EQ(r.latency, cfg.dram_ns + 3 * cfg.stream_line_ns);
}

TEST_F(CacheModelTest, IoReadDoesNotAllocate) {
  void* p = AddrAtSet(22);
  mem_.IoRead(p, 8);
  auto r = mem_.Access(0, 0, Stage::kData, p, 8, false);
  EXPECT_EQ(r.latency, SmallConfig().dram_ns);  // still not cached
}

TEST_F(CacheModelTest, FlushAllResetsState) {
  void* p = AddrAtSet(24);
  mem_.Access(0, 0, Stage::kData, p, 8, false);
  mem_.FlushAll();
  auto r = mem_.Access(0, 0, Stage::kData, p, 8, false);
  EXPECT_EQ(r.latency, SmallConfig().dram_ns);
}

TEST_F(CacheModelTest, RmwAddsAtomicCost) {
  void* p = AddrAtSet(26);
  // A prior write makes the line exclusive, so the RMW is a private hit plus
  // the atomic surcharge.
  mem_.Access(0, 0, Stage::kData, p, 8, true);
  auto r = mem_.Access(0, 0, Stage::kData, p, 8, true, /*rmw=*/true);
  EXPECT_EQ(r.latency, SmallConfig().priv_hit_ns + SmallConfig().atomic_extra_ns);
  EXPECT_FALSE(r.private_hit);  // atomics always serialize through the engine

  // After only a shared read, the RMW needs an LLC write upgrade.
  void* q = AddrAtSet(27);
  mem_.Access(0, 0, Stage::kData, q, 8, false);
  auto r2 = mem_.Access(0, 0, Stage::kData, q, 8, true, /*rmw=*/true);
  EXPECT_EQ(r2.latency, SmallConfig().llc_hit_ns + SmallConfig().atomic_extra_ns);
}

TEST_F(CacheModelTest, StageAttribution) {
  mem_.Access(0, 0, Stage::kPoll, AddrAtSet(28), 8, false);
  mem_.Access(0, 0, Stage::kIndex, AddrAtSet(29), 8, false);
  EXPECT_EQ(mem_.Counters(0).by_stage[static_cast<unsigned>(Stage::kPoll)].accesses,
            1u);
  EXPECT_EQ(
      mem_.Counters(0).by_stage[static_cast<unsigned>(Stage::kIndex)].accesses, 1u);
  EXPECT_EQ(mem_.Counters(0).Total().accesses, 2u);
}

// ----------------------------------------------------------- differential
// Reference model: the rules of cache.h written as plainly as possible —
// full 64-bit line numbers, an explicit LRU list per set (index 0 = MRU),
// and sharers/owner/dirty per LLC way. No tag encoding, no hints, no packed
// recency words, so any disagreement with MemoryModel is an encoding bug.
class RefModel {
 public:
  explicit RefModel(const MachineConfig& cfg)
      : cfg_(cfg),
        priv_sets_(1u << cfg.priv_sets_log2),
        llc_sets_(1u << cfg.llc_sets_log2),
        priv_(size_t{cfg.num_cores} * priv_sets_ * cfg.priv_ways),
        priv_lru_(size_t{cfg.num_cores} * priv_sets_ * cfg.priv_ways),
        llc_(size_t{llc_sets_} * cfg.llc_ways),
        llc_lru_(size_t{llc_sets_} * cfg.llc_ways),
        counters_(cfg.num_cores) {
    for (size_t i = 0; i < priv_lru_.size(); i++) {
      priv_lru_[i] = static_cast<unsigned>(i % cfg.priv_ways);
    }
    for (size_t i = 0; i < llc_lru_.size(); i++) {
      llc_lru_[i] = static_cast<unsigned>(i % cfg.llc_ways);
    }
    for (auto& m : clos_masks_) {
      m = cfg.AllWaysMask();
    }
  }

  void SetClosMask(ClosId clos, uint32_t mask) {
    clos_masks_[clos] = mask & cfg_.AllWaysMask();
  }
  void SetStolenWays(unsigned n) {
    n = std::min(n, cfg_.llc_ways - 1);
    stolen_mask_ = n == 0 ? 0u : ((1u << n) - 1) << (cfg_.llc_ways - n);
  }

  AccessResult Access(CoreId core, ClosId clos, Stage stage, uint64_t addr,
                      size_t len, bool write, bool rmw) {
    const uint64_t first = addr >> 6;
    const uint64_t last = (addr + (len == 0 ? 0 : len - 1)) >> 6;
    AccessResult r;
    r.latency = AccessLine(core, clos, stage, first, write, &r.private_hit);
    for (uint64_t line = first + 1; line <= last; line++) {
      bool hit = false;
      AccessLine(core, clos, stage, line, write, &hit);
      r.latency += hit ? cfg_.priv_hit_ns : cfg_.stream_line_ns;
      r.private_hit = r.private_hit && hit;
    }
    if (rmw) {
      r.latency += cfg_.atomic_extra_ns;
      r.private_hit = false;
    }
    return r;
  }

  Tick IoWrite(uint64_t addr, size_t len) {
    Tick total = 0;
    for (uint64_t line = addr >> 6; line <= (addr + (len == 0 ? 0 : len - 1)) >> 6;
         line++) {
      io_writes_++;
      const uint32_t set = LlcSetOf(line);
      const int way = LlcFind(set, line);
      if (way >= 0) {
        LlcTouch(set, static_cast<unsigned>(way));
        LlcWay& e = llc_[LlcIdx(set, static_cast<unsigned>(way))];
        InvalidateSharers(e.sharers, line);
        e.sharers = 0;
        e.owner = -1;
        e.dirty = true;
        total += cfg_.llc_hit_ns;
      } else {
        io_write_misses_++;
        LlcInstall(set, LlcVictim(set, cfg_.DdioMask()), line, 0, -1, true);
        total += cfg_.dram_ns;
      }
    }
    return total;
  }

  Tick IoRead(uint64_t addr, size_t len) {
    Tick total = 0;
    for (uint64_t line = addr >> 6; line <= (addr + (len == 0 ? 0 : len - 1)) >> 6;
         line++) {
      const uint32_t set = LlcSetOf(line);
      const int way = LlcFind(set, line);
      if (way >= 0) {
        LlcTouch(set, static_cast<unsigned>(way));
        total += cfg_.llc_hit_ns;
      } else {
        total += cfg_.dram_ns;
      }
      io_reads_++;
    }
    return total;
  }

  // Invalidates every copy; LRU lists are kept, as MemoryModel keeps its
  // recency words.
  void FlushAll() {
    std::fill(priv_.begin(), priv_.end(), PrivWay{});
    std::fill(llc_.begin(), llc_.end(), LlcWay{});
  }

  const CoreCounters& Counters(CoreId core) const { return counters_[core]; }
  uint64_t io_writes() const { return io_writes_; }
  uint64_t io_write_misses() const { return io_write_misses_; }
  uint64_t io_reads() const { return io_reads_; }

 private:
  struct PrivWay {
    bool valid = false;
    bool exclusive = false;
    uint64_t line = 0;
  };
  struct LlcWay {
    bool valid = false;
    uint64_t line = 0;
    uint32_t sharers = 0;
    int owner = -1;
    bool dirty = false;
  };

  uint32_t PrivSetOf(uint64_t line) const {
    return static_cast<uint32_t>(line & (priv_sets_ - 1));
  }
  uint32_t LlcSetOf(uint64_t line) const {
    return static_cast<uint32_t>(line & (llc_sets_ - 1));
  }
  size_t PrivIdx(CoreId core, uint32_t set, unsigned i) const {
    return (size_t{core} * priv_sets_ + set) * cfg_.priv_ways + i;
  }
  size_t LlcIdx(uint32_t set, unsigned i) const {
    return size_t{set} * cfg_.llc_ways + i;
  }
  static void MoveToFront(std::vector<unsigned>& lru, size_t base, unsigned ways,
                          unsigned way) {
    auto b = lru.begin() + static_cast<ptrdiff_t>(base);
    auto it = std::find(b, b + ways, way);
    std::rotate(b, it, it + 1);
  }
  void PrivTouch(CoreId core, uint32_t set, unsigned way) {
    MoveToFront(priv_lru_, PrivIdx(core, set, 0), cfg_.priv_ways, way);
  }
  void LlcTouch(uint32_t set, unsigned way) {
    MoveToFront(llc_lru_, LlcIdx(set, 0), cfg_.llc_ways, way);
  }

  // The copy a recency walk finds first (a private set may hold two).
  int PrivFind(CoreId core, uint32_t set, uint64_t line) const {
    for (unsigned r = 0; r < cfg_.priv_ways; r++) {
      const unsigned way = priv_lru_[PrivIdx(core, set, r)];
      const PrivWay& p = priv_[PrivIdx(core, set, way)];
      if (p.valid && p.line == line) {
        return static_cast<int>(way);
      }
    }
    return -1;
  }
  int LlcFind(uint32_t set, uint64_t line) const {
    for (unsigned w = 0; w < cfg_.llc_ways; w++) {
      const LlcWay& e = llc_[LlcIdx(set, w)];
      if (e.valid && e.line == line) {
        return static_cast<int>(w);
      }
    }
    return -1;
  }

  // Drops the lowest-indexed way holding `line` (not recency order).
  void PrivInvalidate(CoreId core, uint64_t line) {
    const uint32_t set = PrivSetOf(line);
    for (unsigned w = 0; w < cfg_.priv_ways; w++) {
      PrivWay& p = priv_[PrivIdx(core, set, w)];
      if (p.valid && p.line == line) {
        p = PrivWay{};
        return;
      }
    }
  }
  void InvalidateSharers(uint32_t sharers, uint64_t line) {
    for (unsigned c = 0; c < cfg_.num_cores; c++) {
      if ((sharers >> c) & 1u) {
        PrivInvalidate(static_cast<CoreId>(c), line);
      }
    }
  }

  void ClearSharer(CoreId core, uint64_t line) {
    const int way = LlcFind(LlcSetOf(line), line);
    if (way >= 0) {
      LlcWay& e = llc_[LlcIdx(LlcSetOf(line), static_cast<unsigned>(way))];
      e.sharers &= ~(1u << core);
      if (e.owner == core) {
        e.owner = -1;
      }
    }
  }

  void PrivFill(CoreId core, uint64_t line, bool exclusive) {
    const uint32_t set = PrivSetOf(line);
    const unsigned victim = priv_lru_[PrivIdx(core, set, cfg_.priv_ways - 1)];
    PrivWay& p = priv_[PrivIdx(core, set, victim)];
    if (p.valid) {
      ClearSharer(core, p.line);
    }
    p = PrivWay{true, exclusive, line};
    PrivTouch(core, set, victim);
  }

  unsigned LlcVictim(uint32_t set, uint32_t allowed) const {
    for (unsigned r = cfg_.llc_ways; r-- > 0;) {
      const unsigned way = llc_lru_[LlcIdx(set, r)];
      if ((allowed >> way) & 1u) {
        return way;
      }
    }
    return llc_lru_[LlcIdx(set, cfg_.llc_ways - 1)];
  }

  void LlcInstall(uint32_t set, unsigned way, uint64_t line, uint32_t sharers,
                  int owner, bool dirty) {
    LlcWay& e = llc_[LlcIdx(set, way)];
    if (e.valid) {
      InvalidateSharers(e.sharers, e.line);  // inclusive back-invalidation
    }
    e = LlcWay{true, line, sharers, owner, dirty};
    LlcTouch(set, way);
  }

  Tick AccessLine(CoreId core, ClosId clos, Stage stage, uint64_t line, bool write,
                  bool* priv_hit) {
    StageCounters& sc = counters_[core].by_stage[static_cast<unsigned>(stage)];
    sc.accesses++;
    const uint32_t pset = PrivSetOf(line);
    const int pway = PrivFind(core, pset, line);
    if (pway >= 0) {
      PrivTouch(core, pset, static_cast<unsigned>(pway));
      if (!write || priv_[PrivIdx(core, pset, static_cast<unsigned>(pway))].exclusive) {
        sc.priv_hits++;
        *priv_hit = true;
        return cfg_.priv_hit_ns;
      }
    }
    *priv_hit = false;
    const uint32_t set = LlcSetOf(line);
    const int way = LlcFind(set, line);
    if (way < 0) {
      sc.llc_misses++;
      uint32_t mask = clos_masks_[clos] & ~stolen_mask_;
      if (mask == 0) {
        mask = clos_masks_[clos];
      }
      LlcInstall(set, LlcVictim(set, mask), line, 1u << core, write ? core : -1,
                 write);
      PrivFill(core, line, write);
      return cfg_.dram_ns;
    }
    LlcTouch(set, static_cast<unsigned>(way));
    LlcWay& e = llc_[LlcIdx(set, static_cast<unsigned>(way))];
    Tick lat = cfg_.llc_hit_ns;
    sc.llc_hits++;
    if (write) {
      const uint32_t others = e.sharers & ~(1u << core);
      if (others != 0) {
        lat += cfg_.coherence_ns;
        sc.coherence++;
        InvalidateSharers(others, line);
      }
      e.sharers = 1u << core;
      e.owner = core;
      e.dirty = true;
      PrivFill(core, line, true);
      // The fill may have evicted this line's other copy and cleared the
      // core's sharer bit: re-assert it.
      const int again = LlcFind(set, line);
      if (again >= 0) {
        LlcWay& f = llc_[LlcIdx(set, static_cast<unsigned>(again))];
        f.sharers |= 1u << core;
        f.owner = core;
      }
    } else {
      if (e.owner >= 0 && e.owner != core && e.dirty) {
        lat += cfg_.coherence_ns;
        sc.coherence++;
      }
      e.owner = -1;
      e.sharers |= 1u << core;
      PrivFill(core, line, false);
    }
    return lat;
  }

  MachineConfig cfg_;
  uint32_t priv_sets_;
  uint32_t llc_sets_;
  std::vector<PrivWay> priv_;       // [core][set][way]
  std::vector<unsigned> priv_lru_;  // [core][set][rank] -> way
  std::vector<LlcWay> llc_;         // [set][way]
  std::vector<unsigned> llc_lru_;   // [set][rank] -> way
  uint32_t clos_masks_[MemoryModel::kMaxClos] = {};
  uint32_t stolen_mask_ = 0;
  std::vector<CoreCounters> counters_;
  uint64_t io_writes_ = 0;
  uint64_t io_write_misses_ = 0;
  uint64_t io_reads_ = 0;
};

bool SameCounters(const StageCounters& a, const StageCounters& b) {
  return a.accesses == b.accesses && a.priv_hits == b.priv_hits &&
         a.llc_hits == b.llc_hits && a.llc_misses == b.llc_misses &&
         a.coherence == b.coherence;
}

// One seeded stream over `num_lines` lines starting at `base_line`, spread
// over few sets so that every eviction, back-invalidation and coherence path
// runs: reads, writes and RMWs of 1-4 lines, DDIO writes and DMA reads, CLOS
// mask and stolen-way changes, and the occasional FlushAll.
void RunDifferential(const MachineConfig& cfg, uint64_t base_line,
                     unsigned hot_sets, unsigned tags_per_set, unsigned steps,
                     uint64_t seed) {
  MemoryModel mem(cfg);
  RefModel ref(cfg);
  uint64_t x = seed;
  auto next = [&x]() {  // splitmix64
    uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  const uint64_t llc_period = uint64_t{1} << cfg.llc_sets_log2;
  const unsigned cores = std::min(cfg.num_cores, 6u);
  auto pick_addr = [&]() {
    const uint64_t set = next() % hot_sets;
    const uint64_t tag = next() % tags_per_set;
    return ((base_line + set + tag * llc_period) << 6) | (next() % 64);
  };
  auto pick_mask = [&]() {
    const uint32_t m = static_cast<uint32_t>(next()) & cfg.AllWaysMask();
    return m != 0 ? m : 1u;
  };
  for (unsigned step = 0; step < steps; step++) {
    const uint64_t kind = next() % 100;
    if (kind < 80) {
      const CoreId core = static_cast<CoreId>(next() % cores);
      const ClosId clos = static_cast<ClosId>(next() % 3);
      const Stage stage = static_cast<Stage>(next() % kNumStages);
      const uint64_t addr = pick_addr();
      const size_t len = next() % 4 == 0 ? 8 + next() % 200 : 8;
      const bool write = next() % 3 == 0;
      const bool rmw = write && next() % 4 == 0;
      const AccessResult got = mem.Access(core, clos, stage,
                                          reinterpret_cast<const void*>(addr),
                                          len, write, rmw);
      const AccessResult want = ref.Access(core, clos, stage, addr, len, write, rmw);
      ASSERT_EQ(got.latency, want.latency) << "step " << step;
      ASSERT_EQ(got.private_hit, want.private_hit) << "step " << step;
    } else if (kind < 90) {
      const uint64_t addr = pick_addr();
      const size_t len = 8 + next() % 128;
      ASSERT_EQ(mem.IoWrite(reinterpret_cast<const void*>(addr), len),
                ref.IoWrite(addr, len))
          << "step " << step;
    } else if (kind < 98) {
      const uint64_t addr = pick_addr();
      const size_t len = 8 + next() % 128;
      ASSERT_EQ(mem.IoRead(reinterpret_cast<const void*>(addr), len),
                ref.IoRead(addr, len))
          << "step " << step;
    } else if (kind < 99) {
      const ClosId clos = static_cast<ClosId>(next() % 3);
      const uint32_t mask = pick_mask();
      mem.SetClosMask(clos, mask);
      ref.SetClosMask(clos, mask);
      const unsigned stolen = static_cast<unsigned>(next() % 4);
      mem.SetStolenWays(stolen);
      ref.SetStolenWays(stolen);
    } else if (next() % 20 == 0) {
      mem.FlushAll();
      ref.FlushAll();
    }
    for (unsigned c = 0; c < cfg.num_cores; c++) {
      for (unsigned s = 0; s < kNumStages; s++) {
        ASSERT_TRUE(SameCounters(mem.Counters(static_cast<CoreId>(c)).by_stage[s],
                                 ref.Counters(static_cast<CoreId>(c)).by_stage[s]))
            << "step " << step << " core " << c << " stage " << s;
      }
    }
    ASSERT_EQ(mem.io_writes(), ref.io_writes()) << "step " << step;
    ASSERT_EQ(mem.io_write_misses(), ref.io_write_misses()) << "step " << step;
    ASSERT_EQ(mem.io_reads(), ref.io_reads()) << "step " << step;
  }
  // The stream must have exercised the interesting paths.
  const StageCounters t = mem.TotalCounters();
  EXPECT_GT(t.priv_hits, 0u);
  EXPECT_GT(t.llc_hits, 0u);
  EXPECT_GT(t.llc_misses, 0u);
  EXPECT_GT(t.coherence, 0u);
  EXPECT_GT(mem.io_write_misses(), 0u);
}

// A typical arena line (4 MB aligned, as sim::Arena hands out).
constexpr uint64_t kArenaLine = 0x7f3a'4000'0000ull >> 6;

TEST(CacheModelDifferential, SmallConfigMatchesReference) {
  RunDifferential(SmallConfig(), kArenaLine, 6, 10, 60000, 1);
  // One private way: a write upgrade's fill evicts the line's own shared
  // copy, the case RefreshSharersAfterFill repairs.
  MachineConfig one_way = SmallConfig();
  one_way.priv_ways = 1;
  RunDifferential(one_way, kArenaLine, 6, 10, 30000, 4);
}

TEST(CacheModelDifferential, DefaultConfigMatchesReference) {
  // 4 hot LLC sets x 40 tags: each of those LLC sets (12 ways) and each of
  // the 4 private sets they map to (10 ways) cycles through 40 lines.
  RunDifferential(MachineConfig{}, kArenaLine, 4, 40, 60000, 2);
}

TEST(CacheModelDifferential, LinesNearTopOfUserSpace) {
  // SmallConfig keeps 37 bits of a line near 2^41 above its 4 private set
  // bits: such tags fit only relative to the model's anchor line.
  const uint64_t top_line = ((uint64_t{1} << 47) - (64ull << 20)) >> 6;
  RunDifferential(SmallConfig(), top_line, 6, 10, 30000, 3);
}

TEST(CacheModelDeathTest, LineOutsideTagWindowAborts) {
  // SmallConfig's private tag window spans 2^35 lines (2 TB) around the
  // anchor; a line 2^46 bytes away must abort instead of aliasing a tag.
  EXPECT_DEATH(
      {
        MemoryModel mem(SmallConfig());
        mem.Access(0, 0, Stage::kData, reinterpret_cast<const void*>(0x1000), 8,
                   false);
        mem.Access(0, 0, Stage::kData,
                   reinterpret_cast<const void*>(uint64_t{1} << 46), 8, false);
      },
      "outside the cache model's tag window");
}

}  // namespace
}  // namespace utps::sim
