// Cache hierarchy model: per-core private caches (combined L1/L2) above a
// shared, inclusive, set-associative LLC with
//   - per-CLOS way masks (Intel CAT semantics: hits may be served from any
//     way; allocation victims are chosen only among the CLOS's ways), and
//   - DDIO semantics for NIC writes (update-in-place on LLC hit anywhere;
//     allocation only in the two rightmost ways on miss) — the behaviour the
//     paper's §2.2.1 analysis hinges on.
//
// Coherence is MESI-lite: the LLC entry tracks a sharer bitmap and an
// exclusive owner; writes invalidate other private copies and charge a
// coherence transfer.
//
// Addresses are host addresses (the simulated software operates on real data
// structures); allocate modeled data from sim::Arena for deterministic set
// mapping. The model's own state lives in per-set blocks on a huge-page
// backed Arena (layout at MemoryModel's "set blocks" section).
#ifndef UTPS_SIM_CACHE_H_
#define UTPS_SIM_CACHE_H_

#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#include "common/macros.h"
#include "sim/arena.h"
#include "sim/types.h"

namespace utps::sim {

struct MachineConfig {
  unsigned num_cores = 28;

  // Private cache (models combined L1+L2 per core): 2048 sets x 10 ways x 64B
  // = 1.25 MB-class.
  unsigned priv_sets_log2 = 11;
  unsigned priv_ways = 10;

  // Shared LLC: 65536 sets x 12 ways x 64B = 48 MB-class ("42 MB" Xeon Gold
  // 6330 rounded to a power-of-two set count).
  unsigned llc_sets_log2 = 16;
  unsigned llc_ways = 12;

  // Latencies (ns).
  Tick priv_hit_ns = 3;
  Tick llc_hit_ns = 22;
  Tick dram_ns = 90;
  Tick coherence_ns = 60;
  Tick atomic_extra_ns = 15;
  Tick stream_line_ns = 8;  // per-line cost for lines after the first in a
                            // multi-line (streaming) access
  Tick miss_cpu_ns = 22;    // serial CPU cost per LLC-level access (issue,
                            // switch, pipeline drain) — NOT overlappable,
                            // unlike the fill latency itself

  // DDIO: the two "rightmost" LLC ways (we use way indices 0 and 1).
  unsigned ddio_ways = 2;

  // Cluster topology (src/cluster): the scale-out harness instantiates one
  // machine of this shape per node and derives the node-to-node control NIC
  // from the internode link parameters below. cluster_nodes == 1 keeps every
  // single-node code path untouched — no cluster object is ever built.
  unsigned cluster_nodes = 1;
  Tick internode_rtt_ns = 3000;     // node-to-node RTT (intra-rack, > client rtt)
  double internode_bw_gbps = 100.0; // per-link internode bandwidth

  uint32_t DdioMask() const { return (1u << ddio_ways) - 1; }
  uint32_t AllWaysMask() const { return (1u << llc_ways) - 1; }
};

struct AccessResult {
  Tick latency = 0;
  bool private_hit = false;
};

// Per-core, per-stage cache event counters (our "Intel PCM").
struct StageCounters {
  uint64_t accesses = 0;
  uint64_t priv_hits = 0;
  uint64_t llc_hits = 0;
  uint64_t llc_misses = 0;
  uint64_t coherence = 0;

  void Add(const StageCounters& o) {
    accesses += o.accesses;
    priv_hits += o.priv_hits;
    llc_hits += o.llc_hits;
    llc_misses += o.llc_misses;
    coherence += o.coherence;
  }

  // LLC miss rate among accesses that reached the LLC (the quantity the
  // paper's PCM measurements report).
  double LlcMissRate() const {
    const uint64_t llc_refs = llc_hits + llc_misses;
    return llc_refs == 0 ? 0.0
                         : static_cast<double>(llc_misses) / static_cast<double>(llc_refs);
  }
};

struct CoreCounters {
  StageCounters by_stage[kNumStages];

  StageCounters Total() const {
    StageCounters t;
    for (unsigned i = 0; i < kNumStages; i++) {
      t.Add(by_stage[i]);
    }
    return t;
  }
};

class MemoryModel {
 public:
  explicit MemoryModel(const MachineConfig& cfg)
      : cfg_(cfg),
        priv_sets_(1u << cfg.priv_sets_log2),
        priv_set_mask_(priv_sets_ - 1),
        llc_sets_(1u << cfg.llc_sets_log2),
        llc_set_mask_(llc_sets_ - 1),
        num_priv_blocks_(size_t{cfg.num_cores} * priv_sets_),
        arena_(num_priv_blocks_ * sizeof(PrivBlock) + llc_sets_ * sizeof(LlcBlock)) {
    UTPS_CHECK(cfg.num_cores <= 32);
    UTPS_CHECK(cfg.llc_ways <= kMaxLlcWays);
    UTPS_CHECK(cfg.priv_ways <= kMaxPrivWays);
    priv_blocks_ = arena_.AllocateArray<PrivBlock>(num_priv_blocks_, alignof(PrivBlock));
    llc_blocks_ = arena_.AllocateArray<LlcBlock>(llc_sets_, alignof(LlcBlock));
    for (size_t b = 0; b < num_priv_blocks_; b++) {
      new (&priv_blocks_[b]) PrivBlock{.recency = IdentityOrder(cfg.priv_ways)};
    }
    for (size_t s = 0; s < llc_sets_; s++) {
      new (&llc_blocks_[s]) LlcBlock{.recency = IdentityOrder(cfg.llc_ways)};
    }
    for (auto& m : clos_masks_) {
      m = cfg.AllWaysMask();
    }
    counters_.assign(cfg.num_cores, CoreCounters{});
  }

  // ------------------------------------------------------------------ CLOS
  // pqos-style way mask control (the auto-tuner's "LLC allocation" knob).
  void SetClosMask(ClosId clos, uint32_t way_mask) {
    UTPS_CHECK(clos < kMaxClos);
    UTPS_CHECK((way_mask & cfg_.AllWaysMask()) != 0);
    clos_masks_[clos] = way_mask & cfg_.AllWaysMask();
  }
  uint32_t ClosMask(ClosId clos) const { return clos_masks_[clos]; }

  // Noisy-neighbor hook (src/fault): an external tenant occupies `n` LLC
  // ways, taken from the high way indices (so the DDIO ways stay intact),
  // shrinking every CLOS's effective allocation mid-run. A class whose mask
  // would become empty keeps its configured mask — CAT can never leave a
  // class with zero ways. n == 0 (the default) restores normal behaviour and
  // is byte-identical to a build without the hook.
  void SetStolenWays(unsigned n) {
    if (n >= cfg_.llc_ways) {
      n = cfg_.llc_ways - 1;
    }
    stolen_mask_ = n == 0 ? 0u : ((1u << n) - 1) << (cfg_.llc_ways - n);
  }
  unsigned StolenWays() const { return __builtin_popcount(stolen_mask_); }

  // ------------------------------------------------------- fast-forward mode
  // Sampled-simulation switch (DESIGN.md §12): while set, the machine runs
  // functionally — ExecCtx charges flat costs without consulting the model,
  // and IoWrite/IoRead below return flat DMA costs without probing or
  // mutating any tag, recency order, or counter. Freezing (rather than
  // flushing) the tag state is what carries the warmed cache across mode
  // switches: the next detailed window resumes from the tags exactly as the
  // last one left them. Off (the default) is byte-identical to a build
  // without the flag.
  void SetFastForward(bool on) { fast_forward_ = on; }
  bool fast_forward() const { return fast_forward_; }

  // --------------------------------------------------------------- CPU side
  // Models one access of `len` bytes at `addr` by `core` under `clos`.
  // Multi-line accesses charge full latency for the first line and a
  // streaming cost for subsequent lines.
  AccessResult Access(CoreId core, ClosId clos, Stage stage, const void* addr,
                      size_t len, bool write, bool rmw = false) {
    const uintptr_t a = reinterpret_cast<uintptr_t>(addr);
    const uint64_t first = a >> 6;
    const uint64_t last = (a + (len == 0 ? 0 : len - 1)) >> 6;
    AccessResult r;
    // Single-line accesses (the overwhelming majority) skip the stream loop.
    r.latency = AccessLine(core, clos, stage, first, write, &r.private_hit);
    for (uint64_t line = first + 1; line <= last; line++) {
      bool priv_hit = false;
      AccessLine(core, clos, stage, line, write, &priv_hit);
      r.latency += priv_hit ? cfg_.priv_hit_ns : cfg_.stream_line_ns;
      r.private_hit = r.private_hit && priv_hit;
    }
    if (rmw) {
      r.latency += cfg_.atomic_extra_ns;
      r.private_hit = false;  // atomics always serialize through the engine
    }
    return r;
  }

  // ---------------------------------------------------------------- IO side
  // DDIO write from the NIC. Returns DMA latency (charged to the NIC
  // timeline, not to any core).
  Tick IoWrite(const void* addr, size_t len) {
    const uintptr_t a = reinterpret_cast<uintptr_t>(addr);
    uint64_t first = a >> 6;
    uint64_t last = (a + (len == 0 ? 0 : len - 1)) >> 6;
    if (UTPS_UNLIKELY(fast_forward_)) {
      return static_cast<Tick>(last - first + 1) * cfg_.llc_hit_ns;
    }
    Tick total = 0;
    for (uint64_t line = first; line <= last; line++) {
      total += IoWriteLine(line);
    }
    return total;
  }

  // DMA read (no cache allocation on miss, per DDIO read semantics).
  Tick IoRead(const void* addr, size_t len) {
    const uintptr_t a = reinterpret_cast<uintptr_t>(addr);
    uint64_t first = a >> 6;
    uint64_t last = (a + (len == 0 ? 0 : len - 1)) >> 6;
    if (UTPS_UNLIKELY(fast_forward_)) {
      return static_cast<Tick>(last - first + 1) * cfg_.llc_hit_ns;
    }
    Tick total = 0;
    for (uint64_t line = first; line <= last; line++) {
      unsigned way;
      if (LlcProbe(llc_blocks_[LlcSet(line)], LlcTag(line), &way)) {
        total += cfg_.llc_hit_ns;
      } else {
        total += cfg_.dram_ns;
      }
      io_reads_++;
    }
    return total;
  }

  // ----------------------------------------------------------------- stats
  const CoreCounters& Counters(CoreId core) const { return counters_[core]; }

  // Machine-wide totals across all cores and stages (the obs layer snapshots
  // this into its metrics registry at report time).
  StageCounters TotalCounters() const {
    StageCounters t;
    for (const CoreCounters& c : counters_) {
      t.Add(c.Total());
    }
    return t;
  }

  void ResetCounters() {
    for (auto& c : counters_) {
      c = CoreCounters{};
    }
    io_writes_ = io_write_misses_ = io_reads_ = 0;
  }
  uint64_t io_writes() const { return io_writes_; }
  uint64_t io_write_misses() const { return io_write_misses_; }
  uint64_t io_reads() const { return io_reads_; }

  // Drop all cached state (used between benchmark points that share a
  // populated store).
  void FlushAll() {
    // Clears tags, hints and coherence state but leaves each set's recency
    // word alone — the pre-colocation representation kept its order arrays
    // across flushes, and byte-identical replay depends on preserving that.
    for (size_t b = 0; b < num_priv_blocks_; b++) {
      priv_blocks_[b] = PrivBlock{.recency = priv_blocks_[b].recency};
    }
    for (size_t s = 0; s < llc_sets_; s++) {
      llc_blocks_[s] = LlcBlock{.recency = llc_blocks_[s].recency};
    }
  }

  const MachineConfig& config() const { return cfg_; }

  static constexpr unsigned kMaxClos = 8;

 private:
  // ---------------------------------------------------------- recency words
  // A set's LRU order is one uint64: nibble i holds the way id at recency
  // rank i (rank 0 = MRU, rank ways-1 = LRU). Move-to-front, LRU-victim
  // selection, and rank scans become register arithmetic on a single loaded
  // word instead of byte-array shift loops — the dominant cost of the old
  // representation inside AccessLine (DESIGN.md §13). Requires ways <= 16
  // (checked in the constructor); every operation below permutes nibbles
  // exactly as the byte loops permuted array entries, so the model remains
  // bit-identical.
  static uint64_t IdentityOrder(unsigned ways) {
    uint64_t w = 0;
    for (unsigned i = 0; i < ways; i++) {
      w |= uint64_t{i} << (4 * i);
    }
    return w;
  }
  static unsigned OrderAt(uint64_t word, unsigned rank) {
    return static_cast<unsigned>((word >> (4 * rank)) & 0xf);
  }
  // Rank of `way`: XOR zeroes its nibble, and the has-zero-nibble test marks
  // it. A borrow can also mark nibbles above the match, never below, and the
  // unused nibbles above the set's ways are above it too, so the lowest mark
  // is exact.
  static unsigned RankOf(uint64_t word, unsigned way) {
    constexpr uint64_t kOnes = 0x1111111111111111ull;
    const uint64_t x = word ^ (kOnes * way);
    const uint64_t zero = (x - kOnes) & ~x & (kOnes << 3);
    return static_cast<unsigned>(__builtin_ctzll(zero)) / 4;
  }
  // Moves the nibble at `rank` to rank 0, shifting ranks [0, rank) up one.
  static uint64_t ToFront(uint64_t word, unsigned rank) {
    if (rank == 0) {
      return word;
    }
    const uint64_t low_mask = (uint64_t{1} << (4 * rank)) - 1;
    const uint64_t way = (word >> (4 * rank)) & 0xf;
    // Drop the nibble at `rank` (ranks above it slide down), then push `way`
    // in at rank 0.
    const uint64_t removed = (word & low_mask) | ((word >> 4) & ~low_mask);
    return (removed << 4) | way;
  }

  // ------------------------------------------------------------ set blocks
  // Each set is one block aligned to its size, so a probe touches one host
  // cacheline: a private set is one 64 B line, an LLC set a 128 B pair whose
  // first line holds everything a probe reads and whose second holds the
  // coherence state that only hits and installs touch.
  //
  // A tag is the line's bits above the set index, offset so that the anchor
  // line (the first line the model sees) sits at the centre of the tag
  // window: tag = (line >> set_bits) + bias, with 0 reserved for an empty
  // way. Private tags have 31 bits (bit 31 is the exclusive flag), LLC tags
  // 32. The mapping is exact inside the window; a line outside it aborts in
  // Anchor rather than aliasing another line's tag. With the default config
  // every 47-bit user address fits whatever the anchor; the anchor matters
  // for configs with few sets, whose tags keep more of the line's bits.
  static constexpr unsigned kMaxPrivWays = 13;
  static constexpr unsigned kMaxLlcWays = 12;
  static constexpr uint32_t kExclBit = uint32_t{1} << 31;
  static constexpr uint32_t kPrivTagMask = kExclBit - 1;
  static constexpr uint64_t kPrivCentre = uint64_t{1} << 30;  // tags 1 .. 2^31-1
  static constexpr uint64_t kLlcCentre = uint64_t{1} << 31;   // tags 1 .. 2^32-1

  struct alignas(64) PrivBlock {
    uint64_t recency = 0;               // nibble-packed LRU order
    uint32_t tags[kMaxPrivWays] = {};   // bit 31 = exclusive copy (kExclBit)
    uint8_t hint = 0;                   // last-hit way
  };
  struct alignas(128) LlcBlock {
    uint64_t recency = 0;
    uint32_t tags[kMaxLlcWays] = {};
    uint8_t hint = 0;
    alignas(64) uint32_t sharers[kMaxLlcWays] = {};  // core bitmap per way
    int8_t owner[kMaxLlcWays] = {-1, -1, -1, -1, -1, -1,
                                 -1, -1, -1, -1, -1, -1};  // -1 = shared
    uint16_t dirty = 0;                                     // bit per way
  };
  static_assert(sizeof(PrivBlock) == 64 && sizeof(LlcBlock) == 128);
  static_assert(kMaxLlcWays == 12, "owner initializer lists 12 ways");

  uint32_t PrivSet(uint64_t line) const {
    return static_cast<uint32_t>(line) & priv_set_mask_;
  }
  uint32_t LlcSet(uint64_t line) const {
    return static_cast<uint32_t>(line) & llc_set_mask_;
  }
  PrivBlock& PrivAt(CoreId core, uint32_t set) {
    return priv_blocks_[(size_t{core} << cfg_.priv_sets_log2) | set];
  }

  uint32_t PrivTag(uint64_t line) {
    uint64_t t = (line >> cfg_.priv_sets_log2) + priv_bias_;
    if (UTPS_UNLIKELY(t - 1 >= priv_window_)) {
      Anchor(line);
      t = (line >> cfg_.priv_sets_log2) + priv_bias_;
    }
    return static_cast<uint32_t>(t);
  }
  uint32_t LlcTag(uint64_t line) {
    uint64_t t = (line >> cfg_.llc_sets_log2) + llc_bias_;
    if (UTPS_UNLIKELY(t - 1 >= llc_window_)) {
      Anchor(line);
      t = (line >> cfg_.llc_sets_log2) + llc_bias_;
    }
    return static_cast<uint32_t>(t);
  }
  // Inverse of PrivTag / LlcTag for a valid (non-zero) tag of set `set`.
  uint64_t PrivLine(uint32_t tag, uint32_t set) const {
    return ((uint64_t{tag} - priv_bias_) << cfg_.priv_sets_log2) | set;
  }
  uint64_t LlcLine(uint32_t tag, uint32_t set) const {
    return ((uint64_t{tag} - llc_bias_) << cfg_.llc_sets_log2) | set;
  }

  // First call: centres both tag windows on `line`. Both windows are empty
  // until then, so the first tag computation always lands here. Any later
  // call means a line outside a window.
  [[gnu::noinline, gnu::cold]] void Anchor(uint64_t line) {
    UTPS_CHECK_MSG(priv_window_ == 0,
                   "line %#llx is outside the cache model's tag window",
                   static_cast<unsigned long long>(line));
    priv_bias_ = kPrivCentre - (line >> cfg_.priv_sets_log2);
    llc_bias_ = kLlcCentre - (line >> cfg_.llc_sets_log2);
    priv_window_ = kPrivTagMask;
    llc_window_ = ~uint32_t{0};
  }

  // Probe a private set; on hit move the way to MRU position and return its
  // tag word.
  //
  // Unlike the LLC, a private set CAN briefly hold two copies of one line:
  // the write-upgrade path in AccessLine calls PrivFill for a line that
  // already sits in another way (shared), and the recency walk then always
  // finds the newer exclusive copy — it is installed at MRU and relative
  // order of the two copies never changes afterwards. So a multi-way match
  // is resolved through the recency word. The per-set last-hit-way hint is
  // safe under this: PrivFill repoints it at the installed way, so a hint
  // that still matches the tag is always the order-first copy.
  uint32_t* PrivProbe(PrivBlock& b, uint32_t tag) {
    unsigned way = b.hint;
    if ((b.tags[way] & kPrivTagMask) != tag) {
      uint32_t match = 0;
      for (unsigned w = 0; w < cfg_.priv_ways; w++) {
        match |= static_cast<uint32_t>((b.tags[w] & kPrivTagMask) == tag) << w;
      }
      if (match == 0) {
        return nullptr;
      }
      if (UTPS_LIKELY((match & (match - 1)) == 0)) {
        way = static_cast<unsigned>(__builtin_ctz(match));
      } else {
        // Duplicate copies: first in recency order wins (baseline semantics).
        unsigned r = 0;
        while ((match >> OrderAt(b.recency, r) & 1u) == 0) {
          r++;
        }
        way = OrderAt(b.recency, r);
      }
      b.hint = static_cast<uint8_t>(way);
    }
    b.recency = ToFront(b.recency, RankOf(b.recency, way));
    return &b.tags[way];
  }

  // Insert a line into private set `set` of `core` (block `b`); evicts the
  // LRU way. On eviction, clears the core's sharer bit in the LLC.
  void PrivFill(CoreId core, PrivBlock& b, uint32_t set, uint32_t tag, bool exclusive) {
    const unsigned victim = OrderAt(b.recency, cfg_.priv_ways - 1);
    const uint32_t old_tag = b.tags[victim] & kPrivTagMask;
    if (old_tag != 0) {
      ClearSharer(core, PrivLine(old_tag, set));
    }
    b.tags[victim] = tag | (exclusive ? kExclBit : 0);
    // Keep the probe hint coherent: the installed copy is the one a recency
    // walk would now find first (matters when a write upgrade creates a
    // second copy of a line already in the set — see PrivProbe).
    b.hint = static_cast<uint8_t>(victim);
    b.recency = ToFront(b.recency, cfg_.priv_ways - 1);
  }

  void PrivInvalidate(CoreId core, uint64_t line) {
    PrivBlock& b = PrivAt(core, PrivSet(line));
    const uint32_t tag = PrivTag(line);
    for (unsigned w = 0; w < cfg_.priv_ways; w++) {
      if ((b.tags[w] & kPrivTagMask) == tag) {
        b.tags[w] = 0;
        return;
      }
    }
  }

  void ClearSharer(CoreId core, uint64_t line) {
    unsigned way;
    LlcBlock& b = llc_blocks_[LlcSet(line)];
    if (LlcProbe(b, LlcTag(line), &way, /*touch=*/false)) {
      b.sharers[way] &= ~(1u << core);
      if (b.owner[way] == static_cast<int8_t>(core)) {
        b.owner[way] = -1;
      }
    }
  }

  // LLC probe: same tag + hint structure as PrivProbe (see its comment for
  // the equivalence argument); an LLC set never holds two copies of a line.
  bool LlcProbe(LlcBlock& b, uint32_t tag, unsigned* way_out, bool touch = true) {
    unsigned way = b.hint;
    if (b.tags[way] != tag) {
      unsigned w = 0;
      while (w < cfg_.llc_ways && b.tags[w] != tag) {
        w++;
      }
      if (w == cfg_.llc_ways) {
        return false;
      }
      way = w;
      b.hint = static_cast<uint8_t>(way);
    }
    if (touch) {
      b.recency = ToFront(b.recency, RankOf(b.recency, way));
    }
    *way_out = way;
    return true;
  }

  // Choose an eviction victim within `allowed_mask`: the least recently used
  // way whose index is allowed (CAT semantics).
  unsigned LlcVictim(const LlcBlock& b, uint32_t allowed_mask) const {
    for (int i = static_cast<int>(cfg_.llc_ways) - 1; i >= 0; i--) {
      const unsigned way = OrderAt(b.recency, static_cast<unsigned>(i));
      if (allowed_mask & (1u << way)) {
        return way;
      }
    }
    // Mask validated non-empty at SetClosMask; unreachable.
    return OrderAt(b.recency, cfg_.llc_ways - 1);
  }

  void LlcInstall(LlcBlock& b, uint32_t set, unsigned way, uint32_t tag,
                  uint32_t sharers, int8_t owner, bool dirty) {
    if (b.tags[way] != 0) {
      // Inclusive LLC: back-invalidate private copies of the victim line.
      const uint64_t old_line = LlcLine(b.tags[way], set);
      uint32_t s = b.sharers[way];
      while (s != 0) {
        const unsigned c = static_cast<unsigned>(__builtin_ctz(s));
        s &= s - 1;
        PrivInvalidate(static_cast<CoreId>(c), old_line);
      }
    }
    b.tags[way] = tag;
    b.hint = static_cast<uint8_t>(way);
    b.sharers[way] = sharers;
    b.owner[way] = owner;
    SetDirty(b, way, dirty);
    // Installed line becomes MRU.
    b.recency = ToFront(b.recency, RankOf(b.recency, way));
  }

  static void SetDirty(LlcBlock& b, unsigned way, bool dirty) {
    b.dirty = static_cast<uint16_t>(dirty ? b.dirty | (1u << way)
                                          : b.dirty & ~(1u << way));
  }
  static bool IsDirty(const LlcBlock& b, unsigned way) {
    return ((b.dirty >> way) & 1u) != 0;
  }

  Tick AccessLine(CoreId core, ClosId clos, Stage stage, uint64_t line, bool write,
                  bool* priv_hit_out) {
    StageCounters& sc = counters_[core].by_stage[static_cast<unsigned>(stage)];
    sc.accesses++;
    const uint32_t pset = PrivSet(line);
    PrivBlock& pb = PrivAt(core, pset);
    const uint32_t ptag = PrivTag(line);
    if (const uint32_t* hit = PrivProbe(pb, ptag)) {
      if (!write || (*hit & kExclBit) != 0) {
        sc.priv_hits++;
        // Write to an exclusive private copy: no LLC dirty-mark needed. An
        // exclusive copy is only ever installed by a write path, and every
        // write path (LLC hit-write, miss-install, DDIO update) sets the LLC
        // entry dirty at that moment; the copy cannot outlive that dirty bit
        // because LLC eviction back-invalidates private copies. So the LLC
        // probe the old MarkDirty did here always found dirty == true
        // already — dropping it removes an LLC tag scan from the hottest
        // AccessLine path without changing any observable state.
        *priv_hit_out = true;
        return cfg_.priv_hit_ns;
      }
      // Write upgrade: fall through to the LLC to invalidate other sharers.
    }
    *priv_hit_out = false;
    // The fill below evicts the private LRU way and clears its sharer bit
    // in that line's LLC set: start loading that set now, so its host miss
    // overlaps this line's LLC probe.
    const uint32_t victim_tag =
        pb.tags[OrderAt(pb.recency, cfg_.priv_ways - 1)] & kPrivTagMask;
    if (victim_tag != 0) {
      __builtin_prefetch(&llc_blocks_[LlcSet(PrivLine(victim_tag, pset))]);
    }
    const uint32_t set = LlcSet(line);
    LlcBlock& b = llc_blocks_[set];
    const uint32_t tag = LlcTag(line);
    unsigned way;
    Tick lat;
    if (LlcProbe(b, tag, &way)) {
      uint32_t& sharers = b.sharers[way];
      int8_t& owner = b.owner[way];
      lat = cfg_.llc_hit_ns;
      sc.llc_hits++;
      const uint32_t others = sharers & ~(1u << core);
      if (write) {
        if (others != 0) {
          lat += cfg_.coherence_ns;
          sc.coherence++;
          uint32_t s = others;
          while (s != 0) {
            const unsigned c = static_cast<unsigned>(__builtin_ctz(s));
            s &= s - 1;
            PrivInvalidate(static_cast<CoreId>(c), line);
          }
        }
        sharers = 1u << core;
        owner = static_cast<int8_t>(core);
        SetDirty(b, way, true);
        PrivFill(core, pb, pset, ptag, /*exclusive=*/true);
        RefreshSharersAfterFill(b, tag, core, /*exclusive=*/true);
      } else {
        if (owner >= 0 && owner != static_cast<int8_t>(core) && IsDirty(b, way)) {
          lat += cfg_.coherence_ns;  // dirty transfer from owner's cache
          sc.coherence++;
        }
        owner = -1;
        sharers |= 1u << core;
        PrivFill(core, pb, pset, ptag, /*exclusive=*/false);
      }
    } else {
      lat = cfg_.dram_ns;
      sc.llc_misses++;
      const unsigned victim = LlcVictim(b, EffectiveMask(clos));
      LlcInstall(b, set, victim, tag, 1u << core,
                 write ? static_cast<int8_t>(core) : int8_t{-1}, write);
      PrivFill(core, pb, pset, ptag, /*exclusive=*/write);
    }
    return lat;
  }

  // PrivFill may evict the very line just installed elsewhere in the set walk
  // and clear sharer bits; re-assert this core's bit.
  void RefreshSharersAfterFill(LlcBlock& b, uint32_t tag, CoreId core,
                               bool exclusive) {
    unsigned way;
    if (LlcProbe(b, tag, &way, /*touch=*/false)) {
      b.sharers[way] |= 1u << core;
      if (exclusive) {
        b.owner[way] = static_cast<int8_t>(core);
      }
    }
  }

  Tick IoWriteLine(uint64_t line) {
    io_writes_++;
    const uint32_t set = LlcSet(line);
    LlcBlock& b = llc_blocks_[set];
    const uint32_t tag = LlcTag(line);
    unsigned way;
    if (LlcProbe(b, tag, &way)) {
      // DDIO update-in-place: any way, invalidate CPU private copies.
      uint32_t s = b.sharers[way];
      while (s != 0) {
        const unsigned c = static_cast<unsigned>(__builtin_ctz(s));
        s &= s - 1;
        PrivInvalidate(static_cast<CoreId>(c), line);
      }
      b.sharers[way] = 0;
      b.owner[way] = -1;
      SetDirty(b, way, true);
      return cfg_.llc_hit_ns;
    }
    // DDIO allocating write: restricted to the DDIO ways.
    io_write_misses_++;
    const unsigned victim = LlcVictim(b, cfg_.DdioMask());
    LlcInstall(b, set, victim, tag, /*sharers=*/0, /*owner=*/-1, /*dirty=*/true);
    return cfg_.dram_ns;
  }

  uint32_t EffectiveMask(ClosId clos) const {
    const uint32_t m = clos_masks_[clos] & ~stolen_mask_;
    return m != 0 ? m : clos_masks_[clos];
  }

  MachineConfig cfg_;
  uint32_t priv_sets_;
  uint32_t priv_set_mask_;
  uint32_t llc_sets_;
  uint32_t llc_set_mask_;
  size_t num_priv_blocks_;
  // Huge-page backed storage for every set block: priv_blocks_ is [core][set],
  // llc_blocks_ is [set].
  Arena arena_;
  PrivBlock* priv_blocks_ = nullptr;
  LlcBlock* llc_blocks_ = nullptr;
  // Tag window (see Anchor): bias added to a line's upper bits, and the
  // number of usable tags; both windows stay empty until the first line.
  uint64_t priv_bias_ = 0;
  uint64_t llc_bias_ = 0;
  uint64_t priv_window_ = 0;
  uint64_t llc_window_ = 0;

  uint32_t clos_masks_[kMaxClos] = {};
  uint32_t stolen_mask_ = 0;  // LLC ways held by a simulated noisy neighbor
  bool fast_forward_ = false;  // sampled simulation: functional mode active
  std::vector<CoreCounters> counters_;
  uint64_t io_writes_ = 0;
  uint64_t io_write_misses_ = 0;
  uint64_t io_reads_ = 0;
};

}  // namespace utps::sim

#endif  // UTPS_SIM_CACHE_H_
