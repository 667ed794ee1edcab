// Per-core staging buffer for hot-path metric recording (DESIGN.md §13).
//
// Client fibers record one latency sample per completed op — the hottest
// stats call in the simulator. Instead of touching the (KB-sized, cold)
// histogram bucket array per op, samples stage into a small per-recorder
// value buffer that flushes in bulk when full and at window boundaries
// (measure-phase end, before the histogram is read). Staging only reorders
// commutative bucket/sum updates, so the histogram is value-identical to
// unstaged recording.
#ifndef UTPS_STATS_STAGED_H_
#define UTPS_STATS_STAGED_H_

#include <cstdint>

#include "common/macros.h"
#include "stats/histogram.h"

namespace utps {

class HistogramStage {
 public:
  // Stages one value; spills the whole buffer into `sink` when full. The
  // sink is passed per call (not cached) so the stage stays trivially
  // relocatable next to its histogram in the harness's counter block.
  void Record(uint64_t value, Histogram* sink) {
    buf_[n_++] = value;
    if (UTPS_UNLIKELY(n_ == kCap)) {
      FlushTo(sink);
    }
  }

  // Window-boundary drain; must run before `sink` is read or merged.
  void FlushTo(Histogram* sink) {
    sink->RecordBulk(buf_, n_);
    n_ = 0;
  }

  unsigned staged() const { return n_; }

 private:
  static constexpr unsigned kCap = 256;  // 2 KB: fits alongside hot state
  uint64_t buf_[kCap];
  unsigned n_ = 0;
};

}  // namespace utps

#endif  // UTPS_STATS_STAGED_H_
