// Accounting rules the benchmark applies to a run's raw outputs. They use no
// simulator types, so rules_test.cc drives them with synthetic inputs.
//
// A closed-loop run keeps `in_flight` requests outstanding at all times. The
// harness counts only requests answered inside the measure window, so a server
// that stops answering would read as "few ops, good latency". These rules put
// the unanswered requests back: a run whose window ends with no completions is
// stalled, its in-flight requests count as failed, and each failed request
// counts as a sample at the window length, i.e. it misses every latency limit.
#ifndef PERFBENCH_RULES_H_
#define PERFBENCH_RULES_H_

#include <cstdint>
#include <vector>

namespace perfbench {

// Where the measure window sits in a completion timeline, and whether the
// server was still answering when it ended.
struct WindowVerdict {
  bool located = false;      // a window position matched the harness's ops
  bool stalled = false;      // last bucket of the window had no completions
  uint64_t end_bucket = 0;   // one past the window's last bucket
  uint64_t mismatch = 0;     // |timeline sum over the window - ops|
};

// `counts[i]` holds completions in bucket i, counted from virtual time 0; the
// vector ends at the last bucket with a completion. The window is
// `window_buckets` long and ends on a multiple of `step_buckets` (the harness
// advances its warm-up in whole steps, so the window is step-aligned). `ops`
// is what the harness counted inside the window. A completion on the exact
// tick a window opens or closes can land one bucket off, so a position
// matches when the sums differ by at most `tolerance`.
//
// A run with ops == 0 answered nothing in its window and is stalled wherever
// the window was. Otherwise the best-matching position wins (ties: the later
// one), and the run is stalled if the window's last bucket is empty.
inline WindowVerdict LocateWindow(const std::vector<uint64_t>& counts,
                                  uint64_t ops, uint64_t window_buckets,
                                  uint64_t step_buckets, uint64_t tolerance) {
  WindowVerdict v;
  if (ops == 0) {
    v.located = true;
    v.stalled = true;
    return v;
  }
  if (window_buckets == 0 || step_buckets == 0) {
    return v;
  }
  const auto at = [&counts](uint64_t i) -> uint64_t {
    return i < counts.size() ? counts[i] : 0;
  };
  // Ends past counts.size() + window_buckets see only empty buckets.
  const uint64_t last_end = counts.size() + window_buckets;
  bool have = false;
  uint64_t best_end = 0;
  uint64_t best_diff = 0;
  for (uint64_t end = step_buckets; end <= last_end; end += step_buckets) {
    if (end < window_buckets) {
      continue;
    }
    uint64_t sum = 0;
    for (uint64_t i = end - window_buckets; i < end; i++) {
      sum += at(i);
    }
    const uint64_t diff = sum > ops ? sum - ops : ops - sum;
    if (!have || diff <= best_diff) {
      have = true;
      best_end = end;
      best_diff = diff;
    }
  }
  if (!have || best_diff > tolerance) {
    return v;
  }
  v.located = true;
  v.end_bucket = best_end;
  v.mismatch = best_diff;
  v.stalled = at(best_end - 1) == 0;
  return v;
}

// Requests attempted and failed in one run's window.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Answered requests plus the ones still outstanding when the window closed.
// In a healthy run the outstanding ones are answered during the drain; in a
// stalled run they never are, so they count as failed.
inline Outcome CountOutcome(uint64_t ops, uint64_t in_flight, bool stalled) {
  return Outcome{ops + in_flight, stalled ? in_flight : 0};
}

// Latency percentile `q` over answered and failed requests together. Failed
// requests sort last, at `run_len`. When the percentile's rank falls among the
// answered requests, `ok_value` (the answered-only percentile at q) is
// returned; with failures present that is a lower bound on the true value.
inline double MergedPercentile(double q, uint64_t n_ok, uint64_t n_failed,
                               double ok_value, double run_len) {
  const uint64_t total = n_ok + n_failed;
  if (total == 0) {
    return run_len;
  }
  // Same rank convention as the simulator's Histogram::Percentile.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  if (rank >= total) {
    rank = total - 1;
  }
  return rank >= n_ok ? run_len : ok_value;
}

// The highest of P99.99, P99.9, P99, P90 and P50 that leaves at least
// `min_tail` of `n` samples beyond it; 0 when even P50 does not.
inline double TailPercentile(uint64_t n, uint64_t min_tail = 10) {
  for (const uint64_t denom : {10000u, 1000u, 100u, 10u, 2u}) {
    if (n / denom >= min_tail) {
      return 1.0 - 1.0 / static_cast<double>(denom);
    }
  }
  return 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_RULES_H_
