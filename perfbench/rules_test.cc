// Checks the benchmark's accounting rules (rules.h) on synthetic inputs.
// run.py runs this binary after every build and refuses to measure if it
// fails. Exit code 0 = all checks passed.
#include <cstdio>
#include <vector>

#include "rules.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    g_failures++;
  }
}

// A timeline with `rate` completions per bucket from 0 until `stop_bucket`
// (exclusive), then nothing: the shape of a server that stops answering.
std::vector<uint64_t> Timeline(uint64_t stop_bucket, uint64_t rate) {
  return std::vector<uint64_t>(stop_bucket, rate);
}

void TestHealthyRunIsLocatedAndNotStalled() {
  // Window = buckets [30, 50), ends on a 10-bucket step; the drain adds
  // completions after it, as in a healthy run.
  std::vector<uint64_t> c = Timeline(53, 100);
  for (uint64_t i = 30; i < 50; i++) {
    c[i] = 100 + i;  // distinct per bucket so only one window matches
  }
  uint64_t ops = 0;
  for (uint64_t i = 30; i < 50; i++) {
    ops += c[i];
  }
  const perfbench::WindowVerdict v =
      perfbench::LocateWindow(c, ops + 2, 20, 10, 4);  // tick-boundary slack
  Check(v.located, "healthy: window located");
  Check(v.end_bucket == 50, "healthy: window ends at bucket 50");
  Check(v.mismatch == 2, "healthy: mismatch is the boundary slack");
  Check(!v.stalled, "healthy: not stalled");
}

void TestStallBeforeWindowIsStalled() {
  // Completions stop at bucket 25; the window [40, 60) answered nothing.
  const std::vector<uint64_t> c = Timeline(25, 100);
  const perfbench::WindowVerdict v = perfbench::LocateWindow(c, 0, 20, 10, 4);
  Check(v.located && v.stalled, "zero ops: stalled");
}

void TestStallInsideWindowIsStalled() {
  // Window [40, 60); completions stop at bucket 45, so ops = 5 buckets' worth.
  std::vector<uint64_t> c = Timeline(45, 100);
  for (uint64_t i = 0; i < 45; i++) {
    c[i] = 1000 + i * 7;  // unequal buckets so partial sums do not collide
  }
  uint64_t ops = 0;
  for (uint64_t i = 40; i < 45; i++) {
    ops += c[i];
  }
  const perfbench::WindowVerdict v = perfbench::LocateWindow(c, ops, 20, 10, 4);
  Check(v.located, "mid-window stall: window located");
  Check(v.end_bucket == 60, "mid-window stall: window ends at bucket 60");
  Check(v.stalled, "mid-window stall: stalled");
}

void TestUnmatchedWindowIsNotLocated() {
  const std::vector<uint64_t> c = Timeline(50, 100);
  // 20 buckets of 100 = 2000 per window; 1234 matches no step-aligned window.
  const perfbench::WindowVerdict v = perfbench::LocateWindow(c, 1234, 20, 10, 4);
  Check(!v.located, "unmatched ops: not located");
}

void TestOutcome() {
  const perfbench::Outcome healthy = perfbench::CountOutcome(5000, 1024, false);
  Check(healthy.attempted == 6024 && healthy.failed == 0,
        "healthy outcome: in-flight requests are answered, none fail");
  const perfbench::Outcome stalled = perfbench::CountOutcome(0, 1024, true);
  Check(stalled.attempted == 1024 && stalled.failed == 1024,
        "stalled outcome: failed fraction is 1.0");
}

void TestMergedPercentile() {
  // Nothing answered: every percentile reads as the run length.
  Check(perfbench::MergedPercentile(0.5, 0, 1024, 0.0, 2000.0) == 2000.0,
        "all failed: P50 = run length");
  Check(perfbench::MergedPercentile(0.99, 0, 1024, 0.0, 2000.0) == 2000.0,
        "all failed: P99 = run length");
  // No failures: the answered-only value passes through.
  Check(perfbench::MergedPercentile(0.99, 100000, 0, 17.5, 2000.0) == 17.5,
        "no failures: P99 unchanged");
  // 2% failed: P99's rank lands among the failed requests, P50's does not.
  Check(perfbench::MergedPercentile(0.99, 9800, 200, 17.5, 2000.0) == 2000.0,
        "2% failed: P99 = run length");
  Check(perfbench::MergedPercentile(0.5, 9800, 200, 8.0, 2000.0) == 8.0,
        "2% failed: P50 from answered requests");
  // 0.5% failed: P99's rank (9900 of 10000) is still an answered request.
  Check(perfbench::MergedPercentile(0.99, 9950, 50, 17.5, 2000.0) == 17.5,
        "0.5% failed: P99 from answered requests");
}

void TestTailPercentile() {
  Check(perfbench::TailPercentile(7000) == 0.99,
        "7k samples: P99 (P99.9 leaves only 7)");
  Check(perfbench::TailPercentile(10000) == 0.999, "10k samples: P99.9");
  Check(perfbench::TailPercentile(1024) == 0.99, "1024 samples: P99");
  Check(perfbench::TailPercentile(999) == 0.9, "999 samples: P90");
  Check(perfbench::TailPercentile(19) == 0.0, "19 samples: none");
}

}  // namespace

int main() {
  TestHealthyRunIsLocatedAndNotStalled();
  TestStallBeforeWindowIsStalled();
  TestStallInsideWindowIsStalled();
  TestUnmatchedWindowIsNotLocated();
  TestOutcome();
  TestMergedPercentile();
  TestTailPercentile();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d rule check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("rules_test: all checks passed\n");
  return 0;
}
