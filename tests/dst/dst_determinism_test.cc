// Determinism regression: the simulator must be a pure function of the seed,
// including under schedule perturbation. Each server type is run twice
// in-process and once in a fresh subprocess with the same seed; the formatted
// result rows must be byte-identical.
//
// CommittedRowsMatch pins the rows across builds as well: a fixed set of
// configurations (every system, the scan and delete mixes, a loss+dup fault
// plan, a WAL crash-recovery run and two cluster runs) must reproduce the
// checked-in tests/dst/dst_expected.inc byte for byte. Regenerate with
// scripts/regen_dst_expected.sh, only for a change that intentionally alters
// simulation semantics.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../child_rows.h"
#include "dst_cluster.h"
#include "dst_harness.h"

namespace utps::dst {
namespace {

constexpr uint64_t kSeed = 12345;

DstConfig RowConfig(Sys sys) {
  DstConfig cfg;
  cfg.sys = sys;
  cfg.mix = kYcsbA;
  cfg.seed = kSeed;
  cfg.jitter_ns = 48;  // perturbation fully on: permuted ties + jitter
  cfg.inject_split = true;
  return cfg;
}

std::string RowFor(const std::string& label, const DstConfig& cfg) {
  const DstResult r = RunDst(cfg);
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%s seed=%llu digest=%016llx issued=%llu completed=%llu "
                "checked=%zu ok=%d retries=%llu recoveries=%llu replayed=%llu",
                label.c_str(), static_cast<unsigned long long>(cfg.seed),
                static_cast<unsigned long long>(r.digest),
                static_cast<unsigned long long>(r.ops_issued),
                static_cast<unsigned long long>(r.ops_completed),
                r.ops_checked, r.ok ? 1 : 0,
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.recoveries),
                static_cast<unsigned long long>(r.wal_replayed));
  return buf;
}

std::string RowFor(Sys sys) { return RowFor(SysName(sys), RowConfig(sys)); }

std::string ClusterRowFor(const std::string& label,
                          const DstClusterConfig& cfg) {
  const DstClusterResult r = RunDstCluster(cfg);
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%s seed=%llu digest=%016llx completed=%llu checked=%zu ok=%d "
                "retries=%llu redirects=%llu resolves=%llu migrations=%llu",
                label.c_str(), static_cast<unsigned long long>(cfg.seed),
                static_cast<unsigned long long>(r.digest),
                static_cast<unsigned long long>(r.ops_completed),
                r.ops_checked, r.ok ? 1 : 0,
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.redirects),
                static_cast<unsigned long long>(r.resolves),
                static_cast<unsigned long long>(r.migrations));
  return buf;
}

// The configurations pinned by tests/dst/dst_expected.inc.
std::vector<std::string> CommittedRows() {
  std::vector<std::string> rows;
  for (Sys sys : kAllSystems) {
    rows.push_back(RowFor(sys));
  }
  for (Sys sys : kAllSystems) {
    DstConfig scan = RowConfig(sys);
    scan.mix = kScanMix;
    rows.push_back(RowFor(std::string(SysName(sys)) + " scan-mix", scan));
    DstConfig del = RowConfig(sys);
    del.mix = kDeleteMix;
    rows.push_back(RowFor(std::string(SysName(sys)) + " delete-mix", del));
  }
  fault::FaultConfig loss_dup;
  loss_dup.drop_prob = 0.02;
  loss_dup.dup_prob = 0.05;
  loss_dup.delay_prob = 0.10;
  for (Sys sys : {Sys::kBaseKv, Sys::kErpcKv}) {
    DstConfig cfg = RowConfig(sys);
    cfg.fault = loss_dup;
    rows.push_back(RowFor(std::string(SysName(sys)) + " loss+dup", cfg));
  }
  DstConfig crash = RowConfig(Sys::kBaseKv);
  crash.fault = loss_dup;
  crash.wal.enabled = true;
  crash.wal.mode = wal::CommitMode::kGroup;
  crash.server_crash_at_ns = 60 * sim::kUsec;
  rows.push_back(RowFor("BaseKV wal-crash", crash));

  DstClusterConfig failover;
  failover.seed = 42;
  failover.fault.crash_node = 0;
  failover.fault.node_crash_at_ns = 150 * sim::kUsec;
  rows.push_back(ClusterRowFor("cluster failover", failover));
  DstClusterConfig migration;
  migration.seed = 42;
  migration.forced.push_back(cluster::ForcedMigration{150 * sim::kUsec, 2, -1});
  migration.fault = loss_dup;
  rows.push_back(ClusterRowFor("cluster migration+loss", migration));
  return rows;
}

std::string AllRows() {
  std::string rows;
  for (Sys sys : kAllSystems) {
    rows += RowFor(sys);
    rows += '\n';
  }
  return rows;
}

// Child-side emitter: skipped unless the parent test set the output path.
TEST(DstDeterminism, ChildEmit) {
  const char* path = std::getenv("MUTPS_DST_CHILD_OUT");
  if (path == nullptr) {
    GTEST_SKIP() << "subprocess helper (driven by SubprocessIdentical)";
  }
  std::ofstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good());
  f << AllRows();
}

const char* const kCommittedRows[] = {
#include "dst_expected.inc"
};

TEST(DstDeterminism, CommittedRowsMatch) {
  const std::vector<std::string> rows = CommittedRows();
  if (std::getenv("MUTPS_DST_REGEN") != nullptr) {
    std::printf("-- DST rows (scripts/regen_dst_expected.sh) --\n");
    for (const std::string& r : rows) {
      std::printf("    \"%s\",\n", r.c_str());
    }
    return;
  }
  const size_t n = sizeof(kCommittedRows) / sizeof(kCommittedRows[0]);
  ASSERT_EQ(rows.size(), n);
  for (size_t i = 0; i < n; i++) {
    EXPECT_EQ(rows[i], kCommittedRows[i])
        << "DST row " << i << " drifted from tests/dst/dst_expected.inc";
  }
}

TEST(DstDeterminism, InProcessRepeatIdentical) {
  for (Sys sys : kAllSystems) {
    const std::string a = RowFor(sys);
    const std::string b = RowFor(sys);
    EXPECT_EQ(a, b) << SysName(sys) << ": repeat run diverged";
  }
}

TEST(DstDeterminism, DifferentSeedsDiverge) {
  DstConfig a = RowConfig(Sys::kBaseKv);
  DstConfig b = a;
  b.seed = kSeed + 1;
  EXPECT_NE(RunDst(a).digest, RunDst(b).digest);
}

TEST(DstDeterminism, SubprocessIdentical) {
  const std::string expected = AllRows();
  std::string got;
  ASSERT_TRUE(RunChildEmit("MUTPS_DST_CHILD_OUT",
                           "DstDeterminism.ChildEmit", &got))
      << "subprocess run failed";
  EXPECT_EQ(expected, got)
      << "fresh-process run produced different result rows";
}

}  // namespace
}  // namespace utps::dst
