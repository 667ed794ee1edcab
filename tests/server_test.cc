// End-to-end server tests: every system (μTPS-H/T, BaseKV, eRPCKV, RaceHash,
// Sherman) serves a workload through the simulated NIC; data correctness is
// verified with copy-out clients; μTPS-specific machinery (thread
// reassignment, hot-set refresh) is exercised directly.
#include <gtest/gtest.h>

#include <cstring>

#include "harness/experiment.h"
#include "harness/kv_client.h"
#include "index/cuckoo.h"

namespace utps {
namespace {

using sim::kMsec;

WorkloadSpec SmallSpec(uint32_t vsize = 64, double theta = 0.99) {
  WorkloadSpec s = WorkloadSpec::YcsbA(20000, vsize, theta > 0);
  s.zipf_theta = theta;
  return s;
}

ExperimentConfig SmallConfig(SystemKind sys, const WorkloadSpec& w) {
  ExperimentConfig cfg;
  cfg.system = sys;
  cfg.workload = w;
  cfg.client_threads = 8;
  cfg.pipeline_depth = 2;
  cfg.warmup_ns = 1 * kMsec;
  cfg.measure_ns = 2 * kMsec;
  cfg.max_warmup_ns = 30 * kMsec;
  cfg.mutps.autotune = false;
  cfg.mutps.refresh_period_ns = 500 * sim::kUsec;
  return cfg;
}

class ServerSmokeTest : public ::testing::TestWithParam<
                            std::tuple<SystemKind, IndexType>> {};

TEST_P(ServerSmokeTest, ServesTrafficAndReportsLatency) {
  const auto [sys, index] = GetParam();
  if (sys == SystemKind::kRaceHash && index == IndexType::kTree) {
    GTEST_SKIP() << "RaceHash is hash-only";
  }
  if (sys == SystemKind::kSherman && index == IndexType::kHash) {
    GTEST_SKIP() << "Sherman is tree-only";
  }
  sim::MachineConfig mc;
  mc.num_cores = 10;
  TestBed bed(index, SmallSpec(), /*server_workers=*/8, mc);
  const ExperimentResult res = bed.Run(SmallConfig(sys, SmallSpec()));
  EXPECT_GT(res.ops, 1000u) << SystemName(sys);
  EXPECT_GT(res.mops, 0.05) << SystemName(sys);
  EXPECT_GT(res.p50_ns, 1000u);   // at least the NIC RTT
  EXPECT_GE(res.p99_ns, res.p50_ns);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, ServerSmokeTest,
    ::testing::Combine(::testing::Values(SystemKind::kMuTps, SystemKind::kBaseKv,
                                         SystemKind::kErpcKv,
                                         SystemKind::kRaceHash,
                                         SystemKind::kSherman),
                       ::testing::Values(IndexType::kHash, IndexType::kTree)),
    [](const auto& info) {
      return std::string(SystemName(std::get<0>(info.param))) + "_" +
             IndexName(std::get<1>(info.param));
    });

// The host-parallel simulation backend was removed; a config that still
// asks for it must fail loudly instead of silently running serially.
TEST(TestBedDeath, SimThreadsAboveOneRejected) {
  EXPECT_DEATH(
      {
        const WorkloadSpec spec = WorkloadSpec::YcsbC(1000, 64, false);
        TestBed bed(IndexType::kHash, spec, /*server_workers=*/2);
        ExperimentConfig cfg = SmallConfig(SystemKind::kBaseKv, spec);
        cfg.sim_threads = 2;
        bed.Run(cfg);
      },
      "backend was removed");
}

// ------------------------------------------------------- data correctness

// Round-trips values through the KvClient request path and verifies the
// copied-out bytes.
sim::Fiber VerifyingClient(sim::ExecCtx* ctx, KvClient* client, uint64_t keys,
                           int rounds, int* failures, bool* done) {
  Rng rng(99);
  const uint32_t len = 64;
  for (int r = 0; r < rounds; r++) {
    const Key k = rng.NextBounded(keys);
    uint8_t* put = client->payload();
    for (uint32_t i = 0; i < len; i++) {  // a recognizable pattern
      put[i] = static_cast<uint8_t>(k * 7 + i + r);
    }
    co_await client->Call(*ctx, OpType::kPut, k, len);
    co_await client->Call(*ctx, OpType::kGet, k, len);
    if (client->resp_len() != len || std::memcmp(client->out(), put, len) != 0) {
      (*failures)++;
    }
  }
  *done = true;
}

class RoundTripTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(RoundTripTest, PutThenGetReturnsWrittenBytes) {
  const SystemKind sys = GetParam();
  sim::MachineConfig mc;
  mc.num_cores = 6;
  sim::Arena arena(1ull << 30);
  sim::MemoryModel mem(mc);
  SlabAllocator slab(&arena);
  CuckooIndex kv_index(&arena, 4096);
  const uint64_t kKeys = 512;
  std::vector<Item*> items;
  for (Key k = 0; k < kKeys; k++) {
    Item* it = slab.AllocateItem(k, 64);
    std::memset(it->value(), 0, 64);
    it->value_len = 64;
    kv_index.InsertDirect(k, it);
    items.push_back(it);
  }
  sim::Engine eng;
  sim::Nic nic(&eng, &mem, sim::NicConfig{}, sys == SystemKind::kErpcKv ? 4u : 1u);
  ServerEnv env{.eng = &eng, .mem = &mem, .nic = &nic, .arena = &arena,
                .slab = &slab, .index = &kv_index, .index_type = IndexType::kHash,
                .num_workers = 4};
  std::vector<std::unique_ptr<KvIndex>> shards;  // eRPCKV's
  std::unique_ptr<KvServer> server;
  if (sys == SystemKind::kMuTps) {
    MuTpsServer::Options opt;
    opt.autotune = false;
    opt.initial_ncr = 2;
    opt.refresh_period_ns = 200 * sim::kUsec;
    server = std::make_unique<MuTpsServer>(env, opt);
  } else if (sys == SystemKind::kBaseKv) {
    server = std::make_unique<BaseKvServer>(env);
  } else {
    shards = BaseKvServer::BuildShards(&arena, IndexType::kHash, items, 4,
                                       2048, 6);
    server = std::make_unique<BaseKvServer>(env, shards);
  }
  server->Start();
  sim::ExecCtx cli{.eng = &eng, .mem = nullptr};
  int failures = 0;
  bool done = false;
  const KvTarget target{.nic = &nic, .server = server.get()};
  KvClient client(&target, 0, 64, 0, /*copy_responses=*/true);
  eng.Spawn(VerifyingClient(&cli, &client, kKeys, 300, &failures, &done));
  while (!done && eng.now() < 500 * kMsec) {
    eng.Run(eng.now() + kMsec);
  }
  EXPECT_TRUE(done);
  EXPECT_EQ(failures, 0);
  server->Stop();
  eng.Run(eng.now() + kMsec);
}

INSTANTIATE_TEST_SUITE_P(Systems, RoundTripTest,
                         ::testing::Values(SystemKind::kMuTps,
                                           SystemKind::kBaseKv,
                                           SystemKind::kErpcKv),
                         [](const auto& info) {
                           return std::string(SystemName(info.param));
                         });

// --------------------------------------------------- μTPS thread movement

TEST(MuTpsReconfig, ThreadSplitChangesWithoutLosingRequests) {
  sim::MachineConfig mc;
  mc.num_cores = 10;
  TestBed bed(IndexType::kHash, SmallSpec(), 8, mc);
  ExperimentConfig cfg = SmallConfig(SystemKind::kMuTps, SmallSpec());
  cfg.mutps.autotune = true;
  cfg.mutps.tune_llc = false;
  cfg.mutps.enable_cache = false;  // quick tune: threads only
  cfg.mutps.tune_window_ns = 100 * sim::kUsec;
  cfg.max_warmup_ns = 100 * kMsec;
  const ExperimentResult res = bed.Run(cfg);
  EXPECT_GT(res.reconfigs, 0u);   // the tuner actually moved threads
  EXPECT_GT(res.ops, 1000u);      // and traffic kept flowing
  EXPECT_GE(res.ncr, 1u);
  EXPECT_GE(res.nmr, 1u);
}

TEST(MuTpsHotSet, SkewedLoadPopulatesCache) {
  sim::MachineConfig mc;
  mc.num_cores = 10;
  TestBed bed(IndexType::kTree, SmallSpec(64, 0.99), 8, mc);
  ExperimentConfig cfg = SmallConfig(SystemKind::kMuTps, SmallSpec(64, 0.99));
  cfg.mutps.initial_cache_items = 2048;
  cfg.measure_ns = 4 * kMsec;
  const ExperimentResult res = bed.Run(cfg);
  EXPECT_GT(res.cache_items, 100u);  // hot set was identified and published
}

}  // namespace
}  // namespace utps
