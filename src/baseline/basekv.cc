#include "baseline/basekv.h"

#include <algorithm>
#include <utility>

#include "index/btree.h"
#include "index/cuckoo.h"

namespace utps {

using sim::ExecCtx;
using sim::Fiber;
using sim::Stage;
using sim::StageScope;
using sim::Task;

namespace {
constexpr uint32_t kMaxValueBytes = 1088;
constexpr uint32_t kScanRespCap = 8192;
}  // namespace

BaseKvServer::BaseKvServer(
    const ServerEnv& env, const std::vector<std::unique_ptr<KvIndex>>& shards)
    : env_(env) {
  for (const auto& s : shards) {
    shards_.push_back(s.get());
  }
  const unsigned n = env_.num_workers;
  RxRing::Config rx;
  if (sharded()) {
    UTPS_CHECK(shards_.size() == n);
    // eRPC's tighter per-message software stack: a cheaper poll and parse
    // than the single-SRQ reconfigurable RPC (see DESIGN.md). Share-nothing
    // workers write their own shard unsynchronized; eRPCKV keeps no log.
    env_.parse_cpu_ns = env_.parse_cpu_ns > 4 ? env_.parse_cpu_ns - 4 : 1;
    env_.wal = nullptr;
    poll_cpu_ns_ = 3;
    unsynchronized_writes_ = true;
    rx.num_slots = std::max(64u, rx.num_slots / n);
  } else {
    seq_stride_ = n;  // worker i claims the shared ring's slots i, i+n, ...
  }
  workers_.resize(n);
  for (unsigned i = 0; i < n; i++) {
    Worker& w = workers_[i];
    // Arena order is part of the cache model's input: the shared ring comes
    // before every response buffer, a private ring right before its owner's.
    if (sharded() || i == 0) {
      rx_.push_back(std::make_unique<RxRing>(env_.arena, rx));
    }
    w.ctx = ExecCtx{.eng = env_.eng, .mem = env_.mem,
                    .core = static_cast<sim::CoreId>(i)};
    if (env_.obs != nullptr) {
      w.ctx.stage_ns = env_.obs->StageNs(i);
    }
    w.env = env_;
    w.rx = rx_.back().get();
    if (sharded()) {
      w.env.index = shards_[i];
      w.nic_ring = i;
    } else {
      w.first_seq = i;
    }
    resp_bufs_.push_back(std::make_unique<RespBuffer>(env_.arena));
    w.resp = resp_bufs_.back().get();
  }
}

std::vector<std::unique_ptr<KvIndex>> BaseKvServer::BuildShards(
    sim::Arena* arena, IndexType type, const std::vector<Item*>& items,
    unsigned n, uint64_t hash_capacity, uint64_t seed) {
  std::vector<std::unique_ptr<KvIndex>> shards;
  for (unsigned i = 0; i < n; i++) {
    if (type == IndexType::kHash) {
      shards.push_back(
          std::make_unique<CuckooIndex>(arena, hash_capacity, seed + i + 1));
    } else {
      shards.push_back(std::make_unique<BTreeIndex>(arena));
    }
  }
  if (type == IndexType::kHash) {
    for (Key k = 0; k < items.size(); k++) {
      UTPS_CHECK(shards[ShardOf(k, n)]->InsertDirect(k, items[k]));
    }
    return shards;
  }
  std::vector<std::vector<std::pair<Key, Item*>>> per(n);
  for (Key k = 0; k < items.size(); k++) {
    per[ShardOf(k, n)].emplace_back(k, items[k]);
  }
  for (unsigned i = 0; i < n; i++) {
    static_cast<BTreeIndex*>(shards[i].get())->BulkLoadDirect(per[i]);
  }
  return shards;
}

Fiber BaseKvServer::WorkerMain(unsigned idx) {
  Worker& w = workers_[idx];
  ExecCtx& ctx = w.ctx;
  RxRing& ring = *w.rx;
  uint64_t next_seq = w.first_seq;
  while (!stop_) {
    if (UTPS_UNLIKELY(env_.fault != nullptr) && env_.fault->IsCrashed(idx)) {
      // Crash-stop: no failover path here — the crashed worker's shared-ring
      // slots (or, share-nothing, every key of its shard) simply stall until
      // restart (contrast with μTPS, which reassigns the dead worker's load;
      // see bench/fig15).
      co_await ctx.Delay(sim::kUsec);
      continue;
    }
    bool claimed = false;
    {
      StageScope s(ctx, Stage::kPoll);
      ring.Advance(*env_.nic, w.nic_ring, ctx.eng->now());
      ctx.Charge(poll_cpu_ns_);
      co_await ctx.Read(ring.Header(next_seq), 16);
      if (ring.IsClosed(next_seq)) {
        ring.Claim(next_seq);
        ctx.Charge(3);
        claimed = true;
      }
    }
    if (!claimed) {
      co_await ctx.Yield();
      continue;
    }
    const uint64_t seq = next_seq;
    next_seq += seq_stride_;
    const unsigned cnt = ring.Header(seq)->nreq;
    // The run-to-completion worker still batches the slot's requests through
    // the coroutine scheduler (BaseKV has batching + prefetching enabled per
    // §5.1) — what it cannot do is separate stages onto different cores.
    Task<void> tasks[32];
    UTPS_CHECK(cnt <= 32);
    for (unsigned i = 0; i < cnt; i++) {
      tasks[i] = ProcessOne(idx, seq, i);
    }
    co_await sim::RunBatch(ctx, tasks, cnt);
    co_await ctx.Yield();
  }
}

Task<void> BaseKvServer::ProcessOne(unsigned idx, uint64_t seq, unsigned rec_idx) {
  Worker& w = workers_[idx];
  ExecCtx& ctx = w.ctx;
  const ServerEnv& env = w.env;
  RxRing& ring = *w.rx;
  RxRecord* rec = &ring.Records(seq)[rec_idx];
  {
    StageScope s(ctx, Stage::kParse);
    co_await ctx.Read(rec, sizeof(RxRecord));
    ctx.Charge(env.parse_cpu_ns);
  }
  const sim::NicMessage& msg = ring.Msgs(seq)[rec_idx];
  const OpType op = rec->op();
  const bool is_write = op == OpType::kPut || op == OpType::kDelete;
  // At-most-once writes (DESIGN.md §9): a retransmitted or NIC-duplicated
  // write must not be applied twice. Reads are idempotent and re-execute.
  if (UTPS_UNLIKELY(msg.rid != 0) && is_write) {
    const DedupWindow::Verdict v = dedup_.Begin(msg.rid);
    if (v == DedupWindow::Verdict::kInFlight) {
      // First copy still executing; its response answers the rid.
      ring.CompleteOne(seq);
      co_return;
    }
    if (v == DedupWindow::Verdict::kDone) {
      StageScope s(ctx, Stage::kRespond);
      ctx.Charge(env.respond_cpu_ns);
      env.nic->ServerSend(ctx, msg, nullptr, 0);  // replay the empty ack
      ring.CompleteOne(seq);
      w.ops++;
      co_return;
    }
  }
  const uint8_t* resp = nullptr;
  uint32_t resp_len = 0;
  wal::WalToken wal_tok;
  switch (op) {
    case OpType::kGet: {
      uint8_t* r = w.resp->Alloc(std::min(rec->value_len() + 8, kMaxValueBytes));
      resp_len = co_await ExecGet(ctx, env, rec->key, r);
      resp = r;
      break;
    }
    case OpType::kPut: {
      const uint8_t* payload = ring.Data(seq) + rec->payload_off;
      co_await ExecPut(ctx, env, rec->key, payload, rec->value_len(),
                       unsynchronized_writes_);
      if (UTPS_UNLIKELY(env.wal != nullptr)) {
        wal_tok = env.wal->Append(ctx, rec->key, OpType::kPut, payload,
                                  rec->value_len(), msg.rid);
      }
      break;
    }
    case OpType::kScan: {
      // eRPCKV serves a scan from the start key's shard alone (EXPERIMENTS.md
      // open issue 2): each shard holds a key-hash partition of the range.
      uint8_t* r = w.resp->Alloc(kScanRespCap);
      resp_len = co_await ExecScan(ctx, env, rec->key, rec->scan_upper,
                                   rec->scan_count, r, kScanRespCap, nullptr, 0);
      resp = r;
      break;
    }
    case OpType::kDelete: {
      {
        StageScope s(ctx, Stage::kIndex);
        co_await env.index->CoErase(ctx, rec->key);
      }
      if (UTPS_UNLIKELY(env.wal != nullptr)) {
        wal_tok =
            env.wal->Append(ctx, rec->key, OpType::kDelete, nullptr, 0, msg.rid);
      }
      break;
    }
  }
  if (UTPS_UNLIKELY(env.wal != nullptr) && wal_tok.lsn != 0) {
    // Hold the ack until the logged write is durable per the commit mode.
    co_await env.wal->WaitDurable(ctx, wal_tok);
  }
  {
    StageScope s(ctx, Stage::kRespond);
    ctx.Charge(env.respond_cpu_ns);
    if (UTPS_UNLIKELY(msg.rid != 0) && is_write) {
      dedup_.Complete(msg.rid);
    }
    env.nic->ServerSend(ctx, msg, resp, resp_len);
    ring.CompleteOne(seq);
    w.ops++;
  }
}

}  // namespace utps
