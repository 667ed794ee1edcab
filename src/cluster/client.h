// Cluster client: consistent-hash routing with epoch-versioned redirects
// (DESIGN.md §14).
//
// Each client keeps a per-shard route {node, epoch} seeded from the initial
// ring placement. Requests carry the client's believed epoch; a node that no
// longer owns the shard answers NOT_OWNER with the authoritative owner and a
// newer epoch, and the client re-routes without a directory round trip. Only
// when the redirect carries nothing newer (or the route times out twice in a
// row, or a node answers FENCED) does the client fall back to a kResolve
// lookup at the manager.
//
// Retransmits reuse the operation's rid, so writes stay at-most-once across
// an ownership flip: the migration protocol moves the source's dedup
// watermarks to the new owner before the flip, and a backup records acked
// client rids while applying replicated ops — wherever the retry lands, an
// already-applied write answers with an empty ack. Backoff jitter draws from
// the client's own seeded RNG (never a shared stream).
#ifndef UTPS_CLUSTER_CLIENT_H_
#define UTPS_CLUSTER_CLIENT_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/proto.h"
#include "common/rng.h"
#include "net/rpc.h"
#include "sim/exec.h"
#include "sim/nic.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "store/kv.h"

namespace utps::cluster {

class ClusterClient {
 public:
  ClusterClient(Cluster* cluster, unsigned id, sim::ExecCtx* ctx)
      : cluster_(cluster),
        id_(id),
        ctx_(ctx),
        params_(cluster->cluster_params()),
        rng_(Mix64(params_.seed ^ 0x436c69656e74ULL ^ (uint64_t{id} << 16))) {
    table_.resize(params_.shards);
    for (uint64_t sh = 0; sh < params_.shards; sh++) {
      const ClusterManager::Assign& a = cluster->manager()->assign(sh);
      table_[sh] = Route{a.primary, a.epoch};
    }
    const uint32_t vcap = params_.value_size < 8 ? 8 : params_.value_size;
    resp_.resize(kRespHeaderBytes + vcap);
  }

  // One operation end to end; returns the GET value length (0 for writes and
  // misses). Never gives up — lost responses retry until the answer lands,
  // which is what keeps DST histories free of abandoned invocations.
  sim::Task<uint32_t> Call(OpType op, Key key, const void* payload,
                           uint32_t len, uint8_t* value_out) {
    const uint64_t shard = ShardOfKey(key, params_.shards, params_.num_keys);
    const uint64_t rid = MakeRid(uint64_t{id_} + 1, ++seq_);
    gate_.Arm(rid);
    sim::Tick timeout = params_.client_timeout_ns;
    unsigned consecutive_timeouts = 0;
    for (;;) {
      if (table_[shard].node < 0) {
        co_await Resolve(shard);
        gate_.Arm(rid);  // the resolve consumed nothing from the data gate
        continue;
      }
      const unsigned node = static_cast<unsigned>(table_[shard].node);
      sim::NicMessage m;
      m.h[0] = key;
      m.h[1] = (static_cast<uint64_t>(op) << 28) | len;
      m.h[2] = table_[shard].epoch;
      m.payload = len > 0 ? payload : nullptr;
      m.payload_len = len;
      m.rid = rid;
      m.gate = &gate_;
      m.copy_out = resp_.data();
      m.resp_len_out = &resp_len_;
      cluster_->node(node)->data_nic().ClientSend(
          *ctx_, shard % params_.workers, m);
      attempts_++;
      const sim::Tick deadline = ctx_->Now() + timeout;
      while (!gate_.ReadyAt(ctx_->Now()) && ctx_->Now() < deadline) {
        const sim::Tick left = deadline - ctx_->Now();
        co_await ctx_->Delay(
            left < params_.client_poll_ns ? left : params_.client_poll_ns);
      }
      if (!gate_.ReadyAt(ctx_->Now())) {
        retries_++;
        consecutive_timeouts++;
        if (consecutive_timeouts >= 2) {
          // The route is probably dead (crash, partition): ask the manager.
          co_await Resolve(shard);
          gate_.Arm(rid);
          consecutive_timeouts = 0;
        }
        timeout = NextRetryTimeout(Retry(), timeout);
        continue;
      }
      const RespHeader h = ParseRespHeader(resp_.data());
      if (h.status == Status::kOk) {
        table_[shard].node = static_cast<int>(h.owner);
        if (h.epoch > table_[shard].epoch) {
          table_[shard].epoch = h.epoch;
        }
        uint32_t vlen = 0;
        if (op == OpType::kGet && resp_len_ > kRespHeaderBytes) {
          vlen = resp_len_ - kRespHeaderBytes;
          if (value_out != nullptr) {
            std::memcpy(value_out, resp_.data() + kRespHeaderBytes, vlen);
          }
        }
        co_return vlen;
      }
      // Redirect family. Consume the response, re-arm the same rid, retry.
      redirects_++;
      consecutive_timeouts = 0;
      if (h.status == Status::kNotOwner && h.owner != kNoOwner &&
          h.epoch >= table_[shard].epoch &&
          static_cast<int>(h.owner) != table_[shard].node) {
        table_[shard] = Route{static_cast<int>(h.owner), h.epoch};
      } else if (h.status == Status::kFrozen) {
        // Mid-migration: the flip is moments away; a short jittered pause
        // beats hammering the frozen primary.
        co_await ctx_->Delay(params_.client_poll_ns +
                             rng_.NextBounded(params_.client_poll_ns));
      } else {
        co_await Resolve(shard);
      }
      gate_.Arm(rid);
      timeout = params_.client_timeout_ns;
    }
  }

  uint64_t attempts() const { return attempts_; }
  uint64_t retries() const { return retries_; }
  uint64_t redirects() const { return redirects_; }
  uint64_t resolves() const { return resolves_; }
  unsigned id() const { return id_; }

  // Route-table snapshot refresh from the manager (kResolve round trip).
  sim::Task<void> Resolve(uint64_t shard) {
    resolves_++;
    sim::NicMessage m;
    m.h[0] = shard;
    m.h[1] = PackCtlLen(Ctl::kResolve, 0);
    m.rid = MakeRid(ClientCtlStream(id_), ++ctl_seq_);
    m.gate = &ctl_gate_;
    m.copy_out = ctl_resp_;
    co_await RpcCallWithRetry(*ctx_, *cluster_->manager()->nic(), 0, m,
                              Retry());
    const RespHeader h = ParseRespHeader(ctl_resp_);
    if (h.owner != kNoOwner) {
      table_[shard] = Route{static_cast<int>(h.owner), h.epoch};
    }
  }

 private:
  struct Route {
    int node = -1;
    uint64_t epoch = 0;
  };

  // Data calls and resolves share one policy; jitter draws from this
  // client's own rng.
  RetryPolicy Retry() {
    RetryPolicy pol;
    pol.timeout_ns = params_.client_timeout_ns;
    pol.max_timeout_ns = params_.retry_max_timeout_ns;
    pol.poll_ns = params_.client_poll_ns;
    pol.jitter_frac = params_.client_jitter_frac;
    pol.rng = &rng_;
    return pol;
  }

  Cluster* cluster_;
  unsigned id_;
  sim::ExecCtx* ctx_;
  ClusterParams params_;
  Rng rng_;
  std::vector<Route> table_;
  sim::RpcGate gate_;
  sim::RpcGate ctl_gate_;
  uint32_t seq_ = 0;
  uint32_t ctl_seq_ = 0;
  std::vector<uint8_t> resp_;
  uint32_t resp_len_ = 0;
  uint8_t ctl_resp_[kRespHeaderBytes] = {};
  uint64_t attempts_ = 0;
  uint64_t retries_ = 0;
  uint64_t redirects_ = 0;
  uint64_t resolves_ = 0;
};

}  // namespace utps::cluster

#endif  // UTPS_CLUSTER_CLIENT_H_
