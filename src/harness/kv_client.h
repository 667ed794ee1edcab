// Single-node KV client: the one request path every bench and DST client
// fiber issues its operations through (DESIGN.md §8, §9).
//
// A client owns everything the NIC may still point at after its fiber has
// exited (under a fault plan a delayed or duplicated message can land later):
// the retry gate, the completion, and the payload and response buffers. Keep
// clients in storage that outlives the run, e.g. a std::vector sized before
// the fibers spawn.
#ifndef UTPS_HARNESS_KV_CLIENT_H_
#define UTPS_HARNESS_KV_CLIENT_H_

#include <cstdint>
#include <vector>

#include "baseline/passive.h"
#include "core/server.h"
#include "net/rpc.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace utps {

// What a run's clients talk to. Read per operation, so DST crash recovery
// can swap in the rebuilt server.
struct KvTarget {
  sim::Nic* nic = nullptr;
  KvServer* server = nullptr;    // two-sided systems
  PassiveKv* passive = nullptr;  // one-sided systems (server is null)
  bool use_retry = false;        // rid-tagged timeout/retry sends
};

class KvClient {
 public:
  // `id` names the rid stream; the payload buffer starts as `payload_bytes`
  // copies of `fill`. `copy_responses` has the NIC copy GET/SCAN responses
  // into out(); the bench never reads them.
  KvClient(const KvTarget* target, uint32_t id, size_t payload_bytes,
           uint8_t fill, bool copy_responses)
      : target_(target),
        stream_(uint64_t{id} + 1),
        copy_responses_(copy_responses),
        payload_(payload_bytes, fill),
        out_(16384) {}

  // One operation, end to end: one-sided verbs for a passive system, else a
  // two-sided send — RpcCallWithRetry when the run can lose messages, a
  // OneShot send otherwise. `value_len` is the GET size hint or the PUT
  // length (bytes from payload()); a scan covers [key, upper], up to
  // `scan_count` items. Returns false only for a passive PUT that exhausted
  // its lock/CAS retries and so had no effect.
  sim::Task<bool> Call(sim::ExecCtx& ctx, OpType op, Key key,
                       uint32_t value_len, uint32_t scan_count = 0,
                       Key upper = 0) {
    resp_len_ = 0;
    if (target_->passive != nullptr) {
      PassiveKv& kv = *target_->passive;
      if (op == OpType::kPut) {
        co_return co_await kv.ClientPut(ctx, key, payload_.data(), value_len);
      }
      if (op == OpType::kGet) {
        resp_len_ = co_await kv.ClientGet(ctx, key, value_len, out_.data());
      } else if (op == OpType::kScan) {
        resp_len_ =
            co_await kv.ClientScan(ctx, key, upper, scan_count, out_.data());
      }  // no delete verb sequence: callers downgrade deletes
      co_return true;
    }
    sim::NicMessage m = EncodeRequest(op, key, value_len, scan_count, upper);
    if (op == OpType::kPut) {
      m.payload = payload_.data();
      m.payload_len = value_len;
    } else if (copy_responses_ && op != OpType::kDelete) {
      m.copy_out = out_.data();
      m.resp_len_out = &resp_len_;
    }
    const unsigned ring = target_->server->RingForKey(key);
    if (target_->use_retry) {
      // Retransmits reuse the op's rid: the server's DedupWindow keeps the
      // write at-most-once.
      m.rid = MakeRid(stream_, ++seq_);
      m.gate = &gate_;
      retries_ += co_await RpcCallWithRetry(ctx, *target_->nic, ring, m,
                                            RetryPolicy{}) - 1;
    } else {
      m.completion = &done_;
      target_->nic->ClientSend(ctx, ring, m);
      co_await done_.Wait(ctx);
      done_.Reset();
    }
    co_return true;
  }

  uint8_t* payload() { return payload_.data(); }
  const uint8_t* out() const { return out_.data(); }
  // Response length of the last GET/SCAN (0 when absent or not copied).
  uint32_t resp_len() const { return resp_len_; }
  uint64_t retries() const { return retries_; }  // retransmits so far

 private:
  const KvTarget* target_;
  uint64_t stream_;
  bool copy_responses_;
  uint32_t seq_ = 0;
  sim::RpcGate gate_;
  sim::OneShot done_;
  std::vector<uint8_t> payload_;
  std::vector<uint8_t> out_;
  uint32_t resp_len_ = 0;
  uint64_t retries_ = 0;
};

}  // namespace utps

#endif  // UTPS_HARNESS_KV_CLIENT_H_
