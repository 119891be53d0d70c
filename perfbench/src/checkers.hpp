// Output checkers. Each one compares what the program returned against a
// model the benchmark computes on its own, never against the program's own
// bookkeeping. selftest.cpp feeds each of them corrupted histories.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

/// Model of one broker connection's shard. The connection is the shard's
/// only user and its responses come back in request order, so the queue
/// state before each response is known exactly: the values of the stream
/// that were acknowledged by ENQ_OK and not yet dequeued.
class FifoModel {
 public:
  enum class Verdict { ok, failed, wrong };

  explicit FifoModel(uint64_t stream) : stream_(stream) {}

  /// Value carried by the next ENQ request this connection sends.
  uint64_t next_enqueue_value() { return stream_value(stream_, sent_enq_++); }

  void on_enq_ok() { ++enq_ok_; }

  /// A DEQ response, `got` empty for DEQ_EMPTY. A DEQ_EMPTY while the model
  /// holds items is a failed operation; a value other than the model's head
  /// is a wrong answer (a swap, a duplicate or a lost value).
  Verdict on_deq(std::optional<uint64_t> got) {
    bool held = deq_ok_ < enq_ok_;
    if (!got) {
      if (held) return Verdict::failed;
      ++deq_empty_;
      return Verdict::ok;
    }
    if (!held || *got != stream_value(stream_, deq_ok_)) return Verdict::wrong;
    ++deq_ok_;
    return Verdict::ok;
  }

  uint64_t enq_ok() const { return enq_ok_; }
  uint64_t deq_ok() const { return deq_ok_; }
  uint64_t deq_empty() const { return deq_empty_; }
  uint64_t held() const { return enq_ok_ - deq_ok_; }

 private:
  uint64_t stream_;
  uint64_t sent_enq_ = 0;
  uint64_t enq_ok_ = 0, deq_ok_ = 0, deq_empty_ = 0;
};

/// What the client saw on one shard.
struct ShardExpect {
  uint64_t enq = 0, deq_hit = 0, deq_empty = 0, backlog = 0;
};

/// Checks a `wfq-broker-stat-v1` report against the client's own counts,
/// shard by shard: ENQ_OK and DEQ_OK counts equal the broker's `enq` and
/// `deq_hit`, and `enq - deq_hit` is the backlog the client holds there.
/// Returns "" when they agree, else the first disagreement.
inline std::string check_stat(const Json& stat,
                              const std::vector<ShardExpect>& want) {
  const Json& shards = stat.at("shards");
  if (shards.arr.size() != want.size())
    return "STAT lists " + std::to_string(shards.arr.size()) +
           " shards, expected " + std::to_string(want.size());
  for (const Json& s : shards.arr) {
    uint64_t id = s.at("shard").u64();
    if (id >= want.size()) return "STAT names unknown shard";
    const ShardExpect& w = want[id];
    uint64_t enq = s.at("enq").u64(), hit = s.at("deq_hit").u64();
    std::string where = "shard " + std::to_string(id) + ": ";
    if (enq != w.enq)
      return where + "enq " + std::to_string(enq) + " != client ENQ_OK " +
             std::to_string(w.enq);
    if (hit != w.deq_hit)
      return where + "deq_hit " + std::to_string(hit) + " != client DEQ_OK " +
             std::to_string(w.deq_hit);
    if (s.at("deq_empty").u64() != w.deq_empty)
      return where + "deq_empty differs from the client's DEQ_EMPTY count";
    if (s.at("bad").u64() != 0) return where + "bad requests counted";
    if (enq - hit != w.backlog)
      return where + "enq - deq_hit = " + std::to_string(enq - hit) +
             " != standing backlog " + std::to_string(w.backlog);
  }
  return "";
}

/// Values of the contended queue carry their producer's tag in the high 32
/// bits and the producer's sequence number in the low 32.
inline uint64_t tagged_value(uint32_t tag, uint64_t seq) {
  return (static_cast<uint64_t>(tag) << 32) | seq;
}

/// Checks one round of the contended workload: every value each producer
/// enqueued is dequeued exactly once, and within each consumer's history
/// each producer's values appear in increasing sequence order. `tags[p]`
/// and `produced[p]` describe producer p; `consumed[c]` is consumer c's
/// dequeue history. Returns "" or the first violation.
inline std::string check_contended(
    const std::vector<uint32_t>& tags, const std::vector<uint64_t>& produced,
    const std::vector<std::vector<uint64_t>>& consumed) {
  size_t np = tags.size();
  std::vector<std::vector<bool>> seen(np);
  for (size_t p = 0; p < np; ++p) seen[p].assign(produced[p], false);
  for (size_t c = 0; c < consumed.size(); ++c) {
    std::vector<int64_t> last(np, -1);
    for (uint64_t v : consumed[c]) {
      uint32_t tag = static_cast<uint32_t>(v >> 32);
      int64_t seq = static_cast<int64_t>(v & 0xffffffffu);
      size_t p = 0;
      while (p < np && tags[p] != tag) ++p;
      std::string who = "consumer " + std::to_string(c) + ": ";
      if (p == np || seq >= static_cast<int64_t>(produced[p]))
        return who + "dequeued a value nobody enqueued";
      if (seen[p][static_cast<size_t>(seq)])
        return who + "dequeued producer " + std::to_string(p) + "'s value " +
               std::to_string(seq) + " twice";
      if (seq <= last[p])
        return who + "producer " + std::to_string(p) + "'s value " +
               std::to_string(seq) + " after " + std::to_string(last[p]);
      seen[p][static_cast<size_t>(seq)] = true;
      last[p] = seq;
    }
  }
  for (size_t p = 0; p < np; ++p)
    for (size_t s = 0; s < seen[p].size(); ++s)
      if (!seen[p][s])
        return "producer " + std::to_string(p) + "'s value " +
               std::to_string(s) + " was never dequeued";
  return "";
}

}  // namespace perfbench
