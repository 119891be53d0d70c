// Self-test of the benchmark's checkers: each one must accept a correct
// history and reject a swapped pair, a duplicated value and a lost value;
// the STAT check must reject totals that are off by one. Exits 0 when
// every case behaves, 1 otherwise.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "checkers.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

/// Enqueues four values of one stream, then dequeues them in `order`
/// (indices into the stream; -1 = DEQ_EMPTY). True iff the model accepts
/// every response.
bool fifo_accepts(const std::vector<int>& order) {
  const uint64_t stream = 42;
  FifoModel m(stream);
  for (int i = 0; i < 4; ++i) {
    m.next_enqueue_value();
    m.on_enq_ok();
  }
  for (int i : order) {
    std::optional<uint64_t> got;
    if (i >= 0) got = stream_value(stream, static_cast<uint64_t>(i));
    if (m.on_deq(got) != FifoModel::Verdict::ok) return false;
  }
  return true;
}

Json stat_with(uint64_t enq, uint64_t hit) {
  return parse_json(
      "{\"schema\":\"wfq-broker-stat-v1\",\"backing\":\"ubq\",\"shards\":["
      "{\"shard\":0,\"enq\":" + std::to_string(enq) + ",\"deq_hit\":" +
      std::to_string(hit) +
      ",\"deq_empty\":0,\"ping\":0,\"stat\":0,\"bad\":0,\"live_blocks\":7}]}");
}

bool contended_accepts(std::vector<std::vector<uint64_t>> consumed) {
  std::vector<uint32_t> tags = {11, 22};
  std::vector<uint64_t> produced = {3, 2};
  return check_contended(tags, produced, consumed).empty();
}

}  // namespace

int main() {
  expect(fifo_accepts({0, 1, 2, 3, -1}), "fifo: in-order history accepted");
  expect(!fifo_accepts({1, 0, 2, 3}), "fifo: swapped pair rejected");
  expect(!fifo_accepts({0, 0, 1, 2}), "fifo: duplicated value rejected");
  expect(!fifo_accepts({0, 2, 3}), "fifo: lost value rejected");
  expect(!fifo_accepts({0, 1, 2, 3, 3}), "fifo: value after drain rejected");
  {
    FifoModel m(1);
    m.next_enqueue_value();
    m.on_enq_ok();
    expect(m.on_deq(std::nullopt) == FifoModel::Verdict::failed,
           "fifo: DEQ_EMPTY while a backlog is held counts as failed");
  }

  std::vector<ShardExpect> want = {{100, 90, 0, 10}};
  expect(check_stat(stat_with(100, 90), want).empty(),
         "stat: matching totals accepted");
  expect(!check_stat(stat_with(101, 90), want).empty(),
         "stat: enq off by one rejected");
  expect(!check_stat(stat_with(100, 89), want).empty(),
         "stat: deq_hit off by one rejected");
  std::vector<ShardExpect> want_backlog = {{100, 90, 0, 11}};
  expect(!check_stat(stat_with(100, 90), want_backlog).empty(),
         "stat: backlog off by one rejected");

  uint64_t a0 = tagged_value(11, 0), a1 = tagged_value(11, 1),
           a2 = tagged_value(11, 2), b0 = tagged_value(22, 0),
           b1 = tagged_value(22, 1);
  expect(contended_accepts({{a0, b0, a2}, {a1, b1}}),
         "contended: exactly-once, per-producer order accepted");
  expect(!contended_accepts({{a1, a0, b0, a2}, {b1}}),
         "contended: swapped pair rejected");
  expect(!contended_accepts({{a0, b0, a2}, {a1, b1, b0}}),
         "contended: duplicated value rejected");
  expect(!contended_accepts({{a0, b0}, {a1, b1}}),
         "contended: lost value rejected");
  expect(!contended_accepts({{a0, b0, a2}, {a1, b1, tagged_value(33, 0)}}),
         "contended: foreign value rejected");

  std::printf("%s\n", failures ? "SELFTEST FAILED" : "selftest passed");
  return failures ? 1 : 0;
}
