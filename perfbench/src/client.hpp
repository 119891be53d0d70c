// The benchmark's closed-loop wfb-v1 client: one blocking connection per
// thread, a fixed number of requests in flight, responses matched to
// requests in order. The same driver runs against the broker (ENQ/DEQ
// pairs checked against a FifoModel) and against the bare event-loop echo
// server of the net layer run (PING/PONG, payload checked).
#pragma once

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checkers.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "platform/affinity.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace perfbench {

namespace net = wfq::net;

/// Start line shared by the connections of one run. Each connection
/// finishes its set-up (backlog fill, warm-up), checks in, and waits for
/// the coordinator to publish the start of the timed window.
struct RunClock {
  std::atomic<int> ready{0};
  std::atomic<int64_t> t_start{0};
  int64_t duration_ns = 0;
  int64_t window_ns = 500'000'000;
  /// Timed responses over all connections. The connection whose read
  /// carries the total past `mark` calls on_mark once, from its thread.
  std::atomic<uint64_t> timed_responses{0};
  uint64_t mark = 0;
  std::function<void()> on_mark;

  /// Windows that lie wholly inside the timed phase.
  int full_windows() const { return static_cast<int>(duration_ns / window_ns); }
};

struct ConnPlan {
  int fd = -1;
  uint32_t key = 0;
  uint64_t stream = 0;
  int window = 1;
  bool echo = false;         // PING/PONG instead of ENQ/DEQ pairs
  uint64_t backlog = 0;      // ENQs sent before the pairs start
  uint64_t warmup = 0;       // untimed requests of the pair pattern
  uint64_t fixed_timed = 0;  // > 0: the timed phase is this many requests
  /// odd_windows: the traced run alternates traced and untraced windows,
  /// so the two can be compared; always: the isolated layer runs.
  enum class Trace { off, odd_windows, always } trace = Trace::off;
  int core = -1;
};

struct ConnResult {
  explicit ConnResult(uint64_t stream) : model(stream) {}

  FifoModel model;
  Hist rtt;  // every timed request
  Hist wait;  // traced requests: write returned -> response read
  // Per full window of the timed phase: responses read, and round trips
  // of the requests answered in it.
  std::vector<uint64_t> win_responses;
  std::vector<Hist> win_rtt;
  uint64_t attempted = 0, failed = 0, wrong = 0;
  uint64_t traced_reads = 0, traced_read_frames = 0;
  SpanBuffer spans;
  std::string error;
};

namespace detail {

struct Pending {
  uint64_t id = 0;
  net::Opcode op = net::Opcode::ping;
  uint64_t echo_value = 0;
  int64_t t_enc = 0, t_send = 0, t_written = 0;
  bool timed = false, traced = false;
};

}  // namespace detail

/// Drives one connection through fill, warm-up, the timed window and the
/// final drain. Every request sent is answered or counted failed.
inline void run_conn(const ConnPlan& p, RunClock& clk, ConnResult& r) {
  if (p.core >= 0) wfq::platform::pin_thread_to_core(p.core);
  r.win_responses.assign(static_cast<size_t>(clk.full_windows()), 0);
  r.win_rtt.resize(static_cast<size_t>(clk.full_windows()));
  net::Decoder dec;
  net::Frame req, resp;
  req.key = p.key;
  std::string out;
  std::vector<char> buf(1 << 16);
  std::deque<detail::Pending> pend;
  uint64_t next_id = 0, pair_k = 0;
  int64_t t_start = 0;

  auto window_of = [&](int64_t t) { return (t - t_start) / clk.window_ns; };

  // Sends up to `window` requests in flight while `more()` holds, reads and
  // checks responses, and returns once nothing is in flight and `more()`
  // is false. `enq_only` is the backlog fill.
  auto pump = [&](int window, auto&& more, bool enq_only, bool timed) {
    for (;;) {
      int64_t now = now_ns();
      bool traced =
          timed && (p.trace == ConnPlan::Trace::always ||
                    (p.trace == ConnPlan::Trace::odd_windows &&
                     window_of(now) % 2 == 1));
      out.clear();
      size_t first = pend.size();
      while (static_cast<int>(pend.size()) < window && more()) {
        detail::Pending pd;
        pd.id = next_id++;
        pd.timed = timed;
        pd.traced = traced;
        int64_t t0 = traced ? now_ns() : 0;
        if (p.echo) {
          req.op = net::Opcode::ping;
          pd.echo_value = stream_value(p.stream, pd.id);
          req.payload = net::encode_value(pd.echo_value);
        } else if (enq_only || pair_k++ % 2 == 0) {
          req.op = net::Opcode::enq;
          req.payload = net::encode_value(r.model.next_enqueue_value());
        } else {
          req.op = net::Opcode::deq;
          req.payload.clear();
        }
        pd.op = req.op;
        net::encode_frame(req, out);
        if (traced) {
          pd.t_enc = t0;
          if (pd.id % kSampleEvery == 0)
            r.spans.add(SpanKind::encode, pd.id, t0, now_ns());
        }
        pend.push_back(pd);
        ++r.attempted;
      }
      if (!out.empty()) {
        int64_t t_w0 = now_ns();
        if (!net::write_all(p.fd, out)) {
          r.error = "write failed";
          r.failed += pend.size();
          return false;
        }
        int64_t t_w1 = traced ? now_ns() : 0;
        std::optional<uint64_t> sampled;
        for (size_t i = first; i < pend.size(); ++i) {
          pend[i].t_send = t_w0;
          pend[i].t_written = t_w1;
          if (traced && pend[i].id % kSampleEvery == 0) sampled = pend[i].id;
        }
        if (sampled)
          r.spans.add(SpanKind::write, *sampled, t_w0, t_w1,
                      static_cast<uint32_t>(pend.size() - first));
      }
      if (pend.empty()) return true;
      ssize_t n = ::read(p.fd, buf.data(), buf.size());
      int64_t t_r = now_ns();
      if (n <= 0) {
        r.error = n == 0 ? "connection closed with responses outstanding"
                         : "no response within the read timeout";
        r.failed += pend.size();
        return false;
      }
      dec.feed(buf.data(), static_cast<size_t>(n));
      uint64_t frames = 0, timed = 0;
      bool read_traced = false;
      for (;;) {
        int64_t t_d0 = now_ns();
        net::DecodeStatus st = dec.next(resp);
        if (st == net::DecodeStatus::need_more) break;
        if (st != net::DecodeStatus::ok || pend.empty()) {
          r.error = "undecodable or unsolicited response";
          ++r.wrong;
          r.failed += pend.size();
          return false;
        }
        int64_t t_d1 = now_ns();
        detail::Pending pd = pend.front();
        pend.pop_front();
        ++frames;
        switch (pd.op) {
          case net::Opcode::enq:
            if (resp.op == net::Opcode::enq_ok) r.model.on_enq_ok();
            else if (resp.op == net::Opcode::err) ++r.failed;
            else ++r.wrong;
            break;
          case net::Opcode::deq: {
            std::optional<uint64_t> got;
            uint64_t v = 0;
            bool is_ok = resp.op == net::Opcode::deq_ok;
            if (is_ok && net::decode_value(resp.payload, v)) got = v;
            if (resp.op == net::Opcode::err) {
              ++r.failed;
            } else if ((is_ok && !got) ||
                       (!is_ok && resp.op != net::Opcode::deq_empty)) {
              ++r.wrong;
            } else {
              FifoModel::Verdict vd = r.model.on_deq(got);
              if (vd == FifoModel::Verdict::failed) ++r.failed;
              if (vd == FifoModel::Verdict::wrong) ++r.wrong;
            }
            break;
          }
          default:
            if (resp.op != net::Opcode::pong ||
                resp.payload != net::encode_value(pd.echo_value))
              ++r.wrong;
            break;
        }
        if (pd.timed) {
          ++timed;
          int64_t w = window_of(t_r);
          if (w >= 0 && w < static_cast<int64_t>(r.win_responses.size())) {
            ++r.win_responses[static_cast<size_t>(w)];
            r.win_rtt[static_cast<size_t>(w)].add(t_d1 - pd.t_send);
          }
          r.rtt.add(t_d1 - pd.t_send);
        }
        if (pd.traced) {
          read_traced = true;
          r.wait.add(t_r - pd.t_written);
          if (pd.id % kSampleEvery == 0) {
            r.spans.add(SpanKind::wait, pd.id, pd.t_written, t_r);
            r.spans.add(SpanKind::decode, pd.id, t_d0, t_d1);
            r.spans.add(SpanKind::request, pd.id, pd.t_enc, t_d1);
          }
        }
      }
      if (timed > 0) {
        uint64_t before = clk.timed_responses.fetch_add(timed);
        if (clk.on_mark && before < clk.mark && before + timed >= clk.mark)
          clk.on_mark();
      }
      if (read_traced && frames > 0) {
        ++r.traced_reads;
        r.traced_read_frames += frames;
      }
    }
  };

  uint64_t fill = p.backlog, warm = p.warmup;
  bool ok = pump(64, [&] { return fill > 0 && fill--; }, true, false) &&
            pump(p.window, [&] { return warm > 0 && warm--; }, false, false);
  clk.ready.fetch_add(1);  // also on failure, so the coordinator never waits
  if (!ok) return;
  while ((t_start = clk.t_start.load()) == 0) ::usleep(20);
  int64_t t_end = t_start + clk.duration_ns;
  uint64_t left = p.fixed_timed;
  if (p.fixed_timed > 0)
    pump(p.window, [&] { return left > 0 && left--; }, false, true);
  else
    // Whole ENQ/DEQ pairs only, so the standing backlog ends where it began.
    pump(p.window, [&] { return now_ns() < t_end || pair_k % 2 == 1; }, false,
         true);
}

}  // namespace perfbench
