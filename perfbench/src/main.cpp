// wfqbench: runs one benchmark workload against the program and prints one
// JSON result line (see ../README.md for the workloads and the metrics).
//
//   wfqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --broker <path to broker binary> --run-dir <dir> [--t0-ns <ns>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The broker workloads launch the real `broker` binary and drive it over a
// Unix-domain socket; queue-contended calls the queue in-process. Layers
// are timed by calling their public functions from here.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "api/queue_registry.hpp"
#include "broker/shard_map.hpp"
#include "checkers.hpp"
#include "client.hpp"
#include "net/event_loop.hpp"
#include "pbt/persistent_rbt.hpp"
#include "platform/affinity.hpp"
#include "platform/step_counter.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

using wfq::platform::StepCounts;
using wfq::platform::StepScope;

// --- workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  bool broker;
  const char* backing;
  int window;        // requests in flight per connection
  uint64_t backlog;  // standing items per connection's shard / in the queue
  uint64_t warmup;   // untimed requests per connection before timing
};

constexpr Workload kWorkloads[] = {
    {"broker-rtt", true, "ubq", 1, 0, 10000},
    {"broker-backlog", true, "bounded", 16, 20000, 20000},
    {"queue-contended", false, "ubq", 1, 1000, 0},
};

constexpr int kConns = 2;                  // broker workloads
constexpr uint64_t kPairsPerRound = 25000;  // queue-contended, per thread
constexpr uint64_t kReplayPairs = 5000;    // shard replay, per shard
constexpr uint64_t kEchoRequests = 10000;  // echo layer run, per connection
// Timed responses before the broker's RSS is read. Both backings grow a
// block array per shard in doubling segments, one slot per op, with
// doublings at 65472 and 131008 slots. The mark leaves each shard between
// the two (about 85k slots on broker-rtt, 115k on broker-backlog), so the
// read does not depend on which side of a doubling the connections'
// imbalance puts it, and slow runs on a busy host still reach it.
constexpr uint64_t kRssMark = 150000;
// Steal ticks (1/100 s of one CPU) a window may lose and still count as
// undisturbed: 1% of the four CPUs' time in half a second.
constexpr double kCleanSteal = 2;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string broker_bin;
  std::string run_dir;
  int64_t t0_ns = 0;
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void wrong(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void put(const std::string& name, double v, const std::string& unit) {
    metrics.push_back({name, v, unit});
  }
};

std::string fmt_double(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

void print_result(const Result& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + fmt_double(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  std::cout << s << std::endl;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

StepCounts plus(StepCounts a, const StepCounts& b) {
  a.loads += b.loads;
  a.stores += b.stores;
  a.cas_attempts += b.cas_attempts;
  a.cas_failures += b.cas_failures;
  a.faas += b.faas;
  return a;
}

int cores() { return wfq::platform::hardware_cores(); }

// --- the broker process ------------------------------------------------------

/// The `broker` child. Dies with this process (PDEATHSIG) if we are killed;
/// otherwise stop() sends SIGTERM and reaps it, and the destructor kills
/// and reaps it on every early exit.
class BrokerProcess {
 public:
  explicit BrokerProcess(const std::vector<std::string>& argv) {
    std::vector<char*> cargv;
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    int pfd[2];
    if (::pipe2(pfd, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(pfd[1], 1);
      ::execv(cargv[0], cargv.data());
      ::_exit(127);
    }
    ::close(pfd[1]);
    out_fd_ = pfd[0];
  }
  ~BrokerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  BrokerProcess(const BrokerProcess&) = delete;
  BrokerProcess& operator=(const BrokerProcess&) = delete;

  pid_t pid() const { return pid_; }

  bool running() {
    if (pid_ <= 0) return false;
    int st = 0;
    if (::waitpid(pid_, &st, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  struct Exit {
    bool clean = false;  // exited 0 on SIGTERM within the deadline
    std::string stdout_text;
    double max_rss_mb = 0;
  };

  /// SIGTERM, collect stdout (the final STAT line), reap with its rusage.
  Exit stop(int timeout_ms) {
    Exit e;
    if (pid_ <= 0) return e;
    ::kill(pid_, SIGTERM);
    int64_t deadline = now_ns() + int64_t{timeout_ms} * 1'000'000;
    char buf[4096];
    bool timed_out = false;
    for (;;) {
      int64_t left_ms = (deadline - now_ns()) / 1'000'000;
      if (left_ms <= 0) {
        timed_out = true;
        break;
      }
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left_ms)) <= 0) continue;
      ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) break;
      e.stdout_text.append(buf, static_cast<size_t>(n));
    }
    if (timed_out) ::kill(pid_, SIGKILL);
    int st = 0;
    rusage ru{};
    ::wait4(pid_, &st, 0, &ru);
    pid_ = -1;
    e.clean = !timed_out && WIFEXITED(st) && WEXITSTATUS(st) == 0;
    e.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return e;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

wfq::net::FdHandle connect_when_up(const std::string& sock, BrokerProcess& b) {
  int64_t deadline = now_ns() + 20'000'000'000;
  while (now_ns() < deadline) {
    wfq::net::FdHandle fd = wfq::net::connect_uds(sock);
    if (fd.valid()) return fd;
    if (!b.running()) throw std::runtime_error("broker exited during start-up");
    ::usleep(100);
  }
  throw std::runtime_error("broker did not accept connections within 20 s");
}

/// Routing keys from the seed, one per connection, chosen so that
/// connection c's key routes to shard c (distinct shards, one user each).
std::vector<uint32_t> pick_keys(wfq::core::SplitMix& rng, int n) {
  std::vector<uint32_t> keys;
  while (static_cast<int>(keys.size()) < n) {
    uint32_t k = static_cast<uint32_t>(rng.next());
    if (wfq::broker::mix_key(k) % static_cast<uint64_t>(n) == keys.size())
      keys.push_back(k);
  }
  return keys;
}

// --- isolated layer runs -------------------------------------------------------

/// Per-call cost of the queue as one thread drives it, through the broker's
/// ShardMap: `keys.size()` shards, each filled with `backlog` items, then
/// kReplayPairs ENQ/DEQ pairs per shard. This is the broker's single-user
/// pattern. Its steps per op also stand in for steps_per_op on the broker
/// workloads: the broker process exports no step counts.
struct Replay {
  Hist enq, deq;
  StepCounts enq_steps, deq_steps;
  uint64_t calls = 0, allocs = 0, alloc_bytes = 0, rbt = 0, empties = 0;
};

Replay shard_replay(const std::string& backing, const std::vector<uint32_t>& keys,
                    uint64_t backlog, SpanBuffer* spans) {
  Replay r;
  int n = static_cast<int>(keys.size());
  wfq::broker::ShardMap map(n, backing, int64_t{1} << 18);
  for (int s = 0; s < n; ++s) map.bind_servicer(s);
  int64_t t_begin = now_ns();
  for (int s = 0; s < n; ++s)
    for (uint64_t i = 0; i < backlog; ++i) map.enqueue(s, keys[s], i);
  int tenant = -1;
  for (uint64_t k = 0; k < kReplayPairs; ++k) {
    for (int s = 0; s < n; ++s) {
      AllocCounts a0 = tls_allocs();
      uint64_t rbt0 = wfq::pbt::tls_rbt_touches();
      StepScope se;
      int64_t t0 = now_ns();
      map.enqueue(s, keys[s], k);
      int64_t t1 = now_ns();
      r.enq_steps = plus(r.enq_steps, se.delta());
      StepScope sd;
      bool got = map.dequeue(s, tenant).has_value();
      int64_t t2 = now_ns();
      r.deq_steps = plus(r.deq_steps, sd.delta());
      r.allocs += tls_allocs().count - a0.count;
      r.alloc_bytes += tls_allocs().bytes - a0.bytes;
      r.rbt += wfq::pbt::tls_rbt_touches() - rbt0;
      r.calls += 2;
      if (!got) ++r.empties;
      r.enq.add(t1 - t0);
      r.deq.add(t2 - t1);
    }
  }
  if (spans) spans->add(SpanKind::layer_shard, 0, t_begin, now_ns(), static_cast<uint32_t>(r.calls));
  return r;
}

/// net::encode_frame and net::Decoder over the workload's frames: requests
/// encoded one by one, responses decoded in bursts of `window` frames, as
/// the client sees them. Medians over repetitions, ns per frame.
struct Codec {
  double encode_ns = 0, decode_ns = 0;
};

Codec codec_layer(uint32_t key, uint64_t stream, int window, SpanBuffer& spans) {
  constexpr int kFrames = 4096, kReps = 200;
  std::vector<wfq::net::Frame> reqs(kFrames);
  std::string wire;
  std::vector<size_t> bursts;  // byte offsets where each burst ends
  for (int i = 0; i < kFrames; ++i) {
    uint64_t v = stream_value(stream, static_cast<uint64_t>(i / 2));
    reqs[i].key = key;
    wfq::net::Frame resp;
    resp.key = key;
    if (i % 2 == 0) {
      reqs[i].op = wfq::net::Opcode::enq;
      reqs[i].payload = wfq::net::encode_value(v);
      resp.op = wfq::net::Opcode::enq_ok;
    } else {
      reqs[i].op = wfq::net::Opcode::deq;
      resp.op = wfq::net::Opcode::deq_ok;
      resp.payload = wfq::net::encode_value(v);
    }
    wfq::net::encode_frame(resp, wire);
    if ((i + 1) % window == 0 || i + 1 == kFrames) bursts.push_back(wire.size());
  }
  std::vector<double> enc, dec;
  std::string out;
  out.reserve(wire.size());
  uint64_t sink = 0;
  int64_t t_begin = now_ns();
  for (int rep = 0; rep < kReps; ++rep) {
    out.clear();
    int64_t t0 = now_ns();
    for (const wfq::net::Frame& f : reqs) wfq::net::encode_frame(f, out);
    int64_t t1 = now_ns();
    sink += out.size();
    wfq::net::Decoder d;
    wfq::net::Frame f;
    size_t from = 0;
    int64_t t2 = now_ns();
    for (size_t end : bursts) {
      d.feed(wire.data() + from, end - from);
      from = end;
      while (d.next(f) == wfq::net::DecodeStatus::ok) sink += f.payload.size() + 1;
    }
    int64_t t3 = now_ns();
    enc.push_back(static_cast<double>(t1 - t0) / kFrames);
    dec.push_back(static_cast<double>(t3 - t2) / kFrames);
  }
  spans.add(SpanKind::layer_codec, 0, t_begin, now_ns(), kFrames * kReps);
  if (sink == 0) throw std::logic_error("codec layer did no work");
  return {median(enc), median(dec)};
}

/// A bare net::EventLoop answering every PING with a PONG on the loop
/// thread, driven by the workload's connection pattern with every request
/// traced: the network floor under the broker's round trip.
Hist echo_layer(const std::string& run_dir, const Workload& w, uint64_t seed,
                std::vector<std::unique_ptr<ConnResult>>& out, Result& res) {
  std::string sock = run_dir + "/echo-" + std::to_string(::getpid()) + ".sock";
  ::unlink(sock.c_str());
  std::unique_ptr<wfq::net::EventLoop> loop;
  wfq::net::EventLoop::Callbacks cbs;
  cbs.on_batch = [&loop](uint64_t conn, std::vector<wfq::net::Frame>& batch) {
    std::string reply;
    for (wfq::net::Frame& f : batch) {
      f.op = wfq::net::Opcode::pong;
      wfq::net::encode_frame(f, reply);
    }
    loop->send(conn, std::move(reply));
  };
  loop = std::make_unique<wfq::net::EventLoop>(std::move(cbs));
  loop->add_listener(wfq::net::listen_uds(sock));
  std::thread io([&] {
    wfq::platform::pin_thread_to_core(0);
    loop->run();
  });
  RunClock clk;  // count-bounded: no timed windows
  wfq::core::SplitMix rng(seed ^ 0xec40);
  std::vector<wfq::net::FdHandle> fds;
  std::vector<ConnPlan> plans(kConns);
  for (int c = 0; c < kConns; ++c) {
    fds.push_back(wfq::net::connect_uds(sock));
    if (!fds.back().valid()) throw std::runtime_error("echo connect failed");
    wfq::net::set_recv_timeout(fds.back().get(), 10000);
    plans[c].fd = fds.back().get();
    plans[c].key = static_cast<uint32_t>(rng.next());
    plans[c].stream = rng.next();
    plans[c].window = w.window;
    plans[c].echo = true;
    plans[c].warmup = 1000;
    plans[c].fixed_timed = kEchoRequests;
    plans[c].trace = ConnPlan::Trace::always;
    plans[c].core = (2 + c) % cores();
    out.push_back(std::make_unique<ConnResult>(plans[c].stream));
  }
  std::vector<std::thread> ts;
  for (int c = 0; c < kConns; ++c)
    ts.emplace_back([&, c] { run_conn(plans[c], clk, *out[c]); });
  while (clk.ready.load() < kConns) ::usleep(50);
  int64_t t0 = now_ns();
  clk.t_start.store(t0);
  for (std::thread& t : ts) t.join();
  out[0]->spans.add(SpanKind::layer_echo, 0, t0, now_ns(),
                    static_cast<uint32_t>(kEchoRequests * kConns));
  loop->stop();
  io.join();
  fds.clear();
  loop->shutdown_flush_and_close();
  ::unlink(sock.c_str());
  Hist rtt;
  for (auto& r : out) {
    rtt.merge(r->rtt);
    if (r->wrong || r->failed || !r->error.empty()) res.wrong("echo server answered wrongly");
  }
  return rtt;
}

void write_trace(const Args& a, const Workload& w,
                 const std::vector<std::pair<std::string, const SpanBuffer*>>& bufs,
                 int64_t origin) {
  std::vector<const SpanBuffer*> b;
  std::vector<std::string> tids;
  for (const auto& [tid, buf] : bufs) {
    tids.push_back(tid);
    b.push_back(buf);
  }
  std::string path = a.run_dir + "/trace-" + w.name + "-" + std::to_string(a.seed) + ".json";
  long n = write_chrome_trace(path, b, tids, origin);
  if (n < 0) throw std::runtime_error("cannot write " + path);
  std::cerr << "wfqbench: wrote " << n << " spans to " << path << "\n";
}

// --- broker workloads ---------------------------------------------------------

/// Statistics over the timed phase's half-second windows of one parity
/// (0 untraced, 1 traced, -1 all) that the host left alone: each window's
/// throughput, p50 and p99, averaged over the windows with the highest and
/// lowest tenth left out. The host is shared; when it takes CPU time from
/// this machine (the `steal` column of /proc/stat) throughput falls and the
/// tail grows by up to tenfold, which says nothing about the program. A
/// window counts if the host stole at most kCleanSteal ticks in it, or,
/// when it stole more in most windows, no more than in the quietest quarter
/// of them. Means rather than medians of the windows: memory-heavy code
/// runs at one of two speeds for seconds at a time, and a median of windows
/// jumps from one speed to the other as their mix in a run crosses one
/// half, where a mean moves with the mix.
struct WindowStats {
  double ops_per_s = 0, p50_us = 0, p99_us = 0;
  int windows = 0;
};

WindowStats window_stats(const std::vector<std::unique_ptr<ConnResult>>& rs,
                         const RunClock& clk, const std::vector<uint64_t>& steal,
                         int parity) {
  std::vector<int> mine;
  std::vector<double> stolen;
  for (int i = 0; i < clk.full_windows() && i < static_cast<int>(steal.size()); ++i)
    if (parity < 0 || i % 2 == parity) {
      mine.push_back(i);
      stolen.push_back(static_cast<double>(steal[static_cast<size_t>(i)]));
    }
  std::vector<double> sorted = stolen;
  std::sort(sorted.begin(), sorted.end());
  double limit = kCleanSteal;
  if (!sorted.empty()) limit = std::max(limit, sorted[sorted.size() / 4]);
  std::vector<double> rates, p50, p99;
  double window_s = static_cast<double>(clk.window_ns) / 1e9;
  for (size_t k = 0; k < mine.size(); ++k) {
    if (stolen[k] > limit) continue;
    size_t i = static_cast<size_t>(mine[k]);
    uint64_t n = 0;
    Hist h;
    for (auto& r : rs) {
      n += r->win_responses[i];
      h.merge(r->win_rtt[i]);
    }
    rates.push_back(static_cast<double>(n) / window_s);
    if (h.count() == 0) continue;
    p50.push_back(h.quantile(0.50) / 1e3);
    p99.push_back(h.quantile(0.99) / 1e3);
  }
  return {trimmed_mean(rates, 0.1), trimmed_mean(p50, 0.1),
          trimmed_mean(p99, 0.1), static_cast<int>(rates.size())};
}

/// Host CPU time stolen from this virtual machine so far, all CPUs, in
/// clock ticks (the `steal` column of /proc/stat); 0 where unavailable.
uint64_t steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

/// Ticks stolen in each window of the timed phase, sampled on the calling
/// thread at the window boundaries.
std::vector<uint64_t> steal_per_window(const RunClock& clk, int64_t t_start) {
  std::vector<uint64_t> out;
  uint64_t last = steal_ticks();
  for (int i = 0; i < clk.full_windows(); ++i) {
    int64_t left = t_start + (i + 1) * clk.window_ns - now_ns();
    if (left > 0) ::usleep(static_cast<useconds_t>(left / 1000));
    uint64_t cur = steal_ticks();
    out.push_back(cur - last);
    last = cur;
  }
  return out;
}

/// The broker's peak resident set so far, from /proc/<pid>/status.
double vmhwm_mb(pid_t pid) {
  std::FILE* f = std::fopen(("/proc/" + std::to_string(pid) + "/status").c_str(), "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f))
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

Result run_broker(const Args& a, const Workload& w) {
  Result res;
  bool traced = a.trace == 1;
  std::string sock = a.run_dir + "/broker-" + std::to_string(::getpid()) + ".sock";
  ::unlink(sock.c_str());
  BrokerProcess broker({a.broker_bin, "--uds", sock, "--shards",
                        std::to_string(kConns), "--groups", "1", "--backing",
                        w.backing, "--pin"});
  wfq::core::SplitMix rng(a.seed);
  std::vector<uint32_t> keys = pick_keys(rng, kConns);
  std::vector<wfq::net::FdHandle> fds;
  for (int c = 0; c < kConns; ++c) fds.push_back(connect_when_up(sock, broker));

  RunClock clk;
  clk.duration_ns = int64_t{a.seconds} * 1'000'000'000;
  // Peak RSS is read after a fixed number of requests, not at the end: the
  // backings' memory grows with the requests served, and a faster broker
  // must not read as a bigger one.
  std::atomic<double> rss_mark{0};
  clk.mark = kRssMark;
  clk.on_mark = [&] { rss_mark.store(vmhwm_mb(broker.pid())); };
  std::vector<ConnPlan> plans(kConns);
  std::vector<std::unique_ptr<ConnResult>> results;
  for (int c = 0; c < kConns; ++c) {
    wfq::net::set_recv_timeout(fds[c].get(), 10000);
    ConnPlan& p = plans[c];
    p.fd = fds[c].get();
    p.key = keys[c];
    p.stream = rng.next();
    p.window = w.window;
    p.backlog = w.backlog;
    p.warmup = w.warmup;
    p.trace = traced ? ConnPlan::Trace::odd_windows : ConnPlan::Trace::off;
    p.core = (2 + c) % cores();
    results.push_back(std::make_unique<ConnResult>(p.stream));
  }
  std::vector<std::thread> ts;
  for (int c = 0; c < kConns; ++c)
    ts.emplace_back([&, c] { run_conn(plans[c], clk, *results[c]); });
  while (clk.ready.load() < kConns) ::usleep(50);
  uint64_t steal0 = steal_ticks();
  int64_t t_start = now_ns();
  clk.t_start.store(t_start);
  std::vector<uint64_t> steal = steal_per_window(clk, t_start);
  for (std::thread& t : ts) t.join();
  double steal_pct = 100.0 * static_cast<double>(steal_ticks() - steal0) /
                     (static_cast<double>(now_ns() - t_start) / 1e9 *
                      static_cast<double>(::sysconf(_SC_CLK_TCK) * cores()));
  BrokerProcess::Exit ex = broker.stop(30000);

  // Checks: each connection against its FIFO model, the broker's exit, and
  // its final STAT against the client's counts.
  std::vector<ShardExpect> want(kConns);
  Hist rtt;
  for (int c = 0; c < kConns; ++c) {
    ConnResult& r = *results[c];
    std::string who = "connection " + std::to_string(c) + ": ";
    res.attempted += r.attempted;
    res.failed += r.failed;
    if (!r.error.empty()) res.problems.push_back(who + r.error);
    if (r.wrong) res.wrong(who + std::to_string(r.wrong) + " responses disagree with the FIFO model");
    if (r.model.held() != w.backlog)
      res.wrong(who + "ends holding " + std::to_string(r.model.held()) + " items, backlog is " + std::to_string(w.backlog));
    want[c] = {r.model.enq_ok(), r.model.deq_ok(), r.model.deq_empty(), r.model.held()};
    rtt.merge(r.rtt);
  }
  if (!ex.clean) res.wrong("broker did not exit 0 on SIGTERM");
  Json stat;
  try {
    std::string text = ex.stdout_text;
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) text.pop_back();
    size_t nl = text.rfind('\n');
    stat = parse_json(nl == std::string::npos ? text : text.substr(nl + 1));
    std::string bad = check_stat(stat, want);
    if (!bad.empty()) res.wrong("STAT: " + bad);
  } catch (const std::exception& e) {
    res.wrong(std::string("final STAT unreadable: ") + e.what());
  }
  double rss = rss_mark.load();
  std::cerr << "wfqbench: latency p999 " << rtt.quantile(0.999) / 1e3 << " us over "
            << rtt.count() << " requests; broker VmHWM " << rss << " MB after "
            << kRssMark << " timed requests, " << ex.max_rss_mb
            << " MB at exit; host stole " << steal_pct
            << "% of CPU time during the timed phase\n";
  if (rss == 0) {
    res.problems.push_back("run too slow to reach the RSS mark; reporting the peak at exit");
    rss = ex.max_rss_mb;
  }

  if (!traced) {
    WindowStats st = window_stats(results, clk, steal, -1);
    std::cerr << "wfqbench: " << st.windows << " of " << clk.full_windows()
              << " windows undisturbed by the host\n";
    Replay rp = shard_replay(w.backing, keys, w.backlog, nullptr);
    if (rp.empties) res.wrong("shard replay dequeued empty");
    res.put("ops_per_s", st.ops_per_s, "op/s");
    res.put("latency_p50_us", st.p50_us, "us");
    res.put("latency_p99_us", st.p99_us, "us");
    res.put("steps_per_op", ratio(rp.enq_steps.total() + rp.deq_steps.total(), rp.calls), "steps/op");
    res.put("peak_rss_mb", rss, "MB");
    res.put("setup_s", static_cast<double>(t_start - a.t0_ns) / 1e9, "s");
    return res;
  }

  // Traced run: the isolated layers, then the per-layer metrics.
  std::vector<std::unique_ptr<ConnResult>> echo;
  Hist echo_rtt = echo_layer(a.run_dir, w, a.seed, echo, res);
  SpanBuffer layer_spans;
  Codec codec = codec_layer(keys[0], plans[0].stream, w.window, layer_spans);
  Replay rp = shard_replay(w.backing, keys, w.backlog, &layer_spans);
  if (rp.empties) res.wrong("shard replay dequeued empty");
  Hist wait;
  uint64_t reads = 0, read_frames = 0, enq = 0, hit = 0, live = 0, retired = 0;
  for (auto& r : results) {
    wait.merge(r->wait);
    reads += r->traced_reads;
    read_frames += r->traced_read_frames;
  }
  for (const ShardExpect& e : want) {
    enq += e.enq;
    hit += e.deq_hit;
  }
  if (stat.has("shards"))
    for (const Json& s : stat.at("shards").arr) {
      if (s.has("live_blocks")) live += s.at("live_blocks").u64();
      if (s.has("ebr_retired")) retired += s.at("ebr_retired").u64();
    }
  double half = static_cast<double>(rp.calls) / 2;
  double untraced = window_stats(results, clk, steal, 0).ops_per_s;
  double with_trace = window_stats(results, clk, steal, 1).ops_per_s;
  res.put("net.echo_rtt_p50_us", echo_rtt.quantile(0.5) / 1e3, "us");
  res.put("net.encode_ns", codec.encode_ns, "ns");
  res.put("net.decode_ns", codec.decode_ns, "ns");
  res.put("client.wait_us_p50", wait.quantile(0.5) / 1e3, "us");
  res.put("client.responses_per_read", ratio(read_frames, reads), "resp/read");
  res.put("broker.shard_enq_ns", rp.enq.quantile(0.5), "ns");
  res.put("broker.shard_deq_ns", rp.deq.quantile(0.5), "ns");
  res.put("broker.enq", static_cast<double>(enq), "count");
  res.put("broker.deq_hit", static_cast<double>(hit), "count");
  res.put("core.steps_per_enq", ratio(rp.enq_steps.total(), half), "steps/op");
  res.put("core.steps_per_deq", ratio(rp.deq_steps.total(), half), "steps/op");
  res.put("core.cas_attempts_per_op", ratio(rp.enq_steps.cas_attempts + rp.deq_steps.cas_attempts, rp.calls), "1/op");
  res.put("core.allocs_per_op", ratio(rp.allocs, rp.calls), "1/op");
  res.put("core.alloc_bytes_per_op", ratio(rp.alloc_bytes, rp.calls), "B/op");
  res.put("core.live_blocks", static_cast<double>(live), "count");
  res.put("ebr.retired", static_cast<double>(retired), "count");
  res.put("pbt.rbt_touches_per_op", ratio(rp.rbt, rp.calls), "1/op");
  res.put("trace.overhead_pct", 100.0 * (ratio(untraced, with_trace) - 1), "%");

  std::vector<std::pair<std::string, const SpanBuffer*>> bufs;
  for (int c = 0; c < kConns; ++c) bufs.push_back({"conn" + std::to_string(c), &results[c]->spans});
  for (size_t c = 0; c < echo.size(); ++c) bufs.push_back({"echo" + std::to_string(c), &echo[c]->spans});
  bufs.push_back({"layers", &layer_spans});
  write_trace(a, w, bufs, t_start);
  return res;
}

// --- queue-contended ------------------------------------------------------------

struct Worker {
  std::thread th;
  std::vector<uint64_t> got;
  Hist lat;                         // untraced rounds, both calls
  Hist enq_lat, deq_lat;            // traced rounds
  StepCounts round_steps;
  StepCounts enq_steps, deq_steps;  // traced rounds
  uint64_t traced_calls = 0, allocs = 0, alloc_bytes = 0, rbt = 0;
  uint64_t empties = 0;
  int64_t t_done = 0;
  SpanBuffer spans;
};

/// One thread per core does ENQ/DEQ pairs on one shared queue that holds a
/// standing backlog. Rounds of a fixed size, each on a fresh queue, so the
/// checker sees a complete history and memory does not grow with the run.
Result run_queue(const Args& a, const Workload& w) {
  Result res;
  bool traced = a.trace == 1;
  const int T = cores();
  wfq::core::SplitMix rng(a.seed);
  std::vector<uint32_t> tags;  // tags[T] marks the prefill
  while (static_cast<int>(tags.size()) < T + 1) {
    uint32_t t = static_cast<uint32_t>(rng.next());
    bool dup = t == 0;
    for (uint32_t o : tags) dup |= o == t;
    if (!dup) tags.push_back(t);
  }
  std::vector<uint64_t> produced(static_cast<size_t>(T), kPairsPerRound);
  produced.push_back(w.backlog);

  std::vector<Worker> ws(static_cast<size_t>(T));
  std::atomic<int> gen{0}, done{0};
  std::atomic<bool> quit{false}, trace_round{false};
  std::unique_ptr<wfq::api::AnyQueue<uint64_t>> q;
  struct Stop {  // joins the workers on every exit path
    std::vector<Worker>& ws;
    std::atomic<int>& gen;
    std::atomic<bool>& quit;
    ~Stop() {
      quit.store(true);
      gen.fetch_add(1);
      gen.notify_all();
      for (Worker& w : ws)
        if (w.th.joinable()) w.th.join();
    }
  } stop{ws, gen, quit};
  for (int t = 0; t < T; ++t) {
    ws[t].got.reserve(kPairsPerRound);
    ws[t].th = std::thread([&, t] {
      wfq::platform::pin_thread_to_core(t);
      Worker& me = ws[t];
      int seen = 0;
      for (;;) {
        gen.wait(seen);
        seen = gen.load();
        if (quit.load()) return;
        bool tr = trace_round.load();
        q->bind_thread(t);
        me.got.clear();
        StepScope round;
        for (uint64_t i = 0; i < kPairsPerRound; ++i) {
          uint64_t v = tagged_value(tags[t], i);
          std::optional<uint64_t> got;
          if (!tr) {
            int64_t t0 = now_ns();
            q->enqueue(v);
            int64_t t1 = now_ns();
            got = q->dequeue();
            int64_t t2 = now_ns();
            me.lat.add(t1 - t0);
            me.lat.add(t2 - t1);
          } else {
            AllocCounts a0 = tls_allocs();
            uint64_t rbt0 = wfq::pbt::tls_rbt_touches();
            StepScope se;
            int64_t t0 = now_ns();
            q->enqueue(v);
            int64_t t1 = now_ns();
            me.enq_steps = plus(me.enq_steps, se.delta());
            StepScope sd;
            got = q->dequeue();
            int64_t t2 = now_ns();
            me.deq_steps = plus(me.deq_steps, sd.delta());
            me.allocs += tls_allocs().count - a0.count;
            me.alloc_bytes += tls_allocs().bytes - a0.bytes;
            me.rbt += wfq::pbt::tls_rbt_touches() - rbt0;
            me.traced_calls += 2;
            me.enq_lat.add(t1 - t0);
            me.deq_lat.add(t2 - t1);
            if (i % (4 * kSampleEvery) == 0) {
              me.spans.add(SpanKind::core_enq, i, t0, t1);
              me.spans.add(SpanKind::core_deq, i, t1, t2);
            }
          }
          if (got) me.got.push_back(*got);
          else ++me.empties;
        }
        me.round_steps = round.delta();
        me.t_done = now_ns();
        done.fetch_add(1);
        done.notify_all();
      }
    });
  }

  wfq::api::QueueConfig cfg;
  cfg.procs = T;
  std::vector<double> rates, rates_traced;
  StepCounts timed_steps;
  uint64_t timed_ops = 0;
  wfq::api::SpaceStats space;
  int64_t t_start = 0, t_end = 0;
  std::vector<std::vector<uint64_t>> consumed(static_cast<size_t>(T) + 1);
  for (int round = 0;; ++round) {
    bool timed = round > 0;  // round 0 warms up
    if (timed && t_start != 0 && now_ns() >= t_end) break;
    bool tr = traced && timed && round % 2 == 0;
    q = std::make_unique<wfq::api::AnyQueue<uint64_t>>(
        wfq::api::make_queue<uint64_t>(w.backing, cfg));
    q->bind_thread(0);
    for (uint64_t i = 0; i < w.backlog; ++i) q->enqueue(tagged_value(tags[T], i));
    trace_round.store(tr);
    done.store(0);
    int64_t t0 = now_ns();
    if (timed && t_start == 0) {
      t_start = t0;
      t_end = t_start + int64_t{a.seconds} * 1'000'000'000;
    }
    gen.fetch_add(1);
    gen.notify_all();
    for (int d = done.load(); d < T; d = done.load()) done.wait(d);
    int64_t t1 = 0;
    for (Worker& wk : ws) t1 = std::max(t1, wk.t_done);
    space = q->space_stats();
    q->bind_thread(0);
    std::vector<uint64_t>& drained = consumed[static_cast<size_t>(T)];
    drained.clear();
    while (std::optional<uint64_t> v = q->dequeue()) drained.push_back(*v);
    q.reset();
    for (int t = 0; t < T; ++t) consumed[t].swap(ws[t].got);
    std::string bad = check_contended(tags, produced, consumed);
    for (int t = 0; t < T; ++t) consumed[t].swap(ws[t].got);
    if (!bad.empty()) res.wrong("round " + std::to_string(round) + ": " + bad);
    res.attempted += 2 * kPairsPerRound * static_cast<uint64_t>(T);
    if (!timed) continue;
    double rate = static_cast<double>(2 * kPairsPerRound * T) /
                  (static_cast<double>(t1 - t0) / 1e9);
    (tr ? rates_traced : rates).push_back(rate);
    if (!tr) {
      for (Worker& wk : ws) timed_steps = plus(timed_steps, wk.round_steps);
      timed_ops += 2 * kPairsPerRound * static_cast<uint64_t>(T);
    }
  }
  for (Worker& wk : ws) res.failed += wk.empties;
  if (res.failed) res.problems.push_back("dequeues returned empty");

  if (!traced) {
    Hist lat;
    for (Worker& wk : ws) lat.merge(wk.lat);
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    std::cerr << "wfqbench: latency p999 " << lat.quantile(0.999) / 1e3
              << " us over " << lat.count() << " calls\n";
    res.put("ops_per_s", median(rates), "op/s");
    res.put("latency_p50_us", lat.quantile(0.50) / 1e3, "us");
    res.put("latency_p99_us", lat.quantile(0.99) / 1e3, "us");
    res.put("steps_per_op", ratio(timed_steps.total(), timed_ops), "steps/op");
    res.put("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    res.put("setup_s", static_cast<double>(t_start - a.t0_ns) / 1e9, "s");
    return res;
  }

  Hist enq, deq;
  StepCounts es, ds;
  uint64_t calls = 0, allocs = 0, bytes = 0, rbt = 0;
  for (Worker& wk : ws) {
    enq.merge(wk.enq_lat);
    deq.merge(wk.deq_lat);
    es = plus(es, wk.enq_steps);
    ds = plus(ds, wk.deq_steps);
    calls += wk.traced_calls;
    allocs += wk.allocs;
    bytes += wk.alloc_bytes;
    rbt += wk.rbt;
  }
  double half = static_cast<double>(calls) / 2;
  res.put("core.enq_ns", enq.quantile(0.5), "ns");
  res.put("core.deq_ns", deq.quantile(0.5), "ns");
  res.put("core.steps_per_enq", ratio(es.total(), half), "steps/op");
  res.put("core.steps_per_deq", ratio(ds.total(), half), "steps/op");
  res.put("core.cas_attempts_per_op", ratio(es.cas_attempts + ds.cas_attempts, calls), "1/op");
  res.put("core.cas_failures_per_op", ratio(es.cas_failures + ds.cas_failures, calls), "1/op");
  res.put("core.allocs_per_op", ratio(allocs, calls), "1/op");
  res.put("core.alloc_bytes_per_op", ratio(bytes, calls), "B/op");
  res.put("core.live_blocks", static_cast<double>(space.live_blocks), "count");
  res.put("ebr.retired", static_cast<double>(space.ebr_retired), "count");
  res.put("pbt.rbt_touches_per_op", ratio(rbt, calls), "1/op");
  res.put("trace.overhead_pct", 100.0 * (ratio(median(rates), median(rates_traced)) - 1), "%");
  std::vector<std::pair<std::string, const SpanBuffer*>> bufs;
  for (int t = 0; t < T; ++t) bufs.push_back({"queue" + std::to_string(t), &ws[t].spans});
  write_trace(a, w, bufs, t_start);
  return res;
}

Args parse_args(int argc, char** argv) {
  Args a;
  a.t0_ns = now_ns();
  for (int i = 1; i < argc; ++i) {
    std::string f = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + f);
    std::string v = argv[++i];
    if (f == "--workload") a.workload = v;
    else if (f == "--seed") a.seed = std::stoull(v);
    else if (f == "--seconds") a.seconds = std::stoi(v);
    else if (f == "--trace") a.trace = std::stoi(v);
    else if (f == "--broker") a.broker_bin = v;
    else if (f == "--run-dir") a.run_dir = v;
    else if (f == "--t0-ns") a.t0_ns = std::stoll(v);
    else throw std::invalid_argument("unknown flag " + f);
  }
  if (a.seconds < 1 || a.seconds > 600) throw std::invalid_argument("--seconds must be in [1, 600]");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  if (a.run_dir.empty()) throw std::invalid_argument("--run-dir is required");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    Args a = parse_args(argc, argv);
    const Workload* w = nullptr;
    for (const Workload& k : kWorkloads)
      if (a.workload == k.name) w = &k;
    if (w == nullptr) throw std::invalid_argument("unknown workload \"" + a.workload + "\"");
    if (w->broker && a.broker_bin.empty()) throw std::invalid_argument("--broker is required");
    ::signal(SIGPIPE, SIG_IGN);
    Result r = w->broker ? run_broker(a, *w) : run_queue(a, *w);
    for (const std::string& p : r.problems) std::cerr << "wfqbench: " << p << "\n";
    print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "wfqbench: " << e.what() << "\n";
    return 1;
  }
}
