// In-memory span recorder for the traced run. Each thread owns one
// SpanBuffer (no locking); spans of one request share its id. Buffers are
// capped, and callers record one request in kSampleEvery, so a long run
// keeps a bounded trace. write_chrome_trace() writes every buffer at the
// end of the run in the Chrome trace-event format (about:tracing, Perfetto).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : uint8_t {
  request,  // client: first byte encoded -> response decoded
  encode,   // net::encode_frame of one request
  write,    // one write() carrying `n` requests
  wait,     // write returned -> read() returned the response's bytes
  decode,   // net::Decoder::next for one response
  core_enq,
  core_deq,
  layer_echo,
  layer_codec,
  layer_shard,
};

inline const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::request: return "request";
    case SpanKind::encode: return "encode";
    case SpanKind::write: return "write";
    case SpanKind::wait: return "wait";
    case SpanKind::decode: return "decode";
    case SpanKind::core_enq: return "core.enqueue";
    case SpanKind::core_deq: return "core.dequeue";
    case SpanKind::layer_echo: return "layer.echo";
    case SpanKind::layer_codec: return "layer.codec";
    case SpanKind::layer_shard: return "layer.shard";
  }
  return "?";
}

struct Span {
  uint64_t id = 0;
  int64_t t0 = 0, t1 = 0;
  uint32_t n = 1;
  SpanKind kind = SpanKind::request;
};

inline constexpr uint64_t kSampleEvery = 16;

class SpanBuffer {
 public:
  explicit SpanBuffer(size_t cap = 1u << 17) : cap_(cap) {}
  void add(SpanKind k, uint64_t id, int64_t t0, int64_t t1, uint32_t n = 1) {
    if (spans_.size() < cap_) spans_.push_back({id, t0, t1, n, k});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  size_t cap_;
  std::vector<Span> spans_;
};

/// Writes the buffers as one trace; `tids[i]` labels buffer i. Times are
/// relative to `origin_ns`. Returns the number of spans written, or -1 if
/// the file could not be written.
inline long write_chrome_trace(const std::string& path,
                               const std::vector<const SpanBuffer*>& bufs,
                               const std::vector<std::string>& tids,
                               int64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return -1;
  long written = 0;
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t b = 0; b < bufs.size(); ++b) {
    for (const Span& s : bufs[b]->spans()) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":\"%s\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"n\":%u}}",
                   written ? ",\n" : "", span_name(s.kind), tids[b].c_str(),
                   static_cast<double>(s.t0 - origin_ns) / 1e3,
                   static_cast<double>(s.t1 - s.t0) / 1e3,
                   static_cast<unsigned long long>(s.id), s.n);
      ++written;
    }
  }
  std::fputs("\n]}\n", f);
  bool ok = std::fclose(f) == 0;
  return ok ? written : -1;
}

}  // namespace perfbench
