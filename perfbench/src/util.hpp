// Small helpers shared by the benchmark driver and its self-test: a clock,
// seeded value streams, a log-linear latency histogram, medians and trimmed
// means, and a minimal JSON reader for the broker's STAT report.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hash.hpp"

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The i-th value of a seeded stream: a pure function, so the checker can
/// recompute what a producer sent without storing it.
inline uint64_t stream_value(uint64_t stream, uint64_t i) {
  return wfq::core::splitmix64(stream * 0x9E3779B97F4A7C15ull + i);
}

/// Latency histogram: 128 linear sub-buckets per power of two (<0.8%
/// relative error), fixed memory, mergeable across threads. Quantiles
/// interpolate within the bucket by rank.
class Hist {
 public:
  static constexpr int kSub = 128;
  static constexpr int kExp = 40;  // values up to 2^46 ns

  Hist() : counts_(new uint64_t[kSub * kExp]()) {}
  Hist(const Hist& o) : Hist() { merge(o); }
  Hist& operator=(const Hist&) = delete;

  void add(int64_t v) {
    if (v < 0) v = 0;
    ++counts_[index(static_cast<uint64_t>(v))];
    ++total_;
  }

  void merge(const Hist& o) {
    for (int i = 0; i < kSub * kExp; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }

  uint64_t count() const { return total_; }

  /// Nearest-rank quantile (0 when empty).
  double quantile(double q) const {
    if (total_ == 0) return 0;
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total_));
    if (rank >= total_) rank = total_ - 1;
    uint64_t seen = 0;
    for (int i = 0; i < kSub * kExp; ++i) {
      if (seen + counts_[i] > rank) {
        double within = (static_cast<double>(rank - seen) + 0.5) /
                        static_cast<double>(counts_[i]);
        return lower(i) + within * (lower(i + 1) - lower(i));
      }
      seen += counts_[i];
    }
    return lower(kSub * kExp);
  }

 private:
  static constexpr int kSubBits = 7;

  static int index(uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    int shift = (63 - __builtin_clzll(v)) - kSubBits;
    int e = shift + 1;
    if (e >= kExp) return kSub * kExp - 1;
    return e * kSub + static_cast<int>((v >> shift) - kSub);
  }
  /// Smallest value that lands in bucket i.
  static double lower(int i) {
    int e = i / kSub, s = i % kSub;
    if (e == 0) return s;
    return static_cast<double>((static_cast<uint64_t>(kSub) + s) << (e - 1));
  }

  std::unique_ptr<uint64_t[]> counts_;
  uint64_t total_ = 0;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Mean of `v` without its lowest and highest `cut` share of values.
inline double trimmed_mean(std::vector<double> v, double cut) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t k = static_cast<size_t>(static_cast<double>(v.size()) * cut);
  double sum = 0;
  for (size_t i = k; i < v.size() - k; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * k);
}

/// A parsed JSON value: enough of the grammar for the STAT report
/// (objects, arrays, numbers, strings, booleans, null).
struct Json {
  enum class Kind { null, boolean, number, string, array, object };
  Kind kind = Kind::null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json& at(const std::string& k) const {
    auto it = obj.find(k);
    if (kind != Kind::object || it == obj.end())
      throw std::runtime_error("json: missing key \"" + k + "\"");
    return it->second;
  }
  bool has(const std::string& k) const {
    return kind == Kind::object && obj.count(k) > 0;
  }
  uint64_t u64() const {
    if (kind != Kind::number || num < 0)
      throw std::runtime_error("json: expected a non-negative number");
    return static_cast<uint64_t>(num);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  Json parse() {
    Json v = value();
    ws();
    if (i_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) {
    throw std::runtime_error(std::string("json: ") + what + " at offset " +
                             std::to_string(i_));
  }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\t' || s_[i_] == '\r'))
      ++i_;
  }
  bool eat(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) fail("unexpected character");
  }
  bool lit(const char* w) {
    size_t n = std::char_traits<char>::length(w);
    if (s_.compare(i_, n, w) != 0) return false;
    i_ += n;
    return true;
  }
  std::string string_body() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        if (++i_ >= s_.size()) fail("bad escape");
        char e = s_[i_];
        out.push_back(e == 'n' ? '\n' : e == 't' ? '\t' : e);
      } else {
        out.push_back(s_[i_]);
      }
      ++i_;
    }
    if (i_ >= s_.size()) fail("unterminated string");
    ++i_;
    return out;
  }
  Json value() {
    ws();
    if (i_ >= s_.size()) fail("unexpected end");
    Json v;
    char c = s_[i_];
    if (c == '{') {
      ++i_;
      v.kind = Json::Kind::object;
      if (eat('}')) return v;
      do {
        ws();
        std::string k = string_body();
        expect(':');
        v.obj[k] = value();
      } while (eat(','));
      expect('}');
    } else if (c == '[') {
      ++i_;
      v.kind = Json::Kind::array;
      if (eat(']')) return v;
      do v.arr.push_back(value());
      while (eat(','));
      expect(']');
    } else if (c == '"') {
      v.kind = Json::Kind::string;
      v.str = string_body();
    } else if (lit("true")) {
      v.kind = Json::Kind::boolean;
      v.b = true;
    } else if (lit("false")) {
      v.kind = Json::Kind::boolean;
    } else if (lit("null")) {
    } else {
      const char* start = s_.c_str() + i_;
      char* end = nullptr;
      v.kind = Json::Kind::number;
      v.num = std::strtod(start, &end);
      if (end == start) fail("bad number");
      i_ += static_cast<size_t>(end - start);
    }
    return v;
  }

  const std::string& s_;
  size_t i_ = 0;
};

inline Json parse_json(const std::string& s) { return JsonParser(s).parse(); }

}  // namespace perfbench
