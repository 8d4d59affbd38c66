// Small helpers shared by the client subcommands: a monotonic clock, a
// flat JSON object writer, and the benchmark-owned span recorder.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A JSON string literal of `v` (control characters dropped).
inline std::string Quote(const std::string& v) {
  std::string quoted = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') quoted += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

/// A JSON number with all its digits; non-finite numbers are null.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Builds one JSON object.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Int(const std::string& key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  JsonObject& Obj(const std::string& key, const JsonObject& v) {
    return Raw(key, v.str());
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

inline retina::Status WriteTextFile(const std::string& path,
                                    const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return retina::Status::IOError("cannot write " + path);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) return retina::Status::IOError("short write " + path);
  return retina::Status::OK();
}

/// Benchmark-owned spans, kept in memory and written out at the end as a
/// Chrome trace. Each span records its name, start, end, the span that
/// caused it (its parent scope) and the request it belongs to.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint32_t id;
    uint32_t parent;  ///< 0 = root
    uint64_t request;
  };

  /// RAII span; nests under the innermost open scope.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name, uint64_t request = 0)
        : rec_(rec), index_(rec->Open(name, request)) {}
    ~Scope() { rec_->Close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Duration so far (or final, once closed) in ns.
    int64_t ElapsedNs() const { return NowNs() - rec_->spans_[index_].start_ns; }

   private:
    SpanRecorder* rec_;
    size_t index_;
  };

  /// Total seconds of every closed span called `name`.
  double TotalSeconds(const std::string& name) const {
    int64_t total_ns = 0;
    for (const Span& s : spans_) {
      if (name == s.name && s.end_ns >= s.start_ns) {
        total_ns += s.end_ns - s.start_ns;
      }
    }
    return static_cast<double>(total_ns) / 1e9;
  }

  retina::Status WriteChromeTrace(const std::string& path) const {
    std::string out = "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                    "\"parent\":%u,\"request\":%llu}}",
                    i == 0 ? "" : ",", s.name,
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                    s.parent, static_cast<unsigned long long>(s.request));
      out += buf;
    }
    out += "]}\n";
    return WriteTextFile(path, out);
  }

 private:
  size_t Open(const char* name, uint64_t request) {
    const uint32_t parent = open_.empty() ? 0 : spans_[open_.back()].id;
    spans_.push_back({name, NowNs(), -1, static_cast<uint32_t>(spans_.size() + 1),
                      parent, request});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void Close(size_t index) {
    spans_[index].end_ns = NowNs();
    open_.erase(std::find(open_.begin(), open_.end(), index));
  }

  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Runs `fn` inside a span called `name` and returns its result.
template <typename Fn>
auto InSpan(SpanRecorder* rec, const char* name, Fn&& fn) {
  SpanRecorder::Scope scope(rec, name);
  return fn();
}

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
