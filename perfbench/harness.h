// Measurement plumbing for the serving benchmark: exact latency
// samples with quantiles, an in-memory span recorder, the metric sink
// that prints the result line, and the run stamp.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) {
  return MsBetween(a, Clock::now());
}

/// Linear-interpolated quantile of exact samples (0 when empty).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// One traced call: spans of one request share `request`; `parent` is
/// the span that caused it (0 for a request's root).
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  double start_us = 0;
  double end_us = 0;
};

/// Keeps spans in memory (thread-safe) and writes them out at the end.
/// Disabled tracers record nothing, so untraced code paths pay one
/// branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }
  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }

  /// Records [start, end) under `parent`; returns the span id (0 when
  /// disabled).
  uint64_t Record(std::string name, uint64_t request, uint64_t parent,
                  Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return 0;
    Span s;
    s.name = std::move(name);
    s.id = next_span_.fetch_add(1) + 1;
    s.parent = parent;
    s.request = request;
    s.start_us = MsBetween(t0_, start) * 1000.0;
    s.end_us = MsBetween(t0_, end) * 1000.0;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  /// Reserves a span id for a parent whose end is recorded later.
  uint64_t ReserveId() { return enabled_ ? next_span_.fetch_add(1) + 1 : 0; }
  void RecordWithId(uint64_t id, std::string name, uint64_t request,
                    uint64_t parent, Clock::time_point start,
                    Clock::time_point end) {
    if (!enabled_) return;
    Span s{std::move(name), id, parent, request,
           MsBetween(t0_, start) * 1000.0, MsBetween(t0_, end) * 1000.0};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  bool enabled_;
  const Clock::time_point t0_;
  std::atomic<uint64_t> next_request_{0};
  std::atomic<uint64_t> next_span_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Ordered (name, value, unit) metrics; prints one line each and the
/// final result object.
class MetricSink {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  void PrintLines() const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  std::string ResultJson(bool correct, uint64_t attempted,
                         uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + num +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }

  std::string CountersJson() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", metrics_[i].value);
      if (i > 0) out += ",";
      out += "\"" + metrics_[i].name + "\":" + num;
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Resident set size of this process in MiB (VmRSS), 0 if unreadable.
/// Free heap pages go back to the system first, so the figure follows
/// live memory rather than the allocator's history.
inline double ResidentMiB() {
  malloc_trim(0);
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

inline std::string HostName() {
  char buf[256] = {0};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
