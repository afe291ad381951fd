// In-memory span recorder for the benchmark's traced run. Spans are taken
// around the benchmark's own calls into each library layer (the library
// itself is not instrumented) and written out when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "logic.h"

namespace perfbench {

/// Monotonic nanoseconds since the first call in this process.
int64_t NowNs();

/// Collects spans from any thread. A disabled tracer records nothing, so
/// the untraced run pays one branch per span site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span and returns its id (-1 when disabled).
  int Begin(const char* name, int round, int lane, int parent);
  /// Closes span `id` (no-op for -1).
  void End(int id);

  /// Spans recorded so far from id `first` on, in opening order.
  std::vector<Span> Snapshot(size_t first = 0) const;
  size_t size() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int round, int lane,
             int parent)
      : tracer_(tracer), id_(tracer.Begin(name, round, lane, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
