#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

int Tracer::Begin(const char* name, int round, int lane, int parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.round = round;
  span.lane = lane;
  span.parent = parent;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Span> Tracer::Snapshot(size_t first) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (first >= spans_.size()) return {};
  return std::vector<Span>(spans_.begin() + static_cast<long>(first),
                           spans_.end());
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"round\": %d, "
                 "\"lane\": %d}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.round, s.lane);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
