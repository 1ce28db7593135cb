#include "trace.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

double NowMicros() {
  static const auto kEpoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

namespace {
double CpuMicros(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}
}  // namespace

double ProcessCpuMicros() { return CpuMicros(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuMicros() { return CpuMicros(CLOCK_THREAD_CPUTIME_ID); }

int64_t Tracer::Open(const std::string& name, uint64_t request,
                     int64_t parent) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start_us = NowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Close(int64_t id) {
  const double now = NowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_us = now;
}

int64_t Tracer::Record(const std::string& name, uint64_t request,
                       int64_t parent, double start_us, double end_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, request, parent, start_us, end_us});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_us >= span.start_us) {
      out.push_back(span.duration_us());
    }
  }
  return out;
}

std::vector<double> Tracer::ChildCoverage() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const Span& parent = spans_[static_cast<size_t>(span.parent)];
    children[static_cast<size_t>(span.parent)].emplace_back(
        std::max(span.start_us, parent.start_us),
        std::min(span.end_us, parent.end_us));
  }
  std::vector<double> covered(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double reach = spans_[i].start_us;
    for (const auto& [start, end] : intervals) {
      const double from = std::max(start, reach);
      if (end > from) {
        covered[i] += end - from;
        reach = end;
      }
    }
  }
  return covered;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id,name,request,parent,start_us,end_us\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%zu,%s,%llu,%lld,%.3f,%.3f\n", i, s.name.c_str(),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent), s.start_us, s.end_us);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
