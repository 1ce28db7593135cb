// In-memory span recorder for the benchmark's traced run.
//
// A span is one call into a layer's public function, recorded from the
// benchmark's own code: its name, start, end, the span that caused it and
// the request it belongs to. Spans stay in memory and are written out once,
// when the run ends. A span's self time is its duration minus the part of
// its interval that its children cover.

#ifndef NOMSKY_PERFBENCH_TRACE_H_
#define NOMSKY_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// \brief Microseconds on the steady clock since the process's first call.
double NowMicros();

/// \brief CPU time of the whole process, every thread, in microseconds.
/// Time the hypervisor gives to other guests (steal) is not counted.
double ProcessCpuMicros();

/// \brief CPU time of the calling thread, in microseconds.
double ThreadCpuMicros();

struct Span {
  std::string name;
  uint64_t request = 0;
  int64_t parent = -1;  // index into the tracer's spans, -1 for a root
  double start_us = 0, end_us = 0;
  double duration_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  /// \brief Opens a span and returns its index. Thread-safe.
  int64_t Open(const std::string& name, uint64_t request, int64_t parent);
  /// \brief Closes span `id` now. Thread-safe.
  void Close(int64_t id);
  /// \brief Adds an already-timed span (for a name known only after the
  /// call returned). Thread-safe.
  int64_t Record(const std::string& name, uint64_t request, int64_t parent,
                 double start_us, double end_us);

  /// \brief Spans recorded so far (read only after recording has stopped).
  const std::vector<Span>& spans() const { return spans_; }

  /// \brief Durations (µs) of every closed span with this name.
  std::vector<double> Durations(const std::string& name) const;

  /// \brief Per span, the part of its interval its children cover (µs);
  /// a span's self time is its duration minus this.
  std::vector<double> ChildCoverage() const;

  /// \brief Writes one CSV line per span: id,name,request,parent,start,end.
  bool WriteCsv(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// \brief RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t request,
             int64_t parent = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Open(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // NOMSKY_PERFBENCH_TRACE_H_
