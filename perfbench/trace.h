#ifndef PPRL_PERFBENCH_TRACE_H_
#define PPRL_PERFBENCH_TRACE_H_

// In-memory span recorder for the traced runs. The benchmark opens a span
// around each call it makes into a layer's public function; spans nest on
// the calling thread, carry the id of the request (operation) they belong
// to, and are written out only when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  ///< steady clock, relative to the tracer's epoch
  int64_t end_ns = 0;
  int32_t parent = -1;   ///< index of the enclosing span, -1 for a root
  uint64_t request = 0;  ///< operation the span belongs to (0: none)

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Records spans of one thread. Not thread-safe: the traced runs call
/// every layer from the benchmark's main thread.
class Tracer {
 public:
  Tracer();

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one JSON array; false when the file cannot be
  /// written.
  bool WriteJson(const std::string& path) const;

 private:
  friend class ScopedSpan;

  int64_t Now() const;
  /// Opens a span as a child of the innermost open span.
  size_t Open(const std::string& name, uint64_t request);
  void Close(size_t index);

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  ///< stack of open span indices
};

/// One span from construction to End() or destruction. With a null
/// tracer it records nothing, so traced and untraced runs share one code
/// path.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t request = 0);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { End(); }

  /// Closes the span now (idempotent); returns its duration in seconds,
  /// 0 when not tracing.
  double End();

 private:
  Tracer* tracer_;
  size_t index_ = 0;
  bool open_ = false;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once).
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

/// Sum of self seconds per span name.
std::map<std::string, double> SelfSecondsByName(const std::vector<Span>& spans);

/// Layer totals of a traced run. A span's layer is its name up to the
/// first '.'; root spans are the benchmark's own request wrappers, so
/// their self time is time no layer accounts for.
struct SpanSummary {
  std::map<std::string, double> layer_self;  ///< self seconds of non-root spans
  double root_seconds = 0;                    ///< summed duration of root spans
  double attributed_share = 0;                ///< 1 - root self / root_seconds
};

SpanSummary Summarize(const std::vector<Span>& spans);

/// Durations (seconds) of every span called `name`, in recording order.
std::vector<double> Durations(const std::vector<Span>& spans, const std::string& name);

}  // namespace perfbench

#endif  // PPRL_PERFBENCH_TRACE_H_
