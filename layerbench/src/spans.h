// In-memory span recorder for the traced run. A Span wraps one call into a
// layer's public function (submit, step, the ingest SubmitFn, subscriber
// callbacks, client send/receive, find, run_simulation), tagged with the
// bid's TaskId. Spans land in per-thread buffers that outlive their
// threads; self time (duration minus the durations of spans opened inside
// it on the same thread) is computed when a span closes. Recording is off
// unless enable(true) was called, so the untraced path pays one relaxed
// load per call site.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace layerbench::spans {

void enable(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

struct Summary {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Per-name totals over every span recorded so far.
[[nodiscard]] std::map<std::string, Summary> summarize();

/// Writes the recorded spans to `path` as CSV (name, thread, task, start
/// relative to the earliest span, duration and self time, all in ns), at
/// most `limit` of them, thread by thread. Returns the number written.
std::uint64_t write(const std::string& path, std::uint64_t limit);

class Span {
 public:
  explicit Span(const char* name, std::int64_t task = -1) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  // null = not recording
  std::int64_t task_ = -1;
  std::int64_t start_ns_ = 0;
  std::int64_t child_ns_ = 0;
  Span* parent_ = nullptr;
};

}  // namespace layerbench::spans
