// MetricsRegistry — named counters, gauges, and log-bucketed histograms
// with lock-free recording on the hot path.
//
// Design:
//  * Metric handles (Counter&, Gauge&, Histogram&) are created once through
//    the registry (get-or-create under a mutex, re-requesting a name of the
//    same kind returns the same object) and then recorded into with plain
//    relaxed atomics — no lock, no allocation, safe from any thread.
//  * Histograms bucket on a logarithmic grid: `buckets_per_octave` buckets
//    per power of two between `min` and `max`, plus underflow/overflow
//    buckets. Memory is fixed at registration time (a few hundred 8-byte
//    slots), so a histogram can absorb an unbounded sample stream — the
//    fix for ServiceMetrics' former per-sample vector. The price is that
//    quantile queries interpolate within a bucket and are therefore
//    approximate: with the default 8 buckets/octave the relative error is
//    bounded by 2^(1/8) − 1 ≈ 9.05% (mean and count stay exact).
//  * snapshot() returns a point-in-time copy of every metric; exposition
//    via write_prometheus() follows the Prometheus text format (counters
//    with `_total`-style names, cumulative `_bucket{le="..."}` series).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lorasched/util/mutex.h"
#include "lorasched/util/thread_annotations.h"

namespace lorasched::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(double delta) noexcept;
  /// Raises the gauge to `value` if larger (running maximum).
  void set_max(double value) noexcept;
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramOptions {
  /// Lower edge of the first finite bucket; samples below land in the
  /// underflow bucket.
  double min = 1e-9;
  /// Upper edge of the last finite bucket; samples at or above land in the
  /// overflow bucket.
  double max = 1e3;
  /// Buckets per power of two. 8 bounds quantile error at ~9% relative.
  int buckets_per_octave = 8;
};

/// Point-in-time histogram state plus the derived queries. `counts` holds
/// [underflow, finite buckets..., overflow].
struct HistogramSnapshot {
  HistogramOptions options;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min_seen = 0.0;
  double max_seen = 0.0;

  [[nodiscard]] std::size_t finite_buckets() const noexcept {
    return counts.size() >= 2 ? counts.size() - 2 : 0;
  }
  /// Lower/upper edge of finite bucket `i` (0-based within the finite range).
  [[nodiscard]] double bucket_lower(std::size_t i) const;
  [[nodiscard]] double bucket_upper(std::size_t i) const;
  /// Linear-interpolation quantile estimate, p in [0, 100] — the same
  /// convention as util::percentile, but log-bucket approximate (see the
  /// accuracy note in the header comment). 0 with no samples; clamped to
  /// the observed [min_seen, max_seen].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

class Histogram {
 public:
  explicit Histogram(HistogramOptions options);

  /// Lock-free; NaN samples are dropped.
  void record(double value) noexcept;
  [[nodiscard]] HistogramSnapshot snapshot() const;
  [[nodiscard]] const HistogramOptions& options() const noexcept {
    return options_;
  }

 private:
  HistogramOptions options_;
  double bucket_scale_ = 1.0;  // buckets per log2 unit
  std::deque<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Seeded to +/-inf so every record() runs the min/max CAS loops — a
  // first-sample "seed" store would race concurrent first records (the
  // CAS loser could compare against the pre-seed value and lose its
  // sample). snapshot() masks the seeds for empty histograms.
  std::atomic<double> min_seen_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_seen_{-std::numeric_limits<double>::infinity()};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric in a registry snapshot; `value` is used by counters (exact
/// integer) and gauges, `histogram` by histograms.
struct MetricSnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  HistogramSnapshot histogram;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. Names must match [a-zA-Z_:][a-zA-Z0-9_:]* (Prometheus);
  /// re-registering a name with a different kind throws
  /// std::invalid_argument. Returned references stay valid for the
  /// registry's lifetime.
  Counter& counter(std::string_view name, std::string_view help = "")
      EXCLUDES(mutex_);
  Gauge& gauge(std::string_view name, std::string_view help = "")
      EXCLUDES(mutex_);
  Histogram& histogram(std::string_view name, HistogramOptions options = {},
                       std::string_view help = "") EXCLUDES(mutex_);

  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const
      EXCLUDES(mutex_);

  /// Prometheus text exposition (HELP/TYPE lines, cumulative histogram
  /// buckets with `le` labels, `_sum`/`_count` series).
  void write_prometheus(std::ostream& out) const EXCLUDES(mutex_);

 private:
  struct Entry {
    std::string name;
    std::string help;
    MetricKind kind;
    // Exactly one of these is non-null, matching `kind`.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Get-or-create under mutex_: a new entry is published only with its
  /// metric built (`options` is read for histograms only). Entries and
  /// their metrics are never mutated afterwards, so the returned reference
  /// is safe to read unlocked.
  Entry& find_or_insert(std::string_view name, std::string_view help,
                        MetricKind kind, const HistogramOptions& options)
      EXCLUDES(mutex_);

  mutable util::Mutex mutex_;
  std::deque<Entry> entries_ GUARDED_BY(mutex_);  // stable addresses
  std::map<std::string, Entry*, std::less<>> index_ GUARDED_BY(mutex_);
};

}  // namespace lorasched::obs
