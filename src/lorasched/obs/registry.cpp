#include "lorasched/obs/registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace lorasched::obs {

namespace {

void atomic_add_double(std::atomic<double>& target, double delta) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& target, double value) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (current < value &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<double>& target, double value) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (current > value &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name.front())) return false;
  return std::all_of(name.begin() + 1, name.end(), [&](char c) {
    return head(c) || (c >= '0' && c <= '9');
  });
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

void write_number(std::ostream& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out << buf;
}

}  // namespace

void Gauge::add(double delta) noexcept { atomic_add_double(value_, delta); }

void Gauge::set_max(double value) noexcept { atomic_max_double(value_, value); }

Histogram::Histogram(HistogramOptions options) : options_(options) {
  if (!(options_.min > 0.0) || !(options_.max > options_.min) ||
      options_.buckets_per_octave < 1) {
    throw std::invalid_argument(
        "histogram needs 0 < min < max and buckets_per_octave >= 1");
  }
  bucket_scale_ = static_cast<double>(options_.buckets_per_octave);
  const double octaves = std::log2(options_.max / options_.min);
  const auto finite = static_cast<std::size_t>(
      std::ceil(octaves * options_.buckets_per_octave));
  counts_.resize(finite + 2);  // + underflow and overflow
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

void Histogram::record(double value) noexcept {
  if (std::isnan(value)) return;
  std::size_t slot;
  if (value < options_.min) {
    slot = 0;
  } else if (value >= options_.max) {
    slot = counts_.size() - 1;
  } else {
    const double pos = std::log2(value / options_.min) * bucket_scale_;
    auto idx = static_cast<std::size_t>(pos);
    // log2 rounding can land one past the last finite bucket for values
    // just under max; clamp into the finite range.
    idx = std::min(idx, counts_.size() - 3);
    slot = idx + 1;
  }
  counts_[slot].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, value);
  atomic_min_double(min_seen_, value);
  atomic_max_double(max_seen_, value);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.options = options_;
  snap.counts.reserve(counts_.size());
  for (const auto& c : counts_) {
    snap.counts.push_back(c.load(std::memory_order_relaxed));
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  // lo <= hi excludes the +/-inf construction seeds and the transient
  // where a racing record() has updated one edge but not the other yet;
  // either way the snapshot keeps its 0.0 defaults.
  const double lo = min_seen_.load(std::memory_order_relaxed);
  const double hi = max_seen_.load(std::memory_order_relaxed);
  if (snap.count > 0 && lo <= hi) {
    snap.min_seen = lo;
    snap.max_seen = hi;
  }
  return snap;
}

double HistogramSnapshot::bucket_lower(std::size_t i) const {
  return options.min *
         std::exp2(static_cast<double>(i) /
                   static_cast<double>(options.buckets_per_octave));
}

double HistogramSnapshot::bucket_upper(std::size_t i) const {
  return bucket_lower(i + 1);
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // util::percentile's convention: rank h = (n-1) * p/100 over the sorted
  // samples; here we locate the bucket containing that rank and
  // interpolate linearly across it.
  const double target = static_cast<double>(count - 1) * p / 100.0;
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    if (target < static_cast<double>(before + in_bucket)) {
      double lower;
      double upper;
      if (i == 0) {  // underflow: everything below options.min
        lower = min_seen;
        upper = std::min(options.min, max_seen);
      } else if (i + 1 == counts.size()) {  // overflow
        lower = std::max(options.max, min_seen);
        upper = max_seen;
      } else {
        lower = bucket_lower(i - 1);
        upper = bucket_upper(i - 1);
      }
      const double frac =
          in_bucket == 1
              ? 0.0
              : (target - static_cast<double>(before)) /
                    static_cast<double>(in_bucket - 1);
      const double value = lower + frac * (upper - lower);
      return std::clamp(value, min_seen, max_seen);
    }
    before += in_bucket;
  }
  return max_seen;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_insert(
    std::string_view name, std::string_view help, MetricKind kind,
    const HistogramOptions& options) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name: " + std::string(name));
  }
  util::MutexLock lock(mutex_);
  const auto it = index_.find(name);
  if (it != index_.end()) {
    if (it->second->kind != kind) {
      throw std::invalid_argument("metric '" + std::string(name) +
                                  "' already registered as " +
                                  kind_name(it->second->kind));
    }
    return *it->second;
  }
  // The metric is built before the entry is published, all under mutex_:
  // snapshot() never sees an entry without its metric, and two racing
  // registrations of one name get the same instance.
  Entry entry;
  entry.name = std::string(name);
  entry.help = std::string(help);
  entry.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge: entry.gauge = std::make_unique<Gauge>(); break;
    case MetricKind::kHistogram:
      entry.histogram = std::make_unique<Histogram>(options);
      break;
  }
  Entry& stored = entries_.emplace_back(std::move(entry));
  index_.emplace(stored.name, &stored);
  return stored;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help) {
  return *find_or_insert(name, help, MetricKind::kCounter, {}).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  return *find_or_insert(name, help, MetricKind::kGauge, {}).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      HistogramOptions options,
                                      std::string_view help) {
  return *find_or_insert(name, help, MetricKind::kHistogram, options)
              .histogram;
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
  util::MutexLock lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    MetricSnapshot snap;
    snap.name = entry.name;
    snap.help = entry.help;
    snap.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        snap.value = static_cast<double>(entry.counter->value());
        break;
      case MetricKind::kGauge: snap.value = entry.gauge->value(); break;
      case MetricKind::kHistogram:
        snap.histogram = entry.histogram->snapshot();
        break;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  for (const MetricSnapshot& metric : snapshot()) {
    if (!metric.help.empty()) {
      out << "# HELP " << metric.name << ' ' << metric.help << '\n';
    }
    out << "# TYPE " << metric.name << ' ' << kind_name(metric.kind) << '\n';
    switch (metric.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        out << metric.name << ' ';
        write_number(out, metric.value);
        out << '\n';
        break;
      case MetricKind::kHistogram: {
        const HistogramSnapshot& h = metric.histogram;
        // Prometheus `le` is inclusive, but record() places a sample equal
        // to options.min in the first finite bucket, so an le="min" series
        // for the underflow bucket would exclude boundary samples it
        // claims to cover. Fold the underflow count into the first finite
        // bucket's cumulative instead — placement and exposition then
        // agree at the min edge.
        std::uint64_t cumulative = h.counts.empty() ? 0 : h.counts.front();
        if (!h.counts.empty()) {
          for (std::size_t i = 0; i < h.finite_buckets(); ++i) {
            cumulative += h.counts[i + 1];
            out << metric.name << "_bucket{le=\"";
            write_number(out, h.bucket_upper(i));
            out << "\"} " << cumulative << '\n';
          }
          cumulative += h.counts.back();
        }
        out << metric.name << "_bucket{le=\"+Inf\"} " << cumulative << '\n';
        out << metric.name << "_sum ";
        write_number(out, h.sum);
        out << '\n';
        out << metric.name << "_count " << h.count << '\n';
        break;
      }
    }
  }
}

}  // namespace lorasched::obs
