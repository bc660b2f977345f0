// Shared plumbing of the layer benchmark: the paper-scale environment, the
// seeded bid streams, the offline reference every run is checked against,
// failure accounting, statistics, and the result document.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lorasched/core/pdftsp.h"
#include "lorasched/loadgen/arrival.h"
#include "lorasched/loadgen/soak_metrics.h"
#include "lorasched/obs/registry.h"
#include "lorasched/sim/instance.h"
#include "lorasched/sim/metrics.h"

namespace layerbench {

using namespace lorasched;

// --- Command line --------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Deliberate fault for the benchmark's own tests: "late" holds one bid
  /// back past its slot's close, "drop_reply" swallows one decision,
  /// "duplicate" records one decision twice at the leader.
  std::string plant;
  /// Where the traced run writes its span file (relative to the cwd).
  std::string trace_dir = ".bench_out";
};

// --- Clock ---------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (the same clock SoakMetrics uses).
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline Clock::time_point at_ns(std::int64_t ns) {
  return Clock::time_point(std::chrono::nanoseconds(ns));
}

// --- Environment and streams --------------------------------------------

/// Fig. 8 paper-scale cell: 100 hybrid nodes, 80 bids per slot on average.
inline constexpr int kNodes = 100;
inline constexpr double kRatePerSlot = 80.0;

/// The cluster, energy model and marketplace make_instance builds for the
/// seed, without generating its task list (bids come from the firehose).
[[nodiscard]] Instance make_env(std::uint64_t seed, Slot horizon);

/// A seeded multi-source bid stream, merged in decision order.
struct Stream {
  /// Sorted by (arrival, task id) — the order a slot batch is decided in.
  std::vector<Task> bids;
  /// Bids of slot t occupy [slot_begin[t], slot_begin[t + 1]).
  std::vector<std::size_t> slot_begin;
  Slot horizon = 0;
  std::uint32_t sources = 1;
  /// pos[source][seq] = index into bids.
  std::vector<std::vector<std::uint32_t>> pos;

  [[nodiscard]] std::size_t size() const noexcept { return bids.size(); }
  [[nodiscard]] std::size_t index(TaskId id) const;
  /// True when `id` is a task id of this stream.
  [[nodiscard]] bool has(TaskId id) const noexcept;
};

/// `sources` firehose sources, each at rate/sources bids per slot.
[[nodiscard]] Stream make_stream(const Instance& env, std::uint64_t seed,
                                 std::uint32_t sources,
                                 loadgen::ArrivalMix mix, double rate,
                                 Slot horizon);

/// pdFTSP pricing for the stream (Lemma 2 alpha/beta over its bids).
[[nodiscard]] PdftspConfig policy_for(const Instance& env,
                                      const Stream& stream);

// --- Decisions, fingerprints, references ---------------------------------

/// Per-bid decisions in stream order: state -1 = none, 0 = rejected,
/// 1 = admitted; payment only meaningful when admitted.
struct Decisions {
  std::vector<std::int8_t> state;
  std::vector<double> payment;

  explicit Decisions(std::size_t n = 0) : state(n, -1), payment(n, 0.0) {}
};

/// FNV-1a over (task id, admitted, payment bits) in stream order.
[[nodiscard]] std::uint64_t fingerprint(const Stream& stream,
                                        const Decisions& decisions);

[[nodiscard]] Decisions from_outcomes(const Stream& stream,
                                      const std::vector<TaskOutcome>& outcomes);

struct Reference {
  std::uint64_t fingerprint = 0;
  double welfare = 0.0;
  std::size_t admitted = 0;
  SimResult result;
};

/// Offline replay at K=1: run_simulation with pdFTSP.
[[nodiscard]] Reference reference_k1(const Instance& env, const Stream& stream,
                                     const PdftspConfig& policy);
/// Offline replay at K shards (reroute 1): every bid queued up front,
/// slots stepped back to back.
[[nodiscard]] Reference reference_sharded(const Instance& env,
                                          const Stream& stream,
                                          const PdftspConfig& policy,
                                          int shards);

// --- Failure accounting -------------------------------------------------

/// Bids that did not get exactly one timely, in-order decision. Auction
/// rejects are decisions, not failures.
struct Failures {
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t shed = 0;
  std::uint64_t late = 0;
  std::uint64_t unknown = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return lost + duplicated + out_of_order + shed + late + unknown;
  }
  void absorb(const loadgen::SoakReport& report);
  void merge(const Failures& other);
  /// "late=1 lost=2" style summary of the non-zero classes.
  [[nodiscard]] std::string describe() const;
};

// --- Statistics and registries -------------------------------------------

/// Linear-interpolation quantile, q in [0, 1]; 0 for no samples.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Decision latency as every workload reports it: p50 and p99 within each
/// window of whole arrival slots holding at least kWindowBids decided bids
/// (so a window's p99 has ten samples beyond it), then the median over the
/// windows. A stall of the host moves the windows it hits, not the median
/// window. All bids of a slot are decided together, so a window's p99 is
/// close to its slowest slot.
inline constexpr std::size_t kWindowBids = 1000;

struct LatencySummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t samples = 0;
  std::size_t windows = 0;
};

/// `latency_ms[i]` is the latency of stream bid i; NaN marks an undecided
/// bid.
[[nodiscard]] LatencySummary summarize_latency(
    const Stream& stream, const std::vector<double>& latency_ms);

/// Process high-water resident set (getrusage), MB.
[[nodiscard]] double peak_rss_mb();

/// Value of a counter/gauge, or the snapshot of a histogram, by name
/// (zero / empty when the registry never registered it).
[[nodiscard]] double registry_value(const obs::MetricsRegistry& registry,
                                    const std::string& name);
[[nodiscard]] obs::HistogramSnapshot registry_histogram(
    const obs::MetricsRegistry& registry, const std::string& name);
/// Sum of every counter whose name starts with `prefix`.
[[nodiscard]] double registry_sum(const obs::MetricsRegistry& registry,
                                  const std::string& prefix);
/// Sum of every sample line of a Prometheus text document whose metric
/// name equals `name` (any labels).
[[nodiscard]] double prometheus_sum(const std::string& text,
                                    const std::string& name);

// --- Result document ----------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Marks the run incorrect and says why on stderr.
  void fail(const std::string& why);
  /// The one-line JSON verdict.
  [[nodiscard]] std::string json() const;
};

}  // namespace layerbench
