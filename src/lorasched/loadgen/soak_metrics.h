// SoakMetrics — the consumer half of the load-generation subsystem
// (DESIGN.md §14): per-source sequence/loss accounting plus end-to-end
// admission-latency CDFs over the decision stream a soak run gets back.
//
// Accounting model (per source):
//  * record_offered(source, seq, send_ns) when a bid leaves the sender;
//    the (seq -> send time) entry joins the source's outstanding map.
//  * record_response(source, seq, status, recv_ns) when the matching
//    response arrives. An outstanding seq resolves: its end-to-end latency
//    (recv - send, one monotonic clock — the sender's) lands in the
//    latency histograms and the seq leaves the outstanding map. Decision
//    responses (admit/reject) also run the order check: a seq below the
//    source's highest decided seq counts as out-of-order (in a healthy
//    run the service decides each source's bids in seq order — arrivals
//    are monotone per source and slot batches sort by task id, which is
//    (source, seq)-major). Shed responses (queue full/closed) return
//    immediately from the ingestion edge on another thread, so they are
//    accounted but exempt from the order check.
//  * A response whose seq is not outstanding is a duplicate when the seq
//    was already decided (seq <= the source's max decided — this is also
//    how a restarted, re-sequenced sender shows up) and unknown otherwise
//    (a response for a bid never offered: a protocol error).
//  * Loss is what remains: offered bids whose seq is still outstanding
//    when report() runs. A clean soak ends with lost == out_of_order ==
//    duplicates == unknown == 0.
//
// The class is thread-safe (senders record offers, a reader thread records
// responses) and doubles as a service::DecisionSubscriber so an in-process
// service can feed it directly — outcomes decode (source, seq) from the
// firehose task-id packing.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "lorasched/obs/registry.h"
#include "lorasched/service/subscriber.h"
#include "lorasched/types.h"
#include "lorasched/util/mutex.h"
#include "lorasched/util/thread_annotations.h"
#include "lorasched/util/timing.h"

namespace lorasched::loadgen {

/// Terminal state of one offered bid, as seen by the soak consumer.
enum class SoakStatus : std::uint8_t {
  kAdmitted = 0,
  kRejected = 1,
  /// Shed at the ingest queue (BackpressureMode::kReject, queue full).
  kShedFull = 2,
  /// Shed because the service stopped accepting bids.
  kShedClosed = 3,
};

[[nodiscard]] const char* to_string(SoakStatus status) noexcept;

/// One source's accounting totals.
struct SoakSourceReport {
  std::uint32_t source = 0;
  std::uint64_t offered = 0;
  /// Responses that resolved an outstanding seq (decisions + sheds).
  std::uint64_t responded = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  /// Offered but never responded (outstanding at report time).
  std::uint64_t lost = 0;
  /// Decision responses that regressed below the source's max decided seq.
  std::uint64_t out_of_order = 0;
  /// Responses for a seq that was already resolved (includes a restarted
  /// sender replaying its sequence space).
  std::uint64_t duplicates = 0;
  /// Responses for a seq never offered.
  std::uint64_t unknown = 0;
  /// Offers that re-used an outstanding seq (sender-side anomaly).
  std::uint64_t reoffered = 0;
};

struct SoakReport {
  std::vector<SoakSourceReport> sources;  // sorted by source id
  SoakSourceReport totals;                // source field meaningless
  /// End-to-end latency over decision responses (admit + reject), seconds.
  obs::HistogramSnapshot latency;
  /// Admitted-only latency.
  obs::HistogramSnapshot admit_latency;
  /// Responses per wall-clock second since construction (timeline).
  std::vector<std::uint64_t> responses_per_second;
  double elapsed_seconds = 0.0;

  /// The soak verdict: every offered bid resolved exactly once, in order.
  [[nodiscard]] bool clean() const noexcept {
    return totals.lost == 0 && totals.out_of_order == 0 &&
           totals.duplicates == 0 && totals.unknown == 0;
  }
};

class SoakMetrics final : public service::DecisionSubscriber {
 public:
  SoakMetrics();

  SoakMetrics(const SoakMetrics&) = delete;
  SoakMetrics& operator=(const SoakMetrics&) = delete;

  /// Sender side, thread-safe. `send_ns` is nanoseconds on util::MonoClock
  /// (use now_ns()).
  void record_offered(std::uint32_t source, std::uint64_t seq,
                      std::int64_t send_ns) EXCLUDES(mutex_);

  /// Response side, thread-safe.
  void record_response(std::uint32_t source, std::uint64_t seq,
                       SoakStatus status, std::int64_t recv_ns)
      EXCLUDES(mutex_);

  /// In-process seam: outcomes from a service this object subscribes to,
  /// stamped with the receive time here. Task ids must use the firehose
  /// (source, seq) packing.
  void on_admitted(const TaskOutcome& outcome,
                   const Schedule& schedule) override;
  void on_rejected(const TaskOutcome& outcome) override;

  /// Bids still awaiting a response (drain polling).
  [[nodiscard]] std::uint64_t outstanding() const EXCLUDES(mutex_);
  /// Bids of one source still awaiting a response.
  [[nodiscard]] std::uint64_t outstanding(std::uint32_t source) const
      EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t responses() const noexcept {
    return responded_.value();
  }

  /// Point-in-time accounting rollup; outstanding bids count as lost.
  [[nodiscard]] SoakReport report() const EXCLUDES(mutex_);

  /// The registry backing the latency histograms and counters (scrapeable
  /// alongside a service registry).
  [[nodiscard]] obs::MetricsRegistry& registry() noexcept { return registry_; }

  /// Nanoseconds on the shared monotonic clock.
  [[nodiscard]] static std::int64_t now_ns() noexcept;

 private:
  struct SourceState {
    std::map<std::uint64_t, std::int64_t> outstanding;  // seq -> send_ns
    SoakSourceReport totals;
    bool any_decided = false;
    std::uint64_t max_decided = 0;
  };

  SourceState& state(std::uint32_t source) REQUIRES(mutex_);
  void bump_timeline(std::int64_t recv_ns) REQUIRES(mutex_);

  obs::MetricsRegistry registry_;  // must precede the metric references
  obs::Counter& offered_;
  obs::Counter& responded_;
  obs::Counter& admitted_;
  obs::Counter& rejected_;
  obs::Counter& shed_;
  obs::Counter& lost_gaps_;  // out-of-order + duplicate + unknown events
  obs::Histogram& latency_;
  obs::Histogram& admit_latency_;

  mutable util::Mutex mutex_;
  std::map<std::uint32_t, SourceState> sources_ GUARDED_BY(mutex_);
  std::vector<std::uint64_t> per_second_ GUARDED_BY(mutex_);
  const std::int64_t epoch_ns_;
};

}  // namespace lorasched::loadgen
