// Bounded multi-producer bid queue — the ingestion edge of the admission
// service. Any number of producer threads submit() bids; one consumer (the
// service's slot loop) drains them in batches. A full queue either blocks
// the producer until space frees up or rejects the bid with a reason,
// depending on the configured backpressure mode — the same choice serving
// frontends expose as "queue or shed".
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "lorasched/util/mutex.h"
#include "lorasched/util/thread_annotations.h"
#include "lorasched/workload/task.h"

namespace lorasched::obs {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace lorasched::obs

namespace lorasched::service {

enum class BackpressureMode {
  /// submit() blocks until the consumer drains space (lossless ingestion).
  kBlock,
  /// submit() returns kRejectedFull immediately (load shedding).
  kReject,
};

/// What to do with a bid whose arrival slot already passed when the
/// consumer drains it (a producer outran by the slot clock).
enum class LateBidMode {
  /// Reject it at ingestion: it gets a rejected TaskOutcome and an
  /// on_rejected callback, but never reaches the policy.
  kReject,
  /// Re-stamp its arrival to the current slot and auction it normally
  /// (deadline unchanged, so hopeless bids still price out).
  kClamp,
};

enum class SubmitResult {
  kAccepted,
  /// Queue at capacity under BackpressureMode::kReject.
  kRejectedFull,
  /// close() was called; no further bids are accepted.
  kRejectedClosed,
  /// The bid's arrival slot already passed (LateBidMode::kReject).
  kRejectedLate,
};

[[nodiscard]] const char* to_string(SubmitResult result) noexcept;

class BidQueue {
 public:
  /// `capacity` must be positive; it bounds the number of undrained bids.
  BidQueue(std::size_t capacity, BackpressureMode mode);

  /// Thread-safe. Never returns kRejectedLate (that is service policy).
  SubmitResult submit(Task bid) EXCLUDES(mutex_);

  /// Consumer side: moves out every queued bid (possibly none) and wakes
  /// blocked producers. Thread-safe, but intended for a single consumer.
  [[nodiscard]] std::vector<Task> drain() EXCLUDES(mutex_);

  /// Copy of the queued bids without consuming them — checkpointing reads
  /// the in-flight bids through this.
  [[nodiscard]] std::vector<Task> peek() const EXCLUDES(mutex_);

  /// Consumer side: blocks until at least one bid is queued or the queue
  /// is closed (returns immediately if either already holds). Lets a
  /// consumer pump an ingestion stream without spinning on drain().
  void wait_available() const EXCLUDES(mutex_);

  /// Rejects all future submits and wakes producers blocked on a full
  /// queue (they return kRejectedClosed). Queued bids remain drainable.
  void close() EXCLUDES(mutex_);
  [[nodiscard]] bool closed() const EXCLUDES(mutex_);

  [[nodiscard]] std::size_t depth() const EXCLUDES(mutex_);
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Lifetime counters (monotone, thread-safe).
  [[nodiscard]] std::uint64_t accepted_total() const EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t rejected_full_total() const EXCLUDES(mutex_);

  /// Binds registry instruments to this queue (get-or-create by name):
  ///  * lorasched_bids_rejected_total — submits turned away, full + closed;
  ///  * lorasched_bid_queue_block_seconds — how long kBlock producers
  ///    stalled waiting for the consumer to drain space (only actual waits
  ///    are recorded, so count == number of stalls, not submits).
  /// Call before producers start submitting (service constructors do).
  void register_metrics(obs::MetricsRegistry& registry) EXCLUDES(mutex_);

 private:
  const std::size_t capacity_;
  const BackpressureMode mode_;
  mutable util::Mutex mutex_;
  util::CondVar space_free_;
  mutable util::CondVar bid_ready_;
  std::deque<Task> bids_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
  std::uint64_t accepted_ GUARDED_BY(mutex_) = 0;
  std::uint64_t rejected_full_ GUARDED_BY(mutex_) = 0;
  // Bound once by register_metrics() before producers exist; the metric
  // objects themselves record with relaxed atomics.
  obs::Counter* rejected_metric_ GUARDED_BY(mutex_) = nullptr;
  obs::Histogram* block_metric_ GUARDED_BY(mutex_) = nullptr;
};

}  // namespace lorasched::service
