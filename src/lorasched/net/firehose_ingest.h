// FirehoseIngest — the server-side seam that lets firehose clients stream
// sequenced bids into a serving process over the control-plane wire
// protocol (DESIGN.md §14).
//
// One ingest instance listens on a loopback port, accepts any number of
// firehose connections, and for every kBidSubmit frame
//  1. parks a pending entry (task id -> connection, source, seq, echoed
//     send stamp) *before* submitting — the service's consumer thread may
//     decide the bid concurrently with the submit returning;
//  2. submits the task through the injected submit function (usually
//     ShardedService::submit). A rejected submit (queue full / closed)
//     un-parks the entry and answers the client immediately with a shed
//     decision.
// The serving tool forwards its DecisionSubscriber callbacks into
// on_decision(), which resolves the pending entry and ships the
// kBidDecision back on the submitting client's connection.
//
// Quiesce protocol: every firehose source ends its stream with
// kBidStreamEnd. Once `expected_streams` distinct sources have ended, the
// on_quiesce callback runs exactly once — serving tools close their bid
// queue there, which is what lets a horizon-free (--slot-ms 0) pump loop
// terminate. Until then the feeder path must NOT close the queue.
//
// Threading: submits and stream-ends arrive on per-connection reader
// threads (a blocking submit under kBlock backpressure stalls that one
// reader — TCP backpressure against exactly the client that overruns the
// queue); on_decision runs on the service's consumer thread; shed replies
// use try_send so a reader thread never blocks on its own outbox.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "lorasched/net/messages.h"
#include "lorasched/net/transport.h"
#include "lorasched/obs/registry.h"
#include "lorasched/service/bid_queue.h"
#include "lorasched/service/subscriber.h"
#include "lorasched/types.h"
#include "lorasched/util/mutex.h"
#include "lorasched/util/thread_annotations.h"

namespace lorasched::net {

class FirehoseIngest {
 public:
  struct Config {
    /// Listen port; 0 picks an ephemeral port (see port()).
    std::uint16_t port = 0;
    /// Distinct sources that must send kBidStreamEnd before on_quiesce
    /// fires. <= 0 disables the quiesce callback entirely.
    int expected_streams = 1;
    /// Per-connection outbox bound (decision frames queued to one client).
    std::size_t outbox_capacity = 4096;
    /// Optional registry for ingest counters (get-or-create by name).
    obs::MetricsRegistry* metrics = nullptr;
  };

  using SubmitFn = std::function<service::SubmitResult(const Task&)>;
  using QuiesceFn = std::function<void()>;

  /// Starts listening and accepting immediately. `submit` is called from
  /// connection reader threads and must be thread-safe; `on_quiesce` fires
  /// at most once, from a reader thread.
  FirehoseIngest(Config config, SubmitFn submit, QuiesceFn on_quiesce);
  ~FirehoseIngest();

  FirehoseIngest(const FirehoseIngest&) = delete;
  FirehoseIngest& operator=(const FirehoseIngest&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Resolves a decided bid: ships kBidDecision to the client that
  /// submitted it (no-op for task ids never seen on the wire, so a local
  /// feeder can coexist with wire ingest). Call from the service's
  /// consumer thread (a DecisionSubscriber adapter).
  void on_decision(TaskId task, bool admitted, Money payment,
                   Slot decided_slot) EXCLUDES(mutex_);

  /// Stops accepting, drains every live connection for up to `budget` (so
  /// tail decisions reach their clients), then tears them down. Idempotent.
  void stop(std::chrono::milliseconds budget = std::chrono::milliseconds(
                2000)) EXCLUDES(mutex_);

  /// Bids decided but unanswerable (client gone / outbox shed).
  [[nodiscard]] std::uint64_t replies_dropped() const noexcept {
    return replies_dropped_.load(std::memory_order_relaxed);
  }
  /// Wire submits still awaiting a decision.
  [[nodiscard]] std::size_t pending() const EXCLUDES(mutex_);
  /// Distinct sources that ended their streams.
  [[nodiscard]] std::size_t streams_ended() const EXCLUDES(mutex_);

 private:
  struct Client {
    std::unique_ptr<Connection> conn;
  };

  struct Pending {
    std::shared_ptr<Client> client;
    std::uint32_t source = 0;
    std::uint64_t seq = 0;
    std::int64_t send_ns = 0;
  };

  void accept_main();
  void handle_frame(const std::shared_ptr<Client>& client, Frame&& frame)
      EXCLUDES(mutex_);
  void handle_submit(const std::shared_ptr<Client>& client,
                     BidSubmitMsg&& msg) EXCLUDES(mutex_);
  void handle_stream_end(const BidStreamEndMsg& msg) EXCLUDES(mutex_);

  Config config_;
  SubmitFn submit_;
  QuiesceFn on_quiesce_;
  Listener listener_;
  std::uint16_t port_ = 0;

  obs::Counter* bids_in_ = nullptr;
  obs::Counter* sheds_ = nullptr;
  obs::Counter* decisions_out_ = nullptr;

  mutable util::Mutex mutex_;
  std::vector<std::shared_ptr<Client>> clients_ GUARDED_BY(mutex_);
  std::map<TaskId, Pending> pending_ GUARDED_BY(mutex_);
  std::set<std::uint32_t> ended_sources_ GUARDED_BY(mutex_);
  bool quiesced_ GUARDED_BY(mutex_) = false;
  bool stopped_ GUARDED_BY(mutex_) = false;

  std::atomic<std::uint64_t> replies_dropped_{0};
  std::thread acceptor_;
};

/// DecisionSubscriber adapter: forwards a service's decision callbacks into
/// FirehoseIngest::on_decision. Register it on the serving ShardedService
/// alongside the tool's other subscribers; all callbacks run on the
/// consumer thread, so the decided-slot tracking needs no lock.
class IngestSubscriber final : public service::DecisionSubscriber {
 public:
  explicit IngestSubscriber(FirehoseIngest& ingest) : ingest_(ingest) {}

  void on_admitted(const TaskOutcome& outcome,
                   const Schedule& schedule) override {
    (void)schedule;
    ingest_.on_decision(outcome.task, true, outcome.payment, slot_);
  }
  void on_rejected(const TaskOutcome& outcome) override {
    ingest_.on_decision(outcome.task, false, 0.0, slot_);
  }
  void on_slot_end(const service::SlotReport& report) override {
    // Decisions for slot N fire before on_slot_end(N), so the next batch
    // belongs to N + 1.
    slot_ = report.slot + 1;
  }

 private:
  FirehoseIngest& ingest_;
  Slot slot_ = 0;  // consumer-thread only
};

}  // namespace lorasched::net
