// Leader-side remote shard plumbing (DESIGN.md §11): AgentLink owns one
// framed TCP connection to a lorasched_host_agent and demultiplexes its
// replies into per-shard mailboxes; RemoteShardHandle implements
// shard::ShardHandle over that link, so ShardedService drives a shard in
// another process through exactly the code path it uses for an in-process
// ShardRunner.
//
// Failure semantics (the part that makes degradation graceful instead of
// hang-or-crash):
//  * Heartbeats live in the transport (Connection pings every
//    ping_interval and fails after heartbeat_timeout of silence), so a
//    killed agent is detected within ~heartbeat_timeout even mid-round.
//  * Every RPC is bounded by rpc_timeout; a timeout FAILS the whole link
//    (socket shut down, mailboxes flushed) so a late reply can never be
//    misdelivered to a later request.
//  * A link failure while a round is in flight permanently kills the
//    affected handles: the agent may or may not have applied the round, so
//    resuming it could silently diverge. The service fails the bids over
//    to live shards (no reroute budget consumed) and routes around the
//    dead shard from then on.
//  * A link failure *between* rounds is recoverable when the handle's
//    leader-side state cache is current (the last wait_round was followed
//    by a state() fetch or restore_state push — true whenever the driver
//    checkpoints every slot): the next use reconnects with backoff,
//    re-handshakes, re-assigns, replays blocks, and restores the cached
//    state, and the shard continues bit-identically.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lorasched/core/pdftsp.h"
#include "lorasched/net/messages.h"
#include "lorasched/net/transport.h"
#include "lorasched/obs/cluster_trace.h"
#include "lorasched/obs/registry.h"
#include "lorasched/shard/shard_handle.h"
#include "lorasched/shard/sharded_service.h"
#include "lorasched/util/mutex.h"
#include "lorasched/util/thread_annotations.h"

namespace lorasched::net {

struct LinkConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Transport heartbeat cadence and silence budget (see Connection).
  std::chrono::milliseconds ping_interval{200};
  std::chrono::milliseconds heartbeat_timeout{2000};
  /// Per-RPC reply deadline; also bounds wait_round(). A timeout fails the
  /// link (see header comment).
  std::chrono::milliseconds rpc_timeout{30000};
  /// Initial-dial retry budget (connect_with_backoff).
  int connect_attempts = 10;
  std::chrono::milliseconds connect_backoff{50};
  /// Re-dial budget when an established link drops between rounds; 0
  /// disables revival entirely (first failure is permanent).
  int reconnect_attempts = 2;
  /// Optional registry for link observability (borrowed, not owned): the
  /// transport's per-type frame/byte counters and heartbeat RTT histogram
  /// plus the link's reconnect / rpc-timeout counters (DESIGN.md §12).
  obs::MetricsRegistry* metrics = nullptr;
};

/// One connection to one host-agent; shared by every RemoteShardHandle
/// assigned to that agent. All request methods are leader-thread-only; the
/// reader thread only fills mailboxes.
///
/// Lock discipline (DESIGN.md §13): two mutexes, never held together.
/// mutex_ guards the mailboxes and failure state the reader/close threads
/// share with the leader; conn_mutex_ guards conn_ swaps against health()
/// scrapes. Link-down detection inside take_or_wait() reads last_error_
/// (set by the close handler, which notifies mail_cv_) instead of poking
/// the transport, which is what keeps the two locks disjoint.
class AgentLink {
 public:
  AgentLink(LinkConfig config, HelloMsg hello);
  ~AgentLink();

  AgentLink(const AgentLink&) = delete;
  AgentLink& operator=(const AgentLink&) = delete;

  /// Dials (with backoff) and runs the Hello handshake. Throws
  /// TransportError / WireError / std::runtime_error on failure.
  void connect() EXCLUDES(mutex_, conn_mutex_);
  [[nodiscard]] bool open() const noexcept EXCLUDES(conn_mutex_);
  [[nodiscard]] const LinkConfig& config() const noexcept { return config_; }
  /// Close reason of the last failure ("" while open).
  [[nodiscard]] std::string last_error() const EXCLUDES(mutex_);

  /// Sends `type` and blocks for the matching `want` reply for `shard`
  /// (kError from the agent rethrows as std::logic_error — the shard hit a
  /// contract violation, not an outage). Throws shard::ShardUnavailable on
  /// link failure or timeout.
  Frame call(int shard, MsgType type, const std::vector<std::uint8_t>& payload,
             MsgType want) EXCLUDES(mutex_, conn_mutex_);
  /// Fire-and-forget (BeginRound / Offer). Throws shard::ShardUnavailable
  /// when the link is down.
  void post(MsgType type, const std::vector<std::uint8_t>& payload)
      EXCLUDES(mutex_, conn_mutex_);
  /// Like call() without a request — waits for an already-requested reply
  /// (RoundResults after BeginRound+Offers).
  Frame wait(int shard, MsgType want) EXCLUDES(mutex_, conn_mutex_);

  /// Re-dials a dropped link (bounded attempts) and replays every
  /// registered handle's resync. False when the link stays down. No-op
  /// true when already open.
  bool ensure_open() EXCLUDES(mutex_, conn_mutex_);
  /// Runs after every successful reconnect handshake, in shard order. The
  /// callback must not throw (mark the handle dead instead).
  void register_resync(int shard, std::function<void()> resync);

  /// Best-effort kShutdown to the agent (process teardown).
  void send_shutdown() EXCLUDES(conn_mutex_);

  /// Installs the sink for the agent's metrics pushes (kMetricsSnapshot is
  /// agent-scoped — its payload leads with the agent name, not a shard id).
  /// Set before connect(); the sink runs on the reader thread and must not
  /// block on this link. A malformed push fails the link like any other
  /// bad frame.
  void set_metrics_sink(std::function<void(MetricsSnapshotMsg&&)> sink)
      EXCLUDES(mutex_);

  /// Liveness summary for /healthz (DESIGN.md §12). Safe to call from a
  /// scrape thread while the leader thread is using the link.
  struct Health {
    bool open = false;
    std::string last_error;
    /// Nanoseconds since the last frame from the agent (-1: never dialed).
    std::int64_t last_rx_age_ns = -1;
    std::uint64_t reconnects = 0;
    std::uint64_t rpc_timeouts = 0;
  };
  [[nodiscard]] Health health() const EXCLUDES(mutex_, conn_mutex_);

 private:
  void dial_and_handshake() EXCLUDES(mutex_, conn_mutex_);
  void on_frame(Frame&& frame) EXCLUDES(mutex_);
  Frame take_or_wait(int shard, MsgType want,
                     std::chrono::steady_clock::time_point deadline,
                     const char* what) EXCLUDES(mutex_, conn_mutex_);
  /// Leader-thread-only: fetches the transport pointer under conn_mutex_
  /// and drops the lock before the caller touches it. Safe because only
  /// the leader thread ever swaps conn_, so the pointee outlives every
  /// leader-side use; the scrape thread must instead hold conn_mutex_
  /// across its whole read (health() does).
  [[nodiscard]] Connection* connection() const EXCLUDES(conn_mutex_);

  LinkConfig config_;
  HelloMsg hello_;
  /// Guards conn_ swaps (dial / teardown, leader thread) against health()
  /// reads from a scrape thread. Never held together with mutex_ — see the
  /// class comment.
  mutable util::Mutex conn_mutex_;
  std::unique_ptr<Connection> conn_ GUARDED_BY(conn_mutex_);
  /// Leader-thread-only (registered during setup, replayed inside
  /// ensure_open()); deliberately unguarded.
  std::map<int, std::function<void()>> resyncs_;

  mutable util::Mutex mutex_;
  util::CondVar mail_cv_;
  std::map<int, std::deque<Frame>> mail_ GUARDED_BY(mutex_);
  std::string last_error_ GUARDED_BY(mutex_);
  std::function<void(MetricsSnapshotMsg&&)> metrics_sink_ GUARDED_BY(mutex_);
  // Lock-free health counters (read by the scrape thread).
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> rpc_timeouts_{0};
  obs::Counter* reconnects_total_ = nullptr;
  obs::Counter* rpc_timeouts_total_ = nullptr;
};

/// shard::ShardHandle over an AgentLink — the drop-in that makes
/// ShardedService distributed. Construction assigns the shard on the agent
/// (AssignShard round trip); block() calls are batched and flushed before
/// the first round, mirroring the in-process setup order.
class RemoteShardHandle final : public shard::ShardHandle {
 public:
  RemoteShardHandle(std::shared_ptr<AgentLink> link,
                    const PdftspConfig& policy, int shard_id,
                    std::vector<NodeId> members,
                    const shard::ShardContext& ctx);

  [[nodiscard]] int id() const noexcept override { return shard_id_; }
  [[nodiscard]] const std::vector<NodeId>& to_global()
      const noexcept override {
    return to_global_;
  }
  [[nodiscard]] bool alive() const noexcept override { return !dead_; }

  void block(NodeId local_node, Slot t) override;
  void register_dp_metrics(obs::MetricsRegistry& registry) const override {
    // The DP cache counters live in the agent process; its own registry
    // exports them.
    (void)registry;
  }

  void begin_round(Slot slot, std::size_t expected) override;
  void offer(Task bid) override;
  [[nodiscard]] const std::vector<shard::RoundResult>& wait_round() override;
  void publish(Slot from) override;

  [[nodiscard]] double booked_compute() const noexcept override {
    return booked_;
  }
  [[nodiscard]] shard::ShardState state() const override;
  void restore_state(const shard::ShardState& state) override;
  void accumulate_utilization(double& used, double& cap) const override;

 private:
  /// Throws ShardUnavailable unless the link is usable, reviving it first
  /// when that is safe (see header comment).
  void ensure_ready() const;
  void flush_blocks() const;
  void assign() const;
  void resync();
  [[noreturn]] void die(const std::string& reason) const;

  std::shared_ptr<AgentLink> link_;
  const int shard_id_;
  std::vector<NodeId> to_global_;
  std::vector<double> compute_caps_;  // per local node, for utilization
  const Slot horizon_;
  shard::PriceBoard& board_;
  AssignShardMsg assignment_;

  // Documented exemption (DESIGN.md §13): every mutable member below is
  // leader-thread-only — the handle is driven exclusively by
  // ShardedService's leader thread, including resync(), which runs inside
  // the leader's own ensure_open() call. Nothing here needs a mutex; the
  // concurrent surface is entirely inside AgentLink.
  mutable bool dead_ = false;
  mutable std::string death_reason_;
  /// Rounds ran since the cache was last synced — a drop now loses state.
  mutable bool dirty_ = false;
  bool in_round_ = false;
  mutable std::vector<std::pair<NodeId, Slot>> pending_blocks_;
  std::vector<std::pair<NodeId, Slot>> all_blocks_;  // replay on resync
  std::vector<Task> round_tasks_;
  Slot round_slot_ = 0;
  std::vector<shard::RoundResult> results_;
  double booked_ = 0.0;
  mutable bool have_cache_ = false;
  mutable shard::ShardState cache_;

  // Cross-process tracing (observation-only — never consulted by decision
  // logic). round_trace_ is stamped on every Offer of the round; the
  // agent's spans come back on RoundResults and are absorbed under this
  // agent's label.
  obs::ClusterTraceCollector* tracer_ = nullptr;
  std::string agent_label_;
  obs::RoundTraceCtx round_trace_;
};

}  // namespace lorasched::net
