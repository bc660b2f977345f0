// HostAgent — the process that owns ShardRunners on behalf of a remote
// leader (DESIGN.md §11). It listens on loopback TCP, serves one leader
// connection at a time, and speaks the wire protocol:
//
//   Hello/HelloAck      environment-digest handshake (scenario mismatch is
//                       a handshake failure, not silent divergence)
//   AssignShard         builds a ShardRunner over the shard's members with
//                       the leader's pricing parameters
//   BlockCells          replays the leader's outage calendar
//   BeginRound+Offer×n  one decision round; the worker buffers ALL n
//                       offers before arming the runner, so a leader that
//                       dies mid-feed can never leave a runner stuck in a
//                       half-fed round
//   RoundResults        decisions + the shard's post-round price summary
//   Publish/State/Restore  parked-state access for boards and checkpoints
//   Shutdown            stops the agent
//
// Each assigned shard gets a worker thread (rounds on different shards of
// the same agent decide concurrently, matching the in-process service).
// The transport answers heartbeats internally, so a busy round never makes
// the agent look dead. When the leader connection drops, the session's
// runners are torn down; a reconnecting leader re-assigns and restores
// state (see remote_shard.h).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "lorasched/net/messages.h"
#include "lorasched/net/transport.h"
#include "lorasched/obs/registry.h"
#include "lorasched/shard/price_board.h"
#include "lorasched/shard/shard_runner.h"
#include "lorasched/sim/instance.h"
#include "lorasched/util/mutex.h"
#include "lorasched/util/thread_annotations.h"

namespace lorasched::net {

class HostAgent {
 public:
  /// Builds the per-shard policy from the leader's AssignShard parameters.
  /// The default wires them into make_pdftsp_factory (alpha, beta,
  /// welfare_unit, share_options).
  using FactoryBuilder =
      std::function<shard::PolicyFactory(const AssignShardMsg&)>;

  struct Config {
    /// 0 picks an ephemeral port (see port()) — the test/CI mode.
    std::uint16_t port = 0;
    std::chrono::milliseconds ping_interval{200};
    /// Fail the session when the leader is silent this long (it pings
    /// constantly while alive). 0 disables.
    std::chrono::milliseconds idle_timeout{2000};
    /// Agent name stamped on metrics pushes — the leader's federated
    /// `agent` label (DESIGN.md §12).
    std::string name = "agent";
    /// > 0: push a cumulative MetricsSnapshot to the leader at this
    /// cadence, piggybacked on the connection's maintenance thread.
    std::chrono::milliseconds metrics_push_interval{0};
  };

  /// `env` supplies cluster/energy/market/horizon (tasks and outages are
  /// ignored — bids and blocks arrive over the wire).
  HostAgent(Instance env, Config config, FactoryBuilder factory = {});
  ~HostAgent();

  HostAgent(const HostAgent&) = delete;
  HostAgent& operator=(const HostAgent&) = delete;

  /// Binds the listener and starts the accept thread.
  void start() EXCLUDES(session_mutex_);
  /// Stops serving: interrupts the listener, fails the live session, joins.
  /// Idempotent; also triggered by a kShutdown frame from the leader.
  void stop() EXCLUDES(session_mutex_);
  /// Blocks until the agent stopped (kShutdown or stop()).
  void wait() EXCLUDES(session_mutex_);

  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// Leader sessions accepted so far (reconnects increment it).
  [[nodiscard]] std::uint64_t sessions_served() const noexcept {
    return sessions_.load(std::memory_order_relaxed);
  }

  /// The agent's process-wide registry (transport counters). Shard-level
  /// registries are created per assigned shard and persist across leader
  /// sessions, so counters stay monotone through reconnects.
  [[nodiscard]] obs::MetricsRegistry& registry() noexcept {
    return agent_registry_;
  }
  /// Shards assigned at least once (sorted) — the /healthz shard list.
  [[nodiscard]] std::vector<int> assigned_shards() const
      EXCLUDES(registries_mutex_);
  /// Prometheus exposition of the agent registry plus each shard registry
  /// (shard-labeled) — the agent's /metrics and --metrics-out document.
  void write_metrics(std::ostream& out) const EXCLUDES(registries_mutex_);
  /// Best-effort: one cumulative metrics push now. False without a live
  /// session or when the outbox is full (it rides the connection's
  /// maintenance thread, which must never block behind a stalled peer —
  /// the next tick retries).
  bool push_metrics() EXCLUDES(registries_mutex_, session_mutex_);

 private:
  class Worker;

  void accept_main() EXCLUDES(session_mutex_);
  void serve(Socket socket) EXCLUDES(session_mutex_, workers_mutex_);
  void handle_frame(Frame&& frame) EXCLUDES(session_mutex_, workers_mutex_);
  /// Sends through the live session connection; false once it failed.
  bool send(MsgType type, const std::vector<std::uint8_t>& payload)
      EXCLUDES(session_mutex_);
  void fail_session(const std::string& reason) EXCLUDES(session_mutex_);
  [[nodiscard]] shard::PriceSnapshot board_read(int shard) const
      EXCLUDES(workers_mutex_);
  /// Get-or-create the shard's registry (stable address, agent lifetime).
  [[nodiscard]] obs::MetricsRegistry& shard_registry(int shard)
      EXCLUDES(registries_mutex_);
  /// Fetches the live transport under session_mutex_ and drops the lock
  /// before the caller touches it (DESIGN.md §13). Safe because only the
  /// accept thread swaps conn_, workers are joined before the swap-out,
  /// and the transport's own threads are joined by its destructor — so the
  /// pointee outlives every fetched use.
  [[nodiscard]] Connection* connection() const EXCLUDES(session_mutex_);
  /// Same raw-pointer pattern for the session's price board (workers_mutex_
  /// guards the swap; the pointee is lock-free and outlives the workers).
  [[nodiscard]] shard::PriceBoard* board() const EXCLUDES(workers_mutex_);

  Instance env_;
  Config config_;
  FactoryBuilder factory_;
  std::uint64_t digest_ = 0;

  std::unique_ptr<Listener> listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> sessions_{0};

  // --- Observability (agent lifetime, survives sessions) ------------------
  obs::MetricsRegistry agent_registry_;
  mutable util::Mutex registries_mutex_;
  std::map<int, std::unique_ptr<obs::MetricsRegistry>> shard_registries_
      GUARDED_BY(registries_mutex_);
  std::atomic<std::uint64_t> push_seq_{0};

  // --- Per-session state (reset by serve()) -------------------------------
  // Lock order (DESIGN.md §13): workers_mutex_ before a Worker's own
  // queue mutex (stop/enqueue run under the map lock); session_mutex_,
  // workers_mutex_ and registries_mutex_ are never held together.
  mutable util::Mutex workers_mutex_;
  bool got_hello_ GUARDED_BY(workers_mutex_) = false;
  /// False outside a session and during teardown — late reader-thread
  /// frames are dropped instead of resurrecting a worker.
  bool accepting_frames_ GUARDED_BY(workers_mutex_) = false;
  std::map<int, std::unique_ptr<Worker>> workers_ GUARDED_BY(workers_mutex_);
  /// The session's price board. Runners hold references into it, so it is
  /// created exactly once per session (a duplicate Hello is a wire error)
  /// and destroyed only after every worker joined.
  std::unique_ptr<shard::PriceBoard> board_ GUARDED_BY(workers_mutex_);

  mutable util::Mutex session_mutex_;
  util::CondVar session_cv_;
  /// Swapped by the accept thread only; send()s from the worker, reader
  /// and maintenance threads go through connection() — see its comment.
  std::unique_ptr<Connection> conn_ GUARDED_BY(session_mutex_);
  bool session_closed_ GUARDED_BY(session_mutex_) = true;
  /// The reader thread starts inside the Connection constructor, so on a
  /// fast loopback the leader's Hello can arrive before serve()'s
  /// assignment to conn_ retires — replying through a still-null conn_
  /// would silently drop the HelloAck. Frame delivery waits on this flag.
  bool conn_published_ GUARDED_BY(session_mutex_) = false;
};

}  // namespace lorasched::net
