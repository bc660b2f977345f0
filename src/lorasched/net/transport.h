// TCP transport for the control plane (DESIGN.md §11): RAII sockets, a
// listener, and a framed Connection with one read and one write thread.
//
// Connection threading model:
//  * the writer thread drains a bounded outbox, so send() never blocks on
//    the network (it blocks only when the outbox is full — backpressure
//    against a stalled peer);
//  * the reader thread decodes frames and hands them to the frame handler;
//    kPing frames are answered with kPong and kPong frames only refresh
//    the liveness clock — heartbeating lives entirely inside the
//    transport, so every protocol layer above gets failure detection for
//    free;
//  * an optional maintenance thread sends pings every `ping_interval` and
//    fails the connection when nothing (data or pong) arrived within
//    `idle_timeout`.
//
// Any failure — peer close, read/write error, decode error, idle timeout —
// runs the close handler exactly once with a reason, after which send()
// returns false. connect_with_backoff() retries an outbound connect a
// bounded number of times with exponentially growing pauses.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "lorasched/net/wire.h"
#include "lorasched/obs/registry.h"
#include "lorasched/util/mutex.h"
#include "lorasched/util/thread_annotations.h"

namespace lorasched::net {

/// Socket-level failure (connect/bind/accept/IO). Distinct from WireError
/// so callers can tell "peer unreachable" from "peer speaks garbage".
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// RAII file descriptor for a connected TCP stream (TCP_NODELAY set — the
/// round protocol is latency-bound request/response, not bulk transfer).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept : fd_(other.release()) {}
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Blocking connect to host:port. Throws TransportError on failure.
  [[nodiscard]] static Socket connect(const std::string& host,
                                      std::uint16_t port);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  /// Shuts down both directions, waking any thread blocked in recv/send on
  /// this socket. Safe to call from another thread; idempotent.
  void shutdown() noexcept;
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Listening TCP socket bound to 127.0.0.1 (the control plane is expected
/// to run behind a private network; wildcard binding is opt-in).
class Listener {
 public:
  /// Binds and listens; `port` 0 picks an ephemeral port (see port()).
  explicit Listener(std::uint16_t port, bool loopback_only = true);

  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Blocks until a peer connects or interrupt() is called (then throws
  /// TransportError).
  [[nodiscard]] Socket accept();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Unblocks a pending accept() and fails all future ones. Safe to call
  /// from another thread while accept() blocks: it never closes a
  /// descriptor accept() reads — both stay open until ~Listener.
  void interrupt() noexcept;

 private:
  Socket socket_;
  /// eventfd polled next to the listening socket; interrupt() writes it.
  int wake_fd_ = -1;
  std::atomic<bool> interrupted_{false};
  std::uint16_t port_ = 0;
};

class Connection {
 public:
  struct Config {
    /// Outbox bound in frames; send() blocks when full (peer stalled).
    std::size_t outbox_capacity = 4096;
    /// > 0: the maintenance thread sends kPing at this cadence.
    std::chrono::milliseconds ping_interval{0};
    /// > 0: fail the connection when no frame arrived for this long.
    std::chrono::milliseconds idle_timeout{0};
    /// Optional transport metrics (DESIGN.md §12): per-message-type frame
    /// and byte counters (tx at enqueue, rx at decode) plus a heartbeat
    /// RTT histogram. The registry must outlive the connection; counters
    /// are get-or-create by name, so successive connections of one process
    /// continue the same series.
    obs::MetricsRegistry* metrics = nullptr;
    std::string metrics_prefix = "lorasched_net";
    /// > 0: the maintenance thread calls `tick_hook` at this cadence (the
    /// metrics-push piggyback). The hook runs on the maintenance thread
    /// and must not block on this connection's outbox being full — use
    /// try_send(), which sheds instead of waiting, so a stalled peer can
    /// never wedge the failure detector behind its own full outbox.
    std::chrono::milliseconds hook_interval{0};
    std::function<void()> tick_hook;
  };

  using FrameHandler = std::function<void(Frame&&)>;
  using CloseHandler = std::function<void(const std::string& reason)>;

  /// Takes ownership of a connected socket and starts the reader/writer
  /// threads. `on_frame` runs on the reader thread (do not block it on the
  /// network); `on_close` runs exactly once, from whichever thread detects
  /// the failure.
  Connection(Socket socket, Config config, FrameHandler on_frame,
             CloseHandler on_close);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Enqueues a frame; returns false if the connection already failed.
  /// Blocks while the outbox is full (backpressure against a stalled
  /// peer) — never call it from the reader or maintenance thread.
  bool send(MsgType type, const std::vector<std::uint8_t>& payload)
      EXCLUDES(outbox_mutex_);

  /// Non-blocking send: returns false without enqueuing when the
  /// connection failed OR the outbox is full (counted in
  /// sends_shed_full()). The only send the transport's own threads may
  /// use — the reader answers pings with it and the maintenance hook
  /// pushes metrics through it, so liveness machinery keeps running when
  /// a stalled peer has filled the outbox (a dropped heartbeat just
  /// brings the idle timeout closer, which is the correct outcome).
  bool try_send(MsgType type, const std::vector<std::uint8_t>& payload)
      EXCLUDES(outbox_mutex_);

  /// Blocks until every frame accepted by send() has been written to the
  /// socket, the connection failed, or `budget` elapsed — whichever comes
  /// first. Destroying a Connection fails it immediately, dropping queued
  /// frames; a sender whose last frame must actually reach the peer (the
  /// leader's final Shutdown) drains before tearing down.
  void drain(std::chrono::milliseconds budget) EXCLUDES(outbox_mutex_);

  [[nodiscard]] bool open() const noexcept {
    return !failed_.load(std::memory_order_acquire);
  }
  /// Fails the connection with a reason (runs the close handler once).
  /// Never call it holding the outbox lock: it takes that lock to publish
  /// the failure to the waiting writer and senders.
  void fail(const std::string& reason) noexcept EXCLUDES(outbox_mutex_);

  // Lifetime traffic counters (relaxed; exported as RPC metrics).
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept {
    return bytes_received_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_sent() const noexcept {
    return frames_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_received() const noexcept {
    return frames_received_.load(std::memory_order_relaxed);
  }
  /// Frames a transport-internal try_send() shed because the outbox was
  /// full (pings, pongs, maintenance-hook pushes).
  [[nodiscard]] std::uint64_t sends_shed_full() const noexcept {
    return sends_shed_full_.load(std::memory_order_relaxed);
  }
  /// Time since the last frame (or byte) arrived from the peer — the
  /// /healthz "last heartbeat age".
  [[nodiscard]] std::chrono::nanoseconds last_rx_age() const noexcept;

 private:
  void reader_main() EXCLUDES(outbox_mutex_);
  void writer_main() EXCLUDES(outbox_mutex_);
  void maintenance_main() EXCLUDES(outbox_mutex_);
  void register_metrics();
  bool enqueue(MsgType type, std::vector<std::uint8_t> bytes)
      EXCLUDES(outbox_mutex_);
  bool try_enqueue(MsgType type, std::vector<std::uint8_t> bytes)
      EXCLUDES(outbox_mutex_);
  bool push_locked(MsgType type, std::vector<std::uint8_t>&& bytes,
                   std::size_t encoded_size) REQUIRES(outbox_mutex_);

  Socket socket_;
  Config config_;
  FrameHandler on_frame_;
  CloseHandler on_close_;

  util::Mutex outbox_mutex_;
  util::CondVar outbox_cv_;    // writer waits for work
  util::CondVar outbox_room_;  // senders wait for space or drain
  std::deque<std::vector<std::uint8_t>> outbox_ GUARDED_BY(outbox_mutex_);
  /// Frames accepted by send() but not yet written to the socket;
  /// drain() waits for zero.
  std::size_t in_flight_ GUARDED_BY(outbox_mutex_) = 0;

  std::atomic<bool> failed_{false};
  std::atomic<bool> stopping_{false};
  std::once_flag close_once_;

  std::atomic<std::int64_t> last_rx_ns_{0};  // steady_clock since epoch
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> sends_shed_full_{0};

  // Per-message-type counters, indexed by the raw MsgType byte (null when
  // Config.metrics is unset). Registered once in the constructor; the hot
  // path is a single relaxed add.
  static constexpr std::size_t kTypeSlots =
      static_cast<std::size_t>(MsgType::kBidStreamEnd) + 1;
  std::array<obs::Counter*, kTypeSlots> tx_frames_{};
  std::array<obs::Counter*, kTypeSlots> tx_bytes_{};
  std::array<obs::Counter*, kTypeSlots> rx_frames_{};
  std::array<obs::Counter*, kTypeSlots> rx_bytes_{};
  obs::Histogram* rtt_hist_ = nullptr;
  std::atomic<std::int64_t> last_ping_sent_ns_{0};

  /// maint_mutex_ guards no data — it only carries maint_cv_, the
  /// maintenance thread's interruptible sleep (fail() notifies it).
  util::Mutex maint_mutex_;
  util::CondVar maint_cv_;

  std::thread reader_;
  std::thread writer_;
  std::thread maintenance_;
};

/// Outbound connect retried with exponential backoff: `attempts` tries,
/// pausing `initial_backoff` then doubling (capped at 5 s). Throws
/// TransportError when every attempt failed.
[[nodiscard]] Socket connect_with_backoff(
    const std::string& host, std::uint16_t port, int attempts,
    std::chrono::milliseconds initial_backoff);

}  // namespace lorasched::net
