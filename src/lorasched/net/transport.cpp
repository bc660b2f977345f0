#include "lorasched/net/transport.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace lorasched::net {

namespace {

[[nodiscard]] std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

[[nodiscard]] std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nodelay(int fd) noexcept {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.release();
  }
  return *this;
}

Socket Socket::connect(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints,
                               &results);
  if (rc != 0) {
    throw TransportError("resolve " + host + ": " + gai_strerror(rc));
  }
  int last_errno = ECONNREFUSED;
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(results);
      set_nodelay(fd);
      return Socket(fd);
    }
    last_errno = errno;
    ::close(fd);
  }
  ::freeaddrinfo(results);
  errno = last_errno;
  throw TransportError(errno_text(("connect " + host + ":" + service)
                                      .c_str()));
}

void Socket::shutdown() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(std::uint16_t port, bool loopback_only) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw TransportError(errno_text("socket"));
  socket_ = Socket(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = loopback_only ? htonl(INADDR_LOOPBACK)
                                       : htonl(INADDR_ANY);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw TransportError(errno_text("bind"));
  }
  if (::listen(fd, 16) != 0) throw TransportError(errno_text("listen"));
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    throw TransportError(errno_text("getsockname"));
  }
  port_ = ntohs(bound.sin_port);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) throw TransportError(errno_text("eventfd"));
}

Listener::~Listener() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

Socket Listener::accept() {
  // Linux accept() does not always wake on shutdown of a listening socket,
  // and closing the fd under it would race this read of it; so wait in
  // poll() on both the socket and the wake eventfd instead.
  while (!interrupted_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{socket_.fd(), POLLIN, 0}, {wake_fd_, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      throw TransportError(errno_text("poll"));
    }
    if (fds[1].revents != 0 || fds[0].revents == 0) continue;
    const int fd = ::accept(socket_.fd(), nullptr, nullptr);
    if (fd < 0) throw TransportError(errno_text("accept"));
    set_nodelay(fd);
    return Socket(fd);
  }
  throw TransportError("accept: listener interrupted");
}

void Listener::interrupt() noexcept {
  interrupted_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
  // Refuse new connections now instead of queueing them on a listener that
  // no longer accepts.
  socket_.shutdown();
}

Connection::Connection(Socket socket, Config config, FrameHandler on_frame,
                       CloseHandler on_close)
    : socket_(std::move(socket)),
      config_(config),
      on_frame_(std::move(on_frame)),
      on_close_(std::move(on_close)) {
  last_rx_ns_.store(now_ns(), std::memory_order_relaxed);
  if (config_.metrics != nullptr) register_metrics();
  reader_ = std::thread(&Connection::reader_main, this);
  writer_ = std::thread(&Connection::writer_main, this);
  if (config_.ping_interval.count() > 0 || config_.idle_timeout.count() > 0 ||
      (config_.hook_interval.count() > 0 && config_.tick_hook)) {
    maintenance_ = std::thread(&Connection::maintenance_main, this);
  }
}

void Connection::register_metrics() {
  obs::MetricsRegistry& reg = *config_.metrics;
  const std::string& prefix = config_.metrics_prefix;
  for (std::size_t raw = static_cast<std::size_t>(MsgType::kHello);
       raw < kTypeSlots; ++raw) {
    const std::string suffix =
        std::string(to_string(static_cast<MsgType>(raw))) + "_total";
    tx_frames_[raw] = &reg.counter(prefix + "_tx_frames_" + suffix,
                                   "Frames enqueued for send, by type");
    tx_bytes_[raw] = &reg.counter(prefix + "_tx_bytes_" + suffix,
                                  "Encoded frame bytes enqueued, by type");
    rx_frames_[raw] = &reg.counter(prefix + "_rx_frames_" + suffix,
                                   "Frames decoded from the peer, by type");
    rx_bytes_[raw] = &reg.counter(prefix + "_rx_bytes_" + suffix,
                                  "Decoded frame bytes received, by type");
  }
  rtt_hist_ = &reg.histogram(
      prefix + "_heartbeat_rtt_seconds",
      obs::HistogramOptions{.min = 1e-6, .max = 10.0},
      "Ping to pong round-trip time");
}

std::chrono::nanoseconds Connection::last_rx_age() const noexcept {
  return std::chrono::nanoseconds(
      now_ns() - last_rx_ns_.load(std::memory_order_relaxed));
}

Connection::~Connection() {
  stopping_.store(true, std::memory_order_release);
  fail("connection destroyed");
  if (reader_.joinable()) reader_.join();
  if (writer_.joinable()) writer_.join();
  if (maintenance_.joinable()) maintenance_.join();
}

void Connection::fail(const std::string& reason) noexcept {
  if (failed_.exchange(true, std::memory_order_acq_rel)) return;
  socket_.shutdown();  // wakes the reader blocked in recv
  // The writer and blocked senders test failed_ under outbox_mutex_ before
  // they wait. Passing through the mutex orders this store against that
  // test — without it a waiter between its check and its wait misses the
  // notify and sleeps forever (and ~Connection joins it forever).
  {
    util::MutexLock lock(outbox_mutex_);
  }
  outbox_cv_.notify_all();
  outbox_room_.notify_all();
  maint_cv_.notify_all();
  if (on_close_) {
    try {
      std::call_once(close_once_, on_close_, reason);
    } catch (...) {
      // A throwing close handler must not take the process down from a
      // transport thread; the failure state is already set.
    }
  }
}

bool Connection::send(MsgType type, const std::vector<std::uint8_t>& payload) {
  if (!open()) return false;
  return enqueue(type, encode_frame(type, payload));
}

bool Connection::try_send(MsgType type,
                          const std::vector<std::uint8_t>& payload) {
  if (!open()) return false;
  return try_enqueue(type, encode_frame(type, payload));
}

bool Connection::push_locked(MsgType type, std::vector<std::uint8_t>&& bytes,
                             std::size_t encoded_size) {
  outbox_.push_back(std::move(bytes));
  ++in_flight_;
  outbox_cv_.notify_one();
  const auto raw = static_cast<std::size_t>(type);
  if (raw < kTypeSlots && tx_frames_[raw] != nullptr) {
    tx_frames_[raw]->add(1);
    tx_bytes_[raw]->add(encoded_size);
  }
  return true;
}

bool Connection::enqueue(MsgType type, std::vector<std::uint8_t> bytes) {
  const std::size_t encoded_size = bytes.size();
  util::MutexLock lock(outbox_mutex_);
  while (!failed_.load(std::memory_order_acquire) &&
         outbox_.size() >= config_.outbox_capacity) {
    outbox_room_.wait(lock);
  }
  if (failed_.load(std::memory_order_acquire)) return false;
  return push_locked(type, std::move(bytes), encoded_size);
}

bool Connection::try_enqueue(MsgType type, std::vector<std::uint8_t> bytes) {
  const std::size_t encoded_size = bytes.size();
  util::MutexLock lock(outbox_mutex_);
  if (failed_.load(std::memory_order_acquire)) return false;
  if (outbox_.size() >= config_.outbox_capacity) {
    // Shedding instead of waiting keeps the reader and maintenance
    // threads live while a stalled peer backs the outbox up; the missed
    // heartbeat only hastens the idle timeout that stall deserves.
    sends_shed_full_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return push_locked(type, std::move(bytes), encoded_size);
}

void Connection::drain(std::chrono::milliseconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  util::MutexLock lock(outbox_mutex_);
  while (!failed_.load(std::memory_order_acquire) && in_flight_ != 0) {
    if (outbox_room_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return;
    }
  }
}

void Connection::writer_main() {
  for (;;) {
    std::vector<std::uint8_t> bytes;
    {
      util::MutexLock lock(outbox_mutex_);
      while (!failed_.load(std::memory_order_acquire) && outbox_.empty()) {
        outbox_cv_.wait(lock);
      }
      if (failed_.load(std::memory_order_acquire)) return;
      bytes = std::move(outbox_.front());
      outbox_.pop_front();
      outbox_room_.notify_one();
    }
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n =
          ::send(socket_.fd(), bytes.data() + written, bytes.size() - written,
                 MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        fail(errno_text("send"));
        return;
      }
      written += static_cast<std::size_t>(n);
    }
    bytes_sent_.fetch_add(bytes.size(), std::memory_order_relaxed);
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    {
      util::MutexLock lock(outbox_mutex_);
      --in_flight_;
      outbox_room_.notify_all();  // wakes drain() as well as blocked senders
    }
  }
}

void Connection::reader_main() {
  FrameDecoder decoder;
  std::uint8_t chunk[16 * 1024];
  Frame frame;
  for (;;) {
    const ssize_t n = ::recv(socket_.fd(), chunk, sizeof(chunk), 0);
    if (n == 0) {
      fail("peer closed the connection");
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(stopping_.load(std::memory_order_acquire) ? "connection destroyed"
                                                     : errno_text("recv"));
      return;
    }
    bytes_received_.fetch_add(static_cast<std::uint64_t>(n),
                              std::memory_order_relaxed);
    last_rx_ns_.store(now_ns(), std::memory_order_relaxed);
    try {
      decoder.feed(chunk, static_cast<std::size_t>(n));
      while (decoder.next(frame)) {
        frames_received_.fetch_add(1, std::memory_order_relaxed);
        const auto raw = static_cast<std::size_t>(frame.type);
        if (raw < kTypeSlots && rx_frames_[raw] != nullptr) {
          rx_frames_[raw]->add(1);
          rx_bytes_[raw]->add(frame.payload.size());
        }
        if (frame.type == MsgType::kPing) {
          // Transport-level heartbeat: answer in kind, don't surface. The
          // reply must not block the reader — a full outbox (peer stalled)
          // previously parked the reader here, which froze rx entirely and
          // could deadlock two mutually-stalled peers; shed instead.
          try_enqueue(MsgType::kPong,
                      encode_frame(MsgType::kPong, frame.payload));
          continue;
        }
        if (frame.type == MsgType::kPong) {  // liveness refreshed
          const std::int64_t sent =
              last_ping_sent_ns_.exchange(0, std::memory_order_relaxed);
          if (sent != 0 && rtt_hist_ != nullptr) {
            rtt_hist_->record(static_cast<double>(now_ns() - sent) * 1e-9);
          }
          continue;
        }
        if (on_frame_) on_frame_(std::move(frame));
      }
    } catch (const WireError& e) {
      fail(e.what());
      return;
    } catch (const std::exception& e) {
      fail(std::string("frame handler: ") + e.what());
      return;
    }
  }
}

void Connection::maintenance_main() {
  auto tick = std::chrono::milliseconds::max();
  if (config_.ping_interval.count() > 0) {
    tick = std::min(tick, config_.ping_interval);
  }
  if (config_.idle_timeout.count() > 0) {
    tick = std::min(tick, config_.idle_timeout / 4);
  }
  if (config_.hook_interval.count() > 0 && config_.tick_hook) {
    tick = std::min(tick, config_.hook_interval);
  }
  auto last_ping = std::chrono::steady_clock::now();
  auto last_hook = last_ping;
  util::MutexLock lock(maint_mutex_);
  while (!failed_.load(std::memory_order_acquire)) {
    maint_cv_.wait_for(lock, tick);
    if (failed_.load(std::memory_order_acquire)) return;
    const auto now = std::chrono::steady_clock::now();
    if (config_.idle_timeout.count() > 0) {
      const auto last_rx = std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(
              last_rx_ns_.load(std::memory_order_relaxed)));
      if (now - last_rx > config_.idle_timeout) {
        fail("peer silent past the idle timeout (heartbeat lost)");
        return;
      }
    }
    if (config_.ping_interval.count() > 0 &&
        now - last_ping >= config_.ping_interval) {
      last_ping = now;
      last_ping_sent_ns_.store(now_ns(), std::memory_order_relaxed);
      // Never block the failure detector on a full outbox: a blocking
      // enqueue() here meant a stalled peer stopped this loop — and with
      // it the idle-timeout check — exactly when detection mattered most.
      if (!try_enqueue(MsgType::kPing, encode_frame(MsgType::kPing, {}))) {
        last_ping_sent_ns_.store(0, std::memory_order_relaxed);
      }
    }
    if (config_.hook_interval.count() > 0 && config_.tick_hook &&
        now - last_hook >= config_.hook_interval) {
      last_hook = now;
      // The metrics-push piggyback (DESIGN.md §12); runs unlocked so the
      // hook may call send() on this connection.
      lock.unlock();
      try {
        config_.tick_hook();
      } catch (...) {
        // An observability hook must never take the transport down.
      }
      lock.lock();
    }
  }
}

Socket connect_with_backoff(const std::string& host, std::uint16_t port,
                            int attempts,
                            std::chrono::milliseconds initial_backoff) {
  std::string last_error = "no attempts made";
  auto pause = initial_backoff;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(pause);
      pause = std::min(pause * 2, std::chrono::milliseconds(5000));
    }
    try {
      return Socket::connect(host, port);
    } catch (const TransportError& e) {
      last_error = e.what();
    }
  }
  throw TransportError("connect to " + host + ":" + std::to_string(port) +
                       " failed after " + std::to_string(attempts) +
                       " attempts: " + last_error);
}

}  // namespace lorasched::net
