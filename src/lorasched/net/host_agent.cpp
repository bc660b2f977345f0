#include "lorasched/net/host_agent.h"

#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "lorasched/obs/cluster_trace.h"
#include "lorasched/obs/federation.h"

namespace lorasched::net {

// --- Worker -----------------------------------------------------------------

/// One assigned shard's server loop: a queue of frames fed by the reader
/// thread, drained by a dedicated thread that owns the ShardRunner. Any
/// exception while processing a request is shipped back as kError — the
/// leader rethrows it with the shard id attached.
class HostAgent::Worker {
 public:
  Worker(HostAgent& agent, int shard_id)
      : agent_(agent),
        shard_id_(shard_id),
        thread_(&Worker::main, this) {}

  ~Worker() {
    stop();
    if (thread_.joinable()) thread_.join();
  }

  void stop() EXCLUDES(mutex_) {
    {
      util::MutexLock lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
  }

  void enqueue(Frame&& frame) EXCLUDES(mutex_) {
    {
      util::MutexLock lock(mutex_);
      queue_.push_back(std::move(frame));
    }
    cv_.notify_all();
  }

 private:
  [[nodiscard]] std::optional<Frame> pop() EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    while (!stop_ && queue_.empty()) cv_.wait(lock);
    if (stop_) return std::nullopt;
    Frame frame = std::move(queue_.front());
    queue_.pop_front();
    return frame;
  }

  void main() {
    for (;;) {
      std::optional<Frame> frame = pop();
      if (!frame.has_value()) return;
      try {
        process(std::move(*frame));
      } catch (const std::exception& e) {
        agent_.send(MsgType::kError, encode(ErrorMsg{shard_id_, e.what()}));
      }
    }
  }

  shard::ShardRunner& runner() {
    if (runner_ == nullptr) {
      throw std::runtime_error("shard " + std::to_string(shard_id_) +
                               " is not assigned");
    }
    return *runner_;
  }

  void process(Frame&& frame) {
    switch (frame.type) {
      case MsgType::kAssignShard: {
        const AssignShardMsg m = decode_assign_shard(frame.payload);
        runner_ = std::make_unique<shard::ShardRunner>(
            m.shard_id, agent_.env_.cluster, m.members, agent_.env_.energy,
            agent_.env_.market, agent_.env_.horizon, agent_.factory_(m),
            *agent_.board(), m.time_decisions);
        // Same metric names every session → the same counters continue,
        // so federated series stay monotone across leader reconnects.
        runner_->register_dp_metrics(agent_.shard_registry(shard_id_));
        agent_.send(MsgType::kAssignAck, encode(AssignAckMsg{shard_id_}));
        return;
      }
      case MsgType::kBlockCells: {
        const BlockCellsMsg m = decode_block_cells(frame.payload);
        for (const auto& [node, slot] : m.cells) runner().block(node, slot);
        agent_.send(MsgType::kBlockAck, encode(BlockAckMsg{shard_id_}));
        return;
      }
      case MsgType::kBeginRound: {
        (void)runner();
        do_round(decode_begin_round(frame.payload));
        return;
      }
      case MsgType::kPublishRequest: {
        const PublishRequestMsg m = decode_publish_request(frame.payload);
        runner().publish(m.from);
        PublishReplyMsg reply;
        reply.shard_id = shard_id_;
        reply.snapshot = agent_.board_read(shard_id_);
        agent_.send(MsgType::kPublishReply, encode(reply));
        return;
      }
      case MsgType::kStateRequest: {
        const shard::ShardState st = runner().state();
        StateReplyMsg reply;
        reply.shard_id = shard_id_;
        reply.state =
            ShardWireState{st.booked_compute, st.policy_state, st.ledger};
        agent_.send(MsgType::kStateReply, encode(reply));
        return;
      }
      case MsgType::kRestoreState: {
        const RestoreStateMsg m = decode_restore_state(frame.payload);
        runner().restore_state(shard::ShardState{m.state.booked_compute,
                                                 m.state.policy_state,
                                                 m.state.ledger});
        agent_.send(MsgType::kRestoreAck, encode(RestoreAckMsg{shard_id_}));
        return;
      }
      default:
        throw std::runtime_error(std::string("unexpected frame ") +
                                 to_string(frame.type) +
                                 " outside a round");
    }
  }

  void do_round(const BeginRoundMsg& m) {
    // Collect every expected offer BEFORE arming the runner: a leader that
    // dies mid-feed then never touches the runner, so its state stays at
    // the last completed round (exactly what a reconnecting leader's
    // restore assumes).
    std::vector<OfferMsg> offers;
    offers.reserve(static_cast<std::size_t>(m.expected));
    while (offers.size() < m.expected) {
      std::optional<Frame> frame = pop();
      if (!frame.has_value()) return;  // session teardown mid-feed
      if (frame->type != MsgType::kOffer) {
        throw std::runtime_error(
            std::string("expected an offer during the round, got ") +
            to_string(frame->type));
      }
      offers.push_back(decode_offer(frame->payload));
    }
    // Tracing (DESIGN.md §12) is observation-only: the context is read,
    // never consulted by the decision path below.
    const bool traced = !offers.empty() && offers.front().trace_id != 0;
    const auto round_start = std::chrono::steady_clock::now();
    shard::ShardRunner& r = runner();
    r.begin_round(m.slot, static_cast<std::size_t>(m.expected));
    for (OfferMsg& offer : offers) r.offer(std::move(offer.task));
    const std::vector<shard::RoundResult>& results = r.wait_round();
    const auto round_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - round_start)
                              .count();
    RoundResultsMsg out;
    out.shard_id = shard_id_;
    out.slot = m.slot;
    out.results.reserve(results.size());
    for (const shard::RoundResult& res : results) {
      WireDecision d;
      d.task = res.task.id;
      d.admit = res.decision.admit;
      d.payment = res.decision.payment;
      d.decide_seconds = res.decide_seconds;
      if (d.admit) d.schedule = res.decision.schedule;
      out.results.push_back(std::move(d));
    }
    if (traced) {
      // One round span parented to the leader's bid span, plus one decide
      // span per bid. The shard decides bids sequentially, so cumulative
      // decide_seconds offsets recover the in-round timeline.
      const std::uint64_t trace_id = offers.front().trace_id;
      const std::uint64_t round_span =
          obs::trace_mix(offers.front().parent_span, 1);
      out.spans.push_back(obs::RemoteSpan{"agent_round", -1, trace_id,
                                          round_span,
                                          offers.front().parent_span, 0,
                                          round_ns});
      std::int64_t offset_ns = 0;
      for (const shard::RoundResult& res : results) {
        const auto decide_ns =
            static_cast<std::int64_t>(res.decide_seconds * 1e9);
        out.spans.push_back(obs::RemoteSpan{
            "decide", res.task.id, trace_id,
            obs::trace_mix(round_span,
                           static_cast<std::uint64_t>(res.task.id) + 1),
            round_span, offset_ns, decide_ns});
        offset_ns += decide_ns;
      }
    }
    // The runner already republished (from = slot + 1); ship the fresh
    // summary with the results so the leader's board update is part of the
    // round, not a separate race.
    out.snapshot = agent_.board_read(shard_id_);
    agent_.send(MsgType::kRoundResults, encode(out));
  }

  HostAgent& agent_;
  const int shard_id_;
  /// Worker-thread-only (created and used inside process()); deliberately
  /// unguarded — the runner has its own internal locking.
  std::unique_ptr<shard::ShardRunner> runner_;

  util::Mutex mutex_;
  util::CondVar cv_;
  std::deque<Frame> queue_ GUARDED_BY(mutex_);
  bool stop_ GUARDED_BY(mutex_) = false;
  std::thread thread_;
};

// --- HostAgent --------------------------------------------------------------

HostAgent::HostAgent(Instance env, Config config, FactoryBuilder factory)
    : env_(std::move(env)),
      config_(config),
      factory_(std::move(factory)),
      digest_(env_digest(env_.cluster, env_.market, env_.horizon)) {
  if (!factory_) {
    factory_ = [](const AssignShardMsg& m) {
      PdftspConfig policy;
      policy.alpha = m.alpha;
      policy.beta = m.beta;
      policy.welfare_unit = m.welfare_unit;
      policy.share_options = m.share_options;
      return shard::make_pdftsp_factory(policy);
    };
  }
}

HostAgent::~HostAgent() { stop(); }

void HostAgent::start() {
  if (running_.load(std::memory_order_acquire)) return;
  listener_ = std::make_unique<Listener>(config_.port);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  {
    util::MutexLock lock(session_mutex_);
    session_closed_ = true;
  }
  accept_thread_ = std::thread(&HostAgent::accept_main, this);
}

void HostAgent::stop() {
  stopping_.store(true, std::memory_order_release);
  if (listener_ != nullptr) listener_->interrupt();
  // Wake serve()'s session wait (its predicate checks stopping_); the
  // accept thread then tears the live connection down itself — touching
  // conn_ from here would race that teardown.
  {
    util::MutexLock lock(session_mutex_);
  }
  session_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
}

void HostAgent::wait() {
  util::MutexLock lock(session_mutex_);
  while (running_.load(std::memory_order_acquire)) session_cv_.wait(lock);
}

std::uint16_t HostAgent::port() const {
  return listener_ != nullptr ? listener_->port() : 0;
}

void HostAgent::accept_main() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Socket peer;
    try {
      peer = listener_->accept();
    } catch (const TransportError&) {
      break;  // interrupted (stop/shutdown) or listener died
    }
    serve(std::move(peer));
  }
  running_.store(false, std::memory_order_release);
  {
    util::MutexLock lock(session_mutex_);
  }
  session_cv_.notify_all();
}

void HostAgent::serve(Socket socket) {
  sessions_.fetch_add(1, std::memory_order_relaxed);
  {
    util::MutexLock lock(workers_mutex_);
    accepting_frames_ = true;
    got_hello_ = false;
  }
  {
    util::MutexLock lock(session_mutex_);
    session_closed_ = false;
    conn_published_ = false;
  }
  Connection::Config cc;
  cc.ping_interval = config_.ping_interval;
  cc.idle_timeout = config_.idle_timeout;
  cc.metrics = &agent_registry_;
  if (config_.metrics_push_interval.count() > 0) {
    // The push rides the maintenance thread; the teardown below joins
    // that thread before the session state goes away.
    cc.hook_interval = config_.metrics_push_interval;
    cc.tick_hook = [this] { push_metrics(); };
  }
  auto conn = std::make_unique<Connection>(
      std::move(socket), cc,
      [this](Frame&& f) {
        // Hold the first frames until serve() has published conn_ — the
        // handshake reply must not race the assignment below.
        {
          util::MutexLock lock(session_mutex_);
          while (!conn_published_) session_cv_.wait(lock);
        }
        handle_frame(std::move(f));
      },
      [this](const std::string&) {
        {
          util::MutexLock lock(session_mutex_);
          session_closed_ = true;
        }
        session_cv_.notify_all();
      });
  {
    util::MutexLock lock(session_mutex_);
    conn_ = std::move(conn);
    conn_published_ = true;
  }
  session_cv_.notify_all();
  {
    util::MutexLock lock(session_mutex_);
    while (!session_closed_ && !stopping_.load(std::memory_order_acquire)) {
      session_cv_.wait(lock);
    }
  }
  // Teardown order matters: workers may still be mid-round and sending —
  // stop and join them while conn_ is alive, then drop the connection,
  // then the board the runners publish into. The joins run OUTSIDE
  // workers_mutex_: a worker mid-round fetches the board through board()
  // (which takes workers_mutex_), so joining under the lock would
  // deadlock against the very threads being joined.
  std::map<int, std::unique_ptr<Worker>> dead_workers;
  {
    util::MutexLock lock(workers_mutex_);
    accepting_frames_ = false;
    for (auto& [shard, worker] : workers_) {
      (void)shard;
      worker->stop();
    }
    dead_workers.swap(workers_);
  }
  dead_workers.clear();  // joins every worker thread
  std::unique_ptr<Connection> old_conn;
  {
    util::MutexLock lock(session_mutex_);
    old_conn = std::move(conn_);
  }
  old_conn.reset();  // joins the transport threads outside session_mutex_
  {
    util::MutexLock lock(workers_mutex_);
    board_.reset();
  }
}

void HostAgent::handle_frame(Frame&& frame) {
  // Reader thread. Decode errors thrown here fail the connection.
  if (frame.type == MsgType::kHello) {
    const HelloMsg m = decode_hello(frame.payload);
    if (m.digest != digest_) {
      send(MsgType::kError,
           encode(ErrorMsg{-1, "environment digest mismatch — leader and "
                               "agent run different scenarios"}));
      fail_session("environment digest mismatch");
      return;
    }
    if (m.shards_total <= 0) {
      throw WireError("hello: shards_total must be positive");
    }
    auto board = std::make_unique<shard::PriceBoard>(
        m.shards_total, env_.cluster.class_count());
    {
      util::MutexLock lock(workers_mutex_);
      if (got_hello_) {
        // A second Hello would swap the PriceBoard out from under the
        // session's ShardRunners — they hold references into it. Fail the
        // session; the leader must reconnect for a fresh one.
        throw WireError("duplicate hello within one session");
      }
      board_ = std::move(board);
      got_hello_ = true;
    }
    send(MsgType::kHelloAck, encode(HelloAckMsg{digest_}));
    return;
  }
  if (frame.type == MsgType::kShutdown) {
    stopping_.store(true, std::memory_order_release);
    if (listener_ != nullptr) listener_->interrupt();
    fail_session("shutdown requested by leader");
    return;
  }
  // Everything else is shard-scoped: demux on the leading shard id.
  WireReader peek(frame.payload);
  const int shard = static_cast<int>(peek.get_svarint("shard id"));
  util::MutexLock lock(workers_mutex_);
  if (!accepting_frames_) return;  // session already tearing down
  if (!got_hello_) {
    throw WireError("shard frame before the hello handshake");
  }
  auto it = workers_.find(shard);
  if (it == workers_.end()) {
    if (frame.type != MsgType::kAssignShard) {
      send(MsgType::kError,
           encode(ErrorMsg{shard, "message for an unassigned shard"}));
      return;
    }
    it = workers_.emplace(shard, std::make_unique<Worker>(*this, shard)).first;
  }
  it->second->enqueue(std::move(frame));
}

Connection* HostAgent::connection() const {
  util::MutexLock lock(session_mutex_);
  return conn_.get();
}

shard::PriceBoard* HostAgent::board() const {
  util::MutexLock lock(workers_mutex_);
  return board_.get();
}

bool HostAgent::send(MsgType type, const std::vector<std::uint8_t>& payload) {
  Connection* c = connection();
  return c != nullptr && c->send(type, payload);
}

void HostAgent::fail_session(const std::string& reason) {
  Connection* c = connection();
  if (c != nullptr) c->fail(reason);
}

shard::PriceSnapshot HostAgent::board_read(int shard) const {
  return board()->read(shard);
}

obs::MetricsRegistry& HostAgent::shard_registry(int shard) {
  util::MutexLock lock(registries_mutex_);
  auto it = shard_registries_.find(shard);
  if (it == shard_registries_.end()) {
    it = shard_registries_
             .emplace(shard, std::make_unique<obs::MetricsRegistry>())
             .first;
  }
  return *it->second;
}

std::vector<int> HostAgent::assigned_shards() const {
  util::MutexLock lock(registries_mutex_);
  std::vector<int> shards;
  shards.reserve(shard_registries_.size());
  for (const auto& [shard, registry] : shard_registries_) {
    (void)registry;
    shards.push_back(shard);
  }
  return shards;
}

void HostAgent::write_metrics(std::ostream& out) const {
  agent_registry_.write_prometheus(out);
  util::MutexLock lock(registries_mutex_);
  // Shard registries repeat metric names across shards (by design — the
  // series differ only in the shard label), so each name's HELP/TYPE
  // header is emitted once.
  std::set<std::string> seen;
  for (const auto& [shard, registry] : shard_registries_) {
    const std::vector<std::pair<std::string, std::string>> labels = {
        {"shard", std::to_string(shard)}};
    for (const obs::MetricSnapshot& metric : registry->snapshot()) {
      const bool headers = seen.insert(metric.name).second;
      obs::write_prometheus_labeled(out, {metric}, labels, headers);
    }
  }
}

bool HostAgent::push_metrics() {
  MetricsSnapshotMsg msg;
  msg.agent = config_.name;
  msg.seq = push_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  msg.groups.push_back(obs::MetricsGroup{-1, agent_registry_.snapshot()});
  {
    util::MutexLock lock(registries_mutex_);
    for (const auto& [shard, registry] : shard_registries_) {
      msg.groups.push_back(obs::MetricsGroup{shard, registry->snapshot()});
    }
  }
  // try_send, not send: this runs on the connection's maintenance thread,
  // which must never park behind a full outbox (the same thread drives the
  // idle-timeout failure detector). A shed push is made up for by the next
  // tick — the snapshots are cumulative.
  Connection* c = connection();
  return c != nullptr && c->try_send(MsgType::kMetricsSnapshot, encode(msg));
}

}  // namespace lorasched::net
