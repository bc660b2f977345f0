#include "lorasched/net/remote_shard.h"

#include <stdexcept>
#include <utility>

namespace lorasched::net {

using shard::ShardUnavailable;

AgentLink::AgentLink(LinkConfig config, HelloMsg hello)
    : config_(std::move(config)), hello_(hello) {
  if (config_.metrics != nullptr) {
    reconnects_total_ = &config_.metrics->counter(
        "lorasched_net_reconnects_total",
        "Successful link re-dials after a drop");
    rpc_timeouts_total_ = &config_.metrics->counter(
        "lorasched_net_rpc_timeouts_total",
        "RPCs that failed the link on a missed reply deadline");
  }
}

AgentLink::~AgentLink() {
  std::unique_ptr<Connection> old;
  {
    util::MutexLock lock(conn_mutex_);
    old = std::move(conn_);
  }
  // `old` joins the transport threads here, outside conn_mutex_, so a
  // concurrent health() scrape is never parked behind the join.
}

Connection* AgentLink::connection() const {
  util::MutexLock lock(conn_mutex_);
  return conn_.get();
}

bool AgentLink::open() const noexcept {
  util::MutexLock lock(conn_mutex_);
  return conn_ != nullptr && conn_->open();
}

std::string AgentLink::last_error() const {
  util::MutexLock lock(mutex_);
  return last_error_;
}

void AgentLink::connect() { dial_and_handshake(); }

void AgentLink::dial_and_handshake() {
  {
    std::unique_ptr<Connection> old;
    {
      util::MutexLock lock(conn_mutex_);
      old = std::move(conn_);
    }
    // Destroying `old` joins the dropped transport's threads; done outside
    // conn_mutex_ (see ~AgentLink).
  }
  {
    util::MutexLock lock(mutex_);
    mail_.clear();
    last_error_.clear();
  }
  Socket socket = connect_with_backoff(config_.host, config_.port,
                                       config_.connect_attempts,
                                       config_.connect_backoff);
  Connection::Config cc;
  cc.ping_interval = config_.ping_interval;
  cc.idle_timeout = config_.heartbeat_timeout;
  cc.metrics = config_.metrics;
  auto conn = std::make_unique<Connection>(
      std::move(socket), cc, [this](Frame&& f) { on_frame(std::move(f)); },
      [this](const std::string& reason) {
        util::MutexLock lock(mutex_);
        if (last_error_.empty()) last_error_ = reason;
        mail_cv_.notify_all();
      });
  Connection* raw = conn.get();
  {
    util::MutexLock lock(conn_mutex_);
    conn_ = std::move(conn);
  }
  if (!raw->send(MsgType::kHello, encode(hello_))) {
    throw TransportError("hello send failed: " + last_error());
  }
  const Frame ack = take_or_wait(
      -1, MsgType::kHelloAck,
      std::chrono::steady_clock::now() + config_.rpc_timeout,
      "hello handshake");
  const HelloAckMsg reply = decode_hello_ack(ack.payload);
  if (reply.digest != hello_.digest) {
    raw->fail("environment digest mismatch");
    throw std::runtime_error(
        "host-agent environment digest mismatch — leader and agent were "
        "launched with different scenarios");
  }
}

void AgentLink::on_frame(Frame&& frame) {
  // Reader thread. kMetricsSnapshot is agent-scoped — its payload leads
  // with the agent name, not a shard id — so it must bypass the shard-id
  // peek below. Decode and hand off right here; a malformed push throws
  // WireError, which the transport turns into a link failure.
  if (frame.type == MsgType::kMetricsSnapshot) {
    MetricsSnapshotMsg msg = decode_metrics_snapshot(frame.payload);
    std::function<void(MetricsSnapshotMsg&&)> sink;
    {
      util::MutexLock lock(mutex_);
      sink = metrics_sink_;
    }
    if (sink) sink(std::move(msg));
    return;
  }
  // Route by the leading shard id every shard-scoped reply
  // carries; HelloAck is connection-scoped (shard -1). A malformed prefix
  // throws WireError, which the transport turns into a link failure.
  int shard = -1;
  if (frame.type != MsgType::kHelloAck) {
    WireReader r(frame.payload);
    shard = static_cast<int>(r.get_svarint("reply shard id"));
  }
  util::MutexLock lock(mutex_);
  mail_[shard].push_back(std::move(frame));
  mail_cv_.notify_all();
}

Frame AgentLink::take_or_wait(int shard, MsgType want,
                              std::chrono::steady_clock::time_point deadline,
                              const char* what) {
  util::MutexLock lock(mutex_);
  for (;;) {
    std::deque<Frame>& box = mail_[shard];
    for (auto it = box.begin(); it != box.end(); ++it) {
      if (it->type != want && it->type != MsgType::kError) continue;
      Frame frame = std::move(*it);
      box.erase(it);
      if (frame.type == MsgType::kError) {
        lock.unlock();
        const ErrorMsg error = decode_error(frame.payload);
        // The shard hit a contract violation (policy bug, bad request) —
        // the same class of failure an in-process runner rethrows from
        // wait_round(); surface it identically.
        throw std::logic_error("host-agent error (shard " +
                               std::to_string(error.shard_id) +
                               "): " + error.message);
      }
      return frame;
    }
    // Link-down test via last_error_, not the transport: the close handler
    // sets it under mutex_ and notifies mail_cv_, so a failure mid-wait
    // wakes us with the reason already posted — and mutex_ never nests
    // with conn_mutex_ (DESIGN.md §13). A link that dropped before the
    // handler ran just waits the one extra wakeup.
    if (!last_error_.empty()) {
      throw ShardUnavailable(std::string(what) +
                             ": link down: " + last_error_);
    }
    if (mail_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      // Check once more — the reply may have raced the deadline.
      bool present = false;
      for (const Frame& f : mail_[shard]) {
        present = present || f.type == want || f.type == MsgType::kError;
      }
      if (present) continue;
      lock.unlock();
      rpc_timeouts_.fetch_add(1, std::memory_order_relaxed);
      if (rpc_timeouts_total_ != nullptr) rpc_timeouts_total_->add(1);
      // Fail the whole link: a reply arriving after we gave up must never
      // be delivered to a later request. No lock is held here, so the
      // close handler (which takes mutex_) may run synchronously.
      if (Connection* c = connection()) {
        c->fail(std::string(what) + ": no reply within the rpc timeout");
      }
      throw ShardUnavailable(std::string(what) +
                             ": no reply within the rpc timeout");
    }
  }
}

Frame AgentLink::call(int shard, MsgType type,
                      const std::vector<std::uint8_t>& payload,
                      MsgType want) {
  post(type, payload);
  return take_or_wait(shard, want,
                      std::chrono::steady_clock::now() + config_.rpc_timeout,
                      to_string(type));
}

void AgentLink::post(MsgType type, const std::vector<std::uint8_t>& payload) {
  Connection* c = connection();
  if (c == nullptr || !c->send(type, payload)) {
    throw ShardUnavailable(std::string(to_string(type)) +
                           ": link down: " + last_error());
  }
}

Frame AgentLink::wait(int shard, MsgType want) {
  return take_or_wait(shard, want,
                      std::chrono::steady_clock::now() + config_.rpc_timeout,
                      to_string(want));
}

bool AgentLink::ensure_open() {
  if (open()) return true;
  bool dialed = false;
  for (int attempt = 0; attempt < config_.reconnect_attempts; ++attempt) {
    try {
      dial_and_handshake();
      dialed = true;
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      if (reconnects_total_ != nullptr) reconnects_total_->add(1);
      break;
    } catch (const std::exception&) {
      // Backoff lives inside connect_with_backoff; try the full dial again.
    }
  }
  if (!dialed || !open()) return false;
  // Fresh session on the agent: re-assign and restore every handle, in
  // shard order (the map is ordered).
  for (auto& [shard, resync] : resyncs_) {
    (void)shard;
    resync();
  }
  return open();
}

void AgentLink::register_resync(int shard, std::function<void()> resync) {
  resyncs_[shard] = std::move(resync);
}

void AgentLink::set_metrics_sink(
    std::function<void(MetricsSnapshotMsg&&)> sink) {
  util::MutexLock lock(mutex_);
  metrics_sink_ = std::move(sink);
}

AgentLink::Health AgentLink::health() const {
  // Scrape thread: takes the two mutexes one after the other, never
  // nested. conn_->open()/last_rx_age() are atomic reads, safe to call
  // while holding conn_mutex_ (they take no lock of their own).
  Health h;
  {
    util::MutexLock lock(conn_mutex_);
    h.open = conn_ != nullptr && conn_->open();
    if (conn_ != nullptr) h.last_rx_age_ns = conn_->last_rx_age().count();
  }
  h.last_error = last_error();
  h.reconnects = reconnects_.load(std::memory_order_relaxed);
  h.rpc_timeouts = rpc_timeouts_.load(std::memory_order_relaxed);
  return h;
}

void AgentLink::send_shutdown() {
  Connection* c = connection();
  if (c == nullptr) return;
  if (!c->send(MsgType::kShutdown, {})) return;
  // send() only enqueues; the caller typically destroys the link right
  // after, which drops unwritten frames. Linger until the frame actually
  // reached the socket so the agent really gets told to exit.
  c->drain(std::chrono::milliseconds(1000));
}

// --- RemoteShardHandle ------------------------------------------------------

RemoteShardHandle::RemoteShardHandle(std::shared_ptr<AgentLink> link,
                                     const PdftspConfig& policy, int shard_id,
                                     std::vector<NodeId> members,
                                     const shard::ShardContext& ctx)
    : link_(std::move(link)),
      shard_id_(shard_id),
      to_global_(std::move(members)),
      horizon_(ctx.horizon),
      board_(ctx.board) {
  compute_caps_.reserve(to_global_.size());
  for (const NodeId node : to_global_) {
    compute_caps_.push_back(ctx.fleet.compute_capacity(node));
  }
  assignment_.shard_id = shard_id_;
  assignment_.members = to_global_;
  assignment_.alpha = policy.alpha;
  assignment_.beta = policy.beta;
  assignment_.welfare_unit = policy.welfare_unit;
  assignment_.share_options = policy.share_options;
  assignment_.time_decisions = ctx.config.time_decisions;
  tracer_ = ctx.config.tracer;
  agent_label_ = link_->config().host + ":" +
                 std::to_string(link_->config().port);
  link_->register_resync(shard_id_, [this] { resync(); });
  assign();
}

void RemoteShardHandle::die(const std::string& reason) const {
  dead_ = true;
  death_reason_ = reason;
  throw ShardUnavailable("shard " + std::to_string(shard_id_) + ": " +
                         reason);
}

void RemoteShardHandle::ensure_ready() const {
  if (dead_) {
    throw ShardUnavailable("shard " + std::to_string(shard_id_) + ": " +
                           death_reason_);
  }
  if (link_->open()) return;
  if (dirty_) {
    die("state advanced since the last sync and the connection dropped — "
        "resuming could silently diverge");
  }
  if (!link_->ensure_open()) {
    die("host-agent unreachable: " + link_->last_error());
  }
  if (dead_) {  // our own resync failed during the revival
    throw ShardUnavailable("shard " + std::to_string(shard_id_) + ": " +
                           death_reason_);
  }
}

void RemoteShardHandle::assign() const {
  const Frame ack =
      link_->call(shard_id_, MsgType::kAssignShard, encode(assignment_),
                  MsgType::kAssignAck);
  const AssignAckMsg reply = decode_assign_ack(ack.payload);
  if (reply.shard_id != shard_id_) {
    throw std::logic_error("assign ack for the wrong shard");
  }
}

void RemoteShardHandle::resync() {
  // Runs inside AgentLink::ensure_open() after a successful re-handshake.
  // Must not throw: a handle that cannot resync marks itself dead and the
  // service routes around it.
  if (dead_) return;
  if (dirty_ || in_round_) {
    dead_ = true;
    death_reason_ =
        "rounds ran since the last state sync; the reconnected agent "
        "cannot be restored faithfully";
    return;
  }
  try {
    assign();
    if (!all_blocks_.empty()) {
      BlockCellsMsg blocks;
      blocks.shard_id = shard_id_;
      blocks.cells = all_blocks_;
      const Frame ack = link_->call(shard_id_, MsgType::kBlockCells,
                                    encode(blocks), MsgType::kBlockAck);
      (void)decode_block_ack(ack.payload);
    }
    pending_blocks_.clear();  // subset of all_blocks_, just replayed
    if (have_cache_) {
      RestoreStateMsg restore;
      restore.shard_id = shard_id_;
      restore.state = ShardWireState{cache_.booked_compute,
                                     cache_.policy_state, cache_.ledger};
      const Frame ack = link_->call(shard_id_, MsgType::kRestoreState,
                                    encode(restore), MsgType::kRestoreAck);
      (void)decode_restore_ack(ack.payload);
    }
  } catch (const std::exception& e) {
    dead_ = true;
    death_reason_ = std::string("resync failed: ") + e.what();
  }
}

void RemoteShardHandle::block(NodeId local_node, Slot t) {
  pending_blocks_.emplace_back(local_node, t);
  all_blocks_.emplace_back(local_node, t);
}

void RemoteShardHandle::flush_blocks() const {
  if (pending_blocks_.empty()) return;
  BlockCellsMsg blocks;
  blocks.shard_id = shard_id_;
  blocks.cells = pending_blocks_;
  const Frame ack = link_->call(shard_id_, MsgType::kBlockCells,
                                encode(blocks), MsgType::kBlockAck);
  (void)decode_block_ack(ack.payload);
  pending_blocks_.clear();
}

void RemoteShardHandle::begin_round(Slot slot, std::size_t expected) {
  ensure_ready();
  flush_blocks();
  round_tasks_.clear();
  round_tasks_.reserve(expected);
  round_slot_ = slot;
  round_trace_ = tracer_ != nullptr ? tracer_->begin_round(shard_id_, slot)
                                    : obs::RoundTraceCtx{};
  in_round_ = true;
  try {
    BeginRoundMsg begin;
    begin.shard_id = shard_id_;
    begin.slot = slot;
    begin.expected = expected;
    link_->post(MsgType::kBeginRound, encode(begin));
  } catch (...) {
    // Nothing reached the agent's runner (its worker buffers all offers
    // before arming), so the shard's state is intact — the next slot may
    // revive the link.
    in_round_ = false;
    throw;
  }
}

void RemoteShardHandle::offer(Task bid) {
  if (!in_round_) {
    throw std::logic_error("offer() outside an armed round");
  }
  try {
    OfferMsg msg;
    msg.shard_id = shard_id_;
    msg.task = bid;
    msg.trace_id = round_trace_.trace_id;
    msg.parent_span = round_trace_.span_id;
    link_->post(MsgType::kOffer, encode(msg));
  } catch (...) {
    in_round_ = false;  // the round can never have started on the agent
    throw;
  }
  round_tasks_.push_back(std::move(bid));
}

const std::vector<shard::RoundResult>& RemoteShardHandle::wait_round() {
  if (!in_round_) {
    throw std::logic_error("wait_round() without begin_round()");
  }
  Frame frame;
  try {
    frame = link_->wait(shard_id_, MsgType::kRoundResults);
  } catch (const ShardUnavailable& e) {
    // Every offer was enqueued, so the agent may have run the round and
    // advanced its duals/ledger without us seeing the results. Resuming
    // would diverge — this shard is done for the run.
    in_round_ = false;
    die(std::string("round lost: ") + e.what());
  }
  in_round_ = false;
  const RoundResultsMsg msg = decode_round_results(frame.payload);
  if (msg.slot != round_slot_ ||
      msg.results.size() != round_tasks_.size()) {
    die("round results do not match the offered batch");
  }
  results_.clear();
  results_.reserve(msg.results.size());
  for (std::size_t j = 0; j < msg.results.size(); ++j) {
    const WireDecision& d = msg.results[j];
    if (d.task != round_tasks_[j].id) {
      die("round results are out of offer order");
    }
    shard::RoundResult r;
    r.task = round_tasks_[j];
    r.decide_seconds = d.decide_seconds;
    r.decision.task = d.task;
    r.decision.admit = d.admit;
    r.decision.payment = d.payment;
    r.decision.schedule = d.schedule;
    if (d.admit) booked_ += d.schedule.total_compute;
    results_.push_back(std::move(r));
  }
  if (tracer_ != nullptr && round_trace_.active()) {
    tracer_->end_round(shard_id_);
    tracer_->absorb(agent_label_, shard_id_, round_slot_, msg.spans);
  }
  dirty_ = true;  // duals/ledger advanced past the cached state
  board_.publish(shard_id_, msg.snapshot);
  return results_;
}

void RemoteShardHandle::publish(Slot from) {
  ensure_ready();
  flush_blocks();
  PublishRequestMsg request;
  request.shard_id = shard_id_;
  request.from = from;
  const Frame frame = link_->call(shard_id_, MsgType::kPublishRequest,
                                  encode(request), MsgType::kPublishReply);
  const PublishReplyMsg reply = decode_publish_reply(frame.payload);
  board_.publish(shard_id_, reply.snapshot);
}

shard::ShardState RemoteShardHandle::state() const {
  ensure_ready();
  flush_blocks();
  StateRequestMsg request;
  request.shard_id = shard_id_;
  const Frame frame = link_->call(shard_id_, MsgType::kStateRequest,
                                  encode(request), MsgType::kStateReply);
  const StateReplyMsg reply = decode_state_reply(frame.payload);
  if (reply.state.booked_compute != booked_) {
    // Leader and agent accumulate the identical admissions in the
    // identical order, so any drift means lost or duplicated decisions.
    throw std::logic_error(
        "remote shard booked-compute drifted from the leader's ledger");
  }
  cache_.booked_compute = reply.state.booked_compute;
  cache_.policy_state = reply.state.policy_state;
  cache_.ledger = reply.state.ledger;
  have_cache_ = true;
  dirty_ = false;
  return cache_;
}

void RemoteShardHandle::restore_state(const shard::ShardState& state) {
  ensure_ready();
  flush_blocks();
  RestoreStateMsg restore;
  restore.shard_id = shard_id_;
  restore.state =
      ShardWireState{state.booked_compute, state.policy_state, state.ledger};
  const Frame ack = link_->call(shard_id_, MsgType::kRestoreState,
                                encode(restore), MsgType::kRestoreAck);
  (void)decode_restore_ack(ack.payload);
  booked_ = state.booked_compute;
  cache_ = state;
  have_cache_ = true;
  dirty_ = false;
}

void RemoteShardHandle::accumulate_utilization(double& used,
                                               double& cap) const {
  // Same accumulation order as ShardRunner::accumulate_utilization —
  // node-major capacity, then slot-minor usage off the fetched ledger.
  const shard::ShardState st = state();
  for (std::size_t k = 0; k < compute_caps_.size(); ++k) {
    cap += compute_caps_[k] * static_cast<double>(horizon_);
    for (Slot t = 0; t < horizon_; ++t) {
      used += st.ledger.used_compute[k * static_cast<std::size_t>(horizon_) +
                                     static_cast<std::size_t>(t)];
    }
  }
}

}  // namespace lorasched::net
