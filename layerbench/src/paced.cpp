// The open-loop workloads: wire_paced_k2 and cluster_burst_k2.
//
// Both host the stack in this process and pace bids on one slot clock
// shared by the generator and the leader. Slot t closes at the later of its
// scheduled end, epoch + (t+1)·P, and the moment its last bid entered the
// service. A bid's latency is measured from that scheduled close, so
// lateness shows up as latency and never as a different auction: decisions
// are a pure function of the seed.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "lorasched/loadgen/firehose.h"
#include "lorasched/net/firehose_ingest.h"
#include "spans.h"
#include "workloads.h"

namespace layerbench {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kQueueCapacity = 4096;
constexpr int kSetupBuilds = 25;

struct PacedSpec {
  const char* name;
  bool wire;  // firehose clients over loopback; else in-process submits
  std::uint32_t sources;
  loadgen::ArrivalMix mix;
  std::chrono::milliseconds period;
};

// Slot periods keep each stack well under its paced capacity on a shared
// 4-core host, so a slowdown of the host shows as latency instead of a
// backlog that snowballs (layerbench/README.md, "Deliberate departures").
constexpr PacedSpec kWire{"wire_paced_k2", true, 2,
                          loadgen::ArrivalMix::kPoisson,
                          std::chrono::milliseconds(8)};
constexpr PacedSpec kCluster{"cluster_burst_k2", false, 1,
                             loadgen::ArrivalMix::kBurst,
                             std::chrono::milliseconds(20)};

loadgen::SoakStatus to_soak(net::BidStatus status) {
  switch (status) {
    case net::BidStatus::kAdmitted: return loadgen::SoakStatus::kAdmitted;
    case net::BidStatus::kRejected: return loadgen::SoakStatus::kRejected;
    case net::BidStatus::kShedFull: return loadgen::SoakStatus::kShedFull;
    case net::BidStatus::kShedClosed: return loadgen::SoakStatus::kShedClosed;
  }
  return loadgen::SoakStatus::kShedClosed;
}

loadgen::SoakStatus shed_for(service::SubmitResult result) {
  return result == service::SubmitResult::kRejectedClosed
             ? loadgen::SoakStatus::kShedClosed
             : loadgen::SoakStatus::kShedFull;
}

/// The slot-close rule's bookkeeping: how many bids of each slot the
/// generator will hand over, how many have entered the service, and which
/// slots the leader has closed.
class SlotGate {
 public:
  SlotGate(const Stream& stream, std::size_t held_back) {
    expected_.resize(static_cast<std::size_t>(stream.horizon));
    for (Slot t = 0; t < stream.horizon; ++t) {
      const auto slot = static_cast<std::size_t>(t);
      expected_[slot] = stream.slot_begin[slot + 1] - stream.slot_begin[slot];
    }
    // A bid held back past its slot is not waited for (that is the point
    // of planting it).
    if (held_back != kNone) {
      --expected_[static_cast<std::size_t>(stream.bids[held_back].arrival)];
    }
    entered_.assign(expected_.size(), 0);
  }

  /// Any thread: one bid of `slot` has been handed to the service.
  void entered(Slot slot) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++entered_[static_cast<std::size_t>(slot)];
    cv_.notify_all();
  }

  /// Leader: waits until slot t's bids have all entered, pumping the
  /// service's queue into its held-bid map if the queue fills up (a
  /// blocked submit can then never wedge the close). False after
  /// `give_up_ns`.
  bool wait_ready(Slot t, shard::ShardedService& server,
                  std::int64_t give_up_ns) {
    const auto slot = static_cast<std::size_t>(t);
    std::unique_lock<std::mutex> lock(mutex_);
    while (entered_[slot] < expected_[slot]) {
      if (now_ns() > give_up_ns) return false;
      cv_.wait_for(lock, std::chrono::milliseconds(1));
      if (server.queue().depth() >= kQueueCapacity / 2) {
        lock.unlock();
        server.pump();
        lock.lock();
      }
    }
    return true;
  }

  void close(Slot t) {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = t;
    cv_.notify_all();
  }

  /// Generator: blocks until the leader closed slot t.
  void wait_closed(Slot t) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return closed_ >= t; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::size_t> expected_;
  std::vector<std::size_t> entered_;
  Slot closed_ = -1;
};

/// Everything one timed paced run records, per bid in stream order.
struct PacedRun {
  PacedRun(const Stream& s, std::size_t late, std::size_t drop)
      : stream(s),
        gate(s, late),
        late_index(late),
        drop_index(drop),
        sched_ns(s.size(), 0),
        send_ns(s.size(), 0),
        ingest_ns(s.size(), 0),
        enter_ns(s.size(), 0),
        recv_ns(s.size(), 0),
        received(s.size()),
        step_start_ns(static_cast<std::size_t>(s.horizon), 0) {}

  const Stream& stream;
  SlotGate gate;
  std::size_t late_index;
  std::size_t drop_index;
  std::int64_t epoch_ns = 0;
  std::int64_t period_ns = 0;
  /// When the bid was due to be sent: its slot's start when paced, the
  /// previous send's return when unpaced.
  std::vector<std::int64_t> sched_ns;
  std::vector<std::int64_t> send_ns;    // generator hands the bid over
  std::vector<std::int64_t> ingest_ns;  // FirehoseIngest calls SubmitFn
  std::vector<std::int64_t> enter_ns;   // submit() returned
  std::vector<std::int64_t> recv_ns;    // the client has the decision
  Decisions received;                   // as the client saw them
  std::vector<std::int64_t> step_start_ns;
  loadgen::SoakMetrics soak;

  [[nodiscard]] std::int64_t slot_start(Slot t) const {
    return epoch_ns + static_cast<std::int64_t>(t) * period_ns;
  }

  /// A bid was handed to the service (entry seam of both stacks).
  void entered(const Task& bid, service::SubmitResult result) {
    const std::size_t i = stream.index(bid.id);
    if (result == service::SubmitResult::kAccepted) {
      enter_ns[i] = now_ns();
    } else {
      soak.record_response(loadgen::bid_source(bid.id),
                           loadgen::bid_seq(bid.id), shed_for(result),
                           now_ns());
    }
    gate.entered(bid.arrival);
  }

  /// The client received a decision.
  void receipt(TaskId task, net::BidStatus status, Money payment) {
    const std::int64_t at = now_ns();
    if (stream.has(task)) {
      const std::size_t i = stream.index(task);
      recv_ns[i] = at;
      if (status == net::BidStatus::kAdmitted ||
          status == net::BidStatus::kRejected) {
        received.state[i] = status == net::BidStatus::kAdmitted ? 1 : 0;
        received.payment[i] = status == net::BidStatus::kAdmitted ? payment
                                                                  : 0.0;
      }
    }
    soak.record_response(loadgen::bid_source(task), loadgen::bid_seq(task),
                         to_soak(status), at);
  }
};

/// One deployment of the workload's stack, built the way an operator would
/// bring it up: environment, service with its shard threads, then the wire
/// ingest and client connections, or the cluster deployment.
struct Stack {
  const Stream& stream;
  Instance env;
  std::atomic<PacedRun*> run{nullptr};
  obs::MetricsRegistry net_metrics;  // the wire clients' transport
  std::unique_ptr<shard::ShardedService> local;  // wire
  std::unique_ptr<ClusterStack> cluster;         // cluster
  shard::ShardedService* server = nullptr;       // whichever was built
  std::unique_ptr<Collector> collector;
  std::unique_ptr<net::FirehoseIngest> ingest;
  std::vector<std::unique_ptr<net::Connection>> clients;

  Stack(const Stream& s, std::uint64_t seed)
      : stream(s), env(make_env(seed, s.horizon)) {}

  ~Stack() {
    clients.clear();
    if (ingest) ingest->stop();
    ingest.reset();
    local.reset();
    cluster.reset();
  }
};

shard::ShardedConfig paced_config() {
  shard::ShardedConfig config;
  config.shards = 2;
  config.reroute_attempts = 1;
  config.queue_capacity = kQueueCapacity;
  config.late_bids = service::LateBidMode::kReject;
  return config;
}

void build_wire(Stack& stack, const PdftspConfig& policy) {
  stack.local = std::make_unique<shard::ShardedService>(
      stack.env, shard::make_pdftsp_factory(policy), paced_config());
  stack.server = stack.local.get();
  net::FirehoseIngest::Config ingest_config;
  ingest_config.expected_streams = 0;  // the leader loop ends the run
  ingest_config.metrics = &stack.server->registry();
  Stack* self = &stack;
  stack.ingest = std::make_unique<net::FirehoseIngest>(
      ingest_config,
      [self](const Task& bid) {
        const spans::Span span("ingest_submit", bid.id);
        PacedRun* run = self->run.load(std::memory_order_acquire);
        if (run != nullptr && self->stream.has(bid.id)) {
          run->ingest_ns[self->stream.index(bid.id)] = now_ns();
        }
        service::SubmitResult result;
        {
          const spans::Span submit("submit", bid.id);
          result = self->server->submit(bid);
        }
        if (run != nullptr) run->entered(bid, result);
        return result;
      },
      [] {});
  stack.collector->forward = [self](const TaskOutcome& outcome) {
    PacedRun* run = self->run.load(std::memory_order_acquire);
    if (run != nullptr && run->drop_index != kNone &&
        self->stream.bids[run->drop_index].id == outcome.task) {
      return;  // planted fault: this decision never reaches its client
    }
    self->ingest->on_decision(outcome.task, outcome.admitted, outcome.payment,
                              outcome.arrival);
  };
  for (std::uint32_t s = 0; s < stack.stream.sources; ++s) {
    net::Connection::Config config;
    config.outbox_capacity = 8192;
    config.ping_interval = std::chrono::milliseconds(100);
    config.metrics = &stack.net_metrics;
    stack.clients.push_back(std::make_unique<net::Connection>(
        net::Socket::connect("127.0.0.1", stack.ingest->port()), config,
        [self](net::Frame&& frame) {
          if (frame.type != net::MsgType::kBidDecision) return;
          const net::BidDecisionMsg msg =
              net::decode_bid_decision(frame.payload);
          const spans::Span span("client_recv", msg.task);
          PacedRun* run = self->run.load(std::memory_order_acquire);
          if (run != nullptr) run->receipt(msg.task, msg.status, msg.payment);
        },
        [](const std::string&) {}));
  }
}

void build_cluster(Stack& stack, const PdftspConfig& policy) {
  stack.cluster =
      std::make_unique<ClusterStack>(stack.env, policy, paced_config());
  stack.server = stack.cluster->server.get();
  Stack* self = &stack;
  stack.collector->forward = [self](const TaskOutcome& outcome) {
    // The in-process client: its receipt is the decision callback.
    PacedRun* run = self->run.load(std::memory_order_acquire);
    if (run != nullptr && run->drop_index != kNone &&
        self->stream.bids[run->drop_index].id == outcome.task) {
      return;  // planted fault: the client never learns this decision
    }
    if (run != nullptr) {
      run->receipt(outcome.task,
                   outcome.admitted ? net::BidStatus::kAdmitted
                                    : net::BidStatus::kRejected,
                   outcome.payment);
    }
  };
}

/// Builds the stack; `setup_s` receives the construction time.
std::unique_ptr<Stack> build(const PacedSpec& spec, const Stream& stream,
                             std::uint64_t seed, const PdftspConfig& policy,
                             double& setup_s) {
  const std::int64_t start = now_ns();
  auto stack = std::make_unique<Stack>(stream, seed);
  stack->collector = std::make_unique<Collector>(stream);
  if (spec.wire) {
    build_wire(*stack, policy);
  } else {
    build_cluster(*stack, policy);
  }
  stack->server->add_subscriber(stack->collector.get());
  setup_s = static_cast<double>(now_ns() - start) * 1e-9;
  return stack;
}

/// The generator thread: hands each slot's bids over at the slot's start.
void generate(const PacedSpec& spec, Stack& stack, PacedRun& run) {
  const Stream& stream = run.stream;
  std::int64_t previous_return = run.epoch_ns;
  const auto send = [&](std::size_t i, std::int64_t scheduled) {
    const Task& bid = stream.bids[i];
    const std::uint32_t source = loadgen::bid_source(bid.id);
    const std::uint64_t seq = loadgen::bid_seq(bid.id);
    const std::int64_t at = now_ns();
    run.sched_ns[i] = run.period_ns > 0 ? scheduled : previous_return;
    run.send_ns[i] = at;
    run.soak.record_offered(source, seq, at);
    if (spec.wire) {
      const spans::Span span("client_send", bid.id);
      net::BidSubmitMsg msg;
      msg.source = source;
      msg.seq = seq;
      msg.send_ns = at;
      msg.task = bid;
      stack.clients[source]->send(net::MsgType::kBidSubmit, net::encode(msg));
    } else {
      service::SubmitResult result;
      {
        const spans::Span span("submit", bid.id);
        result = stack.server->submit(bid);
      }
      run.entered(bid, result);
    }
    previous_return = now_ns();
  };
  for (Slot t = 0; t < stream.horizon; ++t) {
    std::this_thread::sleep_until(at_ns(run.slot_start(t)));
    if (run.late_index != kNone &&
        stream.bids[run.late_index].arrival + 1 == t) {
      // Planted fault: the held-back bid goes out only once its slot
      // closed.
      run.gate.wait_closed(t - 1);
      send(run.late_index, run.slot_start(t));
    }
    const auto begin = stream.slot_begin[static_cast<std::size_t>(t)];
    const auto end = stream.slot_begin[static_cast<std::size_t>(t) + 1];
    for (std::size_t i = begin; i < end; ++i) {
      if (i != run.late_index) send(i, run.slot_start(t));
    }
  }
}

struct PacedOutcome {
  bool matches = false;
  Failures failures;
  /// From each bid's due time, epoch + (a+1)·P, to its client receipt.
  LatencySummary latency;
  double decisions_per_s = 0.0;
  StackTotals totals;
  std::vector<double> ingest_lag_ms;
  std::vector<double> reply_ms;
  std::vector<double> send_lag_ms;
  NetCounters net;
  double sheds = 0.0;
  double replies_dropped = 0.0;
};

/// One timed run on a built stack.
PacedOutcome run_paced(const PacedSpec& spec, Stack& stack,
                       const Reference& ref, const std::string& plant) {
  const Stream& stream = stack.stream;
  std::size_t late = kNone;
  std::size_t drop = kNone;
  const Slot middle = stream.horizon / 2;
  const std::size_t planted = stream.slot_begin[static_cast<std::size_t>(middle)];
  if (plant == "late") late = planted;
  if (plant == "drop_reply") drop = planted;
  if (plant == "duplicate") {
    stack.collector->repeat_task = stream.bids[planted].id;
  }
  PacedRun run(stream, late, drop);
  run.period_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(spec.period).count();
  run.epoch_ns = now_ns() + 20'000'000;  // 20 ms lead for the generator
  stack.run.store(&run, std::memory_order_release);
  struct Detach {  // on every exit path, before `run` goes away
    std::atomic<PacedRun*>& slot;
    ~Detach() { slot.store(nullptr, std::memory_order_release); }
  } detach{stack.run};

  shard::ShardedService& server = *stack.server;
  PacedOutcome out;
  std::exception_ptr generator_error;
  std::thread generator([&] {
    try {
      generate(spec, stack, run);
    } catch (...) {
      generator_error = std::current_exception();
    }
  });
  try {
    bool stalled = false;
    for (Slot t = 0; t < stream.horizon; ++t) {
      const std::int64_t close_ns = run.slot_start(t + 1);
      std::this_thread::sleep_until(at_ns(close_ns));
      if (!stalled && !run.gate.wait_ready(t, server, now_ns() + 10'000'000'000)) {
        stalled = true;  // the missing bids count as lost below
        std::cerr << spec.name << ": slot " << t
                  << " never received all its bids\n";
      }
      const std::int64_t start = now_ns();
      run.step_start_ns[static_cast<std::size_t>(t)] = start;
      run.gate.close(t);
      {
        const spans::Span span("step");
        server.step();
      }
      const std::int64_t end = now_ns();
      out.totals.step_ms.push_back(static_cast<double>(end - start) * 1e-6);
      out.totals.lag_ms.push_back(static_cast<double>(start - close_ns) * 1e-6);
    }
  } catch (...) {
    run.gate.close(stream.horizon);  // release a generator holding a bid
    generator.join();
    throw;
  }
  generator.join();
  if (generator_error) std::rethrow_exception(generator_error);
  // Decisions still in flight to their clients get a short grace period.
  const std::int64_t drain_until = now_ns() + 2'000'000'000;
  while (run.soak.outstanding() > 0 && now_ns() < drain_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // The paced loop mostly sleeps; its busy time is the steps themselves.
  for (const double ms : out.totals.step_ms) out.totals.loop_s += ms * 1e-3;
  out.totals.absorb(*stack.collector, server);

  // Transport and ingest counters.
  if (spec.wire) {
    out.net.frames =
        registry_sum(server.registry(), "lorasched_net_tx_frames_") +
        registry_sum(stack.net_metrics, "lorasched_net_tx_frames_");
    out.net.bytes = registry_sum(server.registry(), "lorasched_net_tx_bytes_") +
                    registry_sum(stack.net_metrics, "lorasched_net_tx_bytes_");
    out.net.rtt_p99_s =
        registry_histogram(stack.net_metrics,
                           "lorasched_net_heartbeat_rtt_seconds")
            .percentile(99);
    out.sheds = registry_value(server.registry(), "lorasched_ingest_sheds_total");
    out.replies_dropped = static_cast<double>(stack.ingest->replies_dropped());
  } else {
    out.net = stack.cluster->net_counters();
    stack.cluster->absorb_agents(out.totals);
  }

  const SimResult result = server.finish();
  stack.run.store(nullptr, std::memory_order_release);
  if (spec.wire) {
    // Join every thread that writes into `run` before reading it.
    stack.ingest->stop();
    stack.clients.clear();
  }

  // Accounting: loss/duplicates/order from the client's view, plus the
  // duplicated and unknown decisions the leader's collector caught before
  // they could reach a client; lateness from the entry stamps against each
  // slot's close.
  out.failures.absorb(run.soak.report());
  out.failures.merge(stack.collector->failures);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto slot = static_cast<std::size_t>(stream.bids[i].arrival);
    if (run.enter_ns[i] != 0 && run.enter_ns[i] > run.step_start_ns[slot]) {
      ++out.failures.late;
    }
  }
  out.matches = fingerprint(stream, run.received) == ref.fingerprint &&
                result.metrics.social_welfare == ref.welfare;

  std::int64_t last_recv = run.epoch_ns;
  std::vector<double> latency_ms(stream.size(),
                                 std::numeric_limits<double>::quiet_NaN());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Slot a = stream.bids[i].arrival;
    const std::int64_t scheduled = run.sched_ns[i];
    out.send_lag_ms.push_back(
        static_cast<double>(run.send_ns[i] - scheduled) * 1e-6);
    if (run.ingest_ns[i] != 0) {
      out.ingest_lag_ms.push_back(
          static_cast<double>(run.ingest_ns[i] - scheduled) * 1e-6);
    }
    if (run.received.state[i] == -1 || run.recv_ns[i] == 0) continue;
    latency_ms[i] =
        static_cast<double>(run.recv_ns[i] - run.slot_start(a + 1)) * 1e-6;
    last_recv = std::max(last_recv, run.recv_ns[i]);
    if (stack.collector->decide_ns[i] != 0) {
      out.reply_ms.push_back(
          static_cast<double>(run.recv_ns[i] - stack.collector->decide_ns[i]) *
          1e-6);
    }
  }
  out.latency = summarize_latency(stream, latency_ms);
  // Achieved rate: below the offered one only if decisions trail past the
  // horizon's scheduled end (a growing backlog).
  const std::int64_t end = std::max(last_recv, run.slot_start(stream.horizon));
  const double span_s = static_cast<double>(end - run.epoch_ns) * 1e-9;
  out.decisions_per_s =
      span_s > 0.0 ? static_cast<double>(out.latency.samples) / span_s : 0.0;
  return out;
}

/// The net.* and loadgen.* per-layer metrics of a run (the ingest-side
/// ones only when bids came in over the wire).
void set_net_metrics(Result& result, const PacedOutcome& out, bool wire) {
  set_transport_metrics(result, out.net, out.totals.bids);
  result.set("loadgen.send_lag_ms_p99", quantile(out.send_lag_ms, 0.99), "ms");
  if (!wire) return;
  result.set("net.ingest_lag_ms_p50", quantile(out.ingest_lag_ms, 0.50), "ms");
  result.set("net.ingest_lag_ms_p99", quantile(out.ingest_lag_ms, 0.99), "ms");
  result.set("net.reply_ms_p50", quantile(out.reply_ms, 0.50), "ms");
  result.set("net.reply_ms_p99", quantile(out.reply_ms, 0.99), "ms");
  result.set("net.sheds", out.sheds, "count");
  result.set("net.replies_dropped", out.replies_dropped, "count");
}

Result run_paced_workload(const PacedSpec& spec, const Options& opt) {
  const auto period_s = std::chrono::duration<double>(spec.period).count();
  const auto horizon = static_cast<Slot>(opt.seconds / period_s);
  const Instance env = make_env(opt.seed, horizon);
  const Stream stream = make_stream(env, opt.seed, spec.sources, spec.mix,
                                    kRatePerSlot, horizon);
  const PdftspConfig policy = policy_for(env, stream);
  const Reference ref = reference_sharded(env, stream, policy, 2);
  std::cerr << spec.name << ": " << stream.size() << " bids over " << horizon
            << " slots of " << spec.period.count() << " ms ("
            << static_cast<double>(stream.size()) / opt.seconds
            << " bids/s offered), K=2 reference welfare " << ref.welfare
            << " USD\n";

  Result result;
  const auto check = [&](const PacedOutcome& out, const char* phase) {
    result.attempted += stream.size();
    result.failed += out.failures.total();
    if (out.failures.total() > 0) {
      result.fail(std::string(spec.name) + " " + phase + ": " +
                  out.failures.describe());
    }
    if (!out.matches) {
      result.fail(std::string(spec.name) + " " + phase +
                  ": decisions/welfare differ from the offline K=2 replay");
    }
  };

  // Several constructions before the timed phase; setup_s is their median.
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < (opt.trace ? 1 : kSetupBuilds); ++i) {
    stack.reset();
    double setup_s = 0.0;
    stack = build(spec, stream, opt.seed, policy, setup_s);
    setups.push_back(setup_s);
  }
  std::cerr << spec.name << ": " << setups.size()
            << " constructions, setup ms min " << quantile(setups, 0.0) * 1e3
            << " median " << median(setups) * 1e3 << " max "
            << quantile(setups, 1.0) * 1e3 << "\n";
  const PacedOutcome plain = run_paced(spec, *stack, ref, opt.plant);
  stack.reset();
  check(plain, "untraced");
  const double p50 = plain.latency.p50_ms;
  std::cerr << spec.name << ": " << plain.latency.samples
            << " latency samples in " << plain.latency.windows
            << " windows of >= " << kWindowBids
            << " bids, median window p50 " << p50 << " ms, p99 "
            << plain.latency.p99_ms << " ms, " << plain.decisions_per_s
            << " decisions/s\n";

  if (!opt.trace) {
    result.set("decisions_per_s", plain.decisions_per_s, "bids/s");
    result.set("latency_p50_ms", p50, "ms");
    result.set("latency_p99_ms", plain.latency.p99_ms, "ms");
    result.set("welfare_usd", ref.welfare, "USD");
    result.set("setup_s", median(setups), "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }

  double ignored = 0.0;
  stack = build(spec, stream, opt.seed, policy, ignored);
  spans::enable(true);
  const PacedOutcome traced = run_paced(spec, *stack, ref, opt.plant);
  spans::enable(false);
  stack.reset();
  check(traced, "traced");

  set_stack_metrics(result, traced.totals, 2);
  set_net_metrics(result, traced, spec.wire);
  const double traced_p50 = traced.latency.p50_ms;
  result.set("obs.trace_overhead_pct",
             p50 > 0.0 ? (traced_p50 - p50) / p50 * 100.0 : 0.0, "%");
  return result;
}

}  // namespace

Result run_wire_paced_k2(const Options& opt) {
  return run_paced_workload(kWire, opt);
}

Result run_cluster_burst_k2(const Options& opt) {
  return run_paced_workload(kCluster, opt);
}

IngestRung run_ingest_rung(std::uint64_t seed, const Stream& stream,
                           const PdftspConfig& policy, const Reference& ref) {
  // Unpaced: one client sends the whole stream as fast as it can and the
  // leader closes each slot the moment its last bid entered.
  constexpr PacedSpec kUnpaced{"ingest_rung", true, 1,
                               loadgen::ArrivalMix::kPoisson,
                               std::chrono::milliseconds(0)};
  double setup_s = 0.0;
  std::unique_ptr<Stack> stack = build(kUnpaced, stream, seed, policy, setup_s);
  const PacedOutcome out = run_paced(kUnpaced, *stack, ref, "");
  stack.reset();
  IngestRung rung;
  rung.matches = out.matches;
  rung.failures = out.failures;
  rung.us_per_bid = out.decisions_per_s > 0.0 ? 1e6 / out.decisions_per_s : 0.0;
  set_net_metrics(rung.metrics, out, true);
  return rung;
}

}  // namespace layerbench
