// lorasched_serve — the admission daemon (DESIGN.md §6, §10, §11).
//
// Reads line-delimited bids (io::format_bid_line records) from stdin, a
// file, or the wire (--ingest-port), streams them into a ShardedService
// over the scenario's cluster, and decides each slot on a configurable slot
// period (replay speed). --shards 1 (the default) is the paper's single
// online auction, decided inline on the slot-loop thread; --shards K
// partitions the fleet into K pdFTSP shards behind a price-aware router
// with second-chance re-routing of rejected bids. The service can
// checkpoint every N slots and resume from a checkpoint file, so a killed
// daemon continues mid-horizon with bit-identical decisions.
//
//   ./lorasched_feed --export bids.txt
//   ./lorasched_serve --bids bids.txt --slot-ms 0 --out outcomes.csv
//   ./lorasched_feed --slot-ms 100 | ./lorasched_serve --slot-ms 100
//   ./lorasched_serve --bids bids.txt --shards 4 --slot-ms 0
//   ./lorasched_serve --bids bids.txt --checkpoint ck.txt --checkpoint-every 12
//   ./lorasched_serve --bids bids.txt --resume ck.txt
//
// A checkpoint pins the shard count and router config; resuming under a
// different --shards/--reroute/--router-seed is rejected rather than
// silently diverging.
//
// Distributed mode: --agents host:port,... runs the K shards inside
// lorasched_host_agent processes reached over the binary wire protocol
// (shard i is served by agent i mod A); every other line of the daemon is
// the same. Decisions, payments, and welfare are bit-identical to the
// in-process run with the same K. A crashed agent is detected by heartbeat;
// its shards' bids fail over to live shards and the run completes degraded
// instead of hanging. --checkpoint-every 1 keeps every shard's leader-side
// state cache fresh, which lets a between-round reconnect resume
// bit-identically. --shutdown-agents stops the agents at exit. Remote
// shards build pdFTSP from the shipped pricing config, so --policy
// pdFTSP-adaptive is in-process only.
//
//   ./lorasched_host_agent --port 7701 &
//   ./lorasched_host_agent --port 7702 &
//   ./lorasched_serve --agents 127.0.0.1:7701,127.0.0.1:7702
//       --bids bids.txt --shards 4 --slot-ms 0 --shutdown-agents
//
// Observability (DESIGN.md §8, §12) — all of it observation-only:
//   --trace-out t.json      a Chrome trace-event document (Perfetto).
//                           In-process it is the decision timeline, and the
//                           per-bid decision records go to
//                           t.json.decisions.jsonl; K=1 only, since at K>1
//                           the records would carry shard-local node ids.
//                           With --agents it is the merged cluster trace,
//                           where each agent's decision spans parent to the
//                           leader's per-round bid spans.
//   --metrics-out m.prom    Prometheus text exposition of the service
//                           registry, rewritten every --metrics-every
//                           slots (default 0 = only at exit) and on
//                           SIGUSR1 (kill -USR1 <pid> for an on-demand
//                           dump of a live daemon)
//   --http-port P           live /metrics and /healthz on 127.0.0.1:P. With
//                           --agents, /metrics is the federated document
//                           (agents launched with --push-ms), /healthz adds
//                           per-agent link liveness, and /tracez summarizes
//                           the cluster trace's spans.
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lorasched/core/online_params.h"
#include "lorasched/core/pdftsp.h"
#include "lorasched/experiments/scenario.h"
#include "lorasched/io/atomic_file.h"
#include "lorasched/io/serialize.h"
#include "lorasched/net/firehose_ingest.h"
#include "lorasched/net/http.h"
#include "lorasched/net/remote_shard.h"
#include "lorasched/obs/cluster_trace.h"
#include "lorasched/obs/federation.h"
#include "lorasched/obs/span.h"
#include "lorasched/obs/trace.h"
#include "lorasched/service/slot_clock.h"
#include "lorasched/shard/sharded_service.h"
#include "lorasched/util/cli.h"

using namespace lorasched;

namespace {

/// Logs every decision to stderr — a demo subscriber (billing/executor
/// stand-in); stdout stays clean for piped workflows.
class LogSubscriber final : public service::DecisionSubscriber {
 public:
  explicit LogSubscriber(bool verbose) : verbose_(verbose) {}

  void on_admitted(const TaskOutcome& outcome,
                   const Schedule& schedule) override {
    if (!verbose_) return;
    std::cerr << "admit task " << outcome.task << " pay " << outcome.payment
              << "$ completes slot " << schedule.completion_slot() << "\n";
  }
  void on_rejected(const TaskOutcome& outcome) override {
    if (!verbose_) return;
    std::cerr << "reject task " << outcome.task << " bid " << outcome.bid
              << "$\n";
  }
  void on_slot_end(const service::SlotReport& report) override {
    if (!verbose_ || report.batch == 0) return;
    std::cerr << "slot " << report.slot << ": batch " << report.batch
              << " queue " << report.queue_depth << " decide "
              << report.decide_seconds * 1e3 << "ms\n";
  }

 private:
  bool verbose_;
};

/// SIGUSR1 flags an on-demand metrics dump; the slot loop polls it (the
/// handler itself only flips the flag — async-signal-safe).
volatile std::sig_atomic_t g_dump_requested = 0;

void on_sigusr1(int) { g_dump_requested = 1; }

/// One checkpointable policy per shard. pdFTSP is priced for the full
/// scenario (the α/β/κ bounds depend on the bid population, not the
/// partition). A non-null `tracer` is attached to every policy built.
shard::PolicyFactory make_policy_factory(const std::string& name,
                                         const Instance& env,
                                         obs::DecisionTracer* tracer) {
  shard::PolicyFactory build;
  if (name == "pdFTSP") {
    build = shard::make_pdftsp_factory(pdftsp_config_for(env));
  } else if (name == "pdFTSP-adaptive") {
    build = [](const Cluster& cluster, const EnergyModel& energy,
               Slot horizon) -> std::unique_ptr<Policy> {
      return std::make_unique<AdaptivePdftsp>(OnlineParamEstimator::Config{},
                                              cluster, energy, horizon);
    };
  } else {
    throw std::invalid_argument("unknown (or non-checkpointable) policy: " +
                                name);
  }
  if (tracer == nullptr) return build;
  return [build = std::move(build), tracer](
             const Cluster& cluster, const EnergyModel& energy,
             Slot horizon) -> std::unique_ptr<Policy> {
    std::unique_ptr<Policy> policy = build(cluster, energy, horizon);
    auto* traceable = dynamic_cast<obs::Traceable*>(policy.get());
    if (traceable == nullptr) {
      throw std::invalid_argument("policy does not support --trace-out");
    }
    traceable->set_trace_sink(tracer);
    return policy;
  };
}

using Endpoint = std::pair<std::string, std::uint16_t>;

/// "host:port,host:port" -> endpoint list (bare "port" implies loopback).
std::vector<Endpoint> parse_agents(const std::string& spec) {
  std::vector<Endpoint> endpoints;
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const auto colon = item.rfind(':');
    std::string host = "127.0.0.1";
    std::string port = item;
    if (colon != std::string::npos) {
      host = item.substr(0, colon);
      port = item.substr(colon + 1);
    }
    const int parsed = std::stoi(port);
    if (parsed <= 0 || parsed > 65535) {
      throw std::invalid_argument("bad agent port in --agents: " + item);
    }
    endpoints.emplace_back(host, static_cast<std::uint16_t>(parsed));
  }
  if (endpoints.empty()) {
    throw std::invalid_argument("--agents needs at least one host:port");
  }
  return endpoints;
}

/// One link per agent process, shared by the shards it serves. The links
/// count their transport frames into `leader_net` and merge the agents'
/// metric pushes into `federated`; both must outlive the links.
std::vector<std::shared_ptr<net::AgentLink>> connect_agents(
    const std::vector<Endpoint>& endpoints, const Instance& env, int shards,
    obs::MetricsRegistry& leader_net, obs::FederatedRegistry& federated) {
  net::HelloMsg hello;
  hello.digest = net::env_digest(env.cluster, env.market, env.horizon);
  hello.nodes = env.cluster.node_count();
  hello.classes = env.cluster.class_count();
  hello.horizon = env.horizon;
  hello.shards_total = shards;
  std::vector<std::shared_ptr<net::AgentLink>> links;
  links.reserve(endpoints.size());
  for (const auto& [host, port] : endpoints) {
    net::LinkConfig link_config;
    link_config.host = host;
    link_config.port = port;
    link_config.metrics = &leader_net;
    auto link = std::make_shared<net::AgentLink>(link_config, hello);
    link->set_metrics_sink([&federated](net::MetricsSnapshotMsg&& msg) {
      federated.absorb(msg.agent, msg.seq, msg.groups);
    });
    link->connect();
    std::cerr << "connected to host-agent " << host << ":" << port << "\n";
    links.push_back(std::move(link));
  }
  return links;
}

/// The distributed HandleFactory: shard i runs on agent i mod A, built
/// there from the same pdFTSP pricing the in-process service would use.
shard::HandleFactory remote_handles(
    std::vector<std::shared_ptr<net::AgentLink>> links, PdftspConfig policy) {
  return [links = std::move(links), policy = std::move(policy)](
             int shard_id, std::vector<NodeId> members,
             const shard::ShardContext& ctx)
             -> std::unique_ptr<shard::ShardHandle> {
    return std::make_unique<net::RemoteShardHandle>(
        links[static_cast<std::size_t>(shard_id) % links.size()], policy,
        shard_id, std::move(members), ctx);
  };
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  cli.allow_only({"scenario", "seed", "policy", "shards", "reroute",
                  "router-seed", "bids", "slot-ms", "queue-cap",
                  "backpressure", "late", "checkpoint", "checkpoint-every",
                  "resume", "out", "verbose", "timing", "trace-out",
                  "metrics-out", "metrics-every", "http-port", "ingest-port",
                  "ingest-clients", "agents", "shutdown-agents"});

  ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  if (cli.has("scenario")) {
    std::ifstream in(cli.get("scenario", ""));
    if (!in) throw std::runtime_error("cannot open scenario file");
    config = io::read_scenario(in);
  }
  const Instance env = make_instance(config);

  shard::ShardedConfig sharded_config;
  sharded_config.shards = static_cast<int>(cli.get_int("shards", 1));
  sharded_config.reroute_attempts = static_cast<int>(cli.get_int("reroute", 1));
  sharded_config.router_seed =
      static_cast<std::uint64_t>(cli.get_int("router-seed", 0));
  sharded_config.queue_capacity =
      static_cast<std::size_t>(cli.get_int("queue-cap", 4096));
  sharded_config.time_decisions = cli.get_bool("timing", true);
  const std::string backpressure = cli.get("backpressure", "block");
  if (backpressure == "block") {
    sharded_config.backpressure = service::BackpressureMode::kBlock;
  } else if (backpressure == "reject") {
    sharded_config.backpressure = service::BackpressureMode::kReject;
  } else {
    throw std::invalid_argument("backpressure must be block|reject");
  }
  const std::string late = cli.get("late", "clamp");
  if (late == "clamp") {
    sharded_config.late_bids = service::LateBidMode::kClamp;
  } else if (late == "reject") {
    sharded_config.late_bids = service::LateBidMode::kReject;
  } else {
    throw std::invalid_argument("late must be clamp|reject");
  }

  const bool distributed = cli.has("agents");
  const std::string policy_name = cli.get("policy", "pdFTSP");
  if (distributed && policy_name != "pdFTSP") {
    throw std::invalid_argument(
        "--agents serves --policy pdFTSP only (host agents build pdFTSP "
        "from the shipped pricing config)");
  }
  if (!distributed && cli.has("shutdown-agents")) {
    throw std::invalid_argument("--shutdown-agents needs --agents");
  }

  // Observability sinks. Declared before the links and the service: the
  // policies and links borrow them for their whole lifetime.
  const std::string trace_path = cli.get("trace-out", "");
  const std::string decisions_path = trace_path + ".decisions.jsonl";
  std::ofstream decisions_stream;
  std::unique_ptr<obs::DecisionTracer> tracer;  // in-process K=1
  obs::ClusterTraceCollector cluster_tracer;    // --agents
  obs::MetricsRegistry leader_net;              // leader-side link counters
  obs::FederatedRegistry federated;             // merged agent pushes
  if (!trace_path.empty()) {
    if (distributed) {
      sharded_config.tracer = &cluster_tracer;
    } else {
      if (sharded_config.shards != 1) {
        throw std::invalid_argument(
            "--trace-out needs --shards 1 (shard traces carry shard-local "
            "node ids)");
      }
      decisions_stream.open(decisions_path);
      if (!decisions_stream) throw std::runtime_error("cannot open trace file");
      tracer = std::make_unique<obs::DecisionTracer>(&decisions_stream);
      obs::Profiler::instance().set_enabled(true);
      obs::Profiler::instance().set_timeline(true);
    }
  }

  std::vector<Endpoint> endpoints;
  std::vector<std::shared_ptr<net::AgentLink>> links;
  if (distributed) {
    endpoints = parse_agents(cli.get("agents", ""));
    links = connect_agents(endpoints, env, sharded_config.shards, leader_net,
                           federated);
  }
  shard::ShardedService server(
      env,
      distributed ? remote_handles(links, pdftsp_config_for(env))
                  : shard::local_handles(make_policy_factory(
                        policy_name, env, tracer.get())),
      sharded_config);
  LogSubscriber log(cli.get_bool("verbose", false));
  server.add_subscriber(&log);

  // Wire bid ingest (lorasched_firehose clients): sequenced bids arrive as
  // kBidSubmit frames and decisions stream back per connection. Once every
  // expected source ends its stream, the quiesce callback closes the queue
  // — so the local feeder must NOT close it when wire ingest is active.
  const bool wire_ingest = cli.has("ingest-port");
  std::unique_ptr<net::FirehoseIngest> ingest;
  std::unique_ptr<net::IngestSubscriber> ingest_sub;
  if (wire_ingest) {
    net::FirehoseIngest::Config ingest_config;
    ingest_config.port =
        static_cast<std::uint16_t>(cli.get_int("ingest-port", 0));
    ingest_config.expected_streams =
        static_cast<int>(cli.get_int("ingest-clients", 1));
    ingest_config.metrics = &server.registry();
    ingest = std::make_unique<net::FirehoseIngest>(
        ingest_config, [&server](const Task& bid) { return server.submit(bid); },
        [&server] { server.close(); });
    ingest_sub = std::make_unique<net::IngestSubscriber>(*ingest);
    server.add_subscriber(ingest_sub.get());
    std::cerr << "bid ingest on 127.0.0.1:" << ingest->port()
              << " (expecting " << ingest_config.expected_streams
              << " stream(s))\n";
  }

  const std::string metrics_path = cli.get("metrics-out", "");
  const auto metrics_every = cli.get_int("metrics-every", 0);
  std::signal(SIGUSR1, &on_sigusr1);
  const auto dump_metrics = [&] {
    std::ostringstream text;
    server.registry().write_prometheus(text);
    if (metrics_path.empty()) {
      std::cerr << text.str();
    } else {
      // A scraper never reads a half-written exposition.
      io::replace_file(metrics_path, text.str());
    }
  };

  std::unique_ptr<net::HttpServer> http;
  std::atomic<std::uint64_t> leader_seq{0};
  if (cli.has("http-port")) {
    http = std::make_unique<net::HttpServer>(
        static_cast<std::uint16_t>(cli.get_int("http-port", 0)));
    http->handle("/metrics", [&] {
      std::ostringstream text;
      if (distributed) {
        // The leader federates itself like any agent: absorb a fresh
        // cumulative snapshot of its own registries under agent="leader",
        // then emit the one merged document.
        std::vector<obs::MetricsGroup> groups(1);
        groups[0].shard = -1;
        groups[0].metrics = server.registry().snapshot();
        for (obs::MetricSnapshot& metric : leader_net.snapshot()) {
          groups[0].metrics.push_back(std::move(metric));
        }
        federated.absorb("leader", leader_seq.fetch_add(1) + 1, groups);
        federated.write_prometheus(text);
      } else {
        server.registry().write_prometheus(text);
      }
      return net::HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                               text.str()};
    });
    http->handle("/healthz", [&] {
      std::ostringstream text;
      text << "status: serving\n"
           << "shards: " << server.shard_count() << "\n"
           << "queue_depth: " << server.queue().depth() << "\n";
      for (std::size_t a = 0; a < links.size(); ++a) {
        const net::AgentLink::Health h = links[a]->health();
        text << "agent " << endpoints[a].first << ":" << endpoints[a].second
             << " link=" << (h.open ? "open" : "down") << " last_rx_ms="
             << (h.last_rx_age_ns < 0 ? -1 : h.last_rx_age_ns / 1000000)
             << " reconnects=" << h.reconnects
             << " rpc_timeouts=" << h.rpc_timeouts;
        if (!h.last_error.empty()) text << " error=\"" << h.last_error << "\"";
        text << "\n";
      }
      return net::HttpResponse{200, "text/plain; charset=utf-8", text.str()};
    });
    if (distributed) {
      http->handle("/tracez", [&] {
        std::ostringstream text;
        if (sharded_config.tracer == nullptr) {
          text << "tracing disabled (run with --trace-out)\n";
        } else {
          for (const auto& span : cluster_tracer.summaries()) {
            text << span.name << " count=" << span.count << " total_ms="
                 << static_cast<double>(span.total_ns) / 1e6 << " max_ms="
                 << static_cast<double>(span.max_ns) / 1e6 << "\n";
          }
        }
        return net::HttpResponse{200, "text/plain; charset=utf-8",
                                 text.str()};
      });
    }
    http->start();
    std::cerr << "http endpoint on 127.0.0.1:" << http->port()
              << (distributed ? " (/metrics /healthz /tracez)\n"
                              : " (/metrics /healthz)\n");
  }

  // Bids the checkpoint already accounts for (decided or still pending);
  // the feeder skips them so replaying the same bid file after a resume
  // does not double-submit.
  std::unordered_set<TaskId> already_known;
  if (cli.has("resume")) {
    std::ifstream in(cli.get("resume", ""));
    if (!in) throw std::runtime_error("cannot open resume checkpoint");
    const shard::ShardedCheckpoint snapshot = io::read_sharded_checkpoint(in);
    for (const TaskOutcome& outcome : snapshot.outcomes) {
      already_known.insert(outcome.task);
    }
    for (const Task& task : snapshot.pending) already_known.insert(task.id);
    server.restore(snapshot);
    std::cerr << "resumed at slot " << server.current_slot() << "/"
              << server.horizon() << " across " << server.shard_count()
              << " shard(s) (" << already_known.size()
              << " bids already ingested)\n";
  }

  // Ingestion thread: stdin or a bid file, one bid per line. With wire
  // ingest and no --bids file there is nothing to feed locally — stdin is
  // not consumed.
  std::atomic<std::uint64_t> shed{0};
  std::thread feeder;
  if (!wire_ingest || cli.has("bids")) {
    feeder = std::thread([&] {
      std::ifstream file;
      const std::string bids = cli.get("bids", "-");
      std::istream* in = &std::cin;
      if (bids != "-") {
        file.open(bids);
        if (!file) {
          std::cerr << "error: cannot open bids file " << bids << "\n";
          if (!wire_ingest) server.close();
          return;
        }
        in = &file;
      }
      std::string line;
      while (std::getline(*in, line)) {
        if (line.empty() || line.front() == '#') continue;
        Task bid;
        try {
          bid = io::parse_bid_line(line);
        } catch (const std::exception& e) {
          // One garbled line must not take the daemon down.
          std::cerr << "skipping malformed bid line: " << e.what() << "\n";
          shed.fetch_add(1);
          continue;
        }
        if (already_known.count(bid.id) != 0) continue;
        if (server.submit(bid) != service::SubmitResult::kAccepted) {
          shed.fetch_add(1);
        }
      }
      if (!wire_ingest) server.close();
    });
  }

  // Slot loop (leader thread = main), with periodic checkpoints.
  const auto slot_period =
      std::chrono::milliseconds(cli.get_int("slot-ms", 0));
  // slot-ms 0 is offline replay: ingest the whole stream first, then decide
  // every slot back to back. Racing the unpaced loop against the feeder
  // would otherwise let the horizon finish mid-ingestion on a loaded
  // machine, leaving an arbitrary suffix of bids undecided. A plain
  // feeder.join() would deadlock once the bid file outgrows --queue-cap
  // under the default block backpressure (the feeder waits for a drain
  // that join() prevents), so pump the queue into the service while the
  // feeder runs — pump() absorbs bids without deciding anything. Under
  // wire ingest the queue closes when every source ended its stream.
  if (slot_period.count() == 0) {
    while (!server.queue().closed() || server.queue().depth() != 0) {
      server.queue().wait_available();
      server.pump();
    }
    if (feeder.joinable()) feeder.join();
  }
  const auto checkpoint_every = cli.get_int("checkpoint-every", 0);
  const std::string checkpoint_path = cli.get("checkpoint", "");
  const service::SlotClock clock(slot_period);
  while (!server.done()) {
    if (!server.idle()) clock.wait_slot_end(server.current_slot());
    server.step();
    if (!checkpoint_path.empty() && checkpoint_every > 0 &&
        server.current_slot() % checkpoint_every == 0) {
      // A kill mid-write leaves the previous complete checkpoint behind.
      std::ostringstream text;
      io::write_sharded_checkpoint(text, server.checkpoint());
      io::replace_file(checkpoint_path, text.str());
    }
    if (g_dump_requested != 0) {
      g_dump_requested = 0;
      dump_metrics();
    }
    if (metrics_every > 0 && server.current_slot() % metrics_every == 0) {
      dump_metrics();
    }
  }
  if (feeder.joinable()) feeder.join();
  // Flush tail decisions to firehose clients before tearing the links down.
  if (ingest) ingest->stop();

  const auto ops = server.metrics();
  const std::uint64_t rerouted = server.rerouted_bids();
  const std::uint64_t recovered = server.reroute_admits();
  const std::uint64_t failed_over = server.failover_bids();
  const int dead = server.dead_shards();
  const SimResult result = server.finish();
  // Decided bids, whatever fed them: the --bids file, wire ingest, or both.
  std::cerr << "served " << result.metrics.admitted + result.metrics.rejected
            << " bids (" << shed.load() << " shed) on "
            << server.shard_count() << " shard(s)";
  if (distributed) std::cerr << " over " << links.size() << " agent(s)";
  std::cerr << ", welfare " << result.metrics.social_welfare << "$, admitted "
            << result.metrics.admitted << "/"
            << (result.metrics.admitted + result.metrics.rejected)
            << ", rerouted " << rerouted << " (" << recovered
            << " admitted on a second chance), ingest " << ops.ingest_rate
            << " bids/s, decide p50 " << ops.decide_p50 * 1e6 << "us p99 "
            << ops.decide_p99 * 1e6 << "us\n";
  if (dead > 0) {
    std::cerr << "degraded: " << dead << " shard(s) lost mid-run, "
              << failed_over << " bids failed over to live shards\n";
  }

  if (!metrics_path.empty() || metrics_every > 0 || g_dump_requested != 0) {
    dump_metrics();
  }
  if (!trace_path.empty()) {
    std::ofstream chrome(trace_path);
    if (!chrome) throw std::runtime_error("cannot open trace output file");
    if (distributed) {
      cluster_tracer.write_chrome_trace(chrome);
      std::cerr << "trace: merged cluster trace ("
                << cluster_tracer.events() << " spans"
                << (cluster_tracer.dropped() > 0 ? ", some dropped" : "")
                << ") to " << trace_path << "\n";
    } else {
      tracer->flush();
      decisions_stream.close();
      obs::write_chrome_trace(chrome, tracer->instants());
      std::cerr << "trace: " << tracer->records() << " decisions to "
                << decisions_path << ", timeline to " << trace_path << "\n";
      for (const obs::SpanStats& span : obs::Profiler::instance().snapshot()) {
        std::cerr << "span " << span.name << ": " << span.count
                  << " x, total " << span.total_seconds * 1e3 << "ms self "
                  << span.self_seconds * 1e3 << "ms\n";
      }
    }
  }

  if (cli.has("out")) {
    std::ofstream out(cli.get("out", ""));
    if (!out) throw std::runtime_error("cannot open output file");
    io::write_outcomes_csv(out, result.outcomes);
  }
  if (cli.get_bool("shutdown-agents", false)) {
    for (const auto& link : links) link->send_shutdown();
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
