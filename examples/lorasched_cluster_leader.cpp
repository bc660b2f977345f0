// lorasched_cluster_leader — the leader process of the distributed control
// plane (DESIGN.md §11). The same CLI surface as lorasched_serve --shards
// (bid ingestion, slot pacing, checkpoints, metrics), but the K pdFTSP
// shards run inside lorasched_host_agent processes reached over the binary
// wire protocol: shard i is served by agent i mod A.
//
//   ./lorasched_host_agent --port 7701 &
//   ./lorasched_host_agent --port 7702 &
//   ./lorasched_cluster_leader --agents 127.0.0.1:7701,127.0.0.1:7702
//       --bids bids.txt --shards 4 --slot-ms 0 --out outcomes.csv
//       --shutdown-agents
//
// Decisions, payments, and welfare are bit-identical to an in-process
// ShardedService with the same K and config (test_net and the CI smoke pin
// this). A crashed agent is detected by heartbeat; its shards' bids fail
// over to live shards and the run completes degraded instead of hanging.
// --checkpoint-every 1 keeps every shard's leader-side state cache fresh,
// which lets a between-round reconnect resume bit-identically.
//
// Observability (DESIGN.md §12): agents launched with --push-ms stream
// cumulative metric snapshots that the leader merges into a federated
// registry (series labeled agent/shard); --http-port serves /metrics
// (federated exposition), /healthz (per-agent link liveness), and /tracez;
// --trace-out writes one merged Chrome trace where each agent's decision
// spans parent to the leader's per-round bid spans. All of it is
// observation-only — decisions are bit-identical with everything on or off
// (SIGUSR1 forces a --metrics-out dump, as in lorasched_serve).
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
#include <vector>

#include "lorasched/core/online_params.h"
#include "lorasched/experiments/scenario.h"
#include "lorasched/io/atomic_file.h"
#include "lorasched/io/serialize.h"
#include "lorasched/net/firehose_ingest.h"
#include "lorasched/net/http.h"
#include "lorasched/net/remote_shard.h"
#include "lorasched/obs/cluster_trace.h"
#include "lorasched/obs/federation.h"
#include "lorasched/service/slot_clock.h"
#include "lorasched/shard/sharded_service.h"
#include "lorasched/util/cli.h"

using namespace lorasched;

namespace {

/// "host:port,host:port" -> endpoint list (bare "port" implies loopback).
std::vector<std::pair<std::string, std::uint16_t>> parse_agents(
    const std::string& spec) {
  std::vector<std::pair<std::string, std::uint16_t>> endpoints;
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

volatile std::sig_atomic_t g_dump_requested = 0;

void on_sigusr1(int) { g_dump_requested = 1; }

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  cli.allow_only({"scenario", "seed", "shards", "reroute", "router-seed",
                  "bids", "slot-ms", "queue-cap", "backpressure", "late",
                  "checkpoint", "checkpoint-every", "resume", "out", "verbose",
                  "metrics-out", "metrics-every", "agents", "rpc-timeout-ms",
                  "heartbeat-ms", "timing", "shutdown-agents", "http-port",
                  "trace-out", "ingest-port", "ingest-clients"});

  ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  if (cli.has("scenario")) {
    std::ifstream in(cli.get("scenario", ""));
    if (!in) throw std::runtime_error("cannot open scenario file");
    config = io::read_scenario(in);
  }
  const Instance env = make_instance(config);

  shard::ShardedConfig sharded_config;
  sharded_config.shards = cli.get_int("shards", 4);
  sharded_config.reroute_attempts = cli.get_int("reroute", 1);
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

  // Observability plane (DESIGN.md §12). Declared before the links: the
  // metrics sinks and the transport counters borrow these for the links'
  // whole lifetime.
  obs::MetricsRegistry leader_net;      // leader-side transport counters
  obs::FederatedRegistry federated;     // merged agent pushes, /metrics
  obs::ClusterTraceCollector tracer;    // merged bid trace, --trace-out
  const std::string trace_path = cli.get("trace-out", "");
  if (!trace_path.empty()) sharded_config.tracer = &tracer;

  // One link per agent process, shared by the shards it serves.
  const auto endpoints = parse_agents(cli.get("agents", ""));
  net::HelloMsg hello;
  hello.digest = net::env_digest(env.cluster, env.market, env.horizon);
  hello.nodes = env.cluster.node_count();
  hello.classes = env.cluster.class_count();
  hello.horizon = env.horizon;
  hello.shards_total = sharded_config.shards;
  std::vector<std::shared_ptr<net::AgentLink>> links;
  links.reserve(endpoints.size());
  for (const auto& [host, port] : endpoints) {
    net::LinkConfig link_config;
    link_config.host = host;
    link_config.port = port;
    link_config.heartbeat_timeout =
        std::chrono::milliseconds(cli.get_int("heartbeat-ms", 2000));
    link_config.rpc_timeout =
        std::chrono::milliseconds(cli.get_int("rpc-timeout-ms", 30000));
    link_config.metrics = &leader_net;
    auto link = std::make_shared<net::AgentLink>(link_config, hello);
    link->set_metrics_sink([&federated](net::MetricsSnapshotMsg&& msg) {
      federated.absorb(msg.agent, msg.seq, msg.groups);
    });
    link->connect();
    std::cerr << "connected to host-agent " << host << ":" << port << "\n";
    links.push_back(std::move(link));
  }

  // The same pdFTSP pricing the in-process service would use; each remote
  // handle ships it in its AssignShard.
  const PdftspConfig policy = pdftsp_config_for(env);
  const shard::HandleFactory remote_handles =
      [&](int shard_id, std::vector<NodeId> members,
          const shard::ShardContext& ctx)
      -> std::unique_ptr<shard::ShardHandle> {
    return std::make_unique<net::RemoteShardHandle>(
        links[static_cast<std::size_t>(shard_id) % links.size()], policy,
        shard_id, std::move(members), ctx);
  };
  shard::ShardedService server(env, remote_handles, sharded_config);

  // Wire bid ingest (lorasched_firehose clients), same seam as
  // lorasched_serve: sequenced bids in, decisions back per
  // connection, queue closed once every expected source ended its stream.
  const bool wire_ingest = cli.has("ingest-port");
  std::unique_ptr<net::FirehoseIngest> ingest;
  std::unique_ptr<net::IngestSubscriber> ingest_sub;
  if (wire_ingest) {
    net::FirehoseIngest::Config ingest_config;
    ingest_config.port =
        static_cast<std::uint16_t>(cli.get_int("ingest-port", 0));
    ingest_config.expected_streams = cli.get_int("ingest-clients", 1);
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
  const auto dump_metrics = [&] {
    std::ostringstream text;
    server.registry().write_prometheus(text);
    if (metrics_path.empty()) {
      std::cerr << text.str();
    } else {
      io::replace_file(metrics_path, text.str());
    }
  };
  std::signal(SIGUSR1, &on_sigusr1);

  std::unique_ptr<net::HttpServer> http;
  std::atomic<std::uint64_t> leader_seq{0};
  if (cli.has("http-port")) {
    http = std::make_unique<net::HttpServer>(
        static_cast<std::uint16_t>(cli.get_int("http-port", 0)));
    http->handle("/metrics", [&] {
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
      std::ostringstream text;
      federated.write_prometheus(text);
      return net::HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                               text.str()};
    });
    http->handle("/healthz", [&] {
      std::ostringstream text;
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
    http->handle("/tracez", [&] {
      std::ostringstream text;
      if (sharded_config.tracer == nullptr) {
        text << "tracing disabled (run with --trace-out)\n";
      } else {
        for (const auto& span : tracer.summaries()) {
          text << span.name << " count=" << span.count
               << " total_ms=" << static_cast<double>(span.total_ns) / 1e6
               << " max_ms=" << static_cast<double>(span.max_ns) / 1e6 << "\n";
        }
      }
      return net::HttpResponse{200, "text/plain; charset=utf-8", text.str()};
    });
    http->start();
    std::cerr << "http endpoint on 127.0.0.1:" << http->port()
              << " (/metrics /healthz /tracez)\n";
  }

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
              << " remote shards\n";
  }

  std::atomic<std::uint64_t> shed{0};
  // With wire ingest and no --bids file there is nothing to feed locally —
  // stdin is not consumed.
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

  const auto slot_period =
      std::chrono::milliseconds(cli.get_int("slot-ms", 0));
  // Under wire ingest the queue closes when every source ended its stream.
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
  std::cerr << "served "
            << result.metrics.admitted + result.metrics.rejected << " bids ("
            << shed.load()
            << " shed) on " << server.shard_count() << " remote shards over "
            << links.size() << " agent(s), welfare "
            << result.metrics.social_welfare << "$, admitted "
            << result.metrics.admitted << "/"
            << (result.metrics.admitted + result.metrics.rejected)
            << ", rerouted " << rerouted << " (" << recovered
            << " admitted on a second chance), ingest " << ops.ingest_rate
            << " bids/s\n";
  if (dead > 0) {
    std::cerr << "degraded: " << dead << " shard(s) lost mid-run, "
              << failed_over << " bids failed over to live shards\n";
  }

  if (!metrics_path.empty() || metrics_every > 0 || g_dump_requested != 0) {
    dump_metrics();
  }

  if (cli.has("out")) {
    std::ofstream out(cli.get("out", ""));
    if (!out) throw std::runtime_error("cannot open output file");
    io::write_outcomes_csv(out, result.outcomes);
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) throw std::runtime_error("cannot open trace output file");
    tracer.write_chrome_trace(out);
    std::cerr << "wrote merged cluster trace (" << tracer.events()
              << " spans" << (tracer.dropped() > 0 ? ", some dropped" : "")
              << ") to " << trace_path << "\n";
  }
  if (cli.get_bool("shutdown-agents", false)) {
    for (const auto& link : links) link->send_shutdown();
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
