// lorasched_host_agent — the worker process of the distributed control
// plane (DESIGN.md §11). It loads the same scenario as the leader
// (lorasched_serve --agents), binds a loopback TCP port, and serves shard
// assignments: each AssignShard from the leader builds an in-process
// ShardRunner whose rounds are driven entirely over the wire.
//
//   ./lorasched_host_agent --port 7701 &
//   ./lorasched_host_agent --port 7702 &
//   ./lorasched_serve --agents 127.0.0.1:7701,127.0.0.1:7702
//       --bids bids.txt --shards 4 --slot-ms 0 --shutdown-agents
//
// The agent and leader MUST be launched with the same --scenario/--seed:
// the Hello handshake compares environment digests and refuses mismatched
// pairs. The process exits when the leader sends Shutdown (leader flag
// --shutdown-agents) or on SIGINT/SIGTERM.
//
// Observability (DESIGN.md §12): --metrics-out rewrites the Prometheus
// exposition of the agent and per-shard registries every --metrics-every
// seconds (SIGUSR1 forces a dump), --push-ms streams cumulative metric
// snapshots to the leader's federated registry, and --http-port serves
// /metrics and /healthz for a local scraper.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "lorasched/experiments/scenario.h"
#include "lorasched/io/serialize.h"
#include "lorasched/net/host_agent.h"
#include "lorasched/net/http.h"
#include "lorasched/util/cli.h"

using namespace lorasched;

namespace {

net::HostAgent* g_agent = nullptr;
volatile std::sig_atomic_t g_dump_requested = 0;

void on_signal(int) {
  if (g_agent != nullptr) g_agent->stop();
}

void on_sigusr1(int) { g_dump_requested = 1; }

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  cli.allow_only({"scenario", "seed", "port", "ping-ms", "idle-ms", "name",
                  "push-ms", "metrics-out", "metrics-every", "http-port"});

  ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  if (cli.has("scenario")) {
    std::ifstream in(cli.get("scenario", ""));
    if (!in) throw std::runtime_error("cannot open scenario file");
    config = io::read_scenario(in);
  }
  Instance env = make_instance(config);

  net::HostAgent::Config agent_config;
  agent_config.port = static_cast<std::uint16_t>(cli.get_int("port", 7701));
  agent_config.ping_interval =
      std::chrono::milliseconds(cli.get_int("ping-ms", 200));
  agent_config.idle_timeout =
      std::chrono::milliseconds(cli.get_int("idle-ms", 5000));
  agent_config.name =
      cli.get("name", "agent-" + std::to_string(agent_config.port));
  agent_config.metrics_push_interval =
      std::chrono::milliseconds(cli.get_int("push-ms", 0));

  net::HostAgent agent(std::move(env), agent_config);
  agent.start();
  g_agent = &agent;
  std::signal(SIGINT, &on_signal);
  std::signal(SIGTERM, &on_signal);
  std::signal(SIGUSR1, &on_sigusr1);
  std::cerr << "host-agent " << agent_config.name << " listening on 127.0.0.1:"
            << agent.port() << "\n";

  const std::string metrics_path = cli.get("metrics-out", "");
  const auto metrics_every =
      std::chrono::seconds(cli.get_int("metrics-every", 0));
  const auto dump_metrics = [&] {
    std::ostringstream text;
    agent.write_metrics(text);
    if (metrics_path.empty()) {
      std::cerr << text.str();
      return;
    }
    const std::string tmp = metrics_path + ".tmp";
    {
      std::ofstream out(tmp);
      if (!out) throw std::runtime_error("cannot write metrics file");
      out << text.str();
      if (!out.flush()) throw std::runtime_error("metrics write failed");
    }
    if (std::rename(tmp.c_str(), metrics_path.c_str()) != 0) {
      throw std::runtime_error("cannot replace metrics file");
    }
  };

  std::unique_ptr<net::HttpServer> http;
  if (cli.has("http-port")) {
    http = std::make_unique<net::HttpServer>(
        static_cast<std::uint16_t>(cli.get_int("http-port", 0)));
    http->handle("/metrics", [&agent] {
      std::ostringstream text;
      agent.write_metrics(text);
      return net::HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                               text.str()};
    });
    http->handle("/healthz", [&agent, &agent_config] {
      std::ostringstream text;
      text << "name: " << agent_config.name << "\n"
           << "status: " << (agent.running() ? "serving" : "stopped") << "\n"
           << "sessions: " << agent.sessions_served() << "\n"
           << "shards:";
      for (const int shard : agent.assigned_shards()) text << " " << shard;
      text << "\n";
      return net::HttpResponse{200, "text/plain; charset=utf-8", text.str()};
    });
    http->start();
    std::cerr << "http endpoint on 127.0.0.1:" << http->port()
              << " (/metrics /healthz)\n";
  }

  // Poll instead of agent.wait() so SIGUSR1 and the periodic dump run on
  // the main thread (signal handlers only set a flag).
  auto last_dump = std::chrono::steady_clock::now();
  while (agent.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (g_dump_requested != 0) {
      g_dump_requested = 0;
      dump_metrics();
    }
    const auto now = std::chrono::steady_clock::now();
    if (metrics_every.count() > 0 && now - last_dump >= metrics_every) {
      last_dump = now;
      dump_metrics();
    }
  }
  agent.wait();
  if (http != nullptr) http->stop();
  if (!metrics_path.empty() || metrics_every.count() > 0) dump_metrics();
  std::cerr << "host-agent stopped after " << agent.sessions_served()
            << " leader session(s)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
