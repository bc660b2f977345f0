// The cluster deployment every cluster workload and ladder rung builds:
// two HostAgents on loopback and a K=2 leader over RemoteShardHandles.
#include <algorithm>
#include <sstream>
#include <string>

#include "lorasched/net/remote_shard.h"
#include "workloads.h"

namespace layerbench {

ClusterStack::ClusterStack(const Instance& env, const PdftspConfig& policy,
                           const shard::ShardedConfig& config) {
  net::HelloMsg hello;
  hello.digest = net::env_digest(env.cluster, env.market, env.horizon);
  hello.nodes = env.cluster.node_count();
  hello.classes = env.cluster.class_count();
  hello.horizon = env.horizon;
  hello.shards_total = config.shards;
  for (int a = 0; a < config.shards; ++a) {
    net::HostAgent::Config agent_config;
    agent_config.name = "agent-" + std::to_string(a);
    agents.push_back(std::make_unique<net::HostAgent>(env, agent_config));
    agents.back()->start();
    net::LinkConfig link_config;
    link_config.port = agents.back()->port();
    link_config.metrics = &link_metrics;
    links.push_back(std::make_shared<net::AgentLink>(link_config, hello));
    links.back()->connect();
  }
  const shard::HandleFactory remote =
      [this, &policy](int shard_id, std::vector<NodeId> members,
                      const shard::ShardContext& ctx)
      -> std::unique_ptr<shard::ShardHandle> {
    return std::make_unique<net::RemoteShardHandle>(
        links[static_cast<std::size_t>(shard_id) % links.size()], policy,
        shard_id, std::move(members), ctx);
  };
  server = std::make_unique<shard::ShardedService>(env, remote, config);
}

ClusterStack::~ClusterStack() {
  for (const auto& link : links) link->send_shutdown();
  server.reset();
  links.clear();
  for (const auto& agent : agents) agent->stop();
}

NetCounters ClusterStack::net_counters() const {
  NetCounters net;
  net.frames = registry_sum(link_metrics, "lorasched_net_tx_frames_");
  net.bytes = registry_sum(link_metrics, "lorasched_net_tx_bytes_");
  for (const auto& agent : agents) {
    net.frames += registry_sum(agent->registry(), "lorasched_net_tx_frames_");
    net.bytes += registry_sum(agent->registry(), "lorasched_net_tx_bytes_");
  }
  net.rtt_p99_s =
      registry_histogram(link_metrics, "lorasched_net_heartbeat_rtt_seconds")
          .percentile(99);
  return net;
}

void set_transport_metrics(Result& result, const NetCounters& net,
                           double bids) {
  bids = std::max(1.0, bids);
  result.set("net.frames_per_bid", net.frames / bids, "frames/bid");
  result.set("net.bytes_per_bid", net.bytes / bids, "B/bid");
  result.set("net.heartbeat_rtt_us_p99", net.rtt_p99_s * 1e6, "us");
}

void ClusterStack::absorb_agents(StackTotals& totals) const {
  for (const auto& agent : agents) {
    std::ostringstream text;
    agent->write_metrics(text);
    totals.dp_hits +=
        prometheus_sum(text.str(), "lorasched_dp_price_cache_hits_total");
    totals.dp_misses +=
        prometheus_sum(text.str(), "lorasched_dp_price_cache_misses_total");
  }
}

}  // namespace layerbench
