// The benchmark's workloads and the traced run's layer ladder.
//
// Every workload drives the stack from outside through public APIs only and
// checks its decisions against an offline replay of the same stream at the
// same K: the decision+payment fingerprint and eq. 3 welfare must match
// bit for bit, and every bid must get exactly one timely, in-order decision.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "lorasched/net/host_agent.h"
#include "lorasched/net/remote_shard.h"
#include "lorasched/service/subscriber.h"
#include "lorasched/shard/sharded_service.h"

namespace layerbench {

/// Workload entry points. With opt.trace the run prints the per-layer
/// metrics instead of the end-to-end ones.
[[nodiscard]] Result run_replay_k1(const Options& opt);
[[nodiscard]] Result run_replay_burst_k2(const Options& opt);
[[nodiscard]] Result run_cluster_replay_k2(const Options& opt);
[[nodiscard]] Result run_wire_paced_k2(const Options& opt);
[[nodiscard]] Result run_cluster_burst_k2(const Options& opt);

/// The closed-loop workloads' horizon: one day of 10-minute slots, the
/// scenario default, so about 11.5k bids at 80 per slot. A run repeats
/// whole replays, so the stream needs no stretching to fill it; a run's
/// hundred-odd short replays let its faster quartile miss the host's noisy
/// stretches.
inline constexpr Slot kReplayHorizon = 144;

/// Subscriber every workload registers on its service: records each
/// decision in stream order (duplicates and per-source order regressions
/// are counted on the spot), the decision time of each bid, and per-slot
/// telemetry. Runs on the leader thread.
class Collector final : public service::DecisionSubscriber {
 public:
  explicit Collector(const Stream& stream);

  void on_admitted(const TaskOutcome& outcome,
                   const Schedule& schedule) override;
  void on_rejected(const TaskOutcome& outcome) override;
  void on_slot_end(const service::SlotReport& report) override;

  /// Optional hook called after a decision is recorded (wire forwarding,
  /// in-process client receipt).
  std::function<void(const TaskOutcome&)> forward;
  /// Planted fault for the benchmark's own tests: this task's decision is
  /// recorded a second time, as if the service had published it twice.
  TaskId repeat_task = -1;

  Decisions decisions;
  std::vector<std::int64_t> decide_ns;
  Failures failures;  // duplicated / out_of_order / unknown
  std::uint64_t decided = 0;
  std::uint64_t admitted = 0;
  double decide_seconds = 0.0;  // Σ SlotReport.decide_seconds
  std::size_t queue_depth_max = 0;

  /// Lost = stream bids never decided.
  [[nodiscard]] std::uint64_t undecided() const;

 private:
  void record(const TaskOutcome& outcome, bool admitted);

  const Stream& stream_;
  std::vector<std::int64_t> last_seq_;  // per source, -1 = none yet
};

/// What a run measured of its own stack, summed over repetitions; the
/// per-layer metrics of the traced run are derived from it.
struct StackTotals {
  double bids = 0.0;  // decided
  double admitted = 0.0;
  double slots = 0.0;
  double decide_seconds = 0.0;  // Σ SlotReport.decide_seconds
  double loop_s = 0.0;          // slot-loop wall time (paced: Σ step time)
  double critical_path_s = 0.0;
  double rerouted = 0.0;
  double reroute_admits = 0.0;
  std::size_t queue_depth_max = 0;
  // From the service registry.
  double dp_hits = 0.0;
  double dp_misses = 0.0;
  double submit_block_s = 0.0;
  double round_arm_s = 0.0;
  double round_offer_s = 0.0;
  double round_decide_s = 0.0;
  double round_publish_s = 0.0;
  std::vector<double> step_ms;
  /// Step start minus the slot's close: the scheduled close on the paced
  /// workloads, the previous step's return in a closed loop.
  std::vector<double> lag_ms;

  void add(const StackTotals& other);
  /// Folds in the collector's per-slot telemetry and the service's
  /// counters after a run (before finish()).
  void absorb(const Collector& collector, shard::ShardedService& server);
};

/// Transport traffic of a stack, summed over every endpoint.
struct NetCounters {
  double frames = 0.0;     // lorasched_net_tx_frames_*
  double bytes = 0.0;      // lorasched_net_tx_bytes_*
  double rtt_p99_s = 0.0;  // lorasched_net_heartbeat_rtt_seconds at the leader

  void add(const NetCounters& other) {
    frames += other.frames;
    bytes += other.bytes;
    rtt_p99_s = std::max(rtt_p99_s, other.rtt_p99_s);
  }
};

/// Sets net.frames_per_bid, net.bytes_per_bid and net.heartbeat_rtt_us_p99.
void set_transport_metrics(Result& result, const NetCounters& net,
                           double bids);

/// The cluster deployment, built the way an operator brings it up: one
/// HostAgent per shard on a loopback port, a leader link to each (dial plus
/// the Hello handshake), and a leader ShardedService over RemoteShardHandles
/// (the AssignShard round trips). Decisions travel as per-round Offer /
/// RoundResults / Publish frames.
struct ClusterStack {
  ClusterStack(const Instance& env, const PdftspConfig& policy,
               const shard::ShardedConfig& config);
  ~ClusterStack();
  ClusterStack(const ClusterStack&) = delete;
  ClusterStack& operator=(const ClusterStack&) = delete;

  [[nodiscard]] NetCounters net_counters() const;
  /// Adds the agents' DP price-cache counters (the policies run there).
  void absorb_agents(StackTotals& totals) const;

  obs::MetricsRegistry link_metrics;  // the leader's links
  std::vector<std::unique_ptr<net::HostAgent>> agents;
  std::vector<std::shared_ptr<net::AgentLink>> links;
  std::unique_ptr<shard::ShardedService> server;
};

/// Where a closed-loop replay's shards run.
enum class Deployment {
  kInProcess,  // ShardRunner threads inside the leader's service
  kCluster,    // a ClusterStack: HostAgents behind RemoteShardHandles
};

/// Sets the core.*, service.* and shard.* per-layer metrics `totals` can
/// speak for (reroute ratios only when the stack had K >= 2).
void set_stack_metrics(Result& result, const StackTotals& totals, int shards);

/// One closed-loop replay of `stream` through a fresh ShardedService at
/// `shards` (reroute 1), deployed in process or as a ClusterStack: build it
/// (timed as setup), queue every bid, step the slots back to back (timed as
/// the slot loop), finish, and compare with `ref`.
struct ReplayRun {
  double setup_s = 0.0;
  double submit_s = 0.0;
  bool matches = false;  // fingerprint and welfare equal the reference
  Failures failures;
  StackTotals totals;
  /// Closed-loop decision latency: from the step that closes the bid's
  /// slot starting to the bid's decision callback (no backlog can build
  /// in a closed loop, so this is the slot's own decision time).
  LatencySummary latency;
  NetCounters net;  // kCluster only

  [[nodiscard]] double decisions_per_s() const {
    return totals.loop_s > 0.0 ? totals.bids / totals.loop_s : 0.0;
  }
  /// Submit plus slot loop, per decided bid — the ladder's service rungs.
  [[nodiscard]] double us_per_bid() const {
    return totals.bids > 0.0 ? (submit_s + totals.loop_s) * 1e6 / totals.bids
                             : 0.0;
  }
};
[[nodiscard]] ReplayRun replay_once(std::uint64_t seed, const Stream& stream,
                                    const PdftspConfig& policy, int shards,
                                    Deployment deployment,
                                    const Reference& ref);

/// The ladder's wire rung: `stream` sent unpaced by one firehose client
/// over loopback into FirehoseIngest feeding a K=2 ShardedService; each
/// slot closes as soon as its last bid entered. `ref` is the K=2 offline
/// replay.
struct IngestRung {
  double us_per_bid = 0.0;  // first send to last decision received
  bool matches = false;
  Failures failures;
  Result metrics;  // its net.* and loadgen.* per-layer metrics
};
[[nodiscard]] IngestRung run_ingest_rung(std::uint64_t seed,
                                         const Stream& stream,
                                         const PdftspConfig& policy,
                                         const Reference& ref);

/// The traced run's layer ladder over replay_k1's stream for the seed:
/// kernel (ScheduleDp::find) → policy (run_simulation) → K=1 service →
/// K=2 shard → unpaced loopback ingest, plus the K=2 cluster deployment
/// beside the ingest rung, each rung repeated and interleaved, medians of
/// µs/bid and the marginal cost of each layer.
/// Fills every per-layer metric `result` does not have yet, and marks it
/// incorrect (saying why) if a rung's decisions diverged from its
/// reference.
void run_ladder(const Options& opt, Result& result);

}  // namespace layerbench
