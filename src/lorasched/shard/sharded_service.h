// ShardedService — the serving stack for the paper's online auction
// (DESIGN.md §6, §10). Producer threads stream bids into a bounded BidQueue;
// a slot loop drains it once per slot, hands the batch to K independent
// pdFTSP shards (each with its own dual grids and capacity ledger) through
// the exact SlotContext / ledger / validator path the batch simulator uses,
// notifies decision subscribers, and accumulates the same SimResult
// accounting as run_simulation. K=1 is the plain online auction: it decides
// inline on the leader thread, is bit-identical to run_simulation, and
// checkpoints in the same format as any K.
//
// Per slot the leader (the thread calling step()/run()):
//   1. assembles the slot batch: held-bid merge, late-bid policy, stable
//      sort by task id (the engine's arrival order);
//   2. reads every shard's published price summary once and ranks the
//      shards per bid (Router);
//   3. round 0: offers each bid to its first-choice shard; all shards with
//      work decide their sub-batches concurrently;
//   4. rounds 1..R: bids a shard rejected are re-offered to the next shard
//      in their ranking ("second chance") until admitted, out of
//      alternatives, or reroute_attempts is exhausted;
//   5. emits outcomes sorted by task id — schedules re-mapped to fleet node
//      ids — and publishes fresh prices for shards that sat the slot out.
//
// Determinism: routing uses only the previous slot's published prices, the
// bid, and the router seed; per-shard batches are decided sequentially on
// the shard's thread; price publication points are fixed by the protocol.
// Two runs with the same environment, bid stream, and config produce
// identical decisions regardless of thread scheduling — and a 1-shard
// service is bit-identical to run_simulation over the same policy
// configuration (pinned by test_service).
//
// Threading model: submit() is safe from any number of threads; step(),
// run(), checkpoint(), and finish() belong to one leader thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "lorasched/cluster/cluster.h"
#include "lorasched/cluster/energy.h"
#include "lorasched/obs/cluster_trace.h"
#include "lorasched/obs/registry.h"
#include "lorasched/service/bid_queue.h"
#include "lorasched/service/service_metrics.h"
#include "lorasched/service/subscriber.h"
#include "lorasched/shard/price_board.h"
#include "lorasched/shard/router.h"
#include "lorasched/shard/shard_handle.h"
#include "lorasched/shard/shard_planner.h"
#include "lorasched/shard/shard_runner.h"
#include "lorasched/shard/sharded_checkpoint.h"
#include "lorasched/sim/instance.h"
#include "lorasched/sim/metrics.h"
#include "lorasched/types.h"
#include "lorasched/workload/task.h"
#include "lorasched/workload/vendor.h"

namespace lorasched::shard {

struct ShardedConfig {
  /// Number of shards K (1..node count). K=1 reproduces run_simulation bit
  /// for bit and decides inline on the leader thread.
  int shards = 1;
  /// Second-chance budget: additional shards a rejected bid is re-offered
  /// to before the reject becomes final.
  int reroute_attempts = 1;
  /// Router tie-break seed (see RouterConfig::seed).
  std::uint64_t router_seed = 0;
  /// Ingestion edge: queue bound and what a full queue does.
  std::size_t queue_capacity = 1024;
  service::BackpressureMode backpressure = service::BackpressureMode::kBlock;
  service::LateBidMode late_bids = service::LateBidMode::kReject;
  /// Record per-task wall-clock decision time (mirrors EngineOptions).
  bool time_decisions = true;
  /// Optional cluster trace collector (DESIGN.md §12). Borrowed, not
  /// owned; observation-only — decisions are bit-identical with or
  /// without it. Remote handles stamp its round contexts on their Offer
  /// frames and feed agent spans back into it.
  obs::ClusterTraceCollector* tracer = nullptr;
};

/// What a HandleFactory may borrow from the service while building a
/// shard's handle. Every reference outlives the handles.
struct ShardContext {
  const Cluster& fleet;
  const EnergyModel& energy;
  const Marketplace& market;
  Slot horizon;
  PriceBoard& board;
  const ShardedConfig& config;
};

/// Builds the leader-side handle for shard `shard_id` over the given
/// global node ids — a ShardRunner in local mode, a net::RemoteShardHandle
/// in distributed mode. Invoked once per shard at construction.
using HandleFactory = std::function<std::unique_ptr<ShardHandle>(
    int shard_id, std::vector<NodeId> members, const ShardContext& ctx)>;

/// The in-process HandleFactory: one ShardRunner (own policy, ledger, and
/// decision thread) per shard.
[[nodiscard]] HandleFactory local_handles(PolicyFactory factory);

class ShardedService {
 public:
  /// Serves env's environment (cluster, energy, marketplace, horizon,
  /// outages — all copied; env.tasks is ignored, bids arrive via submit()).
  /// `factory` builds one policy per shard over the shard's sub-cluster.
  ShardedService(const Instance& env, const PolicyFactory& factory,
                 ShardedConfig config = {});

  /// Generalized constructor: `handles` builds each shard's ShardHandle —
  /// the distributed leader injects remote handles here and every other
  /// line of the service (routing, re-offers, accounting, checkpoints)
  /// runs unchanged.
  ShardedService(const Instance& env, const HandleFactory& handles,
                 ShardedConfig config = {});

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  // --- Producer side (thread-safe) ----------------------------------------

  service::SubmitResult submit(const Task& bid);
  void close() { queue_.close(); }

  // --- Consumer side (single leader thread) --------------------------------

  /// Register before the first step (the slot loop reads the list
  /// unlocked). Callbacks fire on the leader thread, outcomes sorted by
  /// task id within each slot.
  void add_subscriber(service::DecisionSubscriber* subscriber);

  /// Decides the current slot across the shards, then advances it. Throws
  /// std::logic_error on policy contract violations (exactly the engine's
  /// checks, rethrown from the offending shard's thread) or when already
  /// past the horizon.
  void step();

  /// Absorbs queued bids into the held-bid map without advancing the slot
  /// or running the policy, freeing queue capacity (and waking producers
  /// blocked under kBlock backpressure). Decisions are unchanged: step()
  /// treats a pumped bid exactly like one it drained itself. Offline replay
  /// uses this to ingest a bid stream longer than the queue capacity
  /// before the first step; a plain "join the feeder, then step" would
  /// deadlock there. Pumped bids count as pending, not drained, in
  /// subsequent SlotReports.
  void pump();

  /// Drives step() to the horizon, pacing by `slot_period` (zero = as fast
  /// as possible); fast-forwards once closed and idle.
  void run(std::chrono::nanoseconds slot_period);

  [[nodiscard]] Slot current_slot() const noexcept { return next_slot_; }
  [[nodiscard]] Slot horizon() const noexcept { return horizon_; }
  [[nodiscard]] bool done() const noexcept { return next_slot_ >= horizon_; }
  /// True once no further bid can arrive or become due: the queue is closed
  /// and empty and no accepted bid waits for a future slot. run() and
  /// external slot loops use this to fast-forward the remaining empty
  /// slots. Leader thread only (reads the held-bid map).
  [[nodiscard]] bool idle() const noexcept {
    return queue_.closed() && queue_.depth() == 0 && held_.empty();
  }

  /// Terminal accounting: per-shard and aggregate ledger-vs-bookings
  /// cross-checks, fleet utilization, accumulated SimResult. Requires
  /// done(); call once.
  [[nodiscard]] SimResult finish();

  // --- Checkpoint / restore ------------------------------------------------

  /// Snapshot of the full decision state of all K shards plus the service's
  /// accounting and undecided bids. Take it between slots on the leader
  /// thread (every runner is parked then).
  [[nodiscard]] ShardedCheckpoint checkpoint() const;

  /// Rewinds a *fresh* service (no submits, no steps) to the checkpointed
  /// state. The environment, policy factory, and sharding/router config
  /// must match; throws std::invalid_argument otherwise.
  void restore(const ShardedCheckpoint& checkpoint);

  // --- Introspection -------------------------------------------------------

  [[nodiscard]] const service::BidQueue& queue() const noexcept {
    return queue_;
  }
  [[nodiscard]] service::MetricsSnapshot metrics() const {
    return metrics_.snapshot();
  }
  [[nodiscard]] obs::MetricsRegistry& registry() noexcept {
    return metrics_.registry();
  }
  [[nodiscard]] const ShardPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const Router& router() const noexcept { return router_; }
  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(shards_.size());
  }
  /// Shards whose handle reported dead (remote agent crashed). The service
  /// routes around them; their last known bookings still count.
  [[nodiscard]] int dead_shards() const noexcept {
    int dead = 0;
    for (const auto& shard : shards_) dead += shard->alive() ? 0 : 1;
    return dead;
  }

  /// Sum over slots and re-offer rounds of the slowest shard's decision
  /// time in that round — the decision latency a K-thread deployment pays
  /// per slot (shards within a round run concurrently; rounds are
  /// sequential). Requires time_decisions; bench/micro_shard reports
  /// throughput against this alongside wall clock, which on a single-core
  /// host serializes the shards and hides the parallel speedup.
  [[nodiscard]] double critical_path_seconds() const noexcept {
    return critical_seconds_;
  }

  /// Bids that were admitted by a shard other than their first choice —
  /// welfare the second chance recovered. Subset of rerouted_bids().
  [[nodiscard]] std::uint64_t reroute_admits() const noexcept {
    return reroute_admits_;
  }
  /// Bids re-offered at least once (second-chance budget consumed).
  [[nodiscard]] std::uint64_t rerouted_bids() const noexcept {
    return rerouted_bids_;
  }
  /// Bids moved off a dead shard (does not consume the reroute budget).
  [[nodiscard]] std::uint64_t failover_bids() const noexcept {
    return failover_bids_;
  }

 private:
  void init_shards(const Instance& env, const HandleFactory& handles);
  /// K=1: no routing, so no price board to read or keep current.
  [[nodiscard]] bool sole_shard() const noexcept { return shards_.size() == 1; }
  void decide_batch(Slot now, std::vector<Task>& batch, std::size_t drained,
                    std::size_t queue_depth);
  void reject_late(const Task& bid);

  Cluster cluster_;
  EnergyModel energy_;
  Marketplace market_;
  Slot horizon_;
  ShardedConfig config_;

  ShardPlan plan_;
  PriceBoard board_;
  Router router_;
  /// owner_[global node] = (shard, local id) — outage mapping.
  std::vector<std::pair<int, NodeId>> owner_;
  std::vector<std::unique_ptr<ShardHandle>> shards_;

  service::BidQueue queue_;
  service::ServiceMetrics metrics_;
  std::vector<service::DecisionSubscriber*> subscribers_;

  // Documented exemption (DESIGN.md §13): everything below is
  // leader-thread-only — producers touch only queue_ (internally locked)
  // and metrics_; shard state crosses threads exclusively through the
  // round protocol (each handle's own locks) and the seqlock board_.
  // dirty_ is the single cross-thread flag and stays an atomic.
  std::map<Slot, std::vector<Task>> held_;
  Slot next_slot_ = 0;
  bool finished_ = false;
  std::atomic<bool> dirty_{false};
  double booked_compute_ = 0.0;
  double critical_seconds_ = 0.0;
  std::uint64_t reroute_admits_ = 0;
  std::uint64_t rerouted_bids_ = 0;
  std::uint64_t routed_bids_ = 0;
  std::uint64_t failover_bids_ = 0;
  // Router reroute volume, exported through the service registry
  // (lorasched_router_* — see DESIGN.md §10).
  obs::Counter* reroutes_total_ = nullptr;
  obs::Counter* reroute_admits_total_ = nullptr;
  obs::Counter* failovers_total_ = nullptr;
  obs::Gauge* reroute_ratio_ = nullptr;
  // Round-phase latency histograms (arm/offer/decide per re-offer round,
  // publish per slot — DESIGN.md §12).
  obs::Histogram* phase_arm_ = nullptr;
  obs::Histogram* phase_offer_ = nullptr;
  obs::Histogram* phase_decide_ = nullptr;
  obs::Histogram* phase_publish_ = nullptr;

  Metrics sim_metrics_;
  std::vector<TaskOutcome> outcomes_;
  std::vector<Schedule> schedules_;
};

}  // namespace lorasched::shard
