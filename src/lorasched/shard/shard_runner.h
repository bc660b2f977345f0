// ShardRunner — one scheduling shard: a private policy instance (its own
// dual grids), a private CapacityLedger over the shard's sub-cluster, and a
// decision thread fed through a bounded BidQueue inbox (DESIGN.md §10).
//
// The runner speaks a slot-synchronous round protocol with the service's
// leader thread:
//
//   leader:  begin_round(slot, n)  →  offer() × n  →  wait_round()
//   runner:  drain inbox until n bids collected → policy->on_slot(batch)
//            → validate/book exactly like run_simulation
//            → publish fresh price summary → park
//
// A fleet's sole shard (K=1) runs inline instead: it starts no thread,
// offer() appends to the round's batch, and wait_round() decides on the
// caller's thread. It publishes no prices either — the router never ranks a
// single shard, so nothing reads them. K=1 thus costs what one policy call
// per slot costs, with no thread handoff and no O(nodes × slots) summary.
//
// begin_round() is called *before* the bids are fed, so a batch larger than
// the inbox capacity cannot deadlock: the runner is already draining while
// the leader is still offering. Between wait_round() and the next
// begin_round() the runner is parked and the leader may freely read or
// restore the shard's state (checkpointing, price re-publication).
//
// Lock discipline (DESIGN.md §13): the worker holds mutex_ for the whole
// decision round, so every piece of decision state (ledger, policy duals,
// bookings, results) is mutex_-guarded and the "parked leader access" rule
// is provable instead of conventional — a leader accessor called mid-round
// blocks until the round ends rather than racing it. The leader never
// blocks the worker: offers flow through the inbox's own lock, and
// wait_round() waiting on mutex_ is exactly the wait it wanted. Lock
// order: mutex_ before the inbox's internal lock (worker drains while
// armed); the leader takes them one at a time, never nested.
//
// Node ids inside the runner are shard-local (0..members-1); to_global()
// maps them back to the fleet's ids. Decisions returned from a round still
// carry local ids — the service remaps when it builds outcomes.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "lorasched/cluster/capacity_ledger.h"
#include "lorasched/cluster/cluster.h"
#include "lorasched/cluster/energy.h"
#include "lorasched/core/pdftsp.h"
#include "lorasched/service/bid_queue.h"
#include "lorasched/shard/price_board.h"
#include "lorasched/shard/shard_handle.h"
#include "lorasched/sim/policy.h"
#include "lorasched/types.h"
#include "lorasched/util/mutex.h"
#include "lorasched/util/thread_annotations.h"
#include "lorasched/workload/task.h"
#include "lorasched/workload/vendor.h"

namespace lorasched::shard {

/// Builds one shard's policy over the shard's own sub-cluster. Invoked once
/// per shard; the cluster reference stays valid for the policy's lifetime.
using PolicyFactory = std::function<std::unique_ptr<Policy>(
    const Cluster& cluster, const EnergyModel& energy, Slot horizon)>;

/// The standard factory: an independent pdFTSP auction per shard, all with
/// the same pricing parameters. Per-shard duals evolve from each shard's
/// own admission stream.
[[nodiscard]] PolicyFactory make_pdftsp_factory(PdftspConfig config);

/// Capacity of each shard's inbox. Sub-batches larger than this still work:
/// the runner drains while the leader feeds.
inline constexpr std::size_t kInboxCapacity = 1024;

class ShardRunner : public ShardHandle {
 public:
  /// Schedule node ids are shard-local; remap through to_global().
  using RoundResult = shard::RoundResult;

  /// `members` are the shard's global node ids (ascending); the runner
  /// copies their profiles into a private sub-cluster. `board` outlives the
  /// runner; the runner publishes to entry `shard_id` only. `sole_shard`
  /// selects the inline K=1 mode (see the file comment).
  ShardRunner(int shard_id, const Cluster& fleet, std::vector<NodeId> members,
              const EnergyModel& energy, const Marketplace& market,
              Slot horizon, const PolicyFactory& factory, PriceBoard& board,
              bool time_decisions, bool sole_shard = false);
  ~ShardRunner();

  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;

  [[nodiscard]] int id() const noexcept override { return shard_id_; }
  [[nodiscard]] const Cluster& cluster() const noexcept { return cluster_; }
  [[nodiscard]] const std::vector<NodeId>& to_global()
      const noexcept override {
    return to_global_;
  }
  /// An in-process shard can never become unreachable.
  [[nodiscard]] bool alive() const noexcept override { return true; }

  /// Pre-blocks a shard-local node-slot (outage calendar). Call before the
  /// first round or between rounds.
  void block(NodeId local_node, Slot t) override EXCLUDES(mutex_);

  /// Wires the shard policy's schedule-DP price-cache metrics into
  /// `registry` (no-op for non-pdFTSP policies). Every shard registers the
  /// same metric names, so the counters aggregate fleet-wide. Call during
  /// setup, before the first round.
  void register_dp_metrics(obs::MetricsRegistry& registry) const override
      EXCLUDES(mutex_);

  // --- Round protocol (leader thread) -------------------------------------

  /// Arms the runner for a decision round at `slot` expecting exactly
  /// `expected` bids (> 0). Feed them with offer(), then wait_round().
  void begin_round(Slot slot, std::size_t expected) override EXCLUDES(mutex_);

  /// Feeds one bid into the armed round's inbox. May block briefly when the
  /// inbox is full — the runner is draining concurrently, so it always
  /// makes progress. Takes only the inbox's internal lock, never mutex_
  /// (the worker holds mutex_ for the whole round). A sole shard appends to
  /// the round's batch under the uncontended mutex_ instead.
  void offer(Task bid) override EXCLUDES(mutex_);

  /// Blocks until the armed round completes; returns one result per offered
  /// bid, in offer order. The reference stays valid until the next
  /// begin_round(). A sole shard decides the round right here.
  [[nodiscard]] const std::vector<RoundResult>& wait_round() override
      EXCLUDES(mutex_);

  /// Publishes the shard's price summary as of `from`: free capacity and
  /// mean duals over slots [from, horizon). The runner publishes
  /// automatically after every round (from = slot + 1); the leader calls
  /// this for shards that sat a slot out, so the board's content is a pure
  /// function of decision history — never of thread timing.
  void publish(Slot from) override EXCLUDES(mutex_);

  // --- Parked-state access (leader thread, between rounds only) -----------

  [[nodiscard]] double booked_compute() const noexcept override
      EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return booked_;
  }
  [[nodiscard]] std::vector<double> policy_state() const EXCLUDES(mutex_);
  void restore_policy_state(const std::vector<double>& state)
      EXCLUDES(mutex_);
  [[nodiscard]] CapacityLedger::Snapshot ledger_snapshot() const
      EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return ledger_.snapshot();
  }
  void restore_ledger(const CapacityLedger::Snapshot& snapshot, double booked)
      EXCLUDES(mutex_);

  [[nodiscard]] ShardState state() const override EXCLUDES(mutex_);
  void restore_state(const ShardState& state) override EXCLUDES(mutex_) {
    restore_policy_state(state.policy_state);
    restore_ledger(state.ledger, state.booked_compute);
  }

  /// Adds this shard's reserved compute and total capacity to the running
  /// sums, in exactly CapacityLedger::compute_utilization()'s accumulation
  /// order — so a 1-shard service reproduces the monolithic utilization
  /// float for float.
  void accumulate_utilization(double& used, double& cap) const override
      EXCLUDES(mutex_);

 private:
  void thread_main() EXCLUDES(mutex_);
  /// Decides batch_ (exactly round_expected_ bids) at round_slot_.
  void decide_round() REQUIRES(mutex_);
  void publish_locked(Slot from) REQUIRES(mutex_);
  [[nodiscard]] std::vector<double> policy_state_locked() const
      REQUIRES(mutex_);

  enum class Command { kIdle, kDecide, kStop };

  const int shard_id_;
  const Slot horizon_;
  const bool time_decisions_;
  const bool sole_shard_;
  std::vector<NodeId> to_global_;
  std::vector<int> global_class_of_local_;  // local node -> fleet class id
  Cluster cluster_;                         // the shard's private sub-cluster
  const EnergyModel& energy_;
  const Marketplace& market_;
  PriceBoard& board_;
  service::BidQueue inbox_;

  mutable util::Mutex mutex_;
  util::CondVar command_cv_;
  util::CondVar done_cv_;
  CapacityLedger ledger_ GUARDED_BY(mutex_);
  std::unique_ptr<Policy> policy_ PT_GUARDED_BY(mutex_);
  /// Non-null iff the policy is a Pdftsp; same pointee as policy_.
  const Pdftsp* pdftsp_ PT_GUARDED_BY(mutex_) = nullptr;
  double booked_ GUARDED_BY(mutex_) = 0.0;
  Command command_ GUARDED_BY(mutex_) = Command::kIdle;
  Slot round_slot_ GUARDED_BY(mutex_) = 0;
  std::size_t round_expected_ GUARDED_BY(mutex_) = 0;
  bool round_done_ GUARDED_BY(mutex_) = false;
  /// The armed round's bids, in offer order.
  std::vector<Task> batch_ GUARDED_BY(mutex_);
  /// A throw inside the round (policy/validation bug) parks here and is
  /// rethrown to the leader from wait_round().
  std::exception_ptr round_error_ GUARDED_BY(mutex_);
  std::vector<RoundResult> results_ GUARDED_BY(mutex_);
  std::thread worker_;  // not started for a sole shard
};

}  // namespace lorasched::shard
