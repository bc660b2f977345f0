// The scheduling-policy interface the simulation engine drives.
//
// Once per slot the engine hands the policy the batch of tasks that arrived
// at that slot (for pdFTSP/EFT/NTM the batch is processed task-by-task; for
// Titan it is solved jointly, matching the paper's per-slot adaptation).
//
// Contract: for every decision with admit == true the policy must book the
// schedule's (node, slot) reservations into ctx.ledger via commit_decision()
// before returning. The ledger throws on over-booking, so capacity
// violations are impossible by construction; the engine additionally
// validates windows/work and cross-checks that booked totals match the
// admitted schedules.
#pragma once

#include <string_view>
#include <vector>

#include "lorasched/cluster/capacity_ledger.h"
#include "lorasched/cluster/cluster.h"
#include "lorasched/cluster/energy.h"
#include "lorasched/core/schedule.h"
#include "lorasched/types.h"
#include "lorasched/workload/task.h"
#include "lorasched/workload/vendor.h"

namespace lorasched {

/// The auction outcome for one task.
struct Decision {
  TaskId task = -1;
  bool admit = false;
  /// Valid when admit is true; finalized (totals/costs computed).
  Schedule schedule;
  /// p_i — what the user pays. Zero for policies without pricing (the
  /// baselines); social welfare does not depend on it.
  Money payment = 0.0;
};

/// Everything a policy may look at (and book into) when deciding a slot.
struct SlotContext {
  Slot now = 0;
  const std::vector<Task>& arrivals;
  const Cluster& cluster;
  const EnergyModel& energy;
  const Marketplace& market;
  /// Ground-truth bookings; policies reserve through commit_decision().
  CapacityLedger& ledger;
};

/// Books every (node, slot) of an admitted decision. No-op when !admit.
/// Throws std::logic_error if any reservation does not fit.
void commit_decision(CapacityLedger& ledger, const Cluster& cluster,
                     const Task& task, const Decision& decision);

class Policy {
 public:
  virtual ~Policy() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Returns one decision per arrival, in arrival order; admitted decisions
  /// must already be booked into ctx.ledger (see commit_decision).
  [[nodiscard]] virtual std::vector<Decision> on_slot(const SlotContext& ctx) = 0;
};

/// Mixin for policies whose mutable state must survive a service
/// checkpoint/restore cycle (shard/sharded_service.h). The state is a
/// flat vector of doubles — opaque to the service and the serializer — such
/// that a freshly constructed policy of the same configuration, after
/// restore_state(), makes bit-identical decisions to the original.
/// Stateless policies (the greedy baselines) simply don't implement it.
class CheckpointableState {
 public:
  virtual ~CheckpointableState() = default;
  [[nodiscard]] virtual std::vector<double> checkpoint_state() const = 0;
  /// Restores a dump produced by checkpoint_state() on an identically
  /// configured policy. Throws std::invalid_argument on shape mismatch.
  virtual void restore_state(const std::vector<double>& state) = 0;
};

}  // namespace lorasched
