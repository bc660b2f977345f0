// Checkpoint of a running ShardedService — the serving stack's one
// checkpoint format, with K=1 as its degenerate single-section case.
// Restoring into a freshly constructed service over the same environment,
// the same policy factory, and the same ShardedConfig reproduces the
// original bit for bit: every shard's dual grids and ledger
// commitments round-trip independently, and the shard-count / router-seed
// fields are cross-checked on restore so a checkpoint cannot silently
// resume under a different partitioning (routing would diverge).
// io::write_sharded_checkpoint / io::read_sharded_checkpoint serialize it
// through a text stream with full double precision.
#pragma once

#include <cstdint>
#include <vector>

#include "lorasched/cluster/capacity_ledger.h"
#include "lorasched/core/schedule.h"
#include "lorasched/sim/metrics.h"
#include "lorasched/types.h"
#include "lorasched/workload/task.h"

namespace lorasched::shard {

/// One shard's private decision state.
struct ShardState {
  /// Sum of this shard's admitted schedules' compute (the shard-local
  /// conservation cross-check).
  double booked_compute = 0.0;
  /// Opaque policy dump (CheckpointableState::checkpoint_state()).
  std::vector<double> policy_state;
  CapacityLedger::Snapshot ledger;
};

struct ShardedCheckpoint {
  /// First slot the restored service will process.
  Slot next_slot = 0;
  Slot horizon = 0;
  /// Partitioning/routing identity — must match the restoring service's
  /// configuration exactly (the node partition is a deterministic function
  /// of cluster + shard count, so these three pin it).
  int shards = 0;
  std::uint64_t router_seed = 0;
  int reroute_attempts = 0;
  /// Aggregate booked compute across shards (equals the shard sum; stored
  /// for finish()'s aggregate cross-check).
  double booked_compute = 0.0;
  std::vector<ShardState> shard_states;
  /// Bids accepted (queued or held for a future slot) but not yet decided.
  std::vector<Task> pending;
  /// Decisions made so far, in decision order, with aligned schedules
  /// (fleet node ids).
  std::vector<TaskOutcome> outcomes;
  std::vector<Schedule> schedules;
  Metrics metrics;
};

}  // namespace lorasched::shard
