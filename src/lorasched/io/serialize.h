// Serialization of workloads and results.
//
// Experiments are reproducible from a (config, seed) pair, but exporting
// the concrete realization matters for (a) analyzing runs with external
// tooling, (b) replaying the exact same bid sequence against a modified
// algorithm, and (c) publishing workloads alongside results. Tasks and
// per-task outcomes round-trip through CSV; scenario configs round-trip
// through a `key = value` text format.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "lorasched/experiments/scenario.h"
#include "lorasched/shard/sharded_checkpoint.h"
#include "lorasched/sim/metrics.h"
#include "lorasched/workload/task.h"

namespace lorasched::io {

/// Writes tasks (all bid/demand fields) as CSV with a header row.
void write_tasks_csv(std::ostream& out, const std::vector<Task>& tasks);

/// Reads tasks written by write_tasks_csv. Throws std::invalid_argument on
/// malformed input (wrong header, bad field count, unparsable numbers).
[[nodiscard]] std::vector<Task> read_tasks_csv(std::istream& in);

/// Writes per-task auction outcomes as CSV with a header row.
void write_outcomes_csv(std::ostream& out,
                        const std::vector<TaskOutcome>& outcomes);

/// Writes a scenario config as `key = value` lines (flat fields only; the
/// nested taskgen/energy/market configs use their compiled defaults unless
/// present as dotted keys).
void write_scenario(std::ostream& out, const ScenarioConfig& config);

/// Reads a scenario written by write_scenario. Unknown keys throw.
[[nodiscard]] ScenarioConfig read_scenario(std::istream& in);

// --- Streaming bids (the lorasched_serve wire format) ----------------------
// One bid per line: the task CSV columns, comma-separated, no header —
// what lorasched_feed emits and lorasched_serve ingests from stdin or a
// trace file.

[[nodiscard]] std::string format_bid_line(const Task& task);
/// Throws std::invalid_argument on wrong field count or unparsable numbers.
[[nodiscard]] Task parse_bid_line(const std::string& line);

// --- Service checkpoints ----------------------------------------------------
// The one checkpoint format: a text round-trip of a shard::ShardedCheckpoint
// with one labeled section per shard (bookings, policy dump, ledger grids),
// then the service-level decision log. A single-shard service writes one
// shard section. Full double precision (17 significant digits), so restore
// + resume is bit-identical.

void write_sharded_checkpoint(std::ostream& out,
                              const shard::ShardedCheckpoint& checkpoint);
/// Throws std::invalid_argument on a malformed or truncated checkpoint.
[[nodiscard]] shard::ShardedCheckpoint read_sharded_checkpoint(
    std::istream& in);

}  // namespace lorasched::io
