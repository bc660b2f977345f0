// Typed control-plane messages and their wire codecs (DESIGN.md §11).
//
// Each message struct maps 1:1 to a MsgType frame. encode() produces the
// payload bytes; each decode_*() parses a payload and throws WireError on
// anything malformed (truncation, absurd counts, trailing bytes). Doubles
// cross as fixed64 bit patterns, so a decoded Task / PriceSnapshot /
// checkpoint state compares bit-identical to what the peer encoded —
// test_net pins the round trips.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lorasched/cluster/capacity_ledger.h"
#include "lorasched/cluster/cluster.h"
#include "lorasched/core/schedule.h"
#include "lorasched/net/wire.h"
#include "lorasched/obs/cluster_trace.h"
#include "lorasched/obs/federation.h"
#include "lorasched/shard/price_board.h"
#include "lorasched/types.h"
#include "lorasched/workload/task.h"
#include "lorasched/workload/vendor.h"

namespace lorasched::net {

/// FNV-1a digest of the environment both processes must agree on (fleet
/// shape and capacities, base-model size, vendor count, horizon). A leader
/// and host-agent launched with different scenarios fail the handshake
/// instead of silently diverging.
[[nodiscard]] std::uint64_t env_digest(const Cluster& cluster,
                                       const Marketplace& market,
                                       Slot horizon);

struct HelloMsg {
  std::uint64_t digest = 0;
  std::int32_t nodes = 0;
  std::int32_t classes = 0;
  Slot horizon = 0;
  std::int32_t shards_total = 0;
};

struct HelloAckMsg {
  std::uint64_t digest = 0;
};

/// Everything a host-agent needs to build one ShardRunner identical to the
/// in-process one: the shard's global members plus the pdFTSP pricing
/// parameters (the agent derives cluster/energy/market from its own copy
/// of the scenario, verified by the Hello digest).
struct AssignShardMsg {
  std::int32_t shard_id = -1;
  std::vector<NodeId> members;
  double alpha = 1.0;
  double beta = 1.0;
  double welfare_unit = 1.0;
  std::vector<double> share_options;
  bool time_decisions = true;
};

struct AssignAckMsg {
  std::int32_t shard_id = -1;
};

struct BlockCellsMsg {
  std::int32_t shard_id = -1;
  /// (shard-local node, slot) outage cells.
  std::vector<std::pair<NodeId, Slot>> cells;
};

struct BlockAckMsg {
  std::int32_t shard_id = -1;
};

struct BeginRoundMsg {
  std::int32_t shard_id = -1;
  Slot slot = 0;
  std::uint64_t expected = 0;
};

struct OfferMsg {
  std::int32_t shard_id = -1;
  Task task;
  /// Trace context (DESIGN.md §12): the leader's round trace id and bid
  /// span id. Always encoded; both zero when tracing is off, and never
  /// consulted by decision logic (bit-identity pinned by tests).
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

/// One bid's outcome inside a RoundResults frame. The leader already holds
/// the Task, so only the decision crosses back; schedule node ids are
/// shard-local, exactly like ShardRunner::RoundResult.
struct WireDecision {
  TaskId task = -1;
  bool admit = false;
  Money payment = 0.0;
  double decide_seconds = 0.0;
  Schedule schedule;
};

struct RoundResultsMsg {
  std::int32_t shard_id = -1;
  Slot slot = 0;
  std::vector<WireDecision> results;
  /// The shard's post-round price summary (published_slot = slot), shipped
  /// with the results so the leader's board update is part of the round.
  shard::PriceSnapshot snapshot;
  /// Agent-side spans for this round (empty when the offers carried no
  /// trace context); offsets are relative to the agent's round start.
  std::vector<obs::RemoteSpan> spans;
};

struct PublishRequestMsg {
  std::int32_t shard_id = -1;
  Slot from = 0;
};

struct PublishReplyMsg {
  std::int32_t shard_id = -1;
  shard::PriceSnapshot snapshot;
};

struct StateRequestMsg {
  std::int32_t shard_id = -1;
};

/// One shard's full decision state — the unit of the cluster checkpoint
/// and of reconnect-time resync.
struct ShardWireState {
  double booked_compute = 0.0;
  std::vector<double> policy_state;
  CapacityLedger::Snapshot ledger;
};

struct StateReplyMsg {
  std::int32_t shard_id = -1;
  ShardWireState state;
};

struct RestoreStateMsg {
  std::int32_t shard_id = -1;
  ShardWireState state;
};

struct RestoreAckMsg {
  std::int32_t shard_id = -1;
};

/// A failed request: the agent ships the exception text back so the leader
/// can rethrow it with full context (shard_id < 0 = connection-level).
struct ErrorMsg {
  std::int32_t shard_id = -1;
  std::string message;
};

/// One metrics push: the agent's process-wide registry plus each assigned
/// shard's registry as cumulative snapshots (replace-not-add federation,
/// see obs/federation.h). `seq` increments per push so the leader can drop
/// duplicates after a resync.
struct MetricsSnapshotMsg {
  std::string agent;
  std::uint64_t seq = 0;
  std::vector<obs::MetricsGroup> groups;
};

// --- Bid-ingest stream (DESIGN.md §14) --------------------------------------

/// One sequenced bid from a firehose source. `send_ns` is an opaque
/// timestamp on the *sender's* monotonic clock; the server never interprets
/// it, only echoes it back in the decision so a stateless client can
/// compute end-to-end latency without clock synchronization.
struct BidSubmitMsg {
  std::uint32_t source = 0;
  std::uint64_t seq = 0;
  std::int64_t send_ns = 0;
  Task task;
};

/// Terminal status of one submitted bid. Wire-stable values — matches
/// loadgen::SoakStatus.
enum class BidStatus : std::uint8_t {
  kAdmitted = 0,
  kRejected = 1,
  kShedFull = 2,    // ingest queue full (BackpressureMode::kReject)
  kShedClosed = 3,  // service no longer accepting bids
};

/// The server's answer to one BidSubmit: decision (or shed), payment for
/// admitted bids, the slot it was decided at, and the echoed send stamp.
struct BidDecisionMsg {
  std::uint32_t source = 0;
  std::uint64_t seq = 0;
  std::int64_t send_ns = 0;
  TaskId task = -1;
  BidStatus status = BidStatus::kRejected;
  Money payment = 0.0;
  Slot decided_slot = -1;
};

/// End-of-stream marker: this source offered `offered` bids and will send
/// no more. When every expected ingest client has ended its stream, the
/// server closes its bid queue so a horizon-free run can quiesce.
struct BidStreamEndMsg {
  std::uint32_t source = 0;
  std::uint64_t offered = 0;
};

// --- Payload codecs ---------------------------------------------------------

[[nodiscard]] std::vector<std::uint8_t> encode(const HelloMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const HelloAckMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const AssignShardMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const AssignAckMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const BlockCellsMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const BlockAckMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const BeginRoundMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const OfferMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const RoundResultsMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const PublishRequestMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const PublishReplyMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const StateRequestMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const StateReplyMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const RestoreStateMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const RestoreAckMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const ErrorMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const MetricsSnapshotMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const BidSubmitMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const BidDecisionMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const BidStreamEndMsg& m);

[[nodiscard]] HelloMsg decode_hello(const std::vector<std::uint8_t>& p);
[[nodiscard]] HelloAckMsg decode_hello_ack(const std::vector<std::uint8_t>& p);
[[nodiscard]] AssignShardMsg decode_assign_shard(
    const std::vector<std::uint8_t>& p);
[[nodiscard]] AssignAckMsg decode_assign_ack(
    const std::vector<std::uint8_t>& p);
[[nodiscard]] BlockCellsMsg decode_block_cells(
    const std::vector<std::uint8_t>& p);
[[nodiscard]] BlockAckMsg decode_block_ack(const std::vector<std::uint8_t>& p);
[[nodiscard]] BeginRoundMsg decode_begin_round(
    const std::vector<std::uint8_t>& p);
[[nodiscard]] OfferMsg decode_offer(const std::vector<std::uint8_t>& p);
[[nodiscard]] RoundResultsMsg decode_round_results(
    const std::vector<std::uint8_t>& p);
[[nodiscard]] PublishRequestMsg decode_publish_request(
    const std::vector<std::uint8_t>& p);
[[nodiscard]] PublishReplyMsg decode_publish_reply(
    const std::vector<std::uint8_t>& p);
[[nodiscard]] StateRequestMsg decode_state_request(
    const std::vector<std::uint8_t>& p);
[[nodiscard]] StateReplyMsg decode_state_reply(
    const std::vector<std::uint8_t>& p);
[[nodiscard]] RestoreStateMsg decode_restore_state(
    const std::vector<std::uint8_t>& p);
[[nodiscard]] RestoreAckMsg decode_restore_ack(
    const std::vector<std::uint8_t>& p);
[[nodiscard]] ErrorMsg decode_error(const std::vector<std::uint8_t>& p);
[[nodiscard]] MetricsSnapshotMsg decode_metrics_snapshot(
    const std::vector<std::uint8_t>& p);
[[nodiscard]] BidSubmitMsg decode_bid_submit(const std::vector<std::uint8_t>& p);
[[nodiscard]] BidDecisionMsg decode_bid_decision(
    const std::vector<std::uint8_t>& p);
[[nodiscard]] BidStreamEndMsg decode_bid_stream_end(
    const std::vector<std::uint8_t>& p);

// --- Shared sub-codecs (exposed for fuzzing and tests) ----------------------

void put_task(WireWriter& w, const Task& t);
[[nodiscard]] Task get_task(WireReader& r);
void put_schedule(WireWriter& w, const Schedule& s);
[[nodiscard]] Schedule get_schedule(WireReader& r);
void put_price_snapshot(WireWriter& w, const shard::PriceSnapshot& s);
[[nodiscard]] shard::PriceSnapshot get_price_snapshot(WireReader& r);
void put_ledger(WireWriter& w, const CapacityLedger::Snapshot& s);
[[nodiscard]] CapacityLedger::Snapshot get_ledger(WireReader& r);
void put_metric(WireWriter& w, const obs::MetricSnapshot& m);
[[nodiscard]] obs::MetricSnapshot get_metric(WireReader& r);
void put_histogram_snapshot(WireWriter& w, const obs::HistogramSnapshot& h);
[[nodiscard]] obs::HistogramSnapshot get_histogram_snapshot(WireReader& r);
void put_span(WireWriter& w, const obs::RemoteSpan& s);
[[nodiscard]] obs::RemoteSpan get_span(WireReader& r);

}  // namespace lorasched::net
