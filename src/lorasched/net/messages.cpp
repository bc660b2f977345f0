#include "lorasched/net/messages.h"

namespace lorasched::net {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

void fnv(std::uint64_t& h, double v) {
  fnv(h, std::bit_cast<std::uint64_t>(v));
}

void put_node_ids(WireWriter& w, const std::vector<NodeId>& ids) {
  w.put_varint(ids.size());
  for (const NodeId id : ids) w.put_svarint(id);
}

std::vector<NodeId> get_node_ids(WireReader& r, const char* what) {
  const std::uint64_t n = r.get_count(what);
  std::vector<NodeId> ids(static_cast<std::size_t>(n));
  for (NodeId& id : ids) id = static_cast<NodeId>(r.get_svarint(what));
  return ids;
}

void put_shard_state(WireWriter& w, const ShardWireState& s) {
  w.put_f64(s.booked_compute);
  w.put_doubles(s.policy_state);
  put_ledger(w, s.ledger);
}

ShardWireState get_shard_state(WireReader& r) {
  ShardWireState s;
  s.booked_compute = r.get_f64("state booked");
  s.policy_state = r.get_doubles("state policy");
  s.ledger = get_ledger(r);
  return s;
}

}  // namespace

std::uint64_t env_digest(const Cluster& cluster, const Marketplace& market,
                         Slot horizon) {
  std::uint64_t h = kFnvOffset;
  fnv(h, static_cast<std::uint64_t>(cluster.node_count()));
  fnv(h, static_cast<std::uint64_t>(cluster.class_count()));
  fnv(h, static_cast<std::uint64_t>(horizon));
  fnv(h, cluster.base_model_gb());
  for (NodeId k = 0; k < cluster.node_count(); ++k) {
    fnv(h, static_cast<std::uint64_t>(cluster.node_class(k)));
    fnv(h, cluster.compute_capacity(k));
    fnv(h, cluster.mem_capacity(k));
  }
  fnv(h, static_cast<std::uint64_t>(market.vendor_count()));
  fnv(h, market.config().price_lo);
  fnv(h, market.config().price_hi);
  return h;
}

void put_task(WireWriter& w, const Task& t) {
  w.put_svarint(t.id);
  w.put_svarint(t.arrival);
  w.put_svarint(t.deadline);
  w.put_f64(t.dataset_samples);
  w.put_svarint(t.epochs);
  w.put_f64(t.work);
  w.put_f64(t.mem_gb);
  w.put_f64(t.compute_share);
  w.put_bool(t.needs_prep);
  w.put_svarint(t.model);
  w.put_f64(t.bid);
  w.put_f64(t.true_value);
}

Task get_task(WireReader& r) {
  Task t;
  t.id = static_cast<TaskId>(r.get_svarint("task id"));
  t.arrival = static_cast<Slot>(r.get_svarint("task arrival"));
  t.deadline = static_cast<Slot>(r.get_svarint("task deadline"));
  t.dataset_samples = r.get_f64("task dataset");
  t.epochs = static_cast<int>(r.get_svarint("task epochs"));
  t.work = r.get_f64("task work");
  t.mem_gb = r.get_f64("task mem");
  t.compute_share = r.get_f64("task share");
  t.needs_prep = r.get_bool("task prep");
  t.model = static_cast<int>(r.get_svarint("task model"));
  t.bid = r.get_f64("task bid");
  t.true_value = r.get_f64("task value");
  return t;
}

void put_schedule(WireWriter& w, const Schedule& s) {
  w.put_svarint(s.task);
  w.put_svarint(s.vendor);
  w.put_f64(s.vendor_price);
  w.put_svarint(s.prep_delay);
  w.put_varint(s.run.size());
  for (const Assignment& a : s.run) {
    w.put_svarint(a.node);
    w.put_svarint(a.slot);
  }
  w.put_f64(s.total_compute);
  w.put_f64(s.total_mem);
  w.put_f64(s.norm_compute);
  w.put_f64(s.norm_mem);
  w.put_f64(s.energy_cost);
  w.put_f64(s.welfare_gain);
  w.put_bool(s.exclusive);
  w.put_f64(s.share_override);
}

Schedule get_schedule(WireReader& r) {
  Schedule s;
  s.task = static_cast<TaskId>(r.get_svarint("schedule task"));
  s.vendor = static_cast<VendorId>(r.get_svarint("schedule vendor"));
  s.vendor_price = r.get_f64("schedule vendor price");
  s.prep_delay = static_cast<Slot>(r.get_svarint("schedule prep delay"));
  const std::uint64_t n = r.get_count("schedule run length");
  s.run.resize(static_cast<std::size_t>(n));
  for (Assignment& a : s.run) {
    a.node = static_cast<NodeId>(r.get_svarint("schedule node"));
    a.slot = static_cast<Slot>(r.get_svarint("schedule slot"));
  }
  s.total_compute = r.get_f64("schedule compute");
  s.total_mem = r.get_f64("schedule mem");
  s.norm_compute = r.get_f64("schedule norm compute");
  s.norm_mem = r.get_f64("schedule norm mem");
  s.energy_cost = r.get_f64("schedule energy");
  s.welfare_gain = r.get_f64("schedule welfare");
  s.exclusive = r.get_bool("schedule exclusive");
  s.share_override = r.get_f64("schedule share override");
  return s;
}

void put_price_snapshot(WireWriter& w, const shard::PriceSnapshot& s) {
  w.put_svarint(s.published_slot);
  w.put_f64(s.free_compute);
  w.put_varint(s.classes.size());
  for (const shard::ClassPrice& c : s.classes) {
    w.put_f64(c.free_compute);
    w.put_f64(c.free_mem);
    w.put_f64(c.mean_lambda);
    w.put_f64(c.mean_phi);
  }
}

shard::PriceSnapshot get_price_snapshot(WireReader& r) {
  shard::PriceSnapshot s;
  s.published_slot = static_cast<Slot>(r.get_svarint("snapshot slot"));
  s.free_compute = r.get_f64("snapshot free compute");
  const std::uint64_t n = r.get_count("snapshot class count");
  s.classes.resize(static_cast<std::size_t>(n));
  for (shard::ClassPrice& c : s.classes) {
    c.free_compute = r.get_f64("class free compute");
    c.free_mem = r.get_f64("class free mem");
    c.mean_lambda = r.get_f64("class lambda");
    c.mean_phi = r.get_f64("class phi");
  }
  return s;
}

void put_ledger(WireWriter& w, const CapacityLedger::Snapshot& s) {
  w.put_svarint(s.nodes);
  w.put_svarint(s.horizon);
  w.put_doubles(s.used_compute);
  w.put_doubles(s.used_mem);
  w.put_varint(s.task_count.size());
  for (const int v : s.task_count) w.put_svarint(v);
  w.put_varint(s.exclusive.size());
  for (const char v : s.exclusive) w.put_u8(v != 0 ? 1 : 0);
  w.put_varint(s.blocked.size());
  for (const char v : s.blocked) w.put_u8(v != 0 ? 1 : 0);
}

CapacityLedger::Snapshot get_ledger(WireReader& r) {
  CapacityLedger::Snapshot s;
  s.nodes = static_cast<int>(r.get_svarint("ledger nodes"));
  s.horizon = static_cast<Slot>(r.get_svarint("ledger horizon"));
  s.used_compute = r.get_doubles("ledger used compute");
  s.used_mem = r.get_doubles("ledger used mem");
  const std::uint64_t counts = r.get_count("ledger task counts");
  s.task_count.resize(static_cast<std::size_t>(counts));
  for (int& v : s.task_count) {
    v = static_cast<int>(r.get_svarint("ledger task count"));
  }
  const std::uint64_t exclusive = r.get_count("ledger exclusive count");
  s.exclusive.resize(static_cast<std::size_t>(exclusive));
  for (char& v : s.exclusive) {
    v = static_cast<char>(r.get_u8("ledger exclusive"));
  }
  const std::uint64_t blocked = r.get_count("ledger blocked count");
  s.blocked.resize(static_cast<std::size_t>(blocked));
  for (char& v : s.blocked) v = static_cast<char>(r.get_u8("ledger blocked"));
  return s;
}

std::vector<std::uint8_t> encode(const HelloMsg& m) {
  WireWriter w;
  w.put_varint(m.digest);
  w.put_svarint(m.nodes);
  w.put_svarint(m.classes);
  w.put_svarint(m.horizon);
  w.put_svarint(m.shards_total);
  return w.take();
}

HelloMsg decode_hello(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  HelloMsg m;
  m.digest = r.get_varint("hello digest");
  m.nodes = static_cast<std::int32_t>(r.get_svarint("hello nodes"));
  m.classes = static_cast<std::int32_t>(r.get_svarint("hello classes"));
  m.horizon = static_cast<Slot>(r.get_svarint("hello horizon"));
  m.shards_total = static_cast<std::int32_t>(r.get_svarint("hello shards"));
  r.expect_done("hello");
  return m;
}

std::vector<std::uint8_t> encode(const HelloAckMsg& m) {
  WireWriter w;
  w.put_varint(m.digest);
  return w.take();
}

HelloAckMsg decode_hello_ack(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  HelloAckMsg m;
  m.digest = r.get_varint("hello_ack digest");
  r.expect_done("hello_ack");
  return m;
}

std::vector<std::uint8_t> encode(const AssignShardMsg& m) {
  WireWriter w;
  w.put_svarint(m.shard_id);
  put_node_ids(w, m.members);
  w.put_f64(m.alpha);
  w.put_f64(m.beta);
  w.put_f64(m.welfare_unit);
  w.put_doubles(m.share_options);
  w.put_bool(m.time_decisions);
  return w.take();
}

AssignShardMsg decode_assign_shard(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  AssignShardMsg m;
  m.shard_id = static_cast<std::int32_t>(r.get_svarint("assign shard id"));
  m.members = get_node_ids(r, "assign members");
  m.alpha = r.get_f64("assign alpha");
  m.beta = r.get_f64("assign beta");
  m.welfare_unit = r.get_f64("assign welfare unit");
  m.share_options = r.get_doubles("assign share options");
  m.time_decisions = r.get_bool("assign timing");
  r.expect_done("assign_shard");
  return m;
}

std::vector<std::uint8_t> encode(const AssignAckMsg& m) {
  WireWriter w;
  w.put_svarint(m.shard_id);
  return w.take();
}

AssignAckMsg decode_assign_ack(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  AssignAckMsg m;
  m.shard_id = static_cast<std::int32_t>(r.get_svarint("assign_ack shard"));
  r.expect_done("assign_ack");
  return m;
}

std::vector<std::uint8_t> encode(const BlockCellsMsg& m) {
  WireWriter w;
  w.put_svarint(m.shard_id);
  w.put_varint(m.cells.size());
  for (const auto& [node, slot] : m.cells) {
    w.put_svarint(node);
    w.put_svarint(slot);
  }
  return w.take();
}

BlockCellsMsg decode_block_cells(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  BlockCellsMsg m;
  m.shard_id = static_cast<std::int32_t>(r.get_svarint("block shard"));
  const std::uint64_t n = r.get_count("block cell count");
  m.cells.resize(static_cast<std::size_t>(n));
  for (auto& [node, slot] : m.cells) {
    node = static_cast<NodeId>(r.get_svarint("block node"));
    slot = static_cast<Slot>(r.get_svarint("block slot"));
  }
  r.expect_done("block_cells");
  return m;
}

std::vector<std::uint8_t> encode(const BlockAckMsg& m) {
  WireWriter w;
  w.put_svarint(m.shard_id);
  return w.take();
}

BlockAckMsg decode_block_ack(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  BlockAckMsg m;
  m.shard_id = static_cast<std::int32_t>(r.get_svarint("block_ack shard"));
  r.expect_done("block_ack");
  return m;
}

std::vector<std::uint8_t> encode(const BeginRoundMsg& m) {
  WireWriter w;
  w.put_svarint(m.shard_id);
  w.put_svarint(m.slot);
  w.put_varint(m.expected);
  return w.take();
}

BeginRoundMsg decode_begin_round(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  BeginRoundMsg m;
  m.shard_id = static_cast<std::int32_t>(r.get_svarint("round shard"));
  m.slot = static_cast<Slot>(r.get_svarint("round slot"));
  m.expected = r.get_count("round expected");
  r.expect_done("begin_round");
  return m;
}

std::vector<std::uint8_t> encode(const OfferMsg& m) {
  WireWriter w;
  w.put_svarint(m.shard_id);
  put_task(w, m.task);
  w.put_varint(m.trace_id);
  w.put_varint(m.parent_span);
  return w.take();
}

OfferMsg decode_offer(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  OfferMsg m;
  m.shard_id = static_cast<std::int32_t>(r.get_svarint("offer shard"));
  m.task = get_task(r);
  m.trace_id = r.get_varint("offer trace id");
  m.parent_span = r.get_varint("offer parent span");
  r.expect_done("offer");
  return m;
}

std::vector<std::uint8_t> encode(const RoundResultsMsg& m) {
  WireWriter w;
  w.put_svarint(m.shard_id);
  w.put_svarint(m.slot);
  w.put_varint(m.results.size());
  for (const WireDecision& d : m.results) {
    w.put_svarint(d.task);
    w.put_bool(d.admit);
    w.put_f64(d.payment);
    w.put_f64(d.decide_seconds);
    if (d.admit) put_schedule(w, d.schedule);
  }
  put_price_snapshot(w, m.snapshot);
  w.put_varint(m.spans.size());
  for (const obs::RemoteSpan& s : m.spans) put_span(w, s);
  return w.take();
}

RoundResultsMsg decode_round_results(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  RoundResultsMsg m;
  m.shard_id = static_cast<std::int32_t>(r.get_svarint("results shard"));
  m.slot = static_cast<Slot>(r.get_svarint("results slot"));
  const std::uint64_t n = r.get_count("results count");
  m.results.resize(static_cast<std::size_t>(n));
  for (WireDecision& d : m.results) {
    d.task = static_cast<TaskId>(r.get_svarint("result task"));
    d.admit = r.get_bool("result admit");
    d.payment = r.get_f64("result payment");
    d.decide_seconds = r.get_f64("result decide seconds");
    if (d.admit) d.schedule = get_schedule(r);
  }
  m.snapshot = get_price_snapshot(r);
  const std::uint64_t spans = r.get_count("results span count");
  m.spans.resize(static_cast<std::size_t>(spans));
  for (obs::RemoteSpan& s : m.spans) s = get_span(r);
  r.expect_done("round_results");
  return m;
}

std::vector<std::uint8_t> encode(const PublishRequestMsg& m) {
  WireWriter w;
  w.put_svarint(m.shard_id);
  w.put_svarint(m.from);
  return w.take();
}

PublishRequestMsg decode_publish_request(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  PublishRequestMsg m;
  m.shard_id = static_cast<std::int32_t>(r.get_svarint("publish shard"));
  m.from = static_cast<Slot>(r.get_svarint("publish from"));
  r.expect_done("publish_request");
  return m;
}

std::vector<std::uint8_t> encode(const PublishReplyMsg& m) {
  WireWriter w;
  w.put_svarint(m.shard_id);
  put_price_snapshot(w, m.snapshot);
  return w.take();
}

PublishReplyMsg decode_publish_reply(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  PublishReplyMsg m;
  m.shard_id = static_cast<std::int32_t>(r.get_svarint("publish_reply shard"));
  m.snapshot = get_price_snapshot(r);
  r.expect_done("publish_reply");
  return m;
}

std::vector<std::uint8_t> encode(const StateRequestMsg& m) {
  WireWriter w;
  w.put_svarint(m.shard_id);
  return w.take();
}

StateRequestMsg decode_state_request(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  StateRequestMsg m;
  m.shard_id = static_cast<std::int32_t>(r.get_svarint("state_request shard"));
  r.expect_done("state_request");
  return m;
}

std::vector<std::uint8_t> encode(const StateReplyMsg& m) {
  WireWriter w;
  w.put_svarint(m.shard_id);
  put_shard_state(w, m.state);
  return w.take();
}

StateReplyMsg decode_state_reply(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  StateReplyMsg m;
  m.shard_id = static_cast<std::int32_t>(r.get_svarint("state_reply shard"));
  m.state = get_shard_state(r);
  r.expect_done("state_reply");
  return m;
}

std::vector<std::uint8_t> encode(const RestoreStateMsg& m) {
  WireWriter w;
  w.put_svarint(m.shard_id);
  put_shard_state(w, m.state);
  return w.take();
}

RestoreStateMsg decode_restore_state(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  RestoreStateMsg m;
  m.shard_id = static_cast<std::int32_t>(r.get_svarint("restore shard"));
  m.state = get_shard_state(r);
  r.expect_done("restore_state");
  return m;
}

std::vector<std::uint8_t> encode(const RestoreAckMsg& m) {
  WireWriter w;
  w.put_svarint(m.shard_id);
  return w.take();
}

RestoreAckMsg decode_restore_ack(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  RestoreAckMsg m;
  m.shard_id = static_cast<std::int32_t>(r.get_svarint("restore_ack shard"));
  r.expect_done("restore_ack");
  return m;
}

void put_histogram_snapshot(WireWriter& w, const obs::HistogramSnapshot& h) {
  w.put_f64(h.options.min);
  w.put_f64(h.options.max);
  w.put_svarint(h.options.buckets_per_octave);
  w.put_varint(h.counts.size());
  for (const std::uint64_t c : h.counts) w.put_varint(c);
  w.put_varint(h.count);
  w.put_f64(h.sum);
  w.put_f64(h.min_seen);
  w.put_f64(h.max_seen);
}

obs::HistogramSnapshot get_histogram_snapshot(WireReader& r) {
  obs::HistogramSnapshot h;
  h.options.min = r.get_f64("histogram min");
  h.options.max = r.get_f64("histogram max");
  h.options.buckets_per_octave =
      static_cast<int>(r.get_svarint("histogram bpo"));
  const std::uint64_t buckets = r.get_count("histogram bucket count");
  h.counts.resize(static_cast<std::size_t>(buckets));
  for (std::uint64_t& c : h.counts) c = r.get_varint("histogram bucket");
  h.count = r.get_varint("histogram count");
  h.sum = r.get_f64("histogram sum");
  h.min_seen = r.get_f64("histogram min seen");
  h.max_seen = r.get_f64("histogram max seen");
  return h;
}

void put_metric(WireWriter& w, const obs::MetricSnapshot& m) {
  w.put_string(m.name);
  w.put_string(m.help);
  w.put_u8(static_cast<std::uint8_t>(m.kind));
  w.put_f64(m.value);
  if (m.kind == obs::MetricKind::kHistogram) {
    put_histogram_snapshot(w, m.histogram);
  }
}

obs::MetricSnapshot get_metric(WireReader& r) {
  obs::MetricSnapshot m;
  m.name = r.get_string("metric name");
  m.help = r.get_string("metric help");
  const std::uint8_t kind = r.get_u8("metric kind");
  if (kind > static_cast<std::uint8_t>(obs::MetricKind::kHistogram)) {
    throw WireError("wire: bad metric kind");
  }
  m.kind = static_cast<obs::MetricKind>(kind);
  m.value = r.get_f64("metric value");
  if (m.kind == obs::MetricKind::kHistogram) {
    m.histogram = get_histogram_snapshot(r);
  }
  return m;
}

void put_span(WireWriter& w, const obs::RemoteSpan& s) {
  w.put_string(s.name);
  w.put_svarint(s.task);
  w.put_varint(s.trace_id);
  w.put_varint(s.span_id);
  w.put_varint(s.parent_span);
  w.put_svarint(s.start_offset_ns);
  w.put_svarint(s.duration_ns);
}

obs::RemoteSpan get_span(WireReader& r) {
  obs::RemoteSpan s;
  s.name = r.get_string("span name");
  s.task = r.get_svarint("span task");
  s.trace_id = r.get_varint("span trace id");
  s.span_id = r.get_varint("span id");
  s.parent_span = r.get_varint("span parent");
  s.start_offset_ns = r.get_svarint("span start offset");
  s.duration_ns = r.get_svarint("span duration");
  return s;
}

std::vector<std::uint8_t> encode(const MetricsSnapshotMsg& m) {
  WireWriter w;
  w.put_string(m.agent);
  w.put_varint(m.seq);
  w.put_varint(m.groups.size());
  for (const obs::MetricsGroup& g : m.groups) {
    w.put_svarint(g.shard);
    w.put_varint(g.metrics.size());
    for (const obs::MetricSnapshot& metric : g.metrics) put_metric(w, metric);
  }
  return w.take();
}

MetricsSnapshotMsg decode_metrics_snapshot(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  MetricsSnapshotMsg m;
  m.agent = r.get_string("metrics agent");
  m.seq = r.get_varint("metrics seq");
  const std::uint64_t groups = r.get_count("metrics group count");
  m.groups.resize(static_cast<std::size_t>(groups));
  for (obs::MetricsGroup& g : m.groups) {
    g.shard = static_cast<std::int32_t>(r.get_svarint("metrics shard"));
    const std::uint64_t metrics = r.get_count("metrics metric count");
    g.metrics.resize(static_cast<std::size_t>(metrics));
    for (obs::MetricSnapshot& metric : g.metrics) metric = get_metric(r);
  }
  r.expect_done("metrics_snapshot");
  return m;
}

std::vector<std::uint8_t> encode(const ErrorMsg& m) {
  WireWriter w;
  w.put_svarint(m.shard_id);
  w.put_string(m.message);
  return w.take();
}

ErrorMsg decode_error(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  ErrorMsg m;
  m.shard_id = static_cast<std::int32_t>(r.get_svarint("error shard"));
  m.message = r.get_string("error message");
  r.expect_done("error");
  return m;
}

std::vector<std::uint8_t> encode(const BidSubmitMsg& m) {
  WireWriter w;
  w.put_varint(m.source);
  w.put_varint(m.seq);
  w.put_svarint(m.send_ns);
  put_task(w, m.task);
  return w.take();
}

BidSubmitMsg decode_bid_submit(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  BidSubmitMsg m;
  m.source = static_cast<std::uint32_t>(r.get_varint("bid_submit source"));
  m.seq = r.get_varint("bid_submit seq");
  m.send_ns = r.get_svarint("bid_submit send_ns");
  m.task = get_task(r);
  r.expect_done("bid_submit");
  return m;
}

std::vector<std::uint8_t> encode(const BidDecisionMsg& m) {
  WireWriter w;
  w.put_varint(m.source);
  w.put_varint(m.seq);
  w.put_svarint(m.send_ns);
  w.put_svarint(m.task);
  w.put_u8(static_cast<std::uint8_t>(m.status));
  w.put_f64(m.payment);
  w.put_svarint(m.decided_slot);
  return w.take();
}

BidDecisionMsg decode_bid_decision(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  BidDecisionMsg m;
  m.source = static_cast<std::uint32_t>(r.get_varint("bid_decision source"));
  m.seq = r.get_varint("bid_decision seq");
  m.send_ns = r.get_svarint("bid_decision send_ns");
  m.task = static_cast<TaskId>(r.get_svarint("bid_decision task"));
  const std::uint8_t status = r.get_u8("bid_decision status");
  if (status > static_cast<std::uint8_t>(BidStatus::kShedClosed)) {
    throw WireError("wire: unknown bid_decision status " +
                    std::to_string(int{status}));
  }
  m.status = static_cast<BidStatus>(status);
  m.payment = r.get_f64("bid_decision payment");
  m.decided_slot = static_cast<Slot>(r.get_svarint("bid_decision slot"));
  r.expect_done("bid_decision");
  return m;
}

std::vector<std::uint8_t> encode(const BidStreamEndMsg& m) {
  WireWriter w;
  w.put_varint(m.source);
  w.put_varint(m.offered);
  return w.take();
}

BidStreamEndMsg decode_bid_stream_end(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  BidStreamEndMsg m;
  m.source = static_cast<std::uint32_t>(r.get_varint("bid_stream_end source"));
  m.offered = r.get_varint("bid_stream_end offered");
  r.expect_done("bid_stream_end");
  return m;
}

}  // namespace lorasched::net
