#include "lorasched/io/serialize.h"

#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "lorasched/io/csv.h"

namespace lorasched::io {

namespace {

const std::vector<std::string> kTaskHeader = {
    "id",        "arrival",  "deadline",     "dataset_samples",
    "epochs",    "work",     "mem_gb",       "compute_share",
    "needs_prep", "model",   "bid",          "true_value"};

std::string fmt(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

double parse_double(const std::string& text) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::out_of_range&) {
    // The documented contract is invalid_argument on any malformed field;
    // out-of-range magnitudes ("1e99999") are malformed input, not a
    // different error class (flushed out by fuzz/fuzz_bid_parser).
    throw std::invalid_argument("number out of range: " + text);
  }
  if (used != text.size()) {
    throw std::invalid_argument("trailing characters in number: " + text);
  }
  return value;
}

long parse_long(const std::string& text) {
  std::size_t used = 0;
  long value = 0;
  try {
    value = std::stol(text, &used);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("integer out of range: " + text);
  }
  if (used != text.size()) {
    throw std::invalid_argument("trailing characters in integer: " + text);
  }
  return value;
}

std::vector<std::string> task_fields(const Task& t) {
  return {std::to_string(t.id),       std::to_string(t.arrival),
          std::to_string(t.deadline), fmt(t.dataset_samples),
          std::to_string(t.epochs),   fmt(t.work),
          fmt(t.mem_gb),              fmt(t.compute_share),
          t.needs_prep ? "1" : "0",   std::to_string(t.model),
          fmt(t.bid),                 fmt(t.true_value)};
}

Task task_from_fields(const std::vector<std::string>& r) {
  if (r.size() != kTaskHeader.size()) {
    throw std::invalid_argument("task record has wrong field count");
  }
  Task t;
  t.id = static_cast<TaskId>(parse_long(r[0]));
  t.arrival = static_cast<Slot>(parse_long(r[1]));
  t.deadline = static_cast<Slot>(parse_long(r[2]));
  t.dataset_samples = parse_double(r[3]);
  t.epochs = static_cast<int>(parse_long(r[4]));
  t.work = parse_double(r[5]);
  t.mem_gb = parse_double(r[6]);
  t.compute_share = parse_double(r[7]);
  t.needs_prep = r[8] == "1";
  t.model = static_cast<int>(parse_long(r[9]));
  t.bid = parse_double(r[10]);
  t.true_value = parse_double(r[11]);
  return t;
}

}  // namespace

void write_tasks_csv(std::ostream& out, const std::vector<Task>& tasks) {
  std::vector<std::vector<std::string>> records;
  records.push_back(kTaskHeader);
  for (const Task& t : tasks) records.push_back(task_fields(t));
  write_csv(out, records);
}

std::string format_bid_line(const Task& task) {
  return format_csv_line(task_fields(task));
}

Task parse_bid_line(const std::string& line) {
  return task_from_fields(parse_csv_line(line));
}

std::vector<Task> read_tasks_csv(std::istream& in) {
  const auto records = read_csv(in);
  if (records.empty() || records.front() != kTaskHeader) {
    throw std::invalid_argument("missing or unexpected task CSV header");
  }
  std::vector<Task> tasks;
  tasks.reserve(records.size() - 1);
  for (std::size_t row = 1; row < records.size(); ++row) {
    tasks.push_back(task_from_fields(records[row]));
  }
  return tasks;
}

void write_outcomes_csv(std::ostream& out,
                        const std::vector<TaskOutcome>& outcomes) {
  std::vector<std::vector<std::string>> records;
  records.push_back({"task", "admitted", "bid", "true_value", "payment",
                     "vendor_cost", "energy_cost", "vendor", "arrival",
                     "completion", "slots_used", "decide_seconds"});
  for (const TaskOutcome& o : outcomes) {
    records.push_back({std::to_string(o.task), o.admitted ? "1" : "0",
                       fmt(o.bid), fmt(o.true_value), fmt(o.payment),
                       fmt(o.vendor_cost), fmt(o.energy_cost),
                       std::to_string(o.vendor), std::to_string(o.arrival),
                       std::to_string(o.completion),
                       std::to_string(o.slots_used), fmt(o.decide_seconds)});
  }
  write_csv(out, records);
}

void write_scenario(std::ostream& out, const ScenarioConfig& config) {
  out << "nodes = " << config.nodes << '\n';
  out << "fleet = " << to_string(config.fleet) << '\n';
  out << "horizon = " << config.horizon << '\n';
  out << "arrival_rate = " << fmt(config.arrival_rate) << '\n';
  if (config.trace.has_value()) {
    out << "trace = " << to_string(*config.trace) << '\n';
  }
  out << "deadline = " << to_string(config.deadline) << '\n';
  out << "vendors = " << config.vendors << '\n';
  out << "prep_probability = " << fmt(config.prep_probability) << '\n';
  out << "base_model_gb = " << fmt(config.base_model_gb) << '\n';
  out << "seed = " << config.seed << '\n';
}

namespace {

constexpr const char* kShardedCheckpointMagic = "lorasched-sharded-checkpoint";
constexpr int kShardedCheckpointVersion = 1;

void expect_token(std::istream& in, const std::string& want) {
  std::string got;
  if (!(in >> got) || got != want) {
    throw std::invalid_argument("checkpoint: expected '" + want + "', got '" +
                                got + "'");
  }
}

template <typename T>
T read_value(std::istream& in, const char* what) {
  T value{};
  if (!(in >> value)) {
    throw std::invalid_argument(std::string("checkpoint: unreadable ") + what);
  }
  return value;
}

/// Validates the "<magic> <version>" header every checkpoint stream starts
/// with. The two failure modes get distinct, actionable errors: a wrong
/// magic means the file is not this kind of checkpoint at all (or not a
/// checkpoint), while a known magic with an unknown version names both
/// versions so the operator knows which side to upgrade.
void read_header(std::istream& in, const char* magic, int supported,
                 const char* what) {
  std::string got;
  if (!(in >> got) || got != magic) {
    throw std::invalid_argument(
        std::string("not a ") + what + " stream: expected the '" + magic +
        "' magic header, got '" + got + "'");
  }
  const auto version = read_value<int>(in, "format version");
  if (version != supported) {
    throw std::invalid_argument(
        std::string(what) + " format version " + std::to_string(version) +
        " is not supported (this build reads version " +
        std::to_string(supported) + ")");
  }
}

/// Hard ceiling on any element count read from a checkpoint. A corrupted
/// (or adversarial) count must not drive a multi-gigabyte allocation before
/// the stream runs dry — fuzz/fuzz_checkpoint found exactly that via
/// vector(n) on a forged length field. 1 << 26 grid cells is far beyond any
/// cluster/horizon this system targets.
constexpr std::size_t kMaxCheckpointCount = std::size_t{1} << 26;

std::size_t read_count(std::istream& in, const char* what) {
  const auto n = read_value<std::size_t>(in, what);
  if (n > kMaxCheckpointCount) {
    throw std::invalid_argument(std::string("checkpoint: absurd ") + what);
  }
  return n;
}

void write_doubles(std::ostream& out, const std::vector<double>& values) {
  out << values.size();
  for (double v : values) out << ' ' << v;
  out << '\n';
}

std::vector<double> read_doubles(std::istream& in, const char* what) {
  const auto n = read_count(in, what);
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = read_value<double>(in, what);
  return values;
}

template <typename Int>
void write_ints(std::ostream& out, const std::vector<Int>& values) {
  out << values.size();
  for (Int v : values) out << ' ' << static_cast<long>(v);
  out << '\n';
}

template <typename Int>
std::vector<Int> read_ints(std::istream& in, const char* what) {
  const auto n = read_count(in, what);
  std::vector<Int> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = static_cast<Int>(read_value<long>(in, what));
  }
  return values;
}

void write_task_record(std::ostream& out, const Task& t) {
  out << t.id << ' ' << t.arrival << ' ' << t.deadline << ' '
      << t.dataset_samples << ' ' << t.epochs << ' ' << t.work << ' '
      << t.mem_gb << ' ' << t.compute_share << ' ' << (t.needs_prep ? 1 : 0)
      << ' ' << t.model << ' ' << t.bid << ' ' << t.true_value << '\n';
}

Task read_task_record(std::istream& in) {
  Task t;
  t.id = read_value<TaskId>(in, "task id");
  t.arrival = read_value<Slot>(in, "task arrival");
  t.deadline = read_value<Slot>(in, "task deadline");
  t.dataset_samples = read_value<double>(in, "task dataset");
  t.epochs = read_value<int>(in, "task epochs");
  t.work = read_value<double>(in, "task work");
  t.mem_gb = read_value<double>(in, "task mem");
  t.compute_share = read_value<double>(in, "task share");
  t.needs_prep = read_value<int>(in, "task prep") != 0;
  t.model = read_value<int>(in, "task model");
  t.bid = read_value<double>(in, "task bid");
  t.true_value = read_value<double>(in, "task value");
  return t;
}

void write_outcome_record(std::ostream& out, const TaskOutcome& o) {
  out << o.task << ' ' << (o.admitted ? 1 : 0) << ' ' << o.bid << ' '
      << o.true_value << ' ' << o.payment << ' ' << o.vendor_cost << ' '
      << o.energy_cost << ' ' << o.vendor << ' ' << o.arrival << ' '
      << o.completion << ' ' << o.slots_used << ' ' << o.preemptions << ' '
      << o.decide_seconds << '\n';
}

TaskOutcome read_outcome_record(std::istream& in) {
  TaskOutcome o;
  o.task = read_value<TaskId>(in, "outcome task");
  o.admitted = read_value<int>(in, "outcome admitted") != 0;
  o.bid = read_value<double>(in, "outcome bid");
  o.true_value = read_value<double>(in, "outcome value");
  o.payment = read_value<double>(in, "outcome payment");
  o.vendor_cost = read_value<double>(in, "outcome vendor cost");
  o.energy_cost = read_value<double>(in, "outcome energy cost");
  o.vendor = read_value<VendorId>(in, "outcome vendor");
  o.arrival = read_value<Slot>(in, "outcome arrival");
  o.completion = read_value<Slot>(in, "outcome completion");
  o.slots_used = read_value<int>(in, "outcome slots");
  o.preemptions = read_value<int>(in, "outcome preemptions");
  o.decide_seconds = read_value<double>(in, "outcome decide time");
  return o;
}

void write_schedule_record(std::ostream& out, const Schedule& s) {
  out << s.task << ' ' << s.vendor << ' ' << s.vendor_price << ' '
      << s.prep_delay << ' ' << (s.exclusive ? 1 : 0) << ' '
      << s.share_override << ' ' << s.total_compute << ' ' << s.total_mem
      << ' ' << s.norm_compute << ' ' << s.norm_mem << ' ' << s.energy_cost
      << ' ' << s.welfare_gain << ' ' << s.run.size();
  for (const Assignment& a : s.run) out << ' ' << a.node << ' ' << a.slot;
  out << '\n';
}

// Section helpers of the checkpoint format.

void write_ledger_section(std::ostream& out,
                          const CapacityLedger::Snapshot& ledger) {
  out << "ledger " << ledger.nodes << ' ' << ledger.horizon << '\n';
  out << "used_compute ";
  write_doubles(out, ledger.used_compute);
  out << "used_mem ";
  write_doubles(out, ledger.used_mem);
  out << "task_count ";
  write_ints(out, ledger.task_count);
  out << "exclusive ";
  write_ints(out, ledger.exclusive);
  out << "blocked ";
  write_ints(out, ledger.blocked);
}

CapacityLedger::Snapshot read_ledger_section(std::istream& in) {
  CapacityLedger::Snapshot ledger;
  expect_token(in, "ledger");
  ledger.nodes = read_value<int>(in, "ledger nodes");
  ledger.horizon = read_value<Slot>(in, "ledger horizon");
  expect_token(in, "used_compute");
  ledger.used_compute = read_doubles(in, "used_compute");
  expect_token(in, "used_mem");
  ledger.used_mem = read_doubles(in, "used_mem");
  expect_token(in, "task_count");
  ledger.task_count = read_ints<int>(in, "task_count");
  expect_token(in, "exclusive");
  ledger.exclusive = read_ints<char>(in, "exclusive");
  expect_token(in, "blocked");
  ledger.blocked = read_ints<char>(in, "blocked");
  return ledger;
}

void write_metrics_section(std::ostream& out, const Metrics& m) {
  out << "metrics " << m.social_welfare << ' ' << m.provider_utility << ' '
      << m.user_utility << ' ' << m.total_bids_admitted << ' '
      << m.total_payments << ' ' << m.total_vendor_cost << ' '
      << m.total_energy_cost << ' ' << m.admitted << ' ' << m.rejected << ' '
      << m.utilization << '\n';
}

Metrics read_metrics_section(std::istream& in) {
  expect_token(in, "metrics");
  Metrics m;
  m.social_welfare = read_value<double>(in, "social_welfare");
  m.provider_utility = read_value<double>(in, "provider_utility");
  m.user_utility = read_value<double>(in, "user_utility");
  m.total_bids_admitted = read_value<double>(in, "total_bids_admitted");
  m.total_payments = read_value<double>(in, "total_payments");
  m.total_vendor_cost = read_value<double>(in, "total_vendor_cost");
  m.total_energy_cost = read_value<double>(in, "total_energy_cost");
  m.admitted = read_value<int>(in, "admitted");
  m.rejected = read_value<int>(in, "rejected");
  m.utilization = read_value<double>(in, "utilization");
  return m;
}

Schedule read_schedule_record(std::istream& in) {
  Schedule s;
  s.task = read_value<TaskId>(in, "schedule task");
  s.vendor = read_value<VendorId>(in, "schedule vendor");
  s.vendor_price = read_value<double>(in, "schedule vendor price");
  s.prep_delay = read_value<Slot>(in, "schedule prep delay");
  s.exclusive = read_value<int>(in, "schedule exclusive") != 0;
  s.share_override = read_value<double>(in, "schedule share");
  s.total_compute = read_value<double>(in, "schedule compute");
  s.total_mem = read_value<double>(in, "schedule mem");
  s.norm_compute = read_value<double>(in, "schedule norm compute");
  s.norm_mem = read_value<double>(in, "schedule norm mem");
  s.energy_cost = read_value<double>(in, "schedule energy");
  s.welfare_gain = read_value<double>(in, "schedule welfare");
  const auto n = read_count(in, "schedule run length");
  s.run.resize(n);
  for (auto& a : s.run) {
    a.node = read_value<NodeId>(in, "schedule node");
    a.slot = read_value<Slot>(in, "schedule slot");
  }
  return s;
}

}  // namespace

void write_sharded_checkpoint(std::ostream& out,
                              const shard::ShardedCheckpoint& checkpoint) {
  const auto saved_precision = out.precision(17);
  out << kShardedCheckpointMagic << ' ' << kShardedCheckpointVersion << '\n';
  out << "next_slot " << checkpoint.next_slot << '\n';
  out << "horizon " << checkpoint.horizon << '\n';
  out << "shards " << checkpoint.shards << '\n';
  out << "router_seed " << checkpoint.router_seed << '\n';
  out << "reroute_attempts " << checkpoint.reroute_attempts << '\n';
  out << "booked_compute " << checkpoint.booked_compute << '\n';
  for (std::size_t s = 0; s < checkpoint.shard_states.size(); ++s) {
    const shard::ShardState& state = checkpoint.shard_states[s];
    out << "shard " << s << '\n';
    out << "booked_compute " << state.booked_compute << '\n';
    out << "policy_state ";
    write_doubles(out, state.policy_state);
    write_ledger_section(out, state.ledger);
  }

  out << "pending " << checkpoint.pending.size() << '\n';
  for (const Task& t : checkpoint.pending) write_task_record(out, t);
  out << "outcomes " << checkpoint.outcomes.size() << '\n';
  for (const TaskOutcome& o : checkpoint.outcomes) write_outcome_record(out, o);
  out << "schedules " << checkpoint.schedules.size() << '\n';
  for (const Schedule& s : checkpoint.schedules) write_schedule_record(out, s);

  write_metrics_section(out, checkpoint.metrics);
  out << "end\n";
  out.precision(saved_precision);
}

shard::ShardedCheckpoint read_sharded_checkpoint(std::istream& in) {
  read_header(in, kShardedCheckpointMagic, kShardedCheckpointVersion,
              "sharded checkpoint");
  shard::ShardedCheckpoint cp;
  expect_token(in, "next_slot");
  cp.next_slot = read_value<Slot>(in, "next_slot");
  expect_token(in, "horizon");
  cp.horizon = read_value<Slot>(in, "horizon");
  expect_token(in, "shards");
  cp.shards = read_value<int>(in, "shards");
  if (cp.shards < 1 ||
      static_cast<std::size_t>(cp.shards) > kMaxCheckpointCount) {
    throw std::invalid_argument("checkpoint: absurd shard count");
  }
  expect_token(in, "router_seed");
  cp.router_seed = read_value<std::uint64_t>(in, "router_seed");
  expect_token(in, "reroute_attempts");
  cp.reroute_attempts = read_value<int>(in, "reroute_attempts");
  expect_token(in, "booked_compute");
  cp.booked_compute = read_value<double>(in, "booked_compute");
  cp.shard_states.reserve(static_cast<std::size_t>(cp.shards));
  for (int s = 0; s < cp.shards; ++s) {
    expect_token(in, "shard");
    const auto index = read_value<int>(in, "shard index");
    if (index != s) {
      throw std::invalid_argument("checkpoint: shard sections out of order");
    }
    shard::ShardState state;
    expect_token(in, "booked_compute");
    state.booked_compute = read_value<double>(in, "shard booked_compute");
    expect_token(in, "policy_state");
    state.policy_state = read_doubles(in, "shard policy_state");
    state.ledger = read_ledger_section(in);
    cp.shard_states.push_back(std::move(state));
  }

  expect_token(in, "pending");
  const auto pending = read_count(in, "pending count");
  cp.pending.reserve(pending);
  for (std::size_t i = 0; i < pending; ++i) {
    cp.pending.push_back(read_task_record(in));
  }
  expect_token(in, "outcomes");
  const auto outcomes = read_count(in, "outcome count");
  cp.outcomes.reserve(outcomes);
  for (std::size_t i = 0; i < outcomes; ++i) {
    cp.outcomes.push_back(read_outcome_record(in));
  }
  expect_token(in, "schedules");
  const auto schedules = read_count(in, "schedule count");
  cp.schedules.reserve(schedules);
  for (std::size_t i = 0; i < schedules; ++i) {
    cp.schedules.push_back(read_schedule_record(in));
  }

  cp.metrics = read_metrics_section(in);
  expect_token(in, "end");
  return cp;
}

ScenarioConfig read_scenario(std::istream& in) {
  ScenarioConfig config;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("scenario line missing '=': " + line);
    }
    auto trim = [](std::string text) {
      const auto first = text.find_first_not_of(" \t");
      const auto last = text.find_last_not_of(" \t");
      if (first == std::string::npos) return std::string{};
      return text.substr(first, last - first + 1);
    };
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key == "nodes") {
      config.nodes = static_cast<int>(parse_long(value));
    } else if (key == "fleet") {
      if (value == "A100") config.fleet = FleetKind::kA100Only;
      else if (value == "A40") config.fleet = FleetKind::kA40Only;
      else if (value == "hybrid") config.fleet = FleetKind::kHybrid;
      else throw std::invalid_argument("unknown fleet: " + value);
    } else if (key == "horizon") {
      config.horizon = static_cast<Slot>(parse_long(value));
    } else if (key == "arrival_rate") {
      config.arrival_rate = parse_double(value);
    } else if (key == "trace") {
      if (value == "MLaaS") config.trace = TraceKind::kMLaaS;
      else if (value == "Philly") config.trace = TraceKind::kPhilly;
      else if (value == "Helios") config.trace = TraceKind::kHelios;
      else throw std::invalid_argument("unknown trace: " + value);
    } else if (key == "deadline") {
      if (value == "tight") config.deadline = DeadlineKind::kTight;
      else if (value == "medium") config.deadline = DeadlineKind::kMedium;
      else if (value == "slack") config.deadline = DeadlineKind::kSlack;
      else throw std::invalid_argument("unknown deadline: " + value);
    } else if (key == "vendors") {
      config.vendors = static_cast<int>(parse_long(value));
    } else if (key == "prep_probability") {
      config.prep_probability = parse_double(value);
    } else if (key == "base_model_gb") {
      config.base_model_gb = parse_double(value);
    } else if (key == "seed") {
      config.seed = static_cast<std::uint64_t>(parse_long(value));
    } else {
      throw std::invalid_argument("unknown scenario key: " + key);
    }
  }
  return config;
}

}  // namespace lorasched::io
