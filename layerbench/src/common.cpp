#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "lorasched/experiments/scenario.h"
#include "lorasched/loadgen/firehose.h"
#include "lorasched/shard/sharded_service.h"
#include "lorasched/sim/engine.h"

namespace layerbench {

Instance make_env(std::uint64_t seed, Slot horizon) {
  // The library's own scenario builder at arrival rate 0: the environment
  // of the seed's Fig. 8 cell with an empty task list.
  ScenarioConfig config;
  config.nodes = kNodes;
  config.fleet = FleetKind::kHybrid;
  config.horizon = horizon;
  config.arrival_rate = 0.0;
  config.seed = seed;
  return make_instance(config);
}

std::size_t Stream::index(TaskId id) const {
  return pos.at(loadgen::bid_source(id)).at(loadgen::bid_seq(id));
}

bool Stream::has(TaskId id) const noexcept {
  if (id < 0) return false;
  const std::uint32_t source = loadgen::bid_source(id);
  return source < pos.size() && loadgen::bid_seq(id) < pos[source].size();
}

Stream make_stream(const Instance& env, std::uint64_t seed,
                   std::uint32_t sources, loadgen::ArrivalMix mix, double rate,
                   Slot horizon) {
  Stream stream;
  stream.horizon = horizon;
  stream.sources = sources;
  const ScenarioConfig scenario;
  for (std::uint32_t s = 0; s < sources; ++s) {
    loadgen::FirehoseConfig fc;
    fc.source = s;
    fc.seed = seed;
    fc.mix = mix;
    fc.rate_per_slot = rate / static_cast<double>(sources);
    fc.horizon = horizon;
    fc.taskgen = scenario.taskgen;
    fc.taskgen.prep_probability = scenario.prep_probability;
    fc.taskgen.deadline.kind = scenario.deadline;
    loadgen::BidFirehose firehose(fc, env.cluster, env.energy, env.market);
    std::vector<Task> bids = firehose.generate();
    stream.bids.insert(stream.bids.end(), bids.begin(), bids.end());
  }
  std::stable_sort(stream.bids.begin(), stream.bids.end(),
                   [](const Task& a, const Task& b) {
                     return a.arrival != b.arrival ? a.arrival < b.arrival
                                                   : a.id < b.id;
                   });
  stream.pos.assign(sources, {});
  stream.slot_begin.assign(static_cast<std::size_t>(horizon) + 1, 0);
  for (std::size_t i = 0; i < stream.bids.size(); ++i) {
    const Task& bid = stream.bids[i];
    if (bid.arrival < 0 || bid.arrival >= horizon) {
      throw std::logic_error("firehose bid outside the horizon");
    }
    auto& by_seq = stream.pos[loadgen::bid_source(bid.id)];
    const std::uint64_t seq = loadgen::bid_seq(bid.id);
    if (by_seq.size() <= seq) by_seq.resize(seq + 1);
    by_seq[seq] = static_cast<std::uint32_t>(i);
    ++stream.slot_begin[static_cast<std::size_t>(bid.arrival) + 1];
  }
  for (std::size_t t = 1; t < stream.slot_begin.size(); ++t) {
    stream.slot_begin[t] += stream.slot_begin[t - 1];
  }
  return stream;
}

PdftspConfig policy_for(const Instance& env, const Stream& stream) {
  const Instance priced(env.cluster, env.energy, env.market, env.horizon,
                        stream.bids);
  return pdftsp_config_for(priced);
}

std::uint64_t fingerprint(const Stream& stream, const Decisions& decisions) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (word >> (8 * b)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (std::size_t i = 0; i < stream.size(); ++i) {
    mix(static_cast<std::uint64_t>(stream.bids[i].id));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(
        decisions.state[i])));
    mix(decisions.state[i] == 1 ? std::bit_cast<std::uint64_t>(
                                      decisions.payment[i])
                                : 0);
  }
  return hash;
}

Decisions from_outcomes(const Stream& stream,
                        const std::vector<TaskOutcome>& outcomes) {
  Decisions decisions(stream.size());
  for (const TaskOutcome& outcome : outcomes) {
    const std::size_t i = stream.index(outcome.task);
    decisions.state[i] = outcome.admitted ? 1 : 0;
    decisions.payment[i] = outcome.admitted ? outcome.payment : 0.0;
  }
  return decisions;
}

namespace {

Reference make_reference(const Stream& stream, SimResult result) {
  Reference ref;
  ref.fingerprint = fingerprint(stream, from_outcomes(stream, result.outcomes));
  ref.welfare = result.metrics.social_welfare;
  ref.admitted = static_cast<std::size_t>(result.metrics.admitted);
  ref.result = std::move(result);
  return ref;
}

}  // namespace

Reference reference_k1(const Instance& env, const Stream& stream,
                       const PdftspConfig& policy) {
  const Instance instance(env.cluster, env.energy, env.market, env.horizon,
                          stream.bids);
  Pdftsp pdftsp(policy, instance.cluster, instance.energy, instance.horizon);
  return make_reference(stream, run_simulation(instance, pdftsp));
}

Reference reference_sharded(const Instance& env, const Stream& stream,
                            const PdftspConfig& policy, int shards) {
  shard::ShardedConfig config;
  config.shards = shards;
  config.reroute_attempts = 1;
  config.queue_capacity = stream.size() + 1;
  shard::ShardedService server(env, shard::make_pdftsp_factory(policy),
                               config);
  for (const Task& bid : stream.bids) {
    if (server.submit(bid) != service::SubmitResult::kAccepted) {
      throw std::logic_error("reference replay shed a bid");
    }
  }
  server.close();
  while (!server.done()) server.step();
  return make_reference(stream, server.finish());
}

void Failures::absorb(const loadgen::SoakReport& report) {
  lost += report.totals.lost;
  duplicated += report.totals.duplicates;
  out_of_order += report.totals.out_of_order;
  shed += report.totals.shed;
  unknown += report.totals.unknown;
}

void Failures::merge(const Failures& other) {
  lost += other.lost;
  duplicated += other.duplicated;
  out_of_order += other.out_of_order;
  shed += other.shed;
  late += other.late;
  unknown += other.unknown;
}

std::string Failures::describe() const {
  std::ostringstream out;
  const auto item = [&out](const char* name, std::uint64_t n) {
    if (n == 0) return;
    if (out.tellp() > 0) out << ' ';
    out << name << '=' << n;
  };
  item("lost", lost);
  item("duplicated", duplicated);
  item("out_of_order", out_of_order);
  item("shed", shed);
  item("late", late);
  item("unknown", unknown);
  return out.str();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

LatencySummary summarize_latency(const Stream& stream,
                                 const std::vector<double>& latency_ms) {
  LatencySummary summary;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> window;
  const auto close_window = [&] {
    p50s.push_back(quantile(window, 0.50));
    p99s.push_back(quantile(window, 0.99));
    window.clear();
  };
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (window.size() >= kWindowBids &&
        stream.bids[i].arrival != stream.bids[i - 1].arrival) {
      close_window();
    }
    if (std::isnan(latency_ms[i])) continue;
    window.push_back(latency_ms[i]);
    ++summary.samples;
  }
  // A short tail joins the windows only if there is no full one.
  if (p50s.empty() && !window.empty()) close_window();
  summary.windows = p50s.size();
  summary.p50_ms = median(std::move(p50s));
  summary.p99_ms = median(std::move(p99s));
  return summary;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double registry_value(const obs::MetricsRegistry& registry,
                      const std::string& name) {
  for (const obs::MetricSnapshot& metric : registry.snapshot()) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

obs::HistogramSnapshot registry_histogram(const obs::MetricsRegistry& registry,
                                          const std::string& name) {
  for (const obs::MetricSnapshot& metric : registry.snapshot()) {
    if (metric.name == name) return metric.histogram;
  }
  return {};
}

double registry_sum(const obs::MetricsRegistry& registry,
                    const std::string& prefix) {
  double sum = 0.0;
  for (const obs::MetricSnapshot& metric : registry.snapshot()) {
    if (metric.kind == obs::MetricKind::kCounter &&
        metric.name.compare(0, prefix.size(), prefix) == 0) {
      sum += metric.value;
    }
  }
  return sum;
}

double prometheus_sum(const std::string& text, const std::string& name) {
  double sum = 0.0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, name.size(), name) != 0) continue;
    const char next = line.size() > name.size() ? line[name.size()] : '\0';
    if (next != ' ' && next != '{') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    sum += std::stod(line.substr(space + 1));
  }
  return sum;
}

void Result::fail(const std::string& why) {
  correct = false;
  std::cerr << "layerbench: FAIL " << why << "\n";
}

std::string Result::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace layerbench
