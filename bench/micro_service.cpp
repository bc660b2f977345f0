// micro_service — serving-stack throughput microbenchmark (a single-shard
// ShardedService, the in-process daemon's default).
//
// N producer threads blast a scenario's bid stream into the service while
// the slot loop runs at a configurable (fast) slot period; reports
// sustained ingest throughput (bids/s), decision-latency percentiles, and
// the end-of-run auction accounting. finish() runs the engine's
// ledger-vs-bookings cross-check, so a throughput number only prints if no
// validator/capacity violation occurred.
//
// The workload runs twice — once with profiling spans disabled, once
// enabled — and the decide-latency means (exact, not bucketed) give the
// span overhead on the decision path. DESIGN.md §8 budgets this at < 5%.
//
//   ./micro_service --producers 4 --nodes 20 --rate 40 --horizon 288
//       --slot-us 500 --json-out BENCH_micro_service.json
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lorasched/core/pdftsp.h"
#include "lorasched/experiments/scenario.h"
#include "lorasched/obs/json.h"
#include "lorasched/obs/span.h"
#include "lorasched/shard/sharded_service.h"
#include "lorasched/util/cli.h"
#include "lorasched/util/timing.h"

using namespace lorasched;

namespace {

struct PassResult {
  service::MetricsSnapshot ops;
  Metrics metrics;
  double feed_seconds = 0.0;
};

PassResult run_pass(const Instance& instance, const ScenarioConfig& config,
                    std::size_t producers, std::chrono::microseconds slot_period,
                    std::size_t queue_cap, bool spans) {
  obs::Profiler::instance().set_enabled(spans);
  obs::Profiler::instance().reset();

  shard::ShardedConfig service_config;
  service_config.queue_capacity = queue_cap;
  service_config.backpressure = service::BackpressureMode::kBlock;
  // Producers submit as fast as they can, far outrunning the slot clock, so
  // most bids arrive "late" relative to their scripted slot; clamping
  // auctions them at the slot the service is actually in.
  service_config.late_bids = service::LateBidMode::kClamp;
  shard::ShardedService server(
      instance, shard::make_pdftsp_factory(pdftsp_config_for(instance)),
      service_config);

  std::thread consumer([&] { server.run(slot_period); });

  const util::Stopwatch wall;
  std::vector<std::thread> feeders;
  for (std::size_t p = 0; p < producers; ++p) {
    feeders.emplace_back([&, p] {
      for (std::size_t i = p; i < instance.tasks.size(); i += producers) {
        (void)server.submit(instance.tasks[i]);
      }
    });
  }
  for (auto& t : feeders) t.join();
  const double feed_seconds = wall.seconds();
  server.close();
  consumer.join();

  PassResult pass;
  pass.ops = server.metrics();
  pass.metrics = server.finish().metrics;  // throws on any violation
  pass.feed_seconds = feed_seconds;
  (void)config;
  return pass;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  cli.allow_only({"producers", "nodes", "rate", "horizon", "slot-us",
                  "queue-cap", "seed", "json-out"});
  const auto producers =
      static_cast<std::size_t>(cli.get_int("producers", 4));

  ScenarioConfig config;
  config.nodes = static_cast<int>(cli.get_int("nodes", 20));
  config.arrival_rate = cli.get_double("rate", 40.0);
  config.horizon = static_cast<Slot>(cli.get_int("horizon", 288));
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const Instance instance = make_instance(config);

  const auto slot_period =
      std::chrono::microseconds(cli.get_int("slot-us", 500));
  const auto queue_cap =
      static_cast<std::size_t>(cli.get_int("queue-cap", 1 << 16));

  // Warm-up pass (discarded): pages in the code and the allocator so the
  // measured passes compare span cost, not cold-start effects.
  (void)run_pass(instance, config, producers, slot_period, queue_cap, false);
  const PassResult base =
      run_pass(instance, config, producers, slot_period, queue_cap, false);
  const PassResult spans =
      run_pass(instance, config, producers, slot_period, queue_cap, true);
  const std::vector<obs::SpanStats> span_stats =
      obs::Profiler::instance().snapshot();
  obs::Profiler::instance().set_enabled(false);

  // decide_mean is exact (histogram sum/count), so the ratio isolates span
  // cost on the decision path from run-to-run jitter better than any
  // bucketed percentile could.
  const double overhead_pct =
      base.ops.decide_mean > 0.0
          ? (spans.ops.decide_mean - base.ops.decide_mean) /
                base.ops.decide_mean * 100.0
          : 0.0;

  const PassResult& ops_pass = base;
  const auto& ops = ops_pass.ops;
  std::cout << "micro_service: " << producers << " producers, "
            << instance.tasks.size() << " bids, horizon " << config.horizon
            << " x " << slot_period.count() << "us slots\n";
  std::cout << "  ingest      " << ops.ingest_rate << " bids/s sustained ("
            << static_cast<double>(ops.bids_ingested) / ops_pass.feed_seconds
            << " bids/s incl. ramp)\n";
  std::cout << "  decided     " << ops.bids_decided << " bids over "
            << ops.slots_processed << " slots, max queue depth "
            << ops.max_queue_depth << "\n";
  std::cout << "  decide lat  p50 " << ops.decide_p50 * 1e6 << "us  p99 "
            << ops.decide_p99 * 1e6 << "us  mean " << ops.decide_mean * 1e6
            << "us\n";
  std::cout << "  span cost   mean " << base.ops.decide_mean * 1e6
            << "us off vs " << spans.ops.decide_mean * 1e6 << "us on -> "
            << overhead_pct << "% overhead\n";
  std::cout << "  auction     welfare " << ops_pass.metrics.social_welfare
            << "$ admitted " << ops_pass.metrics.admitted << "/"
            << (ops_pass.metrics.admitted + ops_pass.metrics.rejected)
            << " utilization " << ops_pass.metrics.utilization << "\n";

  if (cli.has("json-out")) {
    obs::Json::Object doc;
    doc["bench"] = obs::Json("micro_service");
    obs::Json::Object cfg;
    cfg["producers"] = obs::Json(static_cast<double>(producers));
    cfg["nodes"] = obs::Json(static_cast<double>(config.nodes));
    cfg["bids"] = obs::Json(static_cast<double>(instance.tasks.size()));
    cfg["horizon"] = obs::Json(static_cast<double>(config.horizon));
    cfg["slot_us"] = obs::Json(static_cast<double>(slot_period.count()));
    doc["config"] = obs::Json(std::move(cfg));
    const auto pass_json = [](const PassResult& pass) {
      obs::Json::Object p;
      p["ingest_bids_per_sec"] = obs::Json(pass.ops.ingest_rate);
      p["decided"] = obs::Json(static_cast<double>(pass.ops.bids_decided));
      p["decide_p50_sec"] = obs::Json(pass.ops.decide_p50);
      p["decide_p99_sec"] = obs::Json(pass.ops.decide_p99);
      p["decide_mean_sec"] = obs::Json(pass.ops.decide_mean);
      p["welfare"] = obs::Json(pass.metrics.social_welfare);
      p["admitted"] = obs::Json(static_cast<double>(pass.metrics.admitted));
      return obs::Json(std::move(p));
    };
    doc["spans_off"] = pass_json(base);
    doc["spans_on"] = pass_json(spans);
    doc["span_overhead_pct"] = obs::Json(overhead_pct);
    obs::Json::Array spans_json;
    for (const obs::SpanStats& span : span_stats) {
      obs::Json::Object s;
      s["name"] = obs::Json(span.name);
      s["count"] = obs::Json(static_cast<double>(span.count));
      s["total_sec"] = obs::Json(span.total_seconds);
      s["self_sec"] = obs::Json(span.self_seconds);
      spans_json.push_back(obs::Json(std::move(s)));
    }
    doc["spans"] = obs::Json(std::move(spans_json));

    std::ofstream out(cli.get("json-out", ""));
    if (!out) throw std::runtime_error("cannot open json output file");
    out << obs::Json(std::move(doc)).dump() << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
