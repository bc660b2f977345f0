// micro_shard — admission throughput across shard counts.
//
// Replays the Fig. 8 "high" workload (hybrid fleet, Poisson arrivals)
// offline — every bid ingested up front, slots decided back to back —
// through a ShardedService at K ∈ {1, 2, 4, 8} shards, and reports per
// run (K=1, the single online auction decided inline, is the baseline):
//
//   * wall-clock decision throughput (bids / wall seconds of the slot
//     loop). On a single-core host the K shard threads time-slice one CPU,
//     so this number cannot show the parallel speedup — it is reported for
//     transparency, not as the headline;
//   * critical-path decision throughput: bids / Σ_slots Σ_rounds
//     max-per-shard policy seconds in that round — the slot-loop latency a
//     K-core deployment pays, since shards within a round decide
//     concurrently and only the re-offer rounds serialize. This is the
//     number the K-vs-K=1 speedup claim is evaluated on;
//   * decision-latency p99 and end-of-run auction accounting (welfare,
//     admitted). finish() runs the ledger-vs-bookings cross-check, so a
//     throughput row only prints if no capacity/validator violation
//     occurred.
//
// The per-shard speedup comes from the schedule DP's node-scan term
// scaling with the shard's node count, at the price of partitioned
// capacity; the welfare delta column shows what second-chance re-routing
// recovers of that price.
//
//   ./micro_shard --json-out BENCH_shard.json
//   ./micro_shard --nodes 32 --rate 26 --reroute 2
#include <algorithm>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lorasched/core/online_params.h"
#include "lorasched/core/pdftsp.h"
#include "lorasched/experiments/scenario.h"
#include "lorasched/obs/json.h"
#include "lorasched/shard/sharded_service.h"
#include "lorasched/util/cli.h"
#include "lorasched/util/timing.h"

using namespace lorasched;

namespace {

struct RunResult {
  std::string label;
  int shards = 0;
  std::uint64_t decided = 0;
  double wall_seconds = 0.0;
  double critical_seconds = 0.0;
  double decide_p99 = 0.0;
  double welfare = 0.0;
  int admitted = 0;
  int rejected = 0;
  double utilization = 0.0;
  std::uint64_t rerouted = 0;
  std::uint64_t reroute_admits = 0;

  [[nodiscard]] double wall_throughput() const {
    return wall_seconds > 0.0 ? static_cast<double>(decided) / wall_seconds
                              : 0.0;
  }
  [[nodiscard]] double critical_throughput() const {
    return critical_seconds > 0.0
               ? static_cast<double>(decided) / critical_seconds
               : 0.0;
  }
};

RunResult run_sharded(const Instance& instance, int shards, int reroute) {
  shard::ShardedConfig config;
  config.shards = shards;
  config.reroute_attempts = reroute;
  config.queue_capacity = instance.tasks.size() + 1;
  shard::ShardedService server(
      instance, shard::make_pdftsp_factory(pdftsp_config_for(instance)),
      config);

  const util::Stopwatch wall;
  for (const Task& bid : instance.tasks) {
    if (server.submit(bid) != service::SubmitResult::kAccepted) {
      throw std::runtime_error("bench queue rejected a bid (capacity?)");
    }
  }
  server.close();
  while (!server.done()) server.step();
  const double wall_seconds = wall.seconds();

  const auto ops = server.metrics();
  RunResult run;
  run.label = "K=" + std::to_string(shards);
  run.shards = shards;
  run.decided = ops.bids_decided;
  run.wall_seconds = wall_seconds;
  run.critical_seconds = server.critical_path_seconds();
  run.decide_p99 = ops.decide_p99;
  run.rerouted = server.rerouted_bids();
  run.reroute_admits = server.reroute_admits();
  const SimResult result = server.finish();
  run.welfare = result.metrics.social_welfare;
  run.admitted = result.metrics.admitted;
  run.rejected = result.metrics.rejected;
  run.utilization = result.metrics.utilization;
  return run;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  cli.allow_only({"nodes", "rate", "horizon", "seed", "reroute", "json-out"});

  // Fig. 8 "high" cell at paper scale (bench/fig08_workload.cpp
  // --paper-scale): 100 hybrid nodes, Poisson arrivals at mean 80 bids per
  // slot. Partitioning pays off in the schedule DP's node-scan term, so
  // the speedup grows with nodes-per-shard; the scaled-down 16-node cell
  // (--nodes 16 --rate 13) shards too thin to show the full effect.
  ScenarioConfig config;
  config.nodes = static_cast<int>(cli.get_int("nodes", 100));
  config.fleet = FleetKind::kHybrid;
  config.horizon = static_cast<Slot>(cli.get_int("horizon", 144));
  config.arrival_rate = cli.get_double("rate", 80.0);
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const int reroute = static_cast<int>(cli.get_int("reroute", 1));
  const Instance instance = make_instance(config);

  // The shard-count sweep; K=1 is the baseline every row compares to.
  std::vector<RunResult> runs;
  for (const int k : {1, 2, 4, 8}) {
    if (k > config.nodes) break;
    runs.push_back(run_sharded(instance, k, reroute));
  }
  const RunResult base = runs.front();  // copy: the loop above reallocates

  std::cout << "micro_shard: " << instance.tasks.size() << " bids, "
            << config.nodes << " nodes (hybrid), horizon " << config.horizon
            << ", reroute " << reroute << "\n";
  std::cout << "  run          decided  wall-bids/s  crit-bids/s  speedup  "
               "p99-us    welfare  d-welfare%  rerouted\n";
  for (const RunResult& run : runs) {
    const double speedup =
        base.critical_throughput() > 0.0
            ? run.critical_throughput() / base.critical_throughput()
            : 0.0;
    const double delta =
        base.welfare > 0.0 ? (run.welfare / base.welfare - 1.0) * 100.0 : 0.0;
    std::printf(
        "  %-12s %7llu %12.0f %12.0f %8.2f %7.1f %10.1f %11.2f %9llu\n",
        run.label.c_str(), static_cast<unsigned long long>(run.decided),
        run.wall_throughput(), run.critical_throughput(), speedup,
        run.decide_p99 * 1e6, run.welfare, delta,
        static_cast<unsigned long long>(run.rerouted));
  }

  if (cli.has("json-out")) {
    obs::Json::Object doc;
    doc["bench"] = obs::Json("micro_shard");
    obs::Json::Object cfg;
    cfg["nodes"] = obs::Json(static_cast<double>(config.nodes));
    cfg["horizon"] = obs::Json(static_cast<double>(config.horizon));
    cfg["rate"] = obs::Json(config.arrival_rate);
    cfg["seed"] = obs::Json(static_cast<double>(config.seed));
    cfg["reroute"] = obs::Json(static_cast<double>(reroute));
    cfg["bids"] = obs::Json(static_cast<double>(instance.tasks.size()));
    doc["config"] = obs::Json(std::move(cfg));
    obs::Json::Array rows;
    for (const RunResult& run : runs) {
      obs::Json::Object row;
      row["label"] = obs::Json(run.label);
      row["shards"] = obs::Json(static_cast<double>(run.shards));
      row["decided"] = obs::Json(static_cast<double>(run.decided));
      row["wall_seconds"] = obs::Json(run.wall_seconds);
      row["wall_throughput_bids_per_sec"] = obs::Json(run.wall_throughput());
      row["critical_path_seconds"] = obs::Json(run.critical_seconds);
      row["critical_throughput_bids_per_sec"] =
          obs::Json(run.critical_throughput());
      row["critical_speedup_vs_k1"] = obs::Json(
          base.critical_throughput() > 0.0
              ? run.critical_throughput() / base.critical_throughput()
              : 0.0);
      row["decide_p99_sec"] = obs::Json(run.decide_p99);
      row["welfare"] = obs::Json(run.welfare);
      row["welfare_delta_pct_vs_k1"] = obs::Json(
          base.welfare > 0.0 ? (run.welfare / base.welfare - 1.0) * 100.0
                             : 0.0);
      row["admitted"] = obs::Json(static_cast<double>(run.admitted));
      row["rejected"] = obs::Json(static_cast<double>(run.rejected));
      row["utilization"] = obs::Json(run.utilization);
      row["rerouted_bids"] = obs::Json(static_cast<double>(run.rerouted));
      row["reroute_admits"] = obs::Json(static_cast<double>(run.reroute_admits));
      rows.push_back(obs::Json(std::move(row)));
    }
    doc["runs"] = obs::Json(std::move(rows));
    std::ofstream out(cli.get("json-out", ""));
    if (!out) throw std::runtime_error("cannot open json output file");
    out << obs::Json(std::move(doc)).dump() << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
