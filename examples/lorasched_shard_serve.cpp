// lorasched_shard_serve — the sharded admission daemon (DESIGN.md §10).
//
// The sharded sibling of lorasched_serve: the same line-delimited bid
// ingestion, slot pacing, outcome export, and checkpoint/resume workflow,
// but decisions run on a ShardedService — K independent pdFTSP shards, a
// price-aware router, and second-chance re-routing of rejected bids.
//
//   ./lorasched_feed --export bids.txt
//   ./lorasched_shard_serve --bids bids.txt --shards 4 --slot-ms 0
//   ./lorasched_feed --slot-ms 100 |
//       ./lorasched_shard_serve --shards 8 --slot-ms 100
//   ./lorasched_shard_serve --bids bids.txt --shards 4
//       --checkpoint ck.txt --checkpoint-every 12
//   ./lorasched_shard_serve --bids bids.txt --shards 4 --resume ck.txt
//
// A checkpoint pins the shard count and router config; resuming under a
// different --shards/--reroute/--router-seed is rejected rather than
// silently diverging. --metrics-out writes the Prometheus exposition of
// the service registry (rewritten every --metrics-every slots; SIGUSR1
// forces a dump).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>

#include "lorasched/core/online_params.h"
#include "lorasched/experiments/scenario.h"
#include "lorasched/io/serialize.h"
#include "lorasched/net/firehose_ingest.h"
#include "lorasched/net/http.h"
#include "lorasched/service/slot_clock.h"
#include "lorasched/shard/sharded_service.h"
#include "lorasched/util/cli.h"

using namespace lorasched;

namespace {

class LogSubscriber final : public service::DecisionSubscriber {
 public:
  explicit LogSubscriber(bool verbose) : verbose_(verbose) {}

  void on_admitted(const TaskOutcome& outcome,
                   const Schedule& schedule) override {
    if (!verbose_) return;
    std::cerr << "admit task " << outcome.task << " pay " << outcome.payment
              << "$ completes slot " << schedule.completion_slot() << "\n";
  }
  void on_rejected(const TaskOutcome& outcome) override {
    if (!verbose_) return;
    std::cerr << "reject task " << outcome.task << " bid " << outcome.bid
              << "$\n";
  }
  void on_slot_end(const service::SlotReport& report) override {
    if (!verbose_ || report.batch == 0) return;
    std::cerr << "slot " << report.slot << ": batch " << report.batch
              << " queue " << report.queue_depth << " decide "
              << report.decide_seconds * 1e3 << "ms\n";
  }

 private:
  bool verbose_;
};

volatile std::sig_atomic_t g_dump_requested = 0;

void on_sigusr1(int) { g_dump_requested = 1; }

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  cli.allow_only({"scenario", "seed", "shards", "reroute", "router-seed",
                  "bids", "slot-ms", "queue-cap", "backpressure", "late",
                  "checkpoint", "checkpoint-every", "resume", "out", "verbose",
                  "metrics-out", "metrics-every", "timing", "http-port",
                  "ingest-port", "ingest-clients"});

  ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  if (cli.has("scenario")) {
    std::ifstream in(cli.get("scenario", ""));
    if (!in) throw std::runtime_error("cannot open scenario file");
    config = io::read_scenario(in);
  }
  const Instance env = make_instance(config);

  shard::ShardedConfig sharded_config;
  sharded_config.shards = cli.get_int("shards", 4);
  sharded_config.reroute_attempts = cli.get_int("reroute", 1);
  sharded_config.router_seed =
      static_cast<std::uint64_t>(cli.get_int("router-seed", 0));
  sharded_config.queue_capacity =
      static_cast<std::size_t>(cli.get_int("queue-cap", 4096));
  sharded_config.time_decisions = cli.get_bool("timing", true);
  const std::string backpressure = cli.get("backpressure", "block");
  if (backpressure == "block") {
    sharded_config.backpressure = service::BackpressureMode::kBlock;
  } else if (backpressure == "reject") {
    sharded_config.backpressure = service::BackpressureMode::kReject;
  } else {
    throw std::invalid_argument("backpressure must be block|reject");
  }
  const std::string late = cli.get("late", "clamp");
  if (late == "clamp") {
    sharded_config.late_bids = service::LateBidMode::kClamp;
  } else if (late == "reject") {
    sharded_config.late_bids = service::LateBidMode::kReject;
  } else {
    throw std::invalid_argument("late must be clamp|reject");
  }

  // One independent pdFTSP per shard, priced for the full scenario (the
  // α/β/κ bounds depend on the bid population, not the partition).
  shard::ShardedService server(
      env, shard::make_pdftsp_factory(pdftsp_config_for(env)), sharded_config);
  LogSubscriber log(cli.get_bool("verbose", false));
  server.add_subscriber(&log);

  // Wire bid ingest (lorasched_firehose clients): sequenced bids arrive as
  // kBidSubmit frames and decisions stream back per connection. Once every
  // expected source ends its stream, the quiesce callback closes the queue
  // — so the local feeder must NOT close it when wire ingest is active.
  const bool wire_ingest = cli.has("ingest-port");
  std::unique_ptr<net::FirehoseIngest> ingest;
  std::unique_ptr<net::IngestSubscriber> ingest_sub;
  if (wire_ingest) {
    net::FirehoseIngest::Config ingest_config;
    ingest_config.port =
        static_cast<std::uint16_t>(cli.get_int("ingest-port", 0));
    ingest_config.expected_streams = cli.get_int("ingest-clients", 1);
    ingest_config.metrics = &server.registry();
    ingest = std::make_unique<net::FirehoseIngest>(
        ingest_config, [&server](const Task& bid) { return server.submit(bid); },
        [&server] { server.close(); });
    ingest_sub = std::make_unique<net::IngestSubscriber>(*ingest);
    server.add_subscriber(ingest_sub.get());
    std::cerr << "bid ingest on 127.0.0.1:" << ingest->port()
              << " (expecting " << ingest_config.expected_streams
              << " stream(s))\n";
  }

  const std::string metrics_path = cli.get("metrics-out", "");
  const auto metrics_every = cli.get_int("metrics-every", 0);
  std::signal(SIGUSR1, &on_sigusr1);
  const auto dump_metrics = [&] {
    std::ostringstream text;
    server.registry().write_prometheus(text);
    if (metrics_path.empty()) {
      std::cerr << text.str();
      return;
    }
    const std::string tmp = metrics_path + ".tmp";
    {
      std::ofstream out(tmp);
      if (!out) throw std::runtime_error("cannot write metrics file");
      out << text.str();
      if (!out.flush()) throw std::runtime_error("metrics write failed");
    }
    if (std::rename(tmp.c_str(), metrics_path.c_str()) != 0) {
      throw std::runtime_error("cannot replace metrics file");
    }
  };

  std::unique_ptr<net::HttpServer> http;
  if (cli.has("http-port")) {
    http = std::make_unique<net::HttpServer>(
        static_cast<std::uint16_t>(cli.get_int("http-port", 0)));
    http->handle("/metrics", [&server] {
      std::ostringstream text;
      server.registry().write_prometheus(text);
      return net::HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                               text.str()};
    });
    http->handle("/healthz", [&server] {
      std::ostringstream text;
      text << "status: serving\n"
           << "shards: " << server.shard_count() << "\n"
           << "queue_depth: " << server.queue().depth() << "\n";
      return net::HttpResponse{200, "text/plain; charset=utf-8", text.str()};
    });
    http->start();
    std::cerr << "http endpoint on 127.0.0.1:" << http->port()
              << " (/metrics /healthz)\n";
  }

  std::unordered_set<TaskId> already_known;
  if (cli.has("resume")) {
    std::ifstream in(cli.get("resume", ""));
    if (!in) throw std::runtime_error("cannot open resume checkpoint");
    const shard::ShardedCheckpoint snapshot = io::read_sharded_checkpoint(in);
    for (const TaskOutcome& outcome : snapshot.outcomes) {
      already_known.insert(outcome.task);
    }
    for (const Task& task : snapshot.pending) already_known.insert(task.id);
    server.restore(snapshot);
    std::cerr << "resumed at slot " << server.current_slot() << "/"
              << server.horizon() << " across " << server.shard_count()
              << " shards (" << already_known.size()
              << " bids already ingested)\n";
  }

  std::atomic<std::uint64_t> shed{0};
  // With wire ingest and no --bids file there is nothing to feed locally —
  // stdin is not consumed.
  std::thread feeder;
  if (!wire_ingest || cli.has("bids")) {
    feeder = std::thread([&] {
      std::ifstream file;
      const std::string bids = cli.get("bids", "-");
      std::istream* in = &std::cin;
      if (bids != "-") {
        file.open(bids);
        if (!file) {
          std::cerr << "error: cannot open bids file " << bids << "\n";
          if (!wire_ingest) server.close();
          return;
        }
        in = &file;
      }
      std::string line;
      while (std::getline(*in, line)) {
        if (line.empty() || line.front() == '#') continue;
        Task bid;
        try {
          bid = io::parse_bid_line(line);
        } catch (const std::exception& e) {
          std::cerr << "skipping malformed bid line: " << e.what() << "\n";
          shed.fetch_add(1);
          continue;
        }
        if (already_known.count(bid.id) != 0) continue;
        if (server.submit(bid) != service::SubmitResult::kAccepted) {
          shed.fetch_add(1);
        }
      }
      if (!wire_ingest) server.close();
    });
  }

  const auto slot_period =
      std::chrono::milliseconds(cli.get_int("slot-ms", 0));
  // slot-ms 0 = offline replay: pump the whole stream in first (see
  // lorasched_serve for why a plain join would deadlock past --queue-cap).
  // Under wire ingest the queue closes when every source ended its stream.
  if (slot_period.count() == 0) {
    while (!server.queue().closed() || server.queue().depth() != 0) {
      server.queue().wait_available();
      server.pump();
    }
    if (feeder.joinable()) feeder.join();
  }
  const auto checkpoint_every = cli.get_int("checkpoint-every", 0);
  const std::string checkpoint_path = cli.get("checkpoint", "");
  const service::SlotClock clock(slot_period);
  while (!server.done()) {
    if (!server.idle()) clock.wait_slot_end(server.current_slot());
    server.step();
    if (!checkpoint_path.empty() && checkpoint_every > 0 &&
        server.current_slot() % checkpoint_every == 0) {
      const std::string tmp = checkpoint_path + ".tmp";
      {
        std::ofstream out(tmp);
        if (!out) throw std::runtime_error("cannot write checkpoint");
        io::write_sharded_checkpoint(out, server.checkpoint());
        if (!out.flush()) throw std::runtime_error("checkpoint write failed");
      }
      if (std::rename(tmp.c_str(), checkpoint_path.c_str()) != 0) {
        throw std::runtime_error("cannot replace checkpoint file");
      }
    }
    if (g_dump_requested != 0) {
      g_dump_requested = 0;
      dump_metrics();
    }
    if (metrics_every > 0 && server.current_slot() % metrics_every == 0) {
      dump_metrics();
    }
  }
  if (feeder.joinable()) feeder.join();
  // Flush tail decisions to firehose clients before tearing the links down.
  if (ingest) ingest->stop();

  const auto ops = server.metrics();
  const std::uint64_t rerouted = server.rerouted_bids();
  const std::uint64_t recovered = server.reroute_admits();
  const SimResult result = server.finish();
  // Decided bids, whatever fed them: the --bids file, wire ingest, or both.
  std::cerr << "served "
            << result.metrics.admitted + result.metrics.rejected << " bids ("
            << shed.load()
            << " shed) on " << server.shard_count() << " shards, welfare "
            << result.metrics.social_welfare << "$, admitted "
            << result.metrics.admitted << "/"
            << (result.metrics.admitted + result.metrics.rejected)
            << ", rerouted " << rerouted << " (" << recovered
            << " admitted on a second chance), ingest " << ops.ingest_rate
            << " bids/s, decide p50 " << ops.decide_p50 * 1e6 << "us p99 "
            << ops.decide_p99 * 1e6 << "us\n";

  if (!metrics_path.empty() || metrics_every > 0 || g_dump_requested != 0) {
    dump_metrics();
  }

  if (cli.has("out")) {
    std::ofstream out(cli.get("out", ""));
    if (!out) throw std::runtime_error("cannot open output file");
    io::write_outcomes_csv(out, result.outcomes);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
