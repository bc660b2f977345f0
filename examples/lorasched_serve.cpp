// lorasched_serve — the long-running admission daemon.
//
// Reads line-delimited bids (io::format_bid_line records) from stdin or a
// file, streams them into an AdmissionService over the scenario's cluster,
// and decides each slot on a configurable slot period (replay speed). The
// service can checkpoint every N slots and resume from a checkpoint file,
// so a killed daemon continues mid-horizon with bit-identical decisions.
//
//   ./lorasched_feed --export bids.txt
//   ./lorasched_serve --bids bids.txt --slot-ms 0 --out outcomes.csv
//   ./lorasched_feed --slot-ms 100 | ./lorasched_serve --slot-ms 100
//   ./lorasched_serve --bids bids.txt --checkpoint ck.txt --checkpoint-every 12
//   ./lorasched_serve --bids bids.txt --resume ck.txt
//
// Observability (DESIGN.md §8):
//   --trace-out d.jsonl     per-bid decision trace (JSONL) + profiling
//                           spans; also writes d.jsonl.chrome.json, a
//                           Chrome trace-event timeline for Perfetto
//   --metrics-out m.prom    Prometheus text exposition of the service
//                           registry, rewritten every --metrics-every
//                           slots (default 0 = only at exit) and on
//                           SIGUSR1 (kill -USR1 <pid> for an on-demand
//                           dump of a live daemon)
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
#include "lorasched/core/pdftsp.h"
#include "lorasched/experiments/scenario.h"
#include "lorasched/io/serialize.h"
#include "lorasched/obs/span.h"
#include "lorasched/obs/trace.h"
#include "lorasched/service/admission_service.h"
#include "lorasched/service/slot_clock.h"
#include "lorasched/util/cli.h"

using namespace lorasched;

namespace {

/// Logs every decision to stderr — a demo subscriber (billing/executor
/// stand-in); stdout stays clean for piped workflows.
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

/// SIGUSR1 flags an on-demand metrics dump; the slot loop polls it (the
/// handler itself only flips the flag — async-signal-safe).
volatile std::sig_atomic_t g_dump_requested = 0;

void on_sigusr1(int) { g_dump_requested = 1; }

std::unique_ptr<Policy> make_policy(const std::string& name,
                                    const Instance& instance) {
  if (name == "pdFTSP") {
    return std::make_unique<Pdftsp>(pdftsp_config_for(instance),
                                    instance.cluster, instance.energy,
                                    instance.horizon);
  }
  if (name == "pdFTSP-adaptive") {
    return std::make_unique<AdaptivePdftsp>(OnlineParamEstimator::Config{},
                                            instance.cluster, instance.energy,
                                            instance.horizon);
  }
  throw std::invalid_argument("unknown (or non-checkpointable) policy: " +
                              name);
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  cli.allow_only({"scenario", "seed", "policy", "bids", "slot-ms", "queue-cap",
                  "backpressure", "late", "checkpoint", "checkpoint-every",
                  "resume", "out", "verbose", "trace-out", "metrics-out",
                  "metrics-every"});

  ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  if (cli.has("scenario")) {
    std::ifstream in(cli.get("scenario", ""));
    if (!in) throw std::runtime_error("cannot open scenario file");
    config = io::read_scenario(in);
  }
  const Instance env = make_instance(config);
  const auto policy = make_policy(cli.get("policy", "pdFTSP"), env);

  service::ServiceConfig service_config;
  service_config.queue_capacity =
      static_cast<std::size_t>(cli.get_int("queue-cap", 4096));
  const std::string backpressure = cli.get("backpressure", "block");
  if (backpressure == "block") {
    service_config.backpressure = service::BackpressureMode::kBlock;
  } else if (backpressure == "reject") {
    service_config.backpressure = service::BackpressureMode::kReject;
  } else {
    throw std::invalid_argument("backpressure must be block|reject");
  }
  const std::string late = cli.get("late", "clamp");
  if (late == "clamp") {
    service_config.late_bids = service::LateBidMode::kClamp;
  } else if (late == "reject") {
    service_config.late_bids = service::LateBidMode::kReject;
  } else {
    throw std::invalid_argument("late must be clamp|reject");
  }

  service::AdmissionService server(env, *policy, service_config);
  LogSubscriber log(cli.get_bool("verbose", false));
  server.add_subscriber(&log);

  // Observability: decision trace (JSONL + Chrome trace) and metrics dumps.
  const std::string trace_path = cli.get("trace-out", "");
  std::ofstream trace_stream;
  std::unique_ptr<obs::DecisionTracer> tracer;
  obs::Traceable* traceable = nullptr;
  if (!trace_path.empty()) {
    traceable = dynamic_cast<obs::Traceable*>(policy.get());
    if (traceable == nullptr) {
      throw std::invalid_argument("policy does not support --trace-out");
    }
    trace_stream.open(trace_path);
    if (!trace_stream) throw std::runtime_error("cannot open trace file");
    tracer = std::make_unique<obs::DecisionTracer>(&trace_stream);
    traceable->set_trace_sink(tracer.get());
    obs::Profiler::instance().set_enabled(true);
    obs::Profiler::instance().set_timeline(true);
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
    // Write-then-rename, same as checkpoints: a scraper never reads a
    // half-written exposition.
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

  // Bids the checkpoint already accounts for (decided or still pending);
  // the feeder skips them so replaying the same bid file after a resume
  // does not double-submit.
  std::unordered_set<TaskId> already_known;
  if (cli.has("resume")) {
    std::ifstream in(cli.get("resume", ""));
    if (!in) throw std::runtime_error("cannot open resume checkpoint");
    const service::Checkpoint snapshot = io::read_checkpoint(in);
    for (const TaskOutcome& outcome : snapshot.outcomes) {
      already_known.insert(outcome.task);
    }
    for (const Task& task : snapshot.pending) already_known.insert(task.id);
    server.restore(snapshot);
    std::cerr << "resumed at slot " << server.current_slot() << "/"
              << server.horizon() << " (" << already_known.size()
              << " bids already ingested)\n";
  }

  // Ingestion thread: stdin or a bid file, one bid per line.
  std::atomic<std::uint64_t> fed{0};
  std::atomic<std::uint64_t> shed{0};
  std::thread feeder([&] {
    std::ifstream file;
    const std::string bids = cli.get("bids", "-");
    std::istream* in = &std::cin;
    if (bids != "-") {
      file.open(bids);
      if (!file) {
        std::cerr << "error: cannot open bids file " << bids << "\n";
        server.close();
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
        // One garbled line must not take the daemon down.
        std::cerr << "skipping malformed bid line: " << e.what() << "\n";
        shed.fetch_add(1);
        continue;
      }
      if (already_known.count(bid.id) != 0) continue;
      const auto result = server.submit(bid);
      if (result == service::SubmitResult::kAccepted) {
        fed.fetch_add(1);
      } else {
        shed.fetch_add(1);
      }
    }
    server.close();
  });

  // Slot loop (consumer thread = main), with periodic checkpoints.
  const auto slot_period =
      std::chrono::milliseconds(cli.get_int("slot-ms", 0));
  // slot-ms 0 is offline replay: ingest the whole stream first, then decide
  // every slot back to back. Racing the unpaced loop against the feeder
  // would otherwise let the horizon finish mid-ingestion on a loaded
  // machine, leaving an arbitrary suffix of bids undecided. A plain
  // feeder.join() would deadlock once the bid file outgrows --queue-cap
  // under the default block backpressure (the feeder waits for a drain
  // that join() prevents), so pump the queue into the service while the
  // feeder runs — pump() absorbs bids without deciding anything.
  if (slot_period.count() == 0) {
    while (!server.queue().closed() || server.queue().depth() != 0) {
      server.queue().wait_available();
      server.pump();
    }
    feeder.join();
  }
  const auto checkpoint_every = cli.get_int("checkpoint-every", 0);
  const std::string checkpoint_path = cli.get("checkpoint", "");
  const service::SlotClock clock(slot_period);
  while (!server.done()) {
    if (!server.idle()) clock.wait_slot_end(server.current_slot());
    server.step();
    if (!checkpoint_path.empty() && checkpoint_every > 0 &&
        server.current_slot() % checkpoint_every == 0) {
      // Write-then-rename so a kill mid-write never leaves a truncated
      // checkpoint behind — the previous complete one survives.
      const std::string tmp = checkpoint_path + ".tmp";
      {
        std::ofstream out(tmp);
        if (!out) throw std::runtime_error("cannot write checkpoint");
        io::write_checkpoint(out, server.checkpoint());
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

  const auto ops = server.metrics();
  const SimResult result = server.finish();
  std::cerr << "served " << fed.load() << " bids (" << shed.load()
            << " shed), welfare " << result.metrics.social_welfare
            << "$, admitted " << result.metrics.admitted << "/"
            << (result.metrics.admitted + result.metrics.rejected)
            << ", ingest " << ops.ingest_rate << " bids/s, decide p50 "
            << ops.decide_p50 * 1e6 << "us p99 " << ops.decide_p99 * 1e6
            << "us\n";

  if (!metrics_path.empty() || metrics_every > 0 || g_dump_requested != 0) {
    dump_metrics();
  }
  if (tracer != nullptr) {
    // Detach the sink before anything else: the tracer and trace_stream
    // are declared after policy/server, so they are destroyed first at
    // scope exit — the policy must not hold the pointer past this point.
    traceable->set_trace_sink(nullptr);
    tracer->flush();
    trace_stream.close();
    std::ofstream chrome(trace_path + ".chrome.json");
    if (!chrome) throw std::runtime_error("cannot open chrome trace file");
    obs::write_chrome_trace(chrome, tracer->instants());
    std::cerr << "trace: " << tracer->records() << " decisions to "
              << trace_path << " (+ .chrome.json timeline)\n";
    for (const obs::SpanStats& span : obs::Profiler::instance().snapshot()) {
      std::cerr << "span " << span.name << ": " << span.count << " x, total "
                << span.total_seconds * 1e3 << "ms self "
                << span.self_seconds * 1e3 << "ms\n";
    }
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
