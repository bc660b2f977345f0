// lorasched_firehose — multi-source / multi-process bid firehose with
// sequence-loss accounting and latency CDFs (DESIGN.md §14).
//
// Generates seeded, reproducible per-source bid streams (loadgen/) and
// drives them against a serving process, accounting every bid's fate:
// offered, admitted, rejected, shed, lost, out-of-order, duplicate. The
// run ends with a BENCH_soak.json verdict and a non-zero exit when any
// bid was lost or any sequence violation occurred.
//
// Modes (pick one):
//   --export bids.txt        write the merged offered stream as bid lines
//                            (same seed => byte-identical file; the CI
//                            determinism check cmps two exports)
//   --connect host:port      wire mode: one connection per source against
//                            a serving process started with --ingest-port
//                            (lorasched_serve, in-process or --agents)
//   (neither)                inline mode: an in-process single-shard
//                            ShardedService decided with pdFTSP — the
//                            no-sockets soak the unit tests and micro-bench
//                            build on
//
//   ./lorasched_serve --shards 4 --slot-ms 0 --ingest-port 7801
//       --ingest-clients 4 &
//   ./lorasched_firehose --connect 127.0.0.1:7801 --sources 4 --rate 200
//       --mix burst --json-out BENCH_soak.json
//
// --processes P forks P workers, partitioning the sources round-robin;
// each worker writes a partial verdict and the parent merges them exactly
// (histogram bucket counts sum element-wise) into the final report.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lorasched/core/pdftsp.h"
#include "lorasched/experiments/scenario.h"
#include "lorasched/io/serialize.h"
#include "lorasched/loadgen/arrival.h"
#include "lorasched/loadgen/firehose.h"
#include "lorasched/loadgen/soak_metrics.h"
#include "lorasched/loadgen/verdict.h"
#include "lorasched/net/messages.h"
#include "lorasched/net/transport.h"
#include "lorasched/service/slot_clock.h"
#include "lorasched/shard/sharded_service.h"
#include "lorasched/util/cli.h"

using namespace lorasched;

namespace {

struct SourceStream {
  std::uint32_t source = 0;
  std::vector<Task> bids;
};

loadgen::SoakStatus to_soak(net::BidStatus status) {
  switch (status) {
    case net::BidStatus::kAdmitted: return loadgen::SoakStatus::kAdmitted;
    case net::BidStatus::kRejected: return loadgen::SoakStatus::kRejected;
    case net::BidStatus::kShedFull: return loadgen::SoakStatus::kShedFull;
    case net::BidStatus::kShedClosed:
      return loadgen::SoakStatus::kShedClosed;
  }
  throw std::logic_error("unmapped bid status");
}

loadgen::SoakStatus shed_for(service::SubmitResult result) {
  return result == service::SubmitResult::kRejectedClosed
             ? loadgen::SoakStatus::kShedClosed
             : loadgen::SoakStatus::kShedFull;
}

std::vector<SourceStream> generate_streams(const Instance& env,
                                           const ScenarioConfig& scenario,
                                           std::uint32_t sources,
                                           loadgen::ArrivalMix mix,
                                           double rate, Slot window) {
  std::vector<SourceStream> streams;
  streams.reserve(sources);
  for (std::uint32_t s = 0; s < sources; ++s) {
    loadgen::FirehoseConfig fc;
    fc.source = s;
    fc.seed = scenario.seed;
    fc.mix = mix;
    fc.rate_per_slot = rate;
    fc.horizon = env.horizon;
    fc.arrival_window = window;
    fc.taskgen = scenario.taskgen;
    loadgen::BidFirehose firehose(fc, env.cluster, env.energy, env.market);
    streams.push_back({s, firehose.generate()});
  }
  return streams;
}

void print_summary(const loadgen::SoakReport& report) {
  std::cerr << "soak: offered " << report.totals.offered << ", responded "
            << report.totals.responded << " (admitted "
            << report.totals.admitted << ", rejected "
            << report.totals.rejected << ", shed " << report.totals.shed
            << "), lost " << report.totals.lost << ", ooo "
            << report.totals.out_of_order << ", dup "
            << report.totals.duplicates << ", unknown "
            << report.totals.unknown << "\n"
            << "soak: e2e latency p50 " << report.latency.percentile(50) * 1e3
            << "ms p90 " << report.latency.percentile(90) * 1e3 << "ms p99 "
            << report.latency.percentile(99) * 1e3 << "ms p999 "
            << report.latency.percentile(99.9) * 1e3 << "ms over "
            << report.elapsed_seconds << "s ("
            << (report.elapsed_seconds > 0.0
                    ? static_cast<double>(report.totals.offered) /
                          report.elapsed_seconds
                    : 0.0)
            << " bids/s offered)\n";
}

int finish_run(const loadgen::SoakReport& report, const std::string& json_out,
               bool quiet) {
  if (!quiet) print_summary(report);
  int code = report.clean() ? 0 : 1;
  if (!json_out.empty()) {
    code = loadgen::write_verdict(report, json_out);
    if (!quiet) std::cerr << "soak: verdict written to " << json_out << "\n";
  }
  if (code != 0) std::cerr << "soak: FAILED (loss or sequence violation)\n";
  return code;
}

/// Waits until every offered bid got a response, the drain budget ran out,
/// or every connection died (then waiting is pointless).
void await_drain(const loadgen::SoakMetrics& soak,
                 const std::vector<std::unique_ptr<net::Connection>>& conns,
                 std::chrono::milliseconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (soak.outstanding() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    bool any_open = false;
    for (const auto& conn : conns) {
      if (conn->open()) any_open = true;
    }
    if (!any_open) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

int run_wire(const std::vector<SourceStream>& streams,
             const std::string& host, std::uint16_t port,
             std::chrono::milliseconds slot_period,
             std::chrono::milliseconds drain_budget,
             const std::string& json_out, bool quiet) {
  loadgen::SoakMetrics soak;
  std::vector<std::unique_ptr<net::Connection>> conns;
  conns.reserve(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    net::Socket socket = net::connect_with_backoff(
        host, port, 40, std::chrono::milliseconds(50));
    net::Connection::Config cc;
    cc.outbox_capacity = 8192;
    conns.push_back(std::make_unique<net::Connection>(
        std::move(socket), cc,
        [&soak](net::Frame&& frame) {
          if (frame.type != net::MsgType::kBidDecision) return;
          const net::BidDecisionMsg m =
              net::decode_bid_decision(frame.payload);
          soak.record_response(m.source, m.seq, to_soak(m.status),
                               loadgen::SoakMetrics::now_ns());
        },
        [&soak, source = streams[i].source](const std::string& reason) {
          // A close after every bid of this source was answered is the
          // server's clean quiesce (or our own teardown), not a failure.
          if (soak.outstanding(source) > 0) {
            std::cerr << "soak: connection failed: " << reason << "\n";
          }
        }));
  }

  std::vector<std::thread> senders;
  senders.reserve(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    senders.emplace_back([&, i] {
      const SourceStream& stream = streams[i];
      net::Connection& conn = *conns[i];
      const std::size_t sent = loadgen::pace_bids(
          stream.bids, slot_period, [&](const Task& bid) {
            net::BidSubmitMsg msg;
            msg.source = stream.source;
            msg.seq = loadgen::bid_seq(bid.id);
            msg.send_ns = loadgen::SoakMetrics::now_ns();
            msg.task = bid;
            soak.record_offered(msg.source, msg.seq, msg.send_ns);
            if (!conn.send(net::MsgType::kBidSubmit, net::encode(msg))) {
              // Connection gone: the bid (and the rest of the stream)
              // counts as lost in the verdict.
              return;
            }
          });
      net::BidStreamEndMsg end;
      end.source = stream.source;
      end.offered = sent;
      conn.send(net::MsgType::kBidStreamEnd, net::encode(end));
    });
  }
  for (std::thread& t : senders) t.join();

  await_drain(soak, conns, drain_budget);
  for (const auto& conn : conns) {
    conn->drain(std::chrono::milliseconds(500));
  }
  conns.clear();
  return finish_run(soak.report(), json_out, quiet);
}

int run_inline(const std::vector<SourceStream>& streams, const Instance& env,
               std::chrono::milliseconds slot_period, std::size_t queue_cap,
               const std::string& json_out, bool quiet) {
  shard::ShardedConfig sc;
  sc.queue_capacity = queue_cap;
  sc.late_bids = service::LateBidMode::kClamp;
  shard::ShardedService server(
      env, shard::make_pdftsp_factory(pdftsp_config_for(env)), sc);
  loadgen::SoakMetrics soak;
  server.add_subscriber(&soak);

  std::vector<std::thread> senders;
  senders.reserve(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    senders.emplace_back([&, i] {
      const SourceStream& stream = streams[i];
      loadgen::pace_bids(stream.bids, slot_period, [&](const Task& bid) {
        const std::uint64_t seq = loadgen::bid_seq(bid.id);
        soak.record_offered(stream.source, seq,
                            loadgen::SoakMetrics::now_ns());
        const service::SubmitResult result = server.submit(bid);
        if (result != service::SubmitResult::kAccepted) {
          soak.record_response(stream.source, seq, shed_for(result),
                               loadgen::SoakMetrics::now_ns());
        }
      });
    });
  }
  std::thread closer([&] {
    for (std::thread& t : senders) t.join();
    server.close();
  });

  if (slot_period.count() == 0) {
    while (!server.queue().closed() || server.queue().depth() != 0) {
      server.queue().wait_available();
      server.pump();
    }
  }
  const service::SlotClock clock(slot_period);
  while (!server.done()) {
    if (!server.idle()) clock.wait_slot_end(server.current_slot());
    server.step();
  }
  closer.join();
  const SimResult result = server.finish();
  if (!quiet) {
    std::cerr << "soak: inline service welfare "
              << result.metrics.social_welfare << "$, admitted "
              << result.metrics.admitted << "/"
              << (result.metrics.admitted + result.metrics.rejected) << "\n";
  }
  return finish_run(soak.report(), json_out, quiet);
}

/// Fork-per-worker fan-out: worker w takes sources w, w+P, w+2P, ... and
/// writes `<json_out>.part<w>`; the parent merges the partials exactly.
int run_processes(const std::vector<SourceStream>& streams, int processes,
                  const std::string& host, std::uint16_t port,
                  std::chrono::milliseconds slot_period,
                  std::chrono::milliseconds drain_budget,
                  const std::string& json_out, bool quiet) {
  std::vector<pid_t> children;
  for (int w = 0; w < processes; ++w) {
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      std::vector<SourceStream> mine;
      for (std::size_t i = static_cast<std::size_t>(w); i < streams.size();
           i += static_cast<std::size_t>(processes)) {
        mine.push_back(streams[i]);
      }
      const std::string part = json_out + ".part" + std::to_string(w);
      int code = 1;
      try {
        code = run_wire(mine, host, port, slot_period, drain_budget, part,
                        true);
      } catch (const std::exception& e) {
        std::cerr << "soak worker " << w << ": " << e.what() << "\n";
      }
      std::_Exit(code);
    }
    children.push_back(pid);
  }
  bool workers_ok = true;
  for (const pid_t pid : children) {
    int status = 0;
    if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      workers_ok = false;
    }
  }
  std::vector<loadgen::SoakReport> parts;
  for (int w = 0; w < processes; ++w) {
    const std::string part = json_out + ".part" + std::to_string(w);
    std::ifstream in(part);
    if (!in) {
      std::cerr << "soak: missing worker verdict " << part << "\n";
      workers_ok = false;
      continue;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    parts.push_back(loadgen::parse_verdict(obs::Json::parse(text)));
    std::remove(part.c_str());
  }
  const loadgen::SoakReport merged = loadgen::merge_reports(parts);
  const int code = finish_run(merged, json_out, quiet);
  return workers_ok ? code : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  cli.allow_only({"scenario", "seed", "sources", "rate", "mix",
                  "arrival-window", "slot-ms", "connect", "export",
                  "processes", "json-out", "drain-timeout-ms", "queue-cap",
                  "quiet"});

  ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  if (cli.has("scenario")) {
    std::ifstream in(cli.get("scenario", ""));
    if (!in) throw std::runtime_error("cannot open scenario file");
    config = io::read_scenario(in);
  }
  const Instance env = make_instance(config);

  const auto sources =
      static_cast<std::uint32_t>(cli.get_int("sources", 2));
  if (sources == 0 || sources > loadgen::kMaxBidSource + 1) {
    throw std::invalid_argument("sources must be in [1, 127]");
  }
  const double rate = cli.get_double("rate", 50.0);
  const loadgen::ArrivalMix mix =
      loadgen::parse_arrival_mix(cli.get("mix", "poisson"));
  const auto window = static_cast<Slot>(cli.get_int("arrival-window", 0));
  const auto slot_period =
      std::chrono::milliseconds(cli.get_int("slot-ms", 0));
  const auto drain_budget =
      std::chrono::milliseconds(cli.get_int("drain-timeout-ms", 10000));
  const std::string json_out = cli.get("json-out", "");
  const bool quiet = cli.get_bool("quiet", false);

  const std::vector<SourceStream> streams =
      generate_streams(env, config, sources, mix, rate, window);
  std::uint64_t total = 0;
  for (const SourceStream& s : streams) total += s.bids.size();
  if (!quiet) {
    std::cerr << "soak: generated " << total << " bids across " << sources
              << " source(s), mix " << loadgen::to_string(mix) << ", seed "
              << config.seed << "\n";
  }

  if (cli.has("export")) {
    // The offered stream, merged across sources in (arrival, id) order —
    // bit-identical across runs with the same flags.
    std::vector<Task> merged;
    merged.reserve(total);
    for (const SourceStream& s : streams) {
      merged.insert(merged.end(), s.bids.begin(), s.bids.end());
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Task& a, const Task& b) {
                       return a.arrival != b.arrival ? a.arrival < b.arrival
                                                     : a.id < b.id;
                     });
    std::ofstream out(cli.get("export", ""));
    if (!out) throw std::runtime_error("cannot open export file");
    for (const Task& bid : merged) {
      out << io::format_bid_line(bid) << '\n';
    }
    std::cerr << "exported " << merged.size() << " bids to "
              << cli.get("export", "") << "\n";
    return 0;
  }

  if (cli.has("connect")) {
    const std::string endpoint = cli.get("connect", "");
    const auto colon = endpoint.rfind(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("--connect wants host:port");
    }
    const std::string host = endpoint.substr(0, colon);
    const auto port =
        static_cast<std::uint16_t>(std::stoi(endpoint.substr(colon + 1)));
    const int processes = cli.get_int("processes", 1);
    if (processes > 1) {
      if (json_out.empty()) {
        throw std::invalid_argument("--processes needs --json-out");
      }
      return run_processes(streams, processes, host, port, slot_period,
                           drain_budget, json_out, quiet);
    }
    return run_wire(streams, host, port, slot_period, drain_budget, json_out,
                    quiet);
  }

  return run_inline(streams, env, slot_period,
                    static_cast<std::size_t>(cli.get_int("queue-cap", 4096)),
                    json_out, quiet);
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
