// layerbench — end-to-end and per-layer benchmark of the lorasched stack.
//
//   layerbench --workload replay_k1|replay_burst_k2|cluster_replay_k2|
//                         wire_paced_k2|cluster_burst_k2
//              --seed N --seconds S --trace 0|1
//              [--plant late|drop_reply|duplicate] [--trace-dir DIR]
//
// Untraced (--trace 0) runs print the end-to-end metrics; traced runs print
// the per-layer metrics, run the layer ladder and write the recorded spans
// (up to kSpanFileLimit) to DIR/<workload>-seed<N>.spans.csv. Progress goes
// to stderr; the last line of stdout is the JSON verdict
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// A run whose decisions differ from the offline reference, or in which any
// bid was lost, duplicated, answered out of order, shed or late, reports
// "correct": false and names the failure on stderr.
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "lorasched/util/cli.h"
#include "spans.h"
#include "workloads.h"

using namespace layerbench;

namespace {

/// Bounds the span file (~40 bytes a span); the per-name totals printed on
/// stderr always cover every span.
constexpr std::uint64_t kSpanFileLimit = 1'000'000;

/// A run still going this long after its start is hung (a lost wakeup in
/// a stack's teardown, say): fail it loudly, without a verdict, rather than
/// wait forever. Normal runs end within about 1.3 × --seconds + 15 s.
void start_watchdog(double seconds) {
  const std::chrono::duration<double> limit(60.0 + 2.5 * seconds);
  std::thread([limit] {
    std::this_thread::sleep_for(limit);
    std::cerr << "layerbench: error: run still going after " << limit.count()
              << " s, giving up (hung)\n";
    std::_Exit(3);
  }).detach();
}

}  // namespace

int main(int argc, char** argv) try {
  const lorasched::util::Cli cli(argc, argv);
  cli.allow_only({"workload", "seed", "seconds", "trace", "plant", "trace-dir"});
  Options opt;
  opt.workload = cli.get("workload", "");
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  opt.seconds = cli.get_double("seconds", 10.0);
  opt.trace = cli.get_int("trace", 0) != 0;
  opt.plant = cli.get("plant", "");
  opt.trace_dir = cli.get("trace-dir", opt.trace_dir);
  if (opt.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  if (!opt.plant.empty() && opt.plant != "late" &&
      opt.plant != "drop_reply" && opt.plant != "duplicate") {
    throw std::invalid_argument("--plant must be late|drop_reply|duplicate");
  }

  using Runner = Result (*)(const Options&);
  const std::map<std::string, std::pair<Runner, bool>> workloads{
      // name → (entry point, paced: takes --plant)
      {"replay_k1", {run_replay_k1, false}},
      {"replay_burst_k2", {run_replay_burst_k2, false}},
      {"cluster_replay_k2", {run_cluster_replay_k2, false}},
      {"wire_paced_k2", {run_wire_paced_k2, true}},
      {"cluster_burst_k2", {run_cluster_burst_k2, true}},
  };
  const auto workload = workloads.find(opt.workload);
  if (workload == workloads.end()) {
    throw std::invalid_argument(
        "--workload must be replay_k1|replay_burst_k2|cluster_replay_k2|"
        "wire_paced_k2|cluster_burst_k2");
  }
  const auto [run, paced] = workload->second;
  if (!opt.plant.empty() && !paced) {
    throw std::invalid_argument("--plant needs a paced workload");
  }
  start_watchdog(opt.seconds);
  Result result = run(opt);

  if (opt.trace) {
    run_ladder(opt, result);
    for (const auto& [name, s] : spans::summarize()) {
      std::cerr << "span " << name << ": " << s.count << " calls, total "
                << s.total_ms << " ms, self " << s.self_ms << " ms\n";
    }
    std::filesystem::create_directories(opt.trace_dir);
    const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".spans.csv";
    const std::uint64_t written = spans::write(path, kSpanFileLimit);
    std::cerr << "wrote " << written << " spans to " << path << "\n";
  }
  std::cout << result.json() << std::endl;
  return 0;
} catch (const std::exception& e) {
  std::cerr << "layerbench: error: " << e.what() << "\n";
  return 1;
}
