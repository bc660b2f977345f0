// google-benchmark microbenchmarks for the algorithmic kernels: the
// per-task schedule DP (Alg. 2), the dual update (eq. 7/8), the full
// per-task pdFTSP decision, the simplex solver, a price-scale ablation
// of end-to-end welfare (the DESIGN.md §5 knob), and the raw cost of a
// LORASCHED_SPAN in its disabled and enabled states.
//
// With --json-out the binary instead runs the kernel A/B harness
// (DESIGN.md §5/§5c): the fig08 paper-scale cell replayed through the
// legacy (the per-call reference DP, audit::reference_find), scalar
// (cached, SIMD off), and simd (cached, runtime-dispatched kernel) find
// arms, cross-checked bit-identical via a plan fingerprint, with
// steady-state allocations per ScheduleDp::find counted via the global
// operator new hook below; then the full Alg. 1 decision loop, measuring
// decisions/sec and the price-cache hit rate. Emits BENCH_core.json (CI
// artifact):
//
//   ./micro_core --json-out BENCH_core.json
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>

#include "lorasched/audit/oracle.h"
#include "lorasched/core/pdftsp.h"
#include "lorasched/experiments/runner.h"
#include "lorasched/obs/json.h"
#include "lorasched/obs/span.h"
#include "lorasched/solver/simplex.h"
#include "lorasched/util/cli.h"

// --- Allocation-counting hook ------------------------------------------------
// Counts every global operator new in the process; the A/B harness diffs
// the counter around steady-state find() calls to pin "0 allocations per
// decision". Counting only (no interposed allocator): the hot path's claim
// is about call counts, not bytes.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lorasched {
namespace {

Instance bench_instance(int nodes, double rate, Slot horizon = 96,
                        std::uint64_t seed = 9) {
  ScenarioConfig config;
  config.nodes = nodes;
  config.fleet = FleetKind::kHybrid;
  config.horizon = horizon;
  config.arrival_rate = rate;
  config.seed = seed;
  return make_instance(config);
}

/// Alg. 2's DP over (slot, work) for one task, window and fleet per Arg.
void BM_ScheduleDp(benchmark::State& state) {
  const Instance instance = bench_instance(static_cast<int>(state.range(0)),
                                           2.0);
  const ScheduleDp dp(instance.cluster, instance.energy);
  const DualState duals(instance.cluster.node_count(), instance.horizon);
  const Task& task = instance.tasks[instance.tasks.size() / 2];
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp.find(task, task.arrival, duals));
  }
  state.SetLabel(std::to_string(instance.cluster.node_count()) + " nodes");
}
BENCHMARK(BM_ScheduleDp)->Arg(8)->Arg(32)->Arg(128);

/// One multiplicative dual update (eq. 7/8) for a mid-sized schedule.
void BM_DualUpdate(benchmark::State& state) {
  const Instance instance = bench_instance(16, 2.0);
  const ScheduleDp dp(instance.cluster, instance.energy);
  DualState duals(instance.cluster.node_count(), instance.horizon);
  const Task& task = instance.tasks[instance.tasks.size() / 2];
  Schedule schedule = dp.find(task, task.arrival, duals);
  finalize_schedule(schedule, task, instance.cluster, instance.energy);
  for (auto _ : state) {
    duals.apply_update(task, schedule, instance.cluster, 1.0, 1.0, 1.0);
  }
}
BENCHMARK(BM_DualUpdate);

/// Full Alg. 1 loop body (vendor loop + DP + pricing) per task.
void BM_PdftspDecision(benchmark::State& state) {
  const Instance instance = bench_instance(static_cast<int>(state.range(0)),
                                           2.0);
  Pdftsp policy(pdftsp_config_for(instance), instance.cluster, instance.energy,
                instance.horizon);
  CapacityLedger ledger(instance.cluster, instance.horizon);
  std::size_t next = 0;
  for (auto _ : state) {
    const Task& task = instance.tasks[next++ % instance.tasks.size()];
    benchmark::DoNotOptimize(
        policy.handle_task(task, instance.market.quotes(task), ledger));
  }
  state.SetLabel(std::to_string(instance.cluster.node_count()) + " nodes");
}
BENCHMARK(BM_PdftspDecision)->Arg(16)->Arg(64);

/// Dense simplex on a random packing LP (rows = Arg).
void BM_Simplex(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = 2 * m;
  solver::LpProblem lp;
  std::uint64_t rng_state = 4242;
  auto next = [&rng_state]() {
    rng_state = rng_state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((rng_state >> 33) & 0xffff) / 65535.0;
  };
  for (int j = 0; j < n; ++j) lp.objective.push_back(1.0 + next());
  for (int i = 0; i < m; ++i) {
    solver::LpProblem::Row row;
    for (int j = 0; j < n; ++j) {
      if (next() < 0.2) row.coeffs.emplace_back(j, 0.2 + next());
    }
    row.rhs = 2.0 + next();
    lp.rows.push_back(row);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver::solve_lp(lp));
  }
}
BENCHMARK(BM_Simplex)->Arg(20)->Arg(60)->Arg(120);

/// Ablation: end-to-end welfare as the dual price scale varies (x1000 for
/// visibility in the counter column). Shows the calibration tradeoff
/// described in DESIGN.md §5 — full Lemma-2 strength prices out profitable
/// demand; near-zero reduces pdFTSP to a greedy profit filter.
void BM_PriceScaleAblation(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 10000.0;
  const Instance instance = bench_instance(8, 6.0, 72);
  for (auto _ : state) {
    Pdftsp policy(pdftsp_config_for(instance, std::max(scale, 1e-9)),
                  instance.cluster, instance.energy, instance.horizon);
    const SimResult result = run_simulation(instance, policy);
    state.counters["welfare"] = result.metrics.social_welfare;
  }
}
BENCHMARK(BM_PriceScaleAblation)
    ->Arg(0)       // scale 0 (profit filter only)
    ->Arg(10)      // 0.001
    ->Arg(100)     // 0.01 (default)
    ->Arg(1000)    // 0.1
    ->Arg(10000);  // 1.0 (full Lemma-2 constants)

/// Raw LORASCHED_SPAN cost: Arg(0) = disabled (one relaxed load + branch,
/// the production default), Arg(1) = enabled (two clock reads + relaxed
/// adds). The gap between the two is what every instrumented hot path pays
/// when profiling is turned on.
void BM_SpanCost(benchmark::State& state) {
  obs::Profiler::instance().set_enabled(state.range(0) != 0);
  for (auto _ : state) {
    LORASCHED_SPAN("bench/span_cost");
    benchmark::ClobberMemory();
  }
  obs::Profiler::instance().set_enabled(false);
  obs::Profiler::instance().reset();
  state.SetLabel(state.range(0) != 0 ? "enabled" : "disabled");
}
BENCHMARK(BM_SpanCost)->Arg(0)->Arg(1);

// --- Price-cache A/B harness (--json-out) -----------------------------------

/// FNV-1a over the find arms' per-bid plans (feasibility and every
/// (node, slot)): any divergence between arms changes the digest.
struct Fingerprint {
  std::uint64_t hash = 1469598103934665603ull;
  void mix(std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  }
};

struct FindArm {
  std::string label;
  std::string kernel;
  std::uint64_t calls = 0;
  double wall_seconds = 0.0;
  std::uint64_t steady_calls = 0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t fingerprint = 0;

  [[nodiscard]] double finds_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(calls) / wall_seconds : 0.0;
  }
  [[nodiscard]] double allocs_per_find() const {
    return steady_calls > 0
               ? static_cast<double>(steady_allocs) /
                     static_cast<double>(steady_calls)
               : 0.0;
  }
};

/// Kernel-level A/B: replay the instance's bids through bare
/// ScheduleDp::find — or, with `reference`, the per-call reference DP —
/// under moving duals (an eq. 7/8 update every `admit_every`-th feasible
/// plan, mimicking pdFTSP's admission cadence), with one warmup lap to grow
/// the arena before allocations are counted.
FindArm run_find_arm(const Instance& instance, bool reference, bool simd,
                     std::string label, std::size_t max_bids,
                     int admit_every) {
  FindArm arm;
  arm.label = std::move(label);
  ScheduleDpConfig config;
  config.simd = simd;
  const ScheduleDp dp(instance.cluster, instance.energy, config);
  arm.kernel = simd::kernel_name(dp.kernel());
  DpScratch scratch;
  Schedule plan;
  Fingerprint digest;
  DualState duals(instance.cluster.node_count(), instance.horizon);
  auto find = [&](const Task& task) {
    if (reference) {
      plan = audit::reference_find(task, task.arrival, duals,
                                   instance.cluster, instance.energy, config);
    } else {
      dp.find_into(plan, task, task.arrival, duals, scratch);
    }
  };

  const std::size_t bids = std::min(max_bids, instance.tasks.size());
  for (int lap = 0; lap < 2; ++lap) {
    const bool measured = lap == 1;
    duals = DualState(instance.cluster.node_count(), instance.horizon);
    int feasible = 0;
    const auto started = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < bids; ++i) {
      const Task& task = instance.tasks[i];
      find(task);
      if (!plan.empty() && ++feasible % admit_every == 0) {
        finalize_schedule(plan, task, instance.cluster, instance.energy);
        duals.apply_update(task, plan, instance.cluster, 1.0, 1.0, 1.0);
      }
      if (measured) {
        digest.mix(plan.empty() ? 0 : 1);
        for (const Assignment& a : plan.run) {
          digest.mix(static_cast<std::uint64_t>(a.node));
          digest.mix(static_cast<std::uint64_t>(a.slot));
        }
      }
    }
    const auto stopped = std::chrono::steady_clock::now();
    if (measured) {
      arm.calls = bids;
      arm.wall_seconds = std::chrono::duration<double>(stopped - started).count();
      arm.fingerprint = digest.hash;
    }
  }
  // Steady-state allocation window: prices frozen (runs of rejected bids
  // between admissions — the common case eq. 7/8 creates), arena warm.
  // This is the "0 allocations per find" claim the cached path makes.
  const std::size_t steady = std::min<std::size_t>(512, bids);
  for (std::size_t i = 0; i < steady; ++i) {  // warm the arena once more
    find(instance.tasks[i]);
  }
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < steady; ++i) find(instance.tasks[i]);
  arm.steady_calls = steady;
  arm.steady_allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  return arm;
}

struct DecisionArm {
  std::string label;
  std::uint64_t decisions = 0;
  double wall_seconds = 0.0;
  std::uint64_t admitted = 0;
  double welfare = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  [[nodiscard]] double decisions_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(decisions) / wall_seconds
               : 0.0;
  }
  [[nodiscard]] double hit_rate() const {
    const double total = static_cast<double>(cache_hits + cache_misses);
    return total > 0.0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
};

/// Decision level: full Alg. 1 replay (vendor loop + DP + pricing +
/// booking) of every bid, driven through Pdftsp::on_slot slot-by-slot
/// exactly as the simulation engine does.
DecisionArm run_decision_arm(const Instance& instance, std::string label) {
  DecisionArm arm;
  arm.label = std::move(label);
  Pdftsp policy(pdftsp_config_for(instance), instance.cluster,
                instance.energy, instance.horizon);
  CapacityLedger ledger(instance.cluster, instance.horizon);
  for (const Outage& outage : instance.outages) {
    for (Slot t = std::max<Slot>(0, outage.from);
         t < std::min<Slot>(instance.horizon, outage.to); ++t) {
      ledger.block(outage.node, t);
    }
  }
  std::vector<Task> arrivals;
  const auto started = std::chrono::steady_clock::now();
  std::size_t next = 0;
  for (Slot now = 0; now < instance.horizon && next < instance.tasks.size();
       ++now) {
    arrivals.clear();
    while (next < instance.tasks.size() &&
           instance.tasks[next].arrival == now) {
      arrivals.push_back(instance.tasks[next++]);
    }
    if (arrivals.empty()) continue;
    const SlotContext ctx{now,
                          arrivals,
                          instance.cluster,
                          instance.energy,
                          instance.market,
                          ledger};
    for (const Decision& d : policy.on_slot(ctx)) {
      if (d.admit) {
        ++arm.admitted;
        arm.welfare += d.schedule.welfare_gain;
      }
    }
  }
  const auto stopped = std::chrono::steady_clock::now();
  arm.decisions = instance.tasks.size();
  arm.wall_seconds = std::chrono::duration<double>(stopped - started).count();
  arm.cache_hits = policy.dp_cache_stats().hits;
  arm.cache_misses = policy.dp_cache_stats().misses;
  return arm;
}

int run_cache_ab(const util::Cli& cli) {
  // Fig. 8 "high" cell at paper scale, same as bench/micro_shard: 100
  // hybrid nodes, one day of 10-minute slots, Poisson arrivals at mean 80
  // bids per slot.
  ScenarioConfig config;
  config.nodes = static_cast<int>(cli.get_int("nodes", 100));
  config.fleet = FleetKind::kHybrid;
  config.horizon = static_cast<Slot>(cli.get_int("horizon", 144));
  config.arrival_rate = cli.get_double("rate", 80.0);
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const auto find_bids =
      static_cast<std::size_t>(cli.get_int("find-bids", 4000));
  const Instance instance = make_instance(config);

  std::cout << "micro_core cache A/B: " << instance.tasks.size() << " bids, "
            << config.nodes << " nodes (hybrid), horizon " << config.horizon
            << "\n";

  // Kernel level: bare ScheduleDp::find, admission-paced dual movement.
  // Three arms — legacy (the per-call reference DP, the speedup
  // denominator), scalar (cached, SIMD off), simd (cached,
  // runtime-dispatched kernel); on hardware without a vector arm the simd
  // arm degrades to scalar and reports kernel "scalar".
  std::vector<FindArm> finds;
  finds.push_back(
      run_find_arm(instance, true, false, "find-legacy", find_bids, 16));
  finds.push_back(
      run_find_arm(instance, false, false, "find-scalar", find_bids, 16));
  finds.push_back(
      run_find_arm(instance, false, true, "find-simd", find_bids, 16));
  const FindArm& find_base = finds.front();
  std::cout << "  arm            kernel   finds/s   speedup  allocs/find "
               "(steady)\n";
  for (const FindArm& arm : finds) {
    std::printf("  %-14s %-7s %8.0f %8.2fx %12.3f\n", arm.label.c_str(),
                arm.kernel.c_str(), arm.finds_per_sec(),
                find_base.finds_per_sec() > 0.0
                    ? arm.finds_per_sec() / find_base.finds_per_sec()
                    : 0.0,
                arm.allocs_per_find());
    if (arm.fingerprint != find_base.fingerprint) {
      std::cerr << "error: find-level plan fingerprint diverged for "
                << arm.label << "\n";
      return 1;
    }
  }

  // Decision level: full Alg. 1 replay through on_slot.
  const DecisionArm decision = run_decision_arm(instance, "cached");
  std::cout << "  arm              decisions/s  admitted    welfare  "
               "hit-rate\n";
  std::printf("  %-16s %11.0f %9llu %10.1f %9.3f\n", decision.label.c_str(),
              decision.decisions_per_sec(),
              static_cast<unsigned long long>(decision.admitted),
              decision.welfare, decision.hit_rate());

  if (cli.has("json-out")) {
    obs::Json::Object doc;
    doc["bench"] = obs::Json("micro_core");
    obs::Json::Object cfg;
    cfg["nodes"] = obs::Json(static_cast<double>(config.nodes));
    cfg["horizon"] = obs::Json(static_cast<double>(config.horizon));
    cfg["rate"] = obs::Json(config.arrival_rate);
    cfg["seed"] = obs::Json(static_cast<double>(config.seed));
    cfg["bids"] = obs::Json(static_cast<double>(instance.tasks.size()));
    cfg["find_bids"] = obs::Json(static_cast<double>(find_bids));
    doc["config"] = obs::Json(std::move(cfg));

    obs::Json::Array find_rows;
    for (const FindArm& arm : finds) {
      obs::Json::Object row;
      row["label"] = obs::Json(arm.label);
      row["kernel"] = obs::Json(arm.kernel);
      row["calls"] = obs::Json(static_cast<double>(arm.calls));
      row["wall_seconds"] = obs::Json(arm.wall_seconds);
      row["finds_per_sec"] = obs::Json(arm.finds_per_sec());
      row["speedup_vs_legacy"] =
          obs::Json(find_base.finds_per_sec() > 0.0
                        ? arm.finds_per_sec() / find_base.finds_per_sec()
                        : 0.0);
      row["allocs_per_find_steady"] = obs::Json(arm.allocs_per_find());
      find_rows.push_back(obs::Json(std::move(row)));
    }
    doc["find"] = obs::Json(std::move(find_rows));

    obs::Json::Object row;
    row["label"] = obs::Json(decision.label);
    row["decisions"] = obs::Json(static_cast<double>(decision.decisions));
    row["wall_seconds"] = obs::Json(decision.wall_seconds);
    row["decisions_per_sec"] = obs::Json(decision.decisions_per_sec());
    row["admitted"] = obs::Json(static_cast<double>(decision.admitted));
    row["welfare"] = obs::Json(decision.welfare);
    row["cache_hits"] = obs::Json(static_cast<double>(decision.cache_hits));
    row["cache_misses"] =
        obs::Json(static_cast<double>(decision.cache_misses));
    row["cache_hit_rate"] = obs::Json(decision.hit_rate());
    obs::Json::Array decision_rows;
    decision_rows.push_back(obs::Json(std::move(row)));
    doc["decision"] = obs::Json(std::move(decision_rows));

    std::ofstream out(cli.get("json-out", ""));
    if (!out) throw std::runtime_error("cannot open json output file");
    out << obs::Json(std::move(doc)).dump() << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace lorasched

int main(int argc, char** argv) try {
  // --json-out selects the cache A/B harness; anything else runs the
  // google-benchmark suite unchanged.
  bool ab_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--json-out", 0) == 0) ab_mode = true;
  }
  if (ab_mode) {
    const lorasched::util::Cli cli(argc, argv);
    cli.allow_only(
        {"nodes", "rate", "horizon", "seed", "find-bids", "json-out"});
    return lorasched::run_cache_ab(cli);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
