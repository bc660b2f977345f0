// Differential coverage for the Alg. 2 hot path (DESIGN.md §5): the
// price-epoch cached + arena ScheduleDp::find must be bit-identical to the
// per-call reference DP (audit::reference_find) across interleaved
// admissions/rejections, dual pokes and copied dual states, and the SIMD
// kernels must be bit- and tie-identical to the scalar ones — plus unit
// coverage of the DualState dirty-cell journal and TSan-covered concurrent
// find() calls sharing one ScheduleDp.
#include "lorasched/core/schedule_dp.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "lorasched/audit/oracle.h"
#include "lorasched/core/pdftsp.h"
#include "lorasched/obs/registry.h"
#include "lorasched/sim/engine.h"
#include "lorasched/util/rng.h"
#include "test_helpers.h"

namespace lorasched {
namespace {

/// Rejects every node on slots divisible by 3 and node 0 everywhere —
/// exercises both the dead-row skip (whole slots with no usable class) and
/// per-class argmin filtering in the cached Δ scan.
bool test_filter(const void*, NodeId k, Slot t) {
  return k != 0 && t % 3 != 0;
}

/// The per-call reference DP for the default ScheduleDpConfig.
Schedule reference(const Instance& instance, const Task& task,
                   const DualState& duals, SlotFilter filter = nullptr) {
  return audit::reference_find(task, task.arrival, duals, instance.cluster,
                               instance.energy, ScheduleDpConfig{}, nullptr,
                               filter);
}

/// Replays `bids` tasks through the cached ScheduleDp and the reference DP
/// under lock-step dual movement (an eq. 7/8 update every `admit_every`-th
/// feasible plan) and requires identical runs at every step.
void expect_lockstep_identical(const Instance& instance, std::size_t bids,
                               int admit_every, SlotFilter filter) {
  const ScheduleDp cached(instance.cluster, instance.energy);
  DualState cached_duals(instance.cluster.node_count(), instance.horizon);
  DualState reference_duals(instance.cluster.node_count(), instance.horizon);
  DpScratch scratch;

  int feasible = 0;
  const std::size_t n = std::min(bids, instance.tasks.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Task& task = instance.tasks[i];
    Schedule fast;
    cached.find_into(fast, task, task.arrival, cached_duals, scratch, nullptr,
                     filter);
    const Schedule slow = reference(instance, task, reference_duals, filter);
    ASSERT_EQ(fast.run, slow.run) << "bid " << i;
    if (!fast.empty() && ++feasible % admit_every == 0) {
      Schedule plan = fast;
      finalize_schedule(plan, task, instance.cluster, instance.energy);
      cached_duals.apply_update(task, plan, instance.cluster, 1.0, 1.0, 1.0);
      reference_duals.apply_update(task, plan, instance.cluster, 1.0, 1.0, 1.0);
      ASSERT_EQ(cached_duals.lambda_values(), reference_duals.lambda_values());
    }
  }
  EXPECT_GT(feasible, 0);  // the scenario must actually exercise admissions
}

TEST(DpCacheDifferential, FindMatchesLegacyAcrossInterleavedAdmissions) {
  for (const std::uint64_t seed : {1ull, 7ull, 2024ull}) {
    SCOPED_TRACE(seed);
    ScenarioConfig config = testing::small_scenario(seed);
    config.nodes = 8;
    config.horizon = 64;
    config.arrival_rate = 4.0;
    const Instance instance = make_instance(config);
    expect_lockstep_identical(instance, 160, 5, nullptr);
  }
}

TEST(DpCacheDifferential, FilteredFindMatchesLegacy) {
  const Instance instance = make_instance(testing::small_scenario(3));
  expect_lockstep_identical(instance, 120, 4, &test_filter);
}

TEST(DpCacheDifferential, SetLambdaPerturbationsInvalidateTheSnapshot) {
  const Instance instance = make_instance(testing::small_scenario(5));
  const ScheduleDp cached(instance.cluster, instance.energy);
  DualState duals(instance.cluster.node_count(), instance.horizon);

  util::Rng rng(99);
  for (std::size_t i = 0; i < 60 && i < instance.tasks.size(); ++i) {
    const Task& task = instance.tasks[i];
    EXPECT_EQ(cached.find(task, task.arrival, duals).run,
              reference(instance, task, duals).run);
    // Unchanged prices: the repeat must be a cache hit and still agree.
    EXPECT_EQ(cached.find(task, task.arrival, duals).run,
              reference(instance, task, duals).run);
    // Poke one random cell through the colgen-style setters; the epoch
    // bump must invalidate (or journal-patch) the snapshot.
    const auto k = static_cast<NodeId>(
        rng.uniform_int(0, instance.cluster.node_count() - 1));
    const auto t =
        static_cast<Slot>(rng.uniform_int(0, instance.horizon - 1));
    duals.set_lambda(k, t, rng.uniform() * 0.3);
    duals.set_phi(k, t, rng.uniform() * 0.2);
  }
  const ScheduleDp::CacheStats stats = cached.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST(DpCacheDifferential, CopiedDualStateGetsFreshIdentity) {
  const Instance instance = make_instance(testing::small_scenario(8));
  const ScheduleDp dp(instance.cluster, instance.energy);
  DualState original(instance.cluster.node_count(), instance.horizon);
  const Task& task = instance.tasks.front();

  const Schedule before = dp.find(task, task.arrival, original);
  DualState copy = original;  // same grids, fresh uid
  EXPECT_NE(copy.uid(), original.uid());
  EXPECT_EQ(copy.epoch(), original.epoch());
  // Mutating the copy must never be served from the original's snapshot.
  copy.set_lambda(0, task.arrival, 1e9);
  const Schedule after_copy = dp.find(task, task.arrival, copy);
  const Schedule after_original = dp.find(task, task.arrival, original);
  EXPECT_EQ(after_original.run, before.run);
  EXPECT_EQ(after_copy.run, reference(instance, task, copy).run);
  EXPECT_EQ(after_original.run, reference(instance, task, original).run);
  if (!after_copy.empty()) {
    for (const Assignment& a : after_copy.run) {
      EXPECT_FALSE(a.node == 0 && a.slot == task.arrival);
    }
  }
}

TEST(DpCacheDifferential, CacheStatsCountHitsAndMisses) {
  const Instance instance = make_instance(testing::small_scenario());
  const ScheduleDp dp(instance.cluster, instance.energy);
  DualState duals(instance.cluster.node_count(), instance.horizon);
  const Task& task = instance.tasks.front();

  obs::MetricsRegistry registry;
  dp.register_metrics(registry);

  (void)dp.find(task, task.arrival, duals);  // first use: miss
  (void)dp.find(task, task.arrival, duals);  // unchanged prices: hit
  (void)dp.find(task, task.arrival, duals);
  ScheduleDp::CacheStats stats = dp.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);

  duals.set_lambda(0, 0, 0.5);  // price moved: next find misses
  (void)dp.find(task, task.arrival, duals);
  stats = dp.cache_stats();
  EXPECT_EQ(stats.misses, 2u);

  std::ostringstream prom_out;
  registry.write_prometheus(prom_out);
  const std::string prom = prom_out.str();
  EXPECT_NE(prom.find("lorasched_dp_price_cache_hits_total 2"),
            std::string::npos);
  EXPECT_NE(prom.find("lorasched_dp_price_cache_misses_total 2"),
            std::string::npos);
  EXPECT_NE(prom.find("lorasched_dp_scratch_bytes"), std::string::npos);
  EXPECT_NE(prom.find("lorasched_dp_snapshot_bytes"), std::string::npos);
}

TEST(DpCacheDifferential, PolicyMetricsExportSimdDispatch) {
  const Instance instance = make_instance(testing::small_scenario(43));
  Pdftsp policy(pdftsp_config_for(instance), instance.cluster,
                instance.energy, instance.horizon);
  obs::MetricsRegistry registry;
  policy.register_metrics(registry);
  (void)run_simulation(instance, policy);

  std::ostringstream prom_out;
  registry.write_prometheus(prom_out);
  const std::string prom = prom_out.str();
  // The dispatch gauge exports the Kernel enum as-is (0/1/2 wire contract).
  const std::string dispatch =
      "lorasched_dp_simd_dispatch " +
      std::to_string(static_cast<int>(policy.config().dp.simd
                                          ? simd::active_kernel()
                                          : simd::Kernel::kScalar));
  EXPECT_NE(prom.find(dispatch), std::string::npos) << prom;
}

// --- SIMD min-plus kernels (DESIGN.md §5c) ----------------------------------
// On hosts whose active kernel is scalar (no AVX2/NEON, or LORASCHED_SIMD
// off) these degenerate to scalar-vs-scalar and pass trivially; CI runs a
// vector-enabled pass so the differentials bite there.

constexpr double kInfCost = std::numeric_limits<double>::infinity();

TEST(SimdKernels, DpRowMatchesScalarOnRaggedDeadAndSingleClassRows) {
  const simd::Kernel vec = simd::active_kernel();
  util::Rng rng(20250809);
  for (int trial = 0; trial < 500; ++trial) {
    SCOPED_TRACE(trial);
    // Level counts straddle the 2/4/16-lane boundaries, down to a single
    // work level; every 5th trial is the single-class edge.
    const auto levels = static_cast<std::size_t>(rng.uniform_int(1, 37));
    const int classes = trial % 5 == 0 ? 1 : rng.uniform_int(1, 4);
    std::vector<simd::MinPlusClass> live(static_cast<std::size_t>(classes));
    for (std::size_t c = 0; c < live.size(); ++c) {
      // Quantized deltas force exact value ties the choice lane must break
      // by class order, exactly like the scalar scan.
      live[c].delta = rng.uniform_int(0, 7) * 0.125;
      live[c].units = static_cast<std::size_t>(rng.uniform_int(1, 5));
      live[c].cls = static_cast<std::int16_t>(c);
    }
    // Every 7th row is all-dead (+inf everywhere): the carry-over must win
    // every column and the choices must all stay kDpSkip.
    const bool all_dead = trial % 7 == 0;
    std::vector<double> prev(levels);
    for (auto& v : prev) {
      v = all_dead || rng.uniform() < 0.25 ? kInfCost
                                           : rng.uniform_int(0, 15) * 0.25;
    }
    std::vector<double> cur_ref(levels);
    std::vector<double> cur_vec(levels);
    std::vector<std::int16_t> choice_ref(levels);
    std::vector<std::int16_t> choice_vec(levels);
    simd::dp_row(simd::Kernel::kScalar, prev.data(), cur_ref.data(),
                 choice_ref.data(), levels, live.data(),
                 live.data() + live.size());
    simd::dp_row(vec, prev.data(), cur_vec.data(), choice_vec.data(), levels,
                 live.data(), live.data() + live.size());
    ASSERT_EQ(cur_ref, cur_vec);
    ASSERT_EQ(choice_ref, choice_vec);
    if (all_dead) {
      for (const std::int16_t c : choice_vec) ASSERT_EQ(c, simd::kDpSkip);
    }
  }
}

TEST(SimdKernels, CostArgminAndSweepMatchScalarWithTiesAndDeadColumns) {
  const simd::Kernel vec = simd::active_kernel();
  util::Rng rng(777);
  for (int trial = 0; trial < 500; ++trial) {
    SCOPED_TRACE(trial);
    // n sweeps through ragged widths around the 4- and 16-element vector
    // strides, including n == 0 (empty class) and n < one vector.
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 40));
    const auto count = static_cast<std::size_t>(rng.uniform_int(1, 18));
    std::vector<double> lam(n * count);
    std::vector<double> phi(n * count);
    std::vector<double> full_cost(count);
    for (auto& v : lam) {
      // ~20% dead columns (+inf lambda) plus quantized values for ties.
      v = rng.uniform() < 0.2 ? kInfCost : rng.uniform_int(0, 7) * 0.5;
    }
    for (auto& v : phi) v = rng.uniform_int(0, 7) * 0.25;
    for (auto& v : full_cost) v = rng.uniform_int(0, 3) * 1.5;
    const double s = 0.5 + rng.uniform();
    const double r = rng.uniform();

    std::vector<double> best_vec(count);
    std::vector<double> best_ref(count);
    std::vector<std::int32_t> pos_vec(count);
    std::vector<std::int32_t> pos_ref(count);
    simd::cost_argmin_sweep(vec, lam.data(), phi.data(), n, count, n, s, r,
                            full_cost.data(), best_vec.data(), pos_vec.data());
    simd::cost_argmin_sweep(simd::Kernel::kScalar, lam.data(), phi.data(), n,
                            count, n, s, r, full_cost.data(), best_ref.data(),
                            pos_ref.data());
    ASSERT_EQ(best_vec, best_ref);
    ASSERT_EQ(pos_vec, pos_ref);
    // The sweep must also be bit-identical to per-row cost_argmin calls of
    // the same kernel (its contract in minplus.h).
    for (std::size_t j = 0; j < count; ++j) {
      double best = 0.0;
      const std::size_t pos =
          simd::cost_argmin(vec, lam.data() + j * n, phi.data() + j * n, n, s,
                            r, full_cost[j] * s, &best);
      ASSERT_EQ(static_cast<std::int32_t>(pos), pos_vec[j]) << "row " << j;
      ASSERT_EQ(best, best_vec[j]) << "row " << j;
    }
  }
}

/// Replays bids through a SIMD-dispatched and a scalar-pinned cached
/// ScheduleDp in lock-step — eq. 7/8 dual updates every `admit_every`-th
/// feasible plan plus random single-cell price pokes — and requires
/// identical runs at every step.
void expect_simd_lockstep(const Instance& instance, std::size_t bids,
                          int admit_every, SlotFilter filter,
                          double granularity) {
  ScheduleDpConfig vec_config;
  vec_config.granularity = granularity;
  vec_config.simd = true;
  ScheduleDpConfig scalar_config = vec_config;
  scalar_config.simd = false;
  const ScheduleDp vec(instance.cluster, instance.energy, vec_config);
  const ScheduleDp scalar(instance.cluster, instance.energy, scalar_config);
  ASSERT_EQ(scalar.kernel(), simd::Kernel::kScalar);
  DualState vec_duals(instance.cluster.node_count(), instance.horizon);
  DualState scalar_duals(instance.cluster.node_count(), instance.horizon);
  DpScratch scratch;
  util::Rng rng(instance.tasks.empty() ? 1 : instance.tasks.front().id + 11);

  int feasible = 0;
  const std::size_t n = std::min(bids, instance.tasks.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Task& task = instance.tasks[i];
    Schedule fast;
    vec.find_into(fast, task, task.arrival, vec_duals, scratch, nullptr,
                  filter);
    const Schedule slow =
        scalar.find(task, task.arrival, scalar_duals, nullptr, filter);
    ASSERT_EQ(fast.run, slow.run) << "bid " << i;
    if (!fast.empty() && ++feasible % admit_every == 0) {
      Schedule plan = fast;
      finalize_schedule(plan, task, instance.cluster, instance.energy);
      vec_duals.apply_update(task, plan, instance.cluster, 1.0, 1.0, 1.0);
      scalar_duals.apply_update(task, plan, instance.cluster, 1.0, 1.0, 1.0);
    }
    if (i % 9 == 4) {
      // Random duals poke through the colgen-style setters, applied
      // identically to both states.
      const auto k = static_cast<NodeId>(
          rng.uniform_int(0, instance.cluster.node_count() - 1));
      const auto t =
          static_cast<Slot>(rng.uniform_int(0, instance.horizon - 1));
      const double lambda = rng.uniform() * 0.3;
      const double phi = rng.uniform() * 0.2;
      vec_duals.set_lambda(k, t, lambda);
      vec_duals.set_phi(k, t, phi);
      scalar_duals.set_lambda(k, t, lambda);
      scalar_duals.set_phi(k, t, phi);
    }
  }
  EXPECT_GT(feasible, 0);  // the scenario must actually exercise admissions
}

TEST(SimdDifferential, FindMatchesScalarAcrossAdmissionsAndPokes) {
  for (const std::uint64_t seed : {1ull, 7ull, 2024ull}) {
    SCOPED_TRACE(seed);
    ScenarioConfig config = testing::small_scenario(seed);
    config.nodes = 8;
    config.horizon = 64;
    config.arrival_rate = 4.0;
    const Instance instance = make_instance(config);
    expect_simd_lockstep(instance, 160, 5, nullptr, 2.0);
  }
}

TEST(SimdDifferential, FilteredFindMatchesScalar) {
  const Instance instance = make_instance(testing::small_scenario(3));
  expect_simd_lockstep(instance, 120, 4, &test_filter, 2.0);
}

TEST(SimdDifferential, RaggedGranularitiesMatchScalar) {
  // Coarse and odd granularities push the DP's work-level count W through
  // values that are not multiples of the 2/4/16 vector strides.
  const Instance instance = make_instance(testing::small_scenario(13));
  for (const double granularity : {1.0, 3.0, 7.0}) {
    SCOPED_TRACE(granularity);
    expect_simd_lockstep(instance, 100, 4, nullptr, granularity);
  }
}

// --- DualState dirty-cell journal -------------------------------------------

TEST(DualJournal, EnumeratesCellsMutatedSinceAnEpoch) {
  DualState duals(4, 16);
  const std::uint64_t base = duals.epoch();
  duals.set_lambda(1, 3, 0.5);   // cell 1*16+3 = 19
  duals.set_phi(2, 10, 0.25);    // cell 2*16+10 = 42
  std::vector<std::uint32_t> dirty;
  ASSERT_TRUE(duals.dirty_cells_since(base, dirty));
  EXPECT_EQ(dirty, (std::vector<std::uint32_t>{19, 42}));

  // A later caller only sees the tail.
  dirty.clear();
  ASSERT_TRUE(duals.dirty_cells_since(base + 1, dirty));
  EXPECT_EQ(dirty, (std::vector<std::uint32_t>{42}));

  // Same epoch: nothing dirty, still covered.
  dirty.clear();
  ASSERT_TRUE(duals.dirty_cells_since(duals.epoch(), dirty));
  EXPECT_TRUE(dirty.empty());
}

TEST(DualJournal, LoadIsWholesaleAndUncoverable) {
  DualState duals(2, 8);
  const std::uint64_t base = duals.epoch();
  duals.set_lambda(0, 0, 0.1);
  duals.load(duals.lambda_values(), duals.phi_values());
  std::vector<std::uint32_t> dirty;
  EXPECT_FALSE(duals.dirty_cells_since(base, dirty));
  // After load, new mutations journal again from the post-load epoch.
  const std::uint64_t after_load = duals.epoch();
  duals.set_phi(1, 2, 0.3);
  dirty.clear();
  ASSERT_TRUE(duals.dirty_cells_since(after_load, dirty));
  EXPECT_EQ(dirty, (std::vector<std::uint32_t>{10}));
}

TEST(DualJournal, ApplyUpdateJournalsExactlyTheRunCells) {
  const Cluster cluster = testing::mini_cluster();
  DualState duals(cluster.node_count(), 16);
  const Task task = testing::make_task(0, 0, 7, 900.0);
  Schedule schedule;
  schedule.task = task.id;
  schedule.run = {{0, 2}, {1, 3}, {0, 4}};
  finalize_schedule(schedule, task, cluster, testing::flat_energy());
  const std::uint64_t base = duals.epoch();
  duals.apply_update(task, schedule, cluster, 1.0, 1.0, 1.0);
  std::vector<std::uint32_t> dirty;
  ASSERT_TRUE(duals.dirty_cells_since(base, dirty));
  EXPECT_EQ(dirty, (std::vector<std::uint32_t>{2, 16 + 3, 4}));
}

// --- Concurrency (TSan coverage: ScheduleDpConcurrency in the CI regex) ------

TEST(ScheduleDpConcurrency, ConcurrentFindsShareOneScheduleDp) {
  const Instance instance = make_instance(testing::small_scenario(37));
  const ScheduleDp dp(instance.cluster, instance.energy);
  obs::MetricsRegistry registry;
  dp.register_metrics(registry);
  DualState duals(instance.cluster.node_count(), instance.horizon);

  const std::size_t bids = std::min<std::size_t>(48, instance.tasks.size());
  std::vector<Schedule> expected(bids);
  for (std::size_t i = 0; i < bids; ++i) {
    const Task& task = instance.tasks[i];
    expected[i] = dp.find(task, task.arrival, duals);
  }

  // Two rounds separated by a dual mutation: round 0 exercises concurrent
  // snapshot *use*, round 1 concurrent miss/rebuild racing against hits.
  for (int round = 0; round < 2; ++round) {
    std::atomic<int> mismatches{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&] {
        DpScratch scratch;
        Schedule plan;
        for (std::size_t i = 0; i < bids; ++i) {
          const Task& task = instance.tasks[i];
          dp.find_into(plan, task, task.arrival, duals, scratch);
          if (plan.run != expected[i].run) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& worker : workers) worker.join();
    EXPECT_EQ(mismatches.load(), 0);
    if (round == 0) {
      duals.set_lambda(0, 0, 0.7);  // workers are joined: safe to mutate
      for (std::size_t i = 0; i < bids; ++i) {
        const Task& task = instance.tasks[i];
        expected[i] = dp.find(task, task.arrival, duals);
      }
    }
  }
  const ScheduleDp::CacheStats stats = dp.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GE(stats.misses, 1u);
}

}  // namespace
}  // namespace lorasched
