// Tests for Algorithm 2's findSchedule DP (eq. 12/13), including an
// exhaustive brute-force cross-check on tiny instances.
#include "lorasched/core/schedule_dp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "test_helpers.h"

namespace lorasched {
namespace {

using testing::flat_energy;
using testing::hetero_cluster;
using testing::make_task;
using testing::mini_cluster;

/// Additive DP objective of a schedule: Σ (s̃ λ + r̃ φ + e) over the run,
/// in the capacity-normalized units the dual state uses.
double plan_cost(const Schedule& schedule, const Task& task,
                 const Cluster& cluster, const EnergyModel& energy,
                 const DualState& duals) {
  double cost = 0.0;
  for (const Assignment& a : schedule.run) {
    const double s_norm =
        cluster.task_rate(task, a.node) / cluster.compute_capacity(a.node);
    const double r_norm = task.mem_gb / cluster.adapter_mem_capacity(a.node);
    cost += s_norm * duals.lambda(a.node, a.slot) +
            r_norm * duals.phi(a.node, a.slot) +
            energy.cost(task, cluster, a.node, a.slot);
  }
  return cost;
}

/// Brute force over all subsets of (slot -> node | skip) choices.
double brute_force_cost(const Task& task, Slot start, const Cluster& cluster,
                        const EnergyModel& energy, const DualState& duals) {
  const Slot window = task.deadline - start + 1;
  const int nodes = cluster.node_count();
  const int choices = nodes + 1;  // per slot: a node or skip
  double best = std::numeric_limits<double>::infinity();
  long combos = 1;
  for (Slot i = 0; i < window; ++i) combos *= choices;
  for (long mask = 0; mask < combos; ++mask) {
    long m = mask;
    double work = 0.0;
    double cost = 0.0;
    for (Slot rel = 0; rel < window; ++rel) {
      const int choice = static_cast<int>(m % choices);
      m /= choices;
      if (choice == nodes) continue;  // skip
      const Slot t = start + rel;
      const NodeId k = choice;
      work += cluster.task_rate(task, k);
      const double s_norm =
          cluster.task_rate(task, k) / cluster.compute_capacity(k);
      const double r_norm = task.mem_gb / cluster.adapter_mem_capacity(k);
      cost += s_norm * duals.lambda(k, t) + r_norm * duals.phi(k, t) +
              energy.cost(task, cluster, k, t);
    }
    if (work + 1e-9 >= task.work) best = std::min(best, cost);
  }
  return best;
}

TEST(ScheduleDp, FindsFeasiblePlanCoveringWork) {
  const Cluster cluster = mini_cluster();
  const EnergyModel energy = flat_energy();
  const ScheduleDp dp(cluster, energy);
  const DualState duals(2, 20);
  const Task task = make_task(0, 2, 10, 1800.0, 2.0, 0.5);  // rate 500/slot
  const Schedule schedule = dp.find(task, 2, duals);
  ASSERT_FALSE(schedule.empty());
  double work = 0.0;
  for (const Assignment& a : schedule.run) {
    EXPECT_GE(a.slot, 2);
    EXPECT_LE(a.slot, 10);
    work += cluster.task_rate(task, a.node);
  }
  EXPECT_GE(work, task.work);
}

TEST(ScheduleDp, RejectsDualStateOfAnotherFleet) {
  const Cluster cluster = mini_cluster();  // 2 nodes
  const ScheduleDp dp(cluster, flat_energy());
  const DualState duals(3, 20);
  const Task task = make_task(0, 0, 10, 1800.0);
  EXPECT_THROW((void)dp.find(task, 0, duals), std::invalid_argument);
}

TEST(ScheduleDp, SlotsStrictlyIncreasing) {
  const Cluster cluster = mini_cluster();
  const ScheduleDp dp(cluster, flat_energy());
  const DualState duals(2, 20);
  const Task task = make_task(0, 0, 15, 3000.0, 2.0, 0.5);
  const Schedule schedule = dp.find(task, 0, duals);
  ASSERT_FALSE(schedule.empty());
  for (std::size_t i = 1; i < schedule.run.size(); ++i) {
    EXPECT_LT(schedule.run[i - 1].slot, schedule.run[i].slot);
  }
}

TEST(ScheduleDp, InfeasibleWhenWindowTooShort) {
  const Cluster cluster = mini_cluster();
  const ScheduleDp dp(cluster, flat_energy());
  const DualState duals(2, 20);
  // 3000 samples at 500/slot needs 6 slots; window has 3.
  const Task task = make_task(0, 0, 2, 3000.0, 2.0, 0.5);
  EXPECT_TRUE(dp.find(task, 0, duals).empty());
}

TEST(ScheduleDp, InfeasibleWhenStartAfterDeadline) {
  const Cluster cluster = mini_cluster();
  const ScheduleDp dp(cluster, flat_energy());
  const DualState duals(2, 20);
  const Task task = make_task(0, 0, 5, 100.0);
  EXPECT_TRUE(dp.find(task, 6, duals).empty());
}

TEST(ScheduleDp, DeadlineBeyondHorizonIsInfeasible) {
  const Cluster cluster = mini_cluster();
  const ScheduleDp dp(cluster, flat_energy());
  const DualState duals(2, 10);
  const Task task = make_task(0, 0, 25, 100.0);  // deadline past horizon 10
  EXPECT_TRUE(dp.find(task, 0, duals).empty());
}

TEST(ScheduleDp, ZeroWorkYieldsEmptyRun) {
  const Cluster cluster = mini_cluster();
  const ScheduleDp dp(cluster, flat_energy());
  const DualState duals(2, 10);
  const Task task = make_task(0, 0, 5, 0.0);
  EXPECT_TRUE(dp.find(task, 0, duals).empty());
}

TEST(ScheduleDp, PrefersCheapSlotsUnderDiurnalPrices) {
  const Cluster cluster = mini_cluster();
  EnergyModel::Config config;
  config.peak_slot = 5;
  config.slots_per_day = 20;
  const EnergyModel energy{config};
  const ScheduleDp dp(cluster, energy);
  const DualState duals(2, 20);
  // Needs 2 of 19 slots: should avoid the peak at slot 5.
  const Task task = make_task(0, 0, 18, 900.0, 2.0, 0.5);
  const Schedule schedule = dp.find(task, 0, duals);
  ASSERT_FALSE(schedule.empty());
  for (const Assignment& a : schedule.run) {
    const double gap = std::abs(a.slot - 5);
    EXPECT_GT(gap, 3) << "picked near-peak slot " << a.slot;
  }
}

TEST(ScheduleDp, AvoidsExpensiveDualCells) {
  const Cluster cluster = mini_cluster();
  const EnergyModel energy = flat_energy();
  const ScheduleDp dp(cluster, energy);
  DualState duals(2, 10);
  // Node 0 is expensive everywhere; node 1 free.
  for (Slot t = 0; t < 10; ++t) duals.set_lambda(0, t, 1.0);
  const Task task = make_task(0, 0, 9, 1500.0, 2.0, 0.5);
  const Schedule schedule = dp.find(task, 0, duals);
  ASSERT_FALSE(schedule.empty());
  for (const Assignment& a : schedule.run) EXPECT_EQ(a.node, 1);
}

TEST(ScheduleDp, UsesFastNodeWhenItIsCheaperPerUnit) {
  const Cluster cluster = hetero_cluster();
  const EnergyModel energy = flat_energy();
  const ScheduleDp dp(cluster, energy);
  const DualState duals(2, 30);
  // Tight deadline: only the fast node (rate 1000) finishes 4000 in 4 slots.
  const Task task = make_task(0, 0, 3, 4000.0, 2.0, 0.5);
  const Schedule schedule = dp.find(task, 0, duals);
  ASSERT_FALSE(schedule.empty());
  for (const Assignment& a : schedule.run) EXPECT_EQ(a.node, 0);
}

TEST(ScheduleDp, MatchesBruteForceOnTinyInstances) {
  const Cluster cluster = hetero_cluster();
  const EnergyModel energy = flat_energy();
  ScheduleDpConfig config;
  config.granularity = 8.0;  // fine quantization for a near-exact match
  const ScheduleDp dp(cluster, energy, config);

  util::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    DualState duals(2, 8);
    for (NodeId k = 0; k < 2; ++k) {
      for (Slot t = 0; t < 8; ++t) {
        duals.set_lambda(k, t, rng.uniform(0.0, 0.002));
        duals.set_phi(k, t, rng.uniform(0.0, 0.05));
      }
    }
    // Work requiring 2-3 slots on the slow node.
    const double work = rng.uniform(800.0, 1400.0);
    const Task task = make_task(trial, 0, 6, work, 2.0, 0.5);
    const Schedule schedule = dp.find(task, 0, duals);
    const double brute = brute_force_cost(task, 0, cluster, energy, duals);
    if (schedule.empty()) {
      EXPECT_TRUE(std::isinf(brute)) << "DP missed a feasible plan";
      continue;
    }
    const double dp_cost = plan_cost(schedule, task, cluster, energy, duals);
    // Quantization can only make the DP slightly conservative, never better
    // than the true optimum.
    EXPECT_GE(dp_cost + 1e-9, brute);
    EXPECT_NEAR(dp_cost, brute, 0.35 * std::max(1e-3, brute) + 1e-4)
        << "trial " << trial;
  }
}

TEST(ScheduleDp, FilterExcludesBlockedCells) {
  const Cluster cluster = mini_cluster();
  const ScheduleDp dp(cluster, flat_energy());
  const DualState duals(2, 10);
  const Task task = make_task(0, 0, 9, 1500.0, 2.0, 0.5);
  struct Ctx {
    static bool only_node1(const void*, NodeId k, Slot) { return k == 1; }
  };
  const Schedule schedule = dp.find(task, 0, duals, nullptr, &Ctx::only_node1);
  ASSERT_FALSE(schedule.empty());
  for (const Assignment& a : schedule.run) EXPECT_EQ(a.node, 1);
}

TEST(ScheduleDp, FilterCanMakeTaskInfeasible) {
  const Cluster cluster = mini_cluster();
  const ScheduleDp dp(cluster, flat_energy());
  const DualState duals(2, 10);
  const Task task = make_task(0, 0, 9, 1500.0, 2.0, 0.5);
  struct Ctx {
    static bool nothing(const void*, NodeId, Slot) { return false; }
  };
  EXPECT_TRUE(dp.find(task, 0, duals, nullptr, &Ctx::nothing).empty());
}

TEST(ScheduleDp, QuantizationGuaranteesTrueRateFeasibility) {
  // Coarse granularity must still produce plans whose *true* rates cover
  // the work (DESIGN.md: rates rounded down).
  const Cluster cluster = hetero_cluster();
  const ScheduleDp dp(cluster, flat_energy(), ScheduleDpConfig{1.0, 64});
  const DualState duals(2, 40);
  const Task task = make_task(0, 0, 30, 7777.0, 2.0, 0.4);
  const Schedule schedule = dp.find(task, 0, duals);
  ASSERT_FALSE(schedule.empty());
  double work = 0.0;
  for (const Assignment& a : schedule.run) {
    work += cluster.task_rate(task, a.node);
  }
  EXPECT_GE(work + 1e-9, task.work);
}

TEST(ScheduleDp, MaxUnitsCapKeepsTableBounded) {
  const Cluster cluster = mini_cluster();
  const ScheduleDp dp(cluster, flat_energy(), ScheduleDpConfig{2.0, 4});
  const DualState duals(2, 40);
  const Task task = make_task(0, 0, 35, 9000.0, 2.0, 0.5);
  const Schedule schedule = dp.find(task, 0, duals);
  // With only 4 units, each unit is 2250 samples; rate 500 < unit, so the
  // per-slot progress floors to 0 units -> infeasible under the cap.
  EXPECT_TRUE(schedule.empty());
}

TEST(ScheduleDp, RejectsBadConfig) {
  const Cluster cluster = mini_cluster();
  const EnergyModel energy = flat_energy();
  EXPECT_THROW(ScheduleDp(cluster, energy, ScheduleDpConfig{0.5, 100}),
               std::invalid_argument);
  EXPECT_THROW(ScheduleDp(cluster, energy, ScheduleDpConfig{2.0, 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace lorasched
