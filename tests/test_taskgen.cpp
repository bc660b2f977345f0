#include "lorasched/workload/taskgen.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "lorasched/workload/deadlines.h"
#include "test_helpers.h"

namespace lorasched {
namespace {

struct GenFixture : ::testing::Test {
  Cluster cluster = testing::hetero_cluster();
  EnergyModel energy = testing::flat_energy();
  Marketplace market{Marketplace::Config{}, 11};
  TaskGenConfig config;
  TaskGenerator gen{config, cluster, energy, market, 77};
};

TEST_F(GenFixture, DrawRespectsConfiguredRanges) {
  for (TaskId id = 0; id < 200; ++id) {
    const Task task = gen.draw(id, 5, 144);
    EXPECT_EQ(task.id, id);
    EXPECT_EQ(task.arrival, 5);
    EXPECT_GE(task.dataset_samples, config.dataset_lo);
    EXPECT_LE(task.dataset_samples, config.dataset_hi);
    EXPECT_GE(task.epochs, config.epochs_lo);
    EXPECT_LE(task.epochs, config.epochs_hi);
    EXPECT_DOUBLE_EQ(task.work, task.dataset_samples * task.epochs);
    EXPECT_GE(task.mem_gb, config.mem_lo_gb);
    EXPECT_LE(task.mem_gb, config.mem_hi_gb);
    EXPECT_GT(task.bid, 0.0);
    EXPECT_DOUBLE_EQ(task.bid, task.true_value);
    EXPECT_GT(task.deadline, task.arrival);
    EXPECT_LT(task.deadline, 144);
  }
}

TEST_F(GenFixture, DrawIsDeterministicPerId) {
  const Task a = gen.draw(9, 0, 144);
  const Task b = gen.draw(9, 0, 144);
  EXPECT_DOUBLE_EQ(a.work, b.work);
  EXPECT_DOUBLE_EQ(a.bid, b.bid);
  EXPECT_EQ(a.deadline, b.deadline);
}

TEST_F(GenFixture, PoissonArrivalCountMatchesRate) {
  const auto tasks = gen.generate_poisson(4.0, 100);
  EXPECT_NEAR(static_cast<double>(tasks.size()), 400.0, 80.0);
  for (const Task& t : tasks) {
    EXPECT_GE(t.arrival, 0);
    EXPECT_LT(t.arrival, 100);
  }
}

TEST_F(GenFixture, ArrivalsSortedAndIdsDense) {
  const auto tasks = gen.generate_poisson(2.0, 50);
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    EXPECT_LE(tasks[i - 1].arrival, tasks[i].arrival);
    EXPECT_EQ(tasks[i].id, static_cast<TaskId>(i));
  }
}

TEST_F(GenFixture, InhomogeneousRatesShapeArrivals) {
  std::vector<double> rates(60, 0.0);
  for (int t = 30; t < 60; ++t) rates[static_cast<std::size_t>(t)] = 6.0;
  const auto tasks = gen.generate(rates, 60);
  for (const Task& t : tasks) EXPECT_GE(t.arrival, 30);
  EXPECT_GT(tasks.size(), 100u);
}

TEST_F(GenFixture, GenerateRejectsWrongRateVectorLength) {
  EXPECT_THROW(gen.generate(std::vector<double>(10, 1.0), 20),
               std::invalid_argument);
}

TEST_F(GenFixture, ReferenceCostUsesCheapestNodeAndVendor) {
  Task task = testing::make_task(0, 0, 20, 6000.0);
  task.needs_prep = false;
  const Money base = gen.reference_cost(task);
  EXPECT_GT(base, 0.0);
  Task with_prep = task;
  with_prep.needs_prep = true;
  EXPECT_GT(gen.reference_cost(with_prep), base);
}

TEST_F(GenFixture, BidMarginsSpanProfitAndLoss) {
  // With margins in [0.6, 3.5] some tasks bid below reference cost and some
  // far above — the auction has to discriminate.
  int below = 0;
  int above = 0;
  for (TaskId id = 0; id < 300; ++id) {
    const Task task = gen.draw(id, 0, 144);
    const Money ref = gen.reference_cost(task);
    if (task.bid < ref) ++below;
    if (task.bid > 2.0 * ref) ++above;
  }
  EXPECT_GT(below, 10);
  EXPECT_GT(above, 10);
}

TEST(TaskGen, RejectsBadConfig) {
  const Cluster cluster = testing::mini_cluster();
  const EnergyModel energy = testing::flat_energy();
  const Marketplace market{Marketplace::Config{}, 1};
  TaskGenConfig bad;
  bad.dataset_hi = bad.dataset_lo - 1.0;
  EXPECT_THROW(TaskGenerator(bad, cluster, energy, market, 1),
               std::invalid_argument);
  TaskGenConfig epochs;
  epochs.epochs_lo = 0;
  EXPECT_THROW(TaskGenerator(epochs, cluster, energy, market, 1),
               std::invalid_argument);
  TaskGenConfig shares;
  shares.share_choices.clear();
  EXPECT_THROW(TaskGenerator(shares, cluster, energy, market, 1),
               std::invalid_argument);
}

TEST(TaskGen, AlphaBetaBoundsUseNormalizedMinimalVolumes) {
  const Cluster cluster = testing::mini_cluster();  // C=1000, adapter 16 GB
  std::vector<Task> tasks;
  // Both finish in 1 slot at rate 500 -> minimal compute volume 0.5.
  tasks.push_back(testing::make_task(0, 0, 10, 100.0, 2.0, 0.5, 10.0));
  tasks.push_back(testing::make_task(1, 0, 10, 50.0, 4.0, 0.5, 20.0));
  EXPECT_DOUBLE_EQ(alpha_bound(tasks, cluster), 40.0);  // 20 / 0.5
  // beta = max b * cap_max / r = max(10*16/2, 20*16/4) = 80.
  EXPECT_DOUBLE_EQ(beta_bound(tasks, cluster), 80.0);
}

TEST(TaskGen, WelfareUnitIsLowQuantileDensity) {
  const Cluster cluster = testing::mini_cluster();
  std::vector<Task> tasks;
  tasks.push_back(testing::make_task(0, 0, 10, 100.0, 2.0, 0.5, 10.0));
  tasks.push_back(testing::make_task(1, 0, 10, 50.0, 4.0, 0.5, 20.0));
  // Densities: 10/(0.5 + 2/16) = 16 and 20/(0.5 + 4/16) ~ 26.67; the
  // first-quartile pick on two samples is the smaller.
  EXPECT_NEAR(welfare_unit_estimate(tasks, cluster), 16.0, 1e-9);
}

TEST(TaskGen, AlphaBetaOfEmptyAreNeutral) {
  const Cluster cluster = testing::mini_cluster();
  EXPECT_EQ(alpha_bound({}, cluster), 0.0);
  EXPECT_EQ(beta_bound({}, cluster), 0.0);
  EXPECT_EQ(welfare_unit_estimate({}, cluster), 1.0);
}

TEST(DeadlineModel, SlackOrderingTightToSlack) {
  const Cluster cluster = testing::mini_cluster();
  util::Rng rng(3);
  Task task = testing::make_task(0, 10, 0, 2000.0, 2.0, 0.5);
  DeadlineModel tight{DeadlineKind::kTight};
  DeadlineModel slack{DeadlineKind::kSlack};
  double tight_sum = 0.0;
  double slack_sum = 0.0;
  for (int i = 0; i < 50; ++i) {
    tight_sum += tight.draw(task, cluster, 144, rng);
    slack_sum += slack.draw(task, cluster, 144, rng);
  }
  EXPECT_LT(tight_sum, slack_sum);
}

TEST(DeadlineModel, DeadlineAlwaysAfterArrivalWithinHorizon) {
  const Cluster cluster = testing::mini_cluster();
  util::Rng rng(4);
  const DeadlineModel model{DeadlineKind::kMedium};
  for (int i = 0; i < 100; ++i) {
    Task task = testing::make_task(0, 40, 0, 5000.0, 2.0, 0.25);
    const Slot d = model.draw(task, cluster, 48, rng);
    EXPECT_GT(d, 40);
    EXPECT_LT(d, 48);
  }
}

TEST(DeadlineModel, LastSlotArrivalGetsTheLastSlotAsDeadline) {
  const Cluster cluster = testing::mini_cluster();
  util::Rng rng(5);
  for (const DeadlineKind kind :
       {DeadlineKind::kTight, DeadlineKind::kMedium, DeadlineKind::kSlack}) {
    const DeadlineModel model{kind};
    const Task task = testing::make_task(0, 47, 0, 5000.0, 2.0, 0.25);
    EXPECT_EQ(model.draw(task, cluster, 48, rng), 47);
  }
}

TEST(DeadlineModel, MinRuntimeUsesFastestNode) {
  const Cluster cluster = testing::hetero_cluster();  // fast node: 2000/slot
  const Task task = testing::make_task(0, 0, 0, 3000.0, 2.0, 0.5);
  // rate on fast node = 1000/slot -> 3 slots.
  EXPECT_EQ(DeadlineModel::min_runtime_slots(task, cluster), 3);
}

TEST(DeadlineModel, ToStringNames) {
  EXPECT_EQ(to_string(DeadlineKind::kTight), "tight");
  EXPECT_EQ(to_string(DeadlineKind::kMedium), "medium");
  EXPECT_EQ(to_string(DeadlineKind::kSlack), "slack");
}

}  // namespace
}  // namespace lorasched
