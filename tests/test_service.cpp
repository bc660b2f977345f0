// Serving-stack correctness at K=1: a single-shard ShardedService must
// reproduce the batch simulator bit for bit (decisions, payments, welfare),
// including after a kill + checkpoint/restore mid-horizon, while surviving
// multi-producer ingestion and enforcing backpressure — and it must decide
// inline on the thread that calls step().
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lorasched/core/online_params.h"
#include "lorasched/core/pdftsp.h"
#include "lorasched/io/serialize.h"
#include "lorasched/shard/sharded_service.h"
#include "lorasched/sim/engine.h"
#include "test_helpers.h"

namespace lorasched::shard {
namespace {

using service::DecisionSubscriber;
using service::LateBidMode;
using service::SlotReport;
using service::SubmitResult;

/// Exact equality of everything a decision commits to (decide_seconds is
/// wall-clock noise and deliberately excluded).
void expect_same_outcomes(const std::vector<TaskOutcome>& a,
                          const std::vector<TaskOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].task, b[i].task);
    EXPECT_EQ(a[i].admitted, b[i].admitted);
    EXPECT_EQ(a[i].bid, b[i].bid);
    EXPECT_EQ(a[i].payment, b[i].payment);
    EXPECT_EQ(a[i].vendor, b[i].vendor);
    EXPECT_EQ(a[i].vendor_cost, b[i].vendor_cost);
    EXPECT_EQ(a[i].energy_cost, b[i].energy_cost);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].completion, b[i].completion);
    EXPECT_EQ(a[i].slots_used, b[i].slots_used);
    EXPECT_EQ(a[i].preemptions, b[i].preemptions);
  }
}

void expect_same_metrics(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.social_welfare, b.social_welfare);
  EXPECT_EQ(a.provider_utility, b.provider_utility);
  EXPECT_EQ(a.user_utility, b.user_utility);
  EXPECT_EQ(a.total_payments, b.total_payments);
  EXPECT_EQ(a.total_vendor_cost, b.total_vendor_cost);
  EXPECT_EQ(a.total_energy_cost, b.total_energy_cost);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.utilization, b.utilization);
}

/// A single-shard service running pdFTSP priced for `instance`.
std::unique_ptr<ShardedService> pdftsp_service(const Instance& instance,
                                               ShardedConfig config = {}) {
  config.shards = 1;
  return std::make_unique<ShardedService>(
      instance, make_pdftsp_factory(pdftsp_config_for(instance)), config);
}

PolicyFactory adaptive_factory() {
  return [](const Cluster& cluster, const EnergyModel& energy,
            Slot horizon) -> std::unique_ptr<Policy> {
    return std::make_unique<AdaptivePdftsp>(OnlineParamEstimator::Config{},
                                            cluster, energy, horizon);
  };
}

SimResult simulate_pdftsp(const Instance& instance) {
  Pdftsp policy(pdftsp_config_for(instance), instance.cluster,
                instance.energy, instance.horizon);
  return run_simulation(instance, policy);
}

/// Submits every instance task from `threads` producers, then steps the
/// service through its whole horizon.
void serve_instance(ShardedService& service, const Instance& instance,
                    int threads = 4) {
  std::vector<std::thread> producers;
  for (int p = 0; p < threads; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = static_cast<std::size_t>(p);
           i < instance.tasks.size(); i += static_cast<std::size_t>(threads)) {
        ASSERT_EQ(service.submit(instance.tasks[i]), SubmitResult::kAccepted);
      }
    });
  }
  for (auto& t : producers) t.join();
  while (!service.done()) service.step();
}

TEST(SingleShard, MatchesBatchSimulatorExactly) {
  const Instance instance = make_instance(testing::small_scenario());
  const SimResult expected = simulate_pdftsp(instance);

  const auto service = pdftsp_service(instance);
  serve_instance(*service, instance);
  EXPECT_EQ(service->rerouted_bids(), 0u);  // one shard: nowhere else to go
  const SimResult actual = service->finish();

  expect_same_outcomes(expected.outcomes, actual.outcomes);
  expect_same_metrics(expected.metrics, actual.metrics);
  ASSERT_EQ(expected.schedules.size(), actual.schedules.size());
  for (std::size_t i = 0; i < expected.schedules.size(); ++i) {
    EXPECT_EQ(expected.schedules[i].run, actual.schedules[i].run);
  }
}

/// Wraps a Pdftsp and records the thread each on_slot runs on.
class ThreadRecordingPolicy final : public Policy {
 public:
  ThreadRecordingPolicy(std::unique_ptr<Policy> inner,
                        std::set<std::thread::id>* threads, std::mutex* mutex)
      : inner_(std::move(inner)), threads_(threads), mutex_(mutex) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] std::vector<Decision> on_slot(const SlotContext& ctx) override {
    {
      const std::lock_guard<std::mutex> lock(*mutex_);
      threads_->insert(std::this_thread::get_id());
    }
    return inner_->on_slot(ctx);
  }

 private:
  std::unique_ptr<Policy> inner_;
  std::set<std::thread::id>* threads_;
  std::mutex* mutex_;
};

/// The threads on which a K-shard service ran its policies over `instance`.
std::set<std::thread::id> deciding_threads(const Instance& instance,
                                           int shards) {
  std::set<std::thread::id> threads;
  std::mutex mutex;
  const PolicyFactory pdftsp = make_pdftsp_factory(pdftsp_config_for(instance));
  ShardedConfig config;
  config.shards = shards;
  ShardedService service(
      instance,
      [&](const Cluster& cluster, const EnergyModel& energy, Slot horizon) {
        return std::make_unique<ThreadRecordingPolicy>(
            pdftsp(cluster, energy, horizon), &threads, &mutex);
      },
      config);
  serve_instance(service, instance, 1);
  return threads;
}

// K=1 pays no thread handoff: the policy runs on the thread calling step().
// At K=2 every decision runs on a shard's own thread.
TEST(SingleShard, DecidesOnTheSteppingThread) {
  const Instance instance = make_instance(testing::small_scenario(13));
  const std::thread::id leader = std::this_thread::get_id();

  const std::set<std::thread::id> solo = deciding_threads(instance, 1);
  EXPECT_EQ(solo, std::set<std::thread::id>{leader});

  const std::set<std::thread::id> sharded = deciding_threads(instance, 2);
  EXPECT_FALSE(sharded.empty());
  EXPECT_EQ(sharded.count(leader), 0u);
}

/// Violates the policy contract: returns one decision too few.
class ShortChangingPolicy final : public Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "short"; }
  [[nodiscard]] std::vector<Decision> on_slot(const SlotContext&) override {
    return {};
  }
};

TEST(SingleShard, PolicyContractViolationSurfacesFromStep) {
  const Instance instance = make_instance(testing::small_scenario());
  ShardedConfig config;
  config.shards = 1;
  ShardedService service(
      instance,
      [](const Cluster&, const EnergyModel&, Slot) {
        return std::make_unique<ShortChangingPolicy>();
      },
      config);
  ASSERT_EQ(service.submit(testing::make_task(1, 0, 10, 400.0)),
            SubmitResult::kAccepted);
  EXPECT_THROW(service.step(), std::logic_error);
}

// Regression for the lorasched_serve --slot-ms 0 deadlock: offline replay
// must be able to absorb a bid stream longer than the queue capacity
// under block backpressure *before* the first decision. pump() frees
// queue space without advancing the slot, and the result must still match
// the batch simulator bit for bit.
TEST(SingleShard, PumpIngestsBeyondQueueCapacityWithoutDeadlock) {
  const Instance instance = make_instance(testing::small_scenario());
  const SimResult expected = simulate_pdftsp(instance);

  ShardedConfig config;
  config.queue_capacity = 2;  // far below the bid count
  config.backpressure = service::BackpressureMode::kBlock;
  const auto service = pdftsp_service(instance, config);
  ASSERT_GT(instance.tasks.size(), config.queue_capacity);

  std::thread feeder([&] {
    for (const Task& task : instance.tasks) {
      ASSERT_EQ(service->submit(task), SubmitResult::kAccepted);
    }
    service->close();
  });
  // The serve binary's offline-replay loop: pump until the feeder is done
  // (queue closed) and the queue is empty, then decide every slot.
  while (!service->queue().closed() || service->queue().depth() != 0) {
    service->queue().wait_available();
    service->pump();
  }
  feeder.join();
  while (!service->done()) service->step();
  const SimResult actual = service->finish();

  expect_same_outcomes(expected.outcomes, actual.outcomes);
  expect_same_metrics(expected.metrics, actual.metrics);
}

TEST(SingleShard, CheckpointRestoreResumesBitIdentically) {
  const Instance instance = make_instance(testing::small_scenario(7));
  const SimResult expected = simulate_pdftsp(instance);

  // First service life: ingest everything, serve half the horizon, then
  // checkpoint through the io round-trip and "crash".
  std::stringstream persisted;
  {
    const auto service = pdftsp_service(instance);
    for (const Task& task : instance.tasks) {
      ASSERT_EQ(service->submit(task), SubmitResult::kAccepted);
    }
    for (Slot t = 0; t < instance.horizon / 2; ++t) service->step();
    io::write_sharded_checkpoint(persisted, service->checkpoint());
  }

  // Second life: a fresh service + fresh policy restored from the stream.
  const auto revived = pdftsp_service(instance);
  revived->restore(io::read_sharded_checkpoint(persisted));
  EXPECT_EQ(revived->current_slot(), instance.horizon / 2);
  while (!revived->done()) revived->step();
  const SimResult actual = revived->finish();

  expect_same_outcomes(expected.outcomes, actual.outcomes);
  expect_same_metrics(expected.metrics, actual.metrics);
}

TEST(SingleShard, AdaptivePolicyCheckpointsToo) {
  const Instance instance = make_instance(testing::small_scenario(11));

  AdaptivePdftsp sim_policy(OnlineParamEstimator::Config{}, instance.cluster,
                            instance.energy, instance.horizon);
  const SimResult expected = run_simulation(instance, sim_policy);

  std::stringstream persisted;
  {
    ShardedService service(instance, adaptive_factory());
    for (const Task& task : instance.tasks) {
      ASSERT_EQ(service.submit(task), SubmitResult::kAccepted);
    }
    for (Slot t = 0; t < instance.horizon / 3; ++t) service.step();
    io::write_sharded_checkpoint(persisted, service.checkpoint());
  }

  ShardedService revived(instance, adaptive_factory());
  revived.restore(io::read_sharded_checkpoint(persisted));
  while (!revived.done()) revived.step();
  const SimResult actual = revived.finish();

  expect_same_outcomes(expected.outcomes, actual.outcomes);
  expect_same_metrics(expected.metrics, actual.metrics);
}

TEST(SingleShard, RestoreRequiresFreshService) {
  const Instance instance = make_instance(testing::small_scenario());
  const auto service = pdftsp_service(instance);
  const ShardedCheckpoint cp = service->checkpoint();
  service->step();
  EXPECT_THROW(service->restore(cp), std::logic_error);
}

class CountingSubscriber final : public DecisionSubscriber {
 public:
  void on_admitted(const TaskOutcome&, const Schedule&) override {
    ++admitted;
  }
  void on_rejected(const TaskOutcome&) override { ++rejected; }
  void on_payment(TaskId, Money payment) override {
    ++payments;
    total_paid += payment;
  }
  void on_slot_end(const SlotReport& report) override {
    ++slots;
    batched += report.batch;
  }

  int admitted = 0;
  int rejected = 0;
  int payments = 0;
  Money total_paid = 0.0;
  int slots = 0;
  std::size_t batched = 0;
};

TEST(SingleShard, SubscribersSeeEveryDecisionAndPayment) {
  const Instance instance = make_instance(testing::small_scenario(3));
  const auto service = pdftsp_service(instance);
  CountingSubscriber subscriber;
  service->add_subscriber(&subscriber);

  serve_instance(*service, instance, 2);
  const SimResult result = service->finish();

  EXPECT_EQ(subscriber.admitted, result.metrics.admitted);
  EXPECT_EQ(subscriber.rejected, result.metrics.rejected);
  EXPECT_EQ(subscriber.payments, result.metrics.admitted);
  EXPECT_EQ(subscriber.total_paid, result.metrics.total_payments);
  EXPECT_EQ(subscriber.slots, instance.horizon);
  EXPECT_EQ(subscriber.batched, instance.tasks.size());
}

TEST(SingleShard, RejectBackpressureShedsWhenFull) {
  const Instance instance = make_instance(testing::small_scenario());
  ShardedConfig config;
  config.queue_capacity = 2;
  config.backpressure = service::BackpressureMode::kReject;
  const auto service = pdftsp_service(instance, config);

  ASSERT_GE(instance.tasks.size(), 3u);
  EXPECT_EQ(service->submit(instance.tasks[0]), SubmitResult::kAccepted);
  EXPECT_EQ(service->submit(instance.tasks[1]), SubmitResult::kAccepted);
  EXPECT_EQ(service->submit(instance.tasks[2]), SubmitResult::kRejectedFull);
  EXPECT_EQ(service->queue().rejected_full_total(), 1u);
  // Draining a slot frees the capacity again.
  service->step();
  EXPECT_EQ(service->submit(instance.tasks[2]), SubmitResult::kAccepted);
}

TEST(SingleShard, LateBidsRejectedInRejectMode) {
  const Instance instance = make_instance(testing::small_scenario());
  const auto service = pdftsp_service(instance);  // late_bids = kReject
  CountingSubscriber subscriber;
  service->add_subscriber(&subscriber);

  service->step();  // now at slot 1; anything with arrival 0 is late
  const Task late = testing::make_task(9001, 0, 10, 400.0);
  ASSERT_EQ(service->submit(late), SubmitResult::kAccepted);
  service->step();

  EXPECT_EQ(service->metrics().rejected_late, 1u);
  EXPECT_EQ(subscriber.rejected, 1);
  EXPECT_EQ(subscriber.admitted, 0);
}

TEST(SingleShard, LateBidsClampedToCurrentSlotInClampMode) {
  const Instance instance = make_instance(testing::small_scenario());
  ShardedConfig config;
  config.late_bids = LateBidMode::kClamp;
  const auto service = pdftsp_service(instance, config);

  service->step();
  service->step();  // now at slot 2
  const Task late = testing::make_task(9002, 0, instance.horizon - 1, 400.0);
  ASSERT_EQ(service->submit(late), SubmitResult::kAccepted);
  service->step();

  EXPECT_EQ(service->metrics().rejected_late, 0u);
  EXPECT_EQ(service->metrics().bids_decided, 1u);
  while (!service->done()) service->step();
  const SimResult result = service->finish();
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_EQ(result.outcomes[0].arrival, 2);  // re-stamped to the drain slot
}

TEST(SingleShard, ConcurrentProducersWithRunningSlotLoop) {
  ScenarioConfig scenario = testing::small_scenario(17);
  scenario.horizon = 96;
  scenario.arrival_rate = 4.0;
  const Instance instance = make_instance(scenario);
  ShardedConfig config;
  config.late_bids = LateBidMode::kClamp;  // producers may lag slots
  const auto service = pdftsp_service(instance, config);

  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = static_cast<std::size_t>(p);
           i < instance.tasks.size();
           i += static_cast<std::size_t>(kProducers)) {
        ASSERT_EQ(service->submit(instance.tasks[i]), SubmitResult::kAccepted);
      }
    });
  }
  // Interleave slot processing with live ingestion, holding the final slot
  // until every producer finished so nothing is left undrained.
  for (Slot t = 0; t < instance.horizon - 1; ++t) {
    service->step();
    std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  service->close();
  service->step();  // final slot drains the stragglers

  const auto ops = service->metrics();
  const SimResult result = service->finish();  // ledger cross-check passes
  EXPECT_EQ(ops.bids_ingested, instance.tasks.size());
  EXPECT_EQ(ops.bids_decided + ops.rejected_late, instance.tasks.size());
  EXPECT_EQ(result.outcomes.size(), instance.tasks.size());
  std::set<TaskId> seen;
  for (const TaskOutcome& o : result.outcomes) {
    EXPECT_TRUE(seen.insert(o.task).second) << "duplicate decision";
  }
  EXPECT_GT(ops.slots_processed, 0u);
}

TEST(SingleShard, FinishRequiresCompletedHorizon) {
  const Instance instance = make_instance(testing::small_scenario());
  const auto service = pdftsp_service(instance);
  EXPECT_THROW((void)service->finish(), std::logic_error);
}

TEST(SingleShard, RunDrivesToHorizon) {
  const Instance instance = make_instance(testing::small_scenario(5));
  const auto service = pdftsp_service(instance);
  for (const Task& task : instance.tasks) {
    ASSERT_EQ(service->submit(task), SubmitResult::kAccepted);
  }
  service->close();
  service->run(std::chrono::nanoseconds{0});
  EXPECT_TRUE(service->done());
  const SimResult result = service->finish();
  EXPECT_EQ(result.outcomes.size(), instance.tasks.size());
}

}  // namespace
}  // namespace lorasched::shard
