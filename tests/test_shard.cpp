// Sharded scheduling correctness (DESIGN.md §10): the planner must produce
// balanced exact covers, K-shard runs must be deterministic under any
// thread schedule, second-chance re-routing must recover capacity rejects,
// and checkpoint/restore must resume to a byte-identical final state. At
// K=1 the re-routing settings must be inert and the service must match the
// monolithic run_simulation; the rest of the K=1 surface is in test_service.
#include "lorasched/shard/sharded_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "lorasched/baselines/eft.h"
#include "lorasched/cluster/capacity_ledger.h"
#include "lorasched/core/online_params.h"
#include "lorasched/core/pdftsp.h"
#include "lorasched/io/serialize.h"
#include "lorasched/shard/price_board.h"
#include "lorasched/shard/router.h"
#include "lorasched/shard/shard_planner.h"
#include "lorasched/sim/engine.h"
#include "test_helpers.h"

namespace lorasched::shard {
namespace {

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

/// Submits every instance task from `threads` producers, then steps the
/// service through its whole horizon.
void serve_instance(ShardedService& service, const Instance& instance,
                    int threads = 4) {
  std::vector<std::thread> producers;
  for (int p = 0; p < threads; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = static_cast<std::size_t>(p);
           i < instance.tasks.size(); i += static_cast<std::size_t>(threads)) {
        ASSERT_EQ(service.submit(instance.tasks[i]),
                  service::SubmitResult::kAccepted);
      }
    });
  }
  for (auto& t : producers) t.join();
  while (!service.done()) service.step();
}

// --- ShardPlanner ----------------------------------------------------------

TEST(ShardPlanner, CoversEveryNodeExactlyOnce) {
  const Instance instance = make_instance(testing::small_scenario());
  const Cluster& cluster = instance.cluster;
  for (const int shards : {1, 2, 3, 4, cluster.node_count()}) {
    SCOPED_TRACE(shards);
    const ShardPlan plan = ShardPlanner::plan(cluster, shards);
    ASSERT_EQ(plan.shard_count(), shards);
    std::set<NodeId> seen;
    for (const auto& members : plan.nodes) {
      EXPECT_FALSE(members.empty());  // every shard can decide something
      for (std::size_t i = 0; i < members.size(); ++i) {
        EXPECT_TRUE(seen.insert(members[i]).second);  // disjoint
        if (i > 0) {
          EXPECT_LT(members[i - 1], members[i]);  // ascending
        }
      }
    }
    EXPECT_EQ(static_cast<int>(seen.size()), cluster.node_count());
  }
}

TEST(ShardPlanner, BalancesComputeWithinOneNode) {
  const Instance instance = make_instance(testing::small_scenario());
  const Cluster& cluster = instance.cluster;
  double biggest_node = 0.0;
  for (NodeId k = 0; k < cluster.node_count(); ++k) {
    biggest_node = std::max(biggest_node, cluster.compute_capacity(k));
  }
  for (const int shards : {2, 3}) {
    SCOPED_TRACE(shards);
    const ShardPlan plan = ShardPlanner::plan(cluster, shards);
    double lo = std::numeric_limits<double>::infinity();
    double hi = 0.0;
    for (const auto& members : plan.nodes) {
      double compute = 0.0;
      for (const NodeId k : members) compute += cluster.compute_capacity(k);
      lo = std::min(lo, compute);
      hi = std::max(hi, compute);
    }
    // Greedy least-loaded cannot spread worse than one node's capacity.
    EXPECT_LE(hi - lo, biggest_node + 1e-9);
  }
}

TEST(ShardPlanner, SingleShardIsIdentityPartition) {
  const Cluster cluster = testing::hetero_cluster();
  const ShardPlan plan = ShardPlanner::plan(cluster, 1);
  ASSERT_EQ(plan.shard_count(), 1);
  ASSERT_EQ(static_cast<int>(plan.nodes[0].size()), cluster.node_count());
  for (NodeId k = 0; k < cluster.node_count(); ++k) {
    EXPECT_EQ(plan.nodes[0][static_cast<std::size_t>(k)], k);
  }
  const Cluster sub = ShardPlanner::sub_cluster(cluster, plan.nodes[0]);
  ASSERT_EQ(sub.node_count(), cluster.node_count());
  EXPECT_EQ(sub.base_model_gb(), cluster.base_model_gb());
  for (NodeId k = 0; k < cluster.node_count(); ++k) {
    EXPECT_EQ(sub.compute_capacity(k), cluster.compute_capacity(k));
    EXPECT_EQ(sub.adapter_mem_capacity(k), cluster.adapter_mem_capacity(k));
  }
}

TEST(ShardPlanner, RejectsBadShardCounts) {
  const Cluster cluster = testing::mini_cluster(3);
  EXPECT_THROW((void)ShardPlanner::plan(cluster, 0), std::invalid_argument);
  EXPECT_THROW((void)ShardPlanner::plan(cluster, 4), std::invalid_argument);
}

// --- Router ----------------------------------------------------------------

TEST(Router, InfeasibleShardsRankLastNotDropped) {
  // fast node: 24 GB (20 GB adapter room); slow node: 16 GB (12 GB room).
  const Cluster cluster = testing::hetero_cluster();
  const ShardPlan plan = ShardPlanner::plan(cluster, 2);
  const Router router({/*reroute_attempts=*/1, /*seed=*/0},
                      ShardPlanner::topology(cluster, plan));

  std::vector<PriceSnapshot> prices(2);
  for (auto& snapshot : prices) {
    snapshot.classes.resize(static_cast<std::size_t>(cluster.class_count()));
  }

  // 15 GB of adapters fits only the fast class.
  const Task bid = testing::make_task(1, 0, 10, 500.0, /*mem_gb=*/15.0);
  int fast_shard = -1;
  for (int s = 0; s < plan.shard_count(); ++s) {
    if (cluster.node_class(plan.nodes[static_cast<std::size_t>(s)][0]) == 0) {
      fast_shard = s;
    }
  }
  ASSERT_NE(fast_shard, -1);
  const int slow_shard = 1 - fast_shard;

  EXPECT_TRUE(std::isfinite(
      router.estimate(bid, fast_shard,
                      prices[static_cast<std::size_t>(fast_shard)])));
  EXPECT_TRUE(std::isinf(
      router.estimate(bid, slow_shard,
                      prices[static_cast<std::size_t>(slow_shard)])));

  const std::vector<int> ranking = router.rank(bid, prices);
  ASSERT_EQ(ranking.size(), 2u);  // never dropped, only demoted
  EXPECT_EQ(ranking.front(), fast_shard);
  EXPECT_EQ(ranking.back(), slow_shard);

  // Deterministic in (bid, prices, seed).
  EXPECT_EQ(router.rank(bid, prices), ranking);
}

TEST(Router, PrefersCheaperPricesOverFreeCapacity) {
  const Cluster cluster = testing::mini_cluster(4);  // one class
  const ShardPlan plan = ShardPlanner::plan(cluster, 2);
  const Router router({1, 0}, ShardPlanner::topology(cluster, plan));

  std::vector<PriceSnapshot> prices(2);
  for (auto& snapshot : prices) snapshot.classes.resize(1);
  prices[0].classes[0].mean_lambda = 2.0;  // expensive shard 0
  prices[1].classes[0].mean_lambda = 0.5;  // cheap shard 1
  prices[0].classes[0].free_compute = 1e9;  // capacity must not override cost
  prices[0].free_compute = 1e9;

  const Task bid = testing::make_task(1, 0, 10, 500.0);
  const std::vector<int> ranking = router.rank(bid, prices);
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking.front(), 1);
}

// --- PriceBoard ------------------------------------------------------------

// Seqlock consistency under a racing writer: every read must observe one
// published snapshot in full, never a torn mix of two. Run under TSan (the
// CI thread-sanitizer job includes -R Shard).
TEST(PriceBoard, SeqlockReadsAreNeverTorn) {
  constexpr int kClasses = 3;
  constexpr Slot kRounds = 20000;
  PriceBoard board(1, kClasses);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const PriceSnapshot snapshot = board.read(0);
        // The writer publishes every field equal to the round number, so
        // any disagreement within one snapshot is a torn read. Before the
        // first publish a reader may still see the board's initial state
        // (slot -1, all zeros), which is consistent too.
        const double v = snapshot.free_compute;
        bool ok = snapshot.published_slot == static_cast<Slot>(v) ||
                  (snapshot.published_slot == -1 && v == 0.0);
        for (const ClassPrice& cls : snapshot.classes) {
          ok = ok && cls.free_compute == v && cls.free_mem == v &&
               cls.mean_lambda == v && cls.mean_phi == v;
        }
        if (!ok) torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  PriceSnapshot snapshot;
  snapshot.classes.resize(kClasses);
  for (Slot round = 0; round <= kRounds; ++round) {
    const double v = static_cast<double>(round);
    snapshot.published_slot = round;
    snapshot.free_compute = v;
    for (ClassPrice& cls : snapshot.classes) {
      cls = ClassPrice{v, v, v, v};
    }
    board.publish(0, snapshot);
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  const PriceSnapshot last = board.read(0);
  EXPECT_EQ(last.published_slot, kRounds);
  EXPECT_EQ(last.free_compute, static_cast<double>(kRounds));
}

TEST(PriceBoard, SeqlockVersionIsEvenOnEveryConsistentRead) {
  // The DESIGN.md §13 seqlock exemption rests on the version protocol:
  // odd while a publish is in flight, bumped twice per publish, and read()
  // only returns data bracketed by two identical even observations. Stress
  // it with readers sampling the version around every read; under TSan
  // this is also the data-race proof for the documented exemption.
  constexpr int kClasses = 2;
  constexpr Slot kRounds = 10000;
  PriceBoard board(2, kClasses);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      const int shard = r % board.shard_count();
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t before = board.version(shard);
        const PriceSnapshot snapshot = board.read(shard);
        const std::uint64_t after = board.version(shard);
        // The version never moves backwards, and a read that saw no
        // concurrent publish (version unchanged and even across it) must
        // be internally consistent with that stable version's contents.
        if (after < before) violations.fetch_add(1);
        if (before == after && before % 2 == 0) {
          const auto v = static_cast<double>(snapshot.published_slot);
          for (const ClassPrice& cls : snapshot.classes) {
            if (snapshot.published_slot >= 0 && cls.free_compute != v) {
              violations.fetch_add(1);
            }
          }
        }
      }
    });
  }

  PriceSnapshot snapshot;
  snapshot.classes.resize(kClasses);
  for (Slot round = 0; round <= kRounds; ++round) {
    const double v = static_cast<double>(round);
    snapshot.published_slot = round;
    snapshot.free_compute = v;
    for (ClassPrice& cls : snapshot.classes) cls = ClassPrice{v, v, v, v};
    board.publish(0, snapshot);
    board.publish(1, snapshot);
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  // Quiescent: even, and exactly two bumps per publish.
  for (int s = 0; s < board.shard_count(); ++s) {
    EXPECT_EQ(board.version(s) % 2, 0u);
    EXPECT_EQ(board.version(s), 2u * static_cast<std::uint64_t>(kRounds + 1));
  }
}

// --- ShardedService --------------------------------------------------------

// One shard leaves nowhere to re-route to, so reroute_attempts and the
// router seed must change nothing: the run stays bit-identical to the
// monolithic batch engine.
TEST(ShardedService, SingleShardMatchesMonolithicExactly) {
  const Instance instance = make_instance(testing::small_scenario(11));
  const PdftspConfig config = pdftsp_config_for(instance);

  Pdftsp sim_policy(config, instance.cluster, instance.energy,
                    instance.horizon);
  const SimResult expected = run_simulation(instance, sim_policy);

  ShardedConfig sharded;
  sharded.shards = 1;
  sharded.reroute_attempts = 2;
  sharded.router_seed = 99;
  ShardedService service(instance, make_pdftsp_factory(config), sharded);
  serve_instance(service, instance);
  EXPECT_EQ(service.rerouted_bids(), 0u);
  const SimResult actual = service.finish();

  expect_same_outcomes(expected.outcomes, actual.outcomes);
  expect_same_metrics(expected.metrics, actual.metrics);
  ASSERT_EQ(expected.schedules.size(), actual.schedules.size());
  for (std::size_t i = 0; i < expected.schedules.size(); ++i) {
    EXPECT_EQ(expected.schedules[i].run, actual.schedules[i].run);
  }
}

/// finish() checks ledger conservation from the ledger sum alone, so a
/// policy without checkpointable state (a baseline) finishes at any K; at
/// K=1 it still matches run_simulation.
TEST(ShardedService, FinishNeedsNoCheckpointablePolicy) {
  const Instance instance = make_instance(testing::small_scenario(11));
  const PolicyFactory eft = [](const Cluster&, const EnergyModel&,
                               Slot) -> std::unique_ptr<Policy> {
    return std::make_unique<EftPolicy>();
  };
  EftPolicy sim_policy;
  const SimResult expected = run_simulation(instance, sim_policy);

  for (const int shards : {1, 2}) {
    SCOPED_TRACE(shards);
    ShardedConfig sharded;
    sharded.shards = shards;
    ShardedService service(instance, eft, sharded);
    serve_instance(service, instance);
    SimResult actual;
    ASSERT_NO_THROW(actual = service.finish());
    EXPECT_EQ(actual.metrics.admitted + actual.metrics.rejected,
              static_cast<int>(instance.tasks.size()));
    EXPECT_GT(actual.metrics.admitted, 0);
    if (shards == 1) {
      expect_same_outcomes(expected.outcomes, actual.outcomes);
      expect_same_metrics(expected.metrics, actual.metrics);
    }
  }
}

TEST(ShardedService, DeterministicAcrossRunsAndProducerSchedules) {
  const Instance instance = make_instance(testing::small_scenario(11));
  const PdftspConfig config = pdftsp_config_for(instance);

  ShardedConfig sharded;
  sharded.shards = 4;
  sharded.reroute_attempts = 2;
  sharded.router_seed = 99;

  ShardedService first(instance, make_pdftsp_factory(config), sharded);
  serve_instance(first, instance, /*threads=*/1);
  const SimResult a = first.finish();

  ShardedService second(instance, make_pdftsp_factory(config), sharded);
  serve_instance(second, instance, /*threads=*/4);
  const SimResult b = second.finish();

  expect_same_outcomes(a.outcomes, b.outcomes);
  expect_same_metrics(a.metrics, b.metrics);
  ASSERT_EQ(a.schedules.size(), b.schedules.size());
  for (std::size_t i = 0; i < a.schedules.size(); ++i) {
    EXPECT_EQ(a.schedules[i].run, b.schedules[i].run);
  }
}

/// Two one-node shards — a 2000-samples/slot "big" node and a 1000 "small"
/// one — and two identical same-slot bids that both prefer the big shard
/// and each need a full node-slot there. The second bid loses the race for
/// the big node's only feasible slot.
Instance two_shard_contention() {
  std::vector<GpuProfile> profiles{
      GpuProfile{"big", 2000.0, 20.0, 0.3, 1.2},
      GpuProfile{"small", 1000.0, 20.0, 0.3, 1.2},
  };
  Cluster cluster(std::move(profiles), 4.0);
  // work 1000 at share 1.0 with deadline 0: exactly one full node-slot on
  // either class (big books 2000 compute, small books 1000).
  std::vector<Task> tasks{
      testing::make_task(1, 0, 0, 1000.0, 2.0, 1.0, 50.0),
      testing::make_task(2, 0, 0, 1000.0, 2.0, 1.0, 50.0),
  };
  return Instance(std::move(cluster), testing::flat_energy(),
                  Marketplace(Marketplace::Config{}, 1), /*horizon=*/2,
                  std::move(tasks));
}

TEST(ShardedService, SecondChanceRecoversCapacityReject) {
  const Instance instance = two_shard_contention();
  const PdftspConfig config = pdftsp_config_for(instance);

  ShardedConfig sharded;
  sharded.shards = 2;
  sharded.reroute_attempts = 1;
  ShardedService service(instance, make_pdftsp_factory(config), sharded);
  serve_instance(service, instance, 1);
  EXPECT_EQ(service.rerouted_bids(), 1u);
  EXPECT_EQ(service.reroute_admits(), 1u);
  const SimResult result = service.finish();
  EXPECT_EQ(result.metrics.admitted, 2);
  EXPECT_EQ(result.metrics.rejected, 0);

  // Task 1 won the big node (global 0); task 2's second chance landed on
  // the small shard's node (global 1) — schedules come back in fleet ids.
  ASSERT_EQ(result.schedules.size(), 2u);
  for (const Schedule& schedule : result.schedules) {
    ASSERT_EQ(schedule.run.size(), 1u);
    EXPECT_EQ(schedule.run[0].node, schedule.task == 1 ? 0 : 1);
    EXPECT_EQ(schedule.run[0].slot, 0);
  }
}

TEST(ShardedService, WithoutSecondChanceTheRejectIsFinal) {
  const Instance instance = two_shard_contention();
  const PdftspConfig config = pdftsp_config_for(instance);

  ShardedConfig sharded;
  sharded.shards = 2;
  sharded.reroute_attempts = 0;  // the paper's single irrevocable offer
  ShardedService service(instance, make_pdftsp_factory(config), sharded);
  serve_instance(service, instance, 1);
  EXPECT_EQ(service.rerouted_bids(), 0u);
  EXPECT_EQ(service.reroute_admits(), 0u);
  const SimResult result = service.finish();
  EXPECT_EQ(result.metrics.admitted, 1);
  EXPECT_EQ(result.metrics.rejected, 1);
  ASSERT_FALSE(result.outcomes.empty());
}

// The second-chance volume is exported through the service registry
// (DESIGN.md §10) so operators can watch reroute pressure without parsing
// logs: the counters must track the accessors exactly.
TEST(ShardedService, ExportsRouterRerouteMetrics) {
  const Instance instance = two_shard_contention();
  const PdftspConfig config = pdftsp_config_for(instance);

  ShardedConfig sharded;
  sharded.shards = 2;
  sharded.reroute_attempts = 1;
  ShardedService service(instance, make_pdftsp_factory(config), sharded);
  serve_instance(service, instance, 1);

  auto& registry = service.registry();
  EXPECT_EQ(registry.counter("lorasched_router_reroutes_total").value(),
            service.rerouted_bids());
  EXPECT_EQ(registry.counter("lorasched_router_reroute_admits_total").value(),
            service.reroute_admits());
  EXPECT_EQ(registry.counter("lorasched_router_failovers_total").value(),
            service.failover_bids());
  EXPECT_EQ(service.rerouted_bids(), 1u);  // this scenario forces exactly one
  // Two bids routed, one re-offered.
  EXPECT_DOUBLE_EQ(registry.gauge("lorasched_router_reroute_ratio").value(),
                   0.5);

  // The Prometheus exposition carries all four series.
  std::ostringstream text;
  registry.write_prometheus(text);
  const std::string exposition = text.str();
  for (const char* name :
       {"lorasched_router_reroutes_total", "lorasched_router_reroute_admits_total",
        "lorasched_router_failovers_total", "lorasched_router_reroute_ratio"}) {
    EXPECT_NE(exposition.find(name), std::string::npos) << name;
  }
  (void)service.finish();
}

// Offline replay of a stream longer than the queue under block
// backpressure (the lorasched_serve --shards 2 --slot-ms 0 path).
TEST(ShardedService, PumpIngestsBeyondQueueCapacityWithoutDeadlock) {
  const Instance instance = make_instance(testing::small_scenario());
  const PdftspConfig config = pdftsp_config_for(instance);

  ShardedConfig sharded;
  sharded.shards = 2;
  ShardedService reference(instance, make_pdftsp_factory(config), sharded);
  serve_instance(reference, instance, 1);
  const SimResult expected = reference.finish();

  sharded.queue_capacity = 2;  // far below the bid count
  ShardedService service(instance, make_pdftsp_factory(config), sharded);
  ASSERT_GT(instance.tasks.size(), sharded.queue_capacity);

  std::thread feeder([&] {
    for (const Task& task : instance.tasks) {
      ASSERT_EQ(service.submit(task), service::SubmitResult::kAccepted);
    }
    service.close();
  });
  while (!service.queue().closed() || service.queue().depth() != 0) {
    service.queue().wait_available();
    service.pump();
  }
  feeder.join();
  while (!service.done()) service.step();
  const SimResult actual = service.finish();

  expect_same_outcomes(expected.outcomes, actual.outcomes);
  expect_same_metrics(expected.metrics, actual.metrics);
}

TEST(ShardedService, CheckpointRestoreResumesByteIdentically) {
  const Instance instance = make_instance(testing::small_scenario(7));
  const PdftspConfig config = pdftsp_config_for(instance);

  ShardedConfig sharded;
  sharded.shards = 3;
  sharded.reroute_attempts = 1;
  sharded.router_seed = 5;
  // Wall-clock decision timings are the one nondeterministic field in the
  // snapshot; disable them so "byte-identical" is meaningful.
  sharded.time_decisions = false;

  // Uninterrupted reference life.
  ShardedService reference(instance, make_pdftsp_factory(config), sharded);
  serve_instance(reference, instance, 1);
  std::ostringstream reference_final;
  io::write_sharded_checkpoint(reference_final, reference.checkpoint());
  const SimResult expected = reference.finish();

  // First life: ingest everything, serve half the horizon, checkpoint
  // through the io round-trip, then "crash".
  std::stringstream persisted;
  {
    ShardedService service(instance, make_pdftsp_factory(config), sharded);
    for (const Task& task : instance.tasks) {
      ASSERT_EQ(service.submit(task), service::SubmitResult::kAccepted);
    }
    service.close();
    for (Slot t = 0; t < instance.horizon / 2; ++t) service.step();
    io::write_sharded_checkpoint(persisted, service.checkpoint());
  }

  // Second life: a fresh service restored from the stream.
  ShardedService revived(instance, make_pdftsp_factory(config), sharded);
  const ShardedCheckpoint snapshot = io::read_sharded_checkpoint(persisted);
  revived.restore(snapshot);
  revived.close();
  EXPECT_EQ(revived.current_slot(), instance.horizon / 2);
  while (!revived.done()) revived.step();

  // The resumed life's terminal snapshot is byte-identical to the
  // uninterrupted one — same decisions, same duals, same ledgers.
  std::ostringstream revived_final;
  io::write_sharded_checkpoint(revived_final, revived.checkpoint());
  EXPECT_EQ(revived_final.str(), reference_final.str());

  const SimResult actual = revived.finish();
  expect_same_outcomes(expected.outcomes, actual.outcomes);
  expect_same_metrics(expected.metrics, actual.metrics);
}

TEST(ShardedService, RestoreRejectsMismatchedShardingConfig) {
  const Instance instance = make_instance(testing::small_scenario());
  const PdftspConfig config = pdftsp_config_for(instance);

  ShardedConfig sharded;
  sharded.shards = 2;
  ShardedService source(instance, make_pdftsp_factory(config), sharded);
  const ShardedCheckpoint snapshot = source.checkpoint();

  ShardedConfig other = sharded;
  other.shards = 3;
  ShardedService wrong_shards(instance, make_pdftsp_factory(config), other);
  EXPECT_THROW(wrong_shards.restore(snapshot), std::invalid_argument);

  other = sharded;
  other.router_seed = 1234;
  ShardedService wrong_seed(instance, make_pdftsp_factory(config), other);
  EXPECT_THROW(wrong_seed.restore(snapshot), std::invalid_argument);

  ShardedService stale(instance, make_pdftsp_factory(config), sharded);
  stale.step();
  EXPECT_THROW(stale.restore(snapshot), std::logic_error);
}

// --- CapacityLedger snapshot vs. concurrent reserves ------------------------

// The sharded service checkpoints each shard's ledger while other shards
// keep booking into their own; within one ledger the service serializes
// snapshot/restore against reserves with the runner handshake. This pins
// the contract that discipline relies on: under external serialization,
// restore(snapshot()) loses no concurrent booking and the pair is
// TSan-clean (the CI thread-sanitizer job includes -R CapacityLedger).
TEST(CapacityLedgerConcurrency, SnapshotRestoreConcurrentWithReserves) {
  const Cluster cluster = testing::mini_cluster(4);
  constexpr Slot kHorizon = 32;
  CapacityLedger ledger(cluster, kHorizon);

  std::mutex mutex;
  std::atomic<bool> stop{false};
  double reserved = 0.0;  // guarded by mutex

  std::thread booker([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::lock_guard<std::mutex> lock(mutex);
      const NodeId k = static_cast<NodeId>(i % cluster.node_count());
      const Slot t = static_cast<Slot>((i / cluster.node_count()) % kHorizon);
      if (ledger.fits(k, t, 1.0, 0.01)) {
        ledger.reserve(k, t, 1.0, 0.01);
        reserved += 1.0;
      }
      ++i;
    }
  });
  std::thread checkpointer([&] {
    for (int round = 0; round < 2000; ++round) {
      const std::lock_guard<std::mutex> lock(mutex);
      const CapacityLedger::Snapshot snapshot = ledger.snapshot();
      ledger.restore(snapshot);  // idempotent: must drop no booking
    }
    stop.store(true, std::memory_order_relaxed);
  });
  checkpointer.join();
  booker.join();

  double used = 0.0;
  for (NodeId k = 0; k < cluster.node_count(); ++k) {
    for (Slot t = 0; t < kHorizon; ++t) used += ledger.used_compute(k, t);
  }
  EXPECT_DOUBLE_EQ(used, reserved);
  EXPECT_GT(reserved, 0.0);
}

}  // namespace
}  // namespace lorasched::shard
