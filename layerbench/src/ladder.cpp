// The traced run's layer ladder: replay_k1's stream for the seed through
// kernel → policy → K=1 service → K=2 shard → unpaced loopback ingest, and
// through the K=2 cluster deployment (HostAgents behind RemoteShardHandles)
// as a second rung above K=2. Each rung's µs/bid minus the rung below it is
// that layer's marginal cost per bid. Rounds interleave the rungs; the
// first round records spans (so the span file covers every layer's calls)
// and the medians come from the untraced rounds after it.
#include <iostream>

#include "lorasched/core/schedule_dp.h"
#include "lorasched/sim/engine.h"
#include "spans.h"
#include "workloads.h"

namespace layerbench {

namespace {

constexpr int kRounds = 10;  // one traced + nine timed

struct KernelRung {
  double us_per_find = 0.0;
  std::uint64_t feasibility = 0;  // FNV-1a over find()'s feasible flags
  std::uint64_t infeasible_admits = 0;
};

/// Bare ScheduleDp::find for every bid at its arrival slot, with the duals
/// moved by eq. 7/8 exactly along the reference auction's admissions — the
/// DP sees the price states the policy saw. Only the find calls are timed.
KernelRung run_kernel(const Instance& env, const Stream& stream,
                      const PdftspConfig& policy, const Reference& ref) {
  std::vector<const Schedule*> admitted(stream.size(), nullptr);
  for (std::size_t k = 0; k < ref.result.outcomes.size(); ++k) {
    if (ref.result.outcomes[k].admitted) {
      admitted[stream.index(ref.result.outcomes[k].task)] =
          &ref.result.schedules[k];
    }
  }
  const ScheduleDp dp(env.cluster, env.energy, policy.dp);
  DualState duals(env.cluster.node_count(), env.horizon);
  DpScratch scratch;
  Schedule plan;
  KernelRung rung;
  rung.feasibility = 1469598103934665603ull;
  std::int64_t find_ns = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Task& task = stream.bids[i];
    const std::int64_t start = now_ns();
    {
      const spans::Span span("find", task.id);
      dp.find_into(plan, task, task.arrival, duals, scratch);
    }
    find_ns += now_ns() - start;
    rung.feasibility =
        (rung.feasibility ^ (plan.empty() ? 0u : 1u)) * 1099511628211ull;
    if (admitted[i] != nullptr) {
      if (plan.empty()) ++rung.infeasible_admits;
      duals.apply_update(task, *admitted[i], env.cluster, policy.alpha,
                         policy.beta, policy.welfare_unit);
    }
  }
  rung.us_per_find = static_cast<double>(find_ns) * 1e-3 /
                     static_cast<double>(std::max<std::size_t>(1, stream.size()));
  return rung;
}

/// run_simulation with pdFTSP, µs per bid of its wall time.
double run_policy(const Instance& env, const Stream& stream,
                  const PdftspConfig& policy, const Reference& ref,
                  bool& matches) {
  const Instance instance(env.cluster, env.energy, env.market, env.horizon,
                          stream.bids);
  Pdftsp pdftsp(policy, instance.cluster, instance.energy, instance.horizon);
  const std::int64_t start = now_ns();
  SimResult result;
  {
    const spans::Span span("run_simulation");
    result = run_simulation(instance, pdftsp);
  }
  const double us = static_cast<double>(now_ns() - start) * 1e-3 /
                    static_cast<double>(std::max<std::size_t>(1, stream.size()));
  matches = fingerprint(stream, from_outcomes(stream, result.outcomes)) ==
                ref.fingerprint &&
            result.metrics.social_welfare == ref.welfare;
  return us;
}

}  // namespace

void run_ladder(const Options& opt, Result& result) {
  const Slot horizon = kReplayHorizon;
  const Instance env = make_env(opt.seed, horizon);
  const Stream stream = make_stream(env, opt.seed, 1,
                                    loadgen::ArrivalMix::kPoisson,
                                    kRatePerSlot, horizon);
  const PdftspConfig policy = policy_for(env, stream);
  const Reference ref1 = reference_k1(env, stream, policy);
  const Reference ref2 = reference_sharded(env, stream, policy, 2);

  const auto require = [&](bool good, const std::string& what) {
    if (!good) result.fail("ladder " + what);
  };

  std::vector<double> kernel, policy_us, k1, k2, wire, cluster;
  StackTotals k2_totals;
  Result wire_metrics;
  std::uint64_t feasibility = 0;
  for (int round = 0; round < kRounds; ++round) {
    const bool traced = round == 0;
    spans::enable(traced);
    const KernelRung kr = run_kernel(env, stream, policy, ref1);
    bool policy_ok = false;
    const double pu = run_policy(env, stream, policy, ref1, policy_ok);
    const ReplayRun r1 = replay_once(opt.seed, stream, policy, 1,
                                     Deployment::kInProcess, ref1);
    const ReplayRun r2 = replay_once(opt.seed, stream, policy, 2,
                                     Deployment::kInProcess, ref2);
    IngestRung ingest = run_ingest_rung(opt.seed, stream, policy, ref2);
    const ReplayRun rc = replay_once(opt.seed, stream, policy, 2,
                                     Deployment::kCluster, ref2);
    spans::enable(false);

    if (round == 0) feasibility = kr.feasibility;
    require(kr.feasibility == feasibility,
            "kernel rung: find() feasibility changed between rounds");
    require(kr.infeasible_admits == 0,
            "kernel rung: find() has no plan for a bid the reference admitted");
    require(policy_ok, "policy rung: run_simulation differs from the reference");
    require(r1.matches && r1.failures.total() == 0,
            "K=1 rung: decisions differ from the reference " +
                r1.failures.describe());
    require(r2.matches && r2.failures.total() == 0,
            "K=2 rung: decisions differ from the K=2 reference " +
                r2.failures.describe());
    require(ingest.matches && ingest.failures.total() == 0,
            "ingest rung: decisions differ from the K=2 reference " +
                ingest.failures.describe());
    require(rc.matches && rc.failures.total() == 0,
            "cluster rung: decisions differ from the K=2 reference " +
                rc.failures.describe());
    result.attempted += 4 * stream.size();
    result.failed += r1.failures.total() + r2.failures.total() +
                     ingest.failures.total() + rc.failures.total();
    if (traced) continue;
    kernel.push_back(kr.us_per_find);
    policy_us.push_back(pu);
    k1.push_back(r1.us_per_bid());
    k2.push_back(r2.us_per_bid());
    wire.push_back(ingest.us_per_bid);
    cluster.push_back(rc.us_per_bid());
    k2_totals.add(r2.totals);
    wire_metrics = std::move(ingest.metrics);
  }

  const double find_us = median(kernel);
  const double policy_m = median(policy_us);
  const double k1_m = median(k1);
  const double k2_m = median(k2);
  const double wire_m = median(wire);
  const double cluster_m = median(cluster);
  std::cerr << "ladder (" << stream.size() << " bids): find " << find_us
            << " us, policy " << policy_m << " us/bid, K=1 " << k1_m
            << " us/bid, K=2 " << k2_m << " us/bid, loopback ingest " << wire_m
            << " us/bid, K=2 cluster " << cluster_m << " us/bid\n";

  // The ladder only fills what the workload's own stack did not measure.
  Result ladder;
  ladder.set("core.find_us", find_us, "us");
  ladder.set("core.policy_us_per_bid", policy_m, "us");
  ladder.set("core.policy_marginal_us_per_bid", policy_m - find_us, "us");
  ladder.set("service.us_per_bid", k1_m, "us");
  ladder.set("service.marginal_us_per_bid", k1_m - policy_m, "us");
  ladder.set("shard.us_per_bid", k2_m, "us");
  ladder.set("shard.marginal_us_per_bid", k2_m - k1_m, "us");
  ladder.set("net.us_per_bid", wire_m, "us");
  ladder.set("net.marginal_us_per_bid", wire_m - k2_m, "us");
  ladder.set("net.cluster_us_per_bid", cluster_m, "us");
  ladder.set("net.cluster_marginal_us_per_bid", cluster_m - k2_m, "us");
  set_stack_metrics(ladder, k2_totals, 2);
  for (const auto& [name, metric] : wire_metrics.metrics) {
    ladder.metrics.emplace(name, metric);
  }
  for (const auto& [name, metric] : ladder.metrics) {
    result.metrics.emplace(name, metric);
  }
}

}  // namespace layerbench
