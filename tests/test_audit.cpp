// The paper-invariant audit layer (audit/audit.h, DESIGN.md §9).
//
// Two halves:
//
//  * Golden decision-fingerprint regressions over a 529-bid scenario. The
//    fingerprint folds every outcome (admission flag, exact payment bit
//    pattern, completion, vendor) and every schedule cell, so ANY drift in
//    the decision pipeline changes it. The pinned values were captured from
//    the pre-audit seed code: in a default build they prove the audit
//    refactoring left decisions bit-identical; in a -DLORASCHED_AUDIT=ON
//    build they prove the hooks observe without perturbing — while running
//    the full invariant catalogue over 500+ bids with zero violations.
//
//  * Seeded-violation coverage: every checker must reject corrupted inputs.
//    The checkers are compiled in every configuration (only the hooks are
//    gated), so these tests run with and without LORASCHED_AUDIT.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "lorasched/audit/audit.h"
#include "lorasched/audit/invariants.h"
#include "lorasched/audit/oracle.h"
#include "lorasched/cluster/capacity_ledger.h"
#include "lorasched/cluster/cluster.h"
#include "lorasched/cluster/energy.h"
#include "lorasched/cluster/gpu_profile.h"
#include "lorasched/core/duals.h"
#include "lorasched/core/pdftsp.h"
#include "lorasched/core/schedule.h"
#include "lorasched/core/schedule_dp.h"
#include "lorasched/experiments/scenario.h"
#include "lorasched/sim/engine.h"
#include "lorasched/sim/policy.h"
#include "lorasched/types.h"
#include "lorasched/workload/task.h"

namespace lorasched {
namespace {

// --- Golden fingerprint ------------------------------------------------------

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;  // FNV-1a 64-bit prime
}

std::uint64_t fingerprint(const SimResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const TaskOutcome& o = result.outcomes[i];
    mix(h, static_cast<std::uint64_t>(o.task));
    mix(h, o.admitted ? 1 : 0);
    mix(h, std::bit_cast<std::uint64_t>(o.payment));
    mix(h, static_cast<std::uint64_t>(o.completion));
    mix(h, static_cast<std::uint64_t>(o.slots_used));
    mix(h, static_cast<std::uint64_t>(o.vendor));
    const Schedule& s = result.schedules[i];
    mix(h, static_cast<std::uint64_t>(s.run.size()));
    for (const Assignment& a : s.run) {
      mix(h, static_cast<std::uint64_t>(a.node));
      mix(h, static_cast<std::uint64_t>(a.slot));
    }
  }
  return h;
}

/// A mid-size scenario: 529 bids, hybrid fleet, outages, vendors — every
/// decision path (admit / sign-reject / capacity-reject, prep / no-prep)
/// is exercised.
ScenarioConfig pin_config() {
  ScenarioConfig config;
  config.nodes = 8;
  config.fleet = FleetKind::kHybrid;
  config.horizon = 96;
  config.arrival_rate = 5.5;
  config.vendors = 4;
  config.prep_probability = 0.4;
  config.outages = 2;
  config.seed = 2024;
  return config;
}

/// Resets the auditor's counters around a test and restores its config.
class AuditorGuard {
 public:
  AuditorGuard() : saved_(audit::Auditor::instance().config()) {
    audit::Auditor::instance().reset();
  }
  ~AuditorGuard() {
    audit::Auditor::instance().config() = saved_;
    audit::Auditor::instance().reset();
  }

 private:
  audit::AuditConfig saved_;
};

TEST(GoldenDecisions, PlainPolicyPinnedToPreAuditSeed) {
  AuditorGuard guard;
  const Instance instance = make_instance(pin_config());
  ASSERT_EQ(instance.tasks.size(), 529u);
  Pdftsp policy(pdftsp_config_for(instance), instance.cluster,
                instance.energy, instance.horizon);
  const SimResult result = run_simulation(instance, policy);
  EXPECT_EQ(fingerprint(result), 0xb8745db7f7c5010bULL);
  EXPECT_EQ(result.metrics.admitted, 248);
  EXPECT_EQ(result.metrics.rejected, 281);
#ifdef LORASCHED_AUDIT
  // The audit soak: 500+ bids through every hook, zero violations.
  EXPECT_GT(audit::Auditor::instance().checks(), 1000u);
  EXPECT_EQ(audit::Auditor::instance().violations(), 0u);
#endif
}

TEST(GoldenDecisions, ShareAdaptationPinnedToPreAuditSeed) {
  AuditorGuard guard;
  const Instance instance = make_instance(pin_config());
  PdftspConfig config = pdftsp_config_for(instance);
  config.share_options = {0.25, 0.5, 1.0};
  Pdftsp policy(config, instance.cluster, instance.energy, instance.horizon);
  const SimResult result = run_simulation(instance, policy);
  EXPECT_EQ(fingerprint(result), 0x77281649b22a6d0fULL);
  EXPECT_EQ(result.metrics.admitted, 250);
  EXPECT_EQ(result.metrics.rejected, 279);
#ifdef LORASCHED_AUDIT
  EXPECT_EQ(audit::Auditor::instance().violations(), 0u);
#endif
}

// --- Shared fixtures for seeded violations -----------------------------------

Cluster small_cluster() {
  GpuProfile fast;
  fast.name = "audit-fast";
  fast.compute_per_slot = 40.0;
  fast.mem_gb = 80.0;
  fast.power_kw = 0.4;
  fast.hourly_cost = 1.5;
  GpuProfile slow;
  slow.name = "audit-slow";
  slow.compute_per_slot = 24.0;
  slow.mem_gb = 48.0;
  slow.power_kw = 0.3;
  slow.hourly_cost = 0.8;
  return Cluster({fast, slow}, 10.0);
}

Task small_task() {
  Task t;
  t.id = 11;
  t.arrival = 0;
  t.deadline = 3;
  t.work = 30.0;
  t.mem_gb = 2.0;
  t.compute_share = 0.5;
  t.bid = 5.0;
  t.true_value = 5.0;
  return t;
}

// --- Outcome accounting ------------------------------------------------------

TEST(AuditChecks, AdmittedDecisionNeedsASchedule) {
  AuditorGuard guard;
  const Task t = small_task();
  Decision d;
  d.task = t.id;
  d.admit = true;  // but the schedule is empty
  d.payment = 1.0;
  EXPECT_THROW(audit::check_outcome_accounting(t, d),
               audit::InvariantViolation);
}

TEST(AuditChecks, RejectedDecisionMustChargeNothing) {
  AuditorGuard guard;
  const Task t = small_task();
  Decision d;
  d.task = t.id;
  d.admit = false;
  d.payment = 2.0;
  EXPECT_THROW(audit::check_outcome_accounting(t, d),
               audit::InvariantViolation);
}

TEST(AuditChecks, CountOnlyModeSurveysWithoutThrowing) {
  AuditorGuard guard;
  audit::Auditor::instance().config().fail_fast = false;
  const Task t = small_task();
  Decision d;
  d.task = t.id;
  d.admit = false;
  d.payment = 2.0;
  EXPECT_NO_THROW(audit::check_outcome_accounting(t, d));
  EXPECT_EQ(audit::Auditor::instance().violations(), 1u);
}

// --- Ledger invariants -------------------------------------------------------

TEST(AuditChecks, LedgerTotalsDetectDrift) {
  AuditorGuard guard;
  const Cluster cluster = small_cluster();
  CapacityLedger ledger(cluster, 4);
  EXPECT_NO_THROW(audit::check_ledger_totals(ledger, 0.0));
  ledger.reserve(0, 0, 10.0, 2.0);
  EXPECT_NO_THROW(audit::check_ledger_totals(ledger, 10.0));
  // A policy that books without admitting (or vice versa) shows up as a
  // mismatch between the ledger and the admitted-compute running sum.
  EXPECT_THROW(audit::check_ledger_totals(ledger, 0.0),
               audit::InvariantViolation);
}

TEST(AuditChecks, LedgerRestoreDetectsCorruption) {
  AuditorGuard guard;
  const Cluster cluster = small_cluster();
  CapacityLedger ledger(cluster, 4);
  ledger.reserve(0, 1, 5.0, 1.0);
  CapacityLedger::Snapshot snapshot = ledger.snapshot();
  EXPECT_NO_THROW(audit::check_ledger_restore(ledger, snapshot));
  snapshot.used_compute[1] += 1.0;  // cell (node 0, slot 1)
  EXPECT_THROW(audit::check_ledger_restore(ledger, snapshot),
               audit::InvariantViolation);
}

// --- Dual update (eq. 7/8) ---------------------------------------------------

class DualUpdateAudit : public ::testing::Test {
 protected:
  void SetUp() override {
    task_ = small_task();
    schedule_.task = task_.id;
    schedule_.run = {{0, 0}, {0, 1}};  // node 0 only
    finalize_schedule(schedule_, task_, cluster_, energy_);
    pre_lambda_ = duals_.lambda_values();
    pre_phi_ = duals_.phi_values();
    duals_.apply_update(task_, schedule_, cluster_, /*alpha=*/0.5,
                        /*beta=*/0.5, /*welfare_unit=*/1.0);
  }

  AuditorGuard guard_;
  Cluster cluster_ = small_cluster();
  EnergyModel energy_;
  DualState duals_{2, 4};
  Task task_;
  Schedule schedule_;
  std::vector<double> pre_lambda_;
  std::vector<double> pre_phi_;
};

TEST_F(DualUpdateAudit, FaithfulUpdatePasses) {
  EXPECT_NO_THROW(audit::check_dual_update(task_, schedule_, cluster_,
                                           pre_lambda_, pre_phi_, duals_, 0.5,
                                           0.5, 1.0));
}

TEST_F(DualUpdateAudit, TamperedTouchedCellDetected) {
  duals_.set_lambda(0, 0, duals_.lambda(0, 0) * 0.5);
  EXPECT_THROW(audit::check_dual_update(task_, schedule_, cluster_,
                                        pre_lambda_, pre_phi_, duals_, 0.5,
                                        0.5, 1.0),
               audit::InvariantViolation);
}

TEST_F(DualUpdateAudit, TamperedUntouchedCellDetected) {
  // Node 1 is not in the run: even a tiny perturbation must be caught —
  // untouched cells are required bit-identical, not merely close.
  duals_.set_lambda(1, 2, 1e-12);
  EXPECT_THROW(audit::check_dual_update(task_, schedule_, cluster_,
                                        pre_lambda_, pre_phi_, duals_, 0.5,
                                        0.5, 1.0),
               audit::InvariantViolation);
}

TEST_F(DualUpdateAudit, WrongPricingConstantsDetected) {
  // The same grids replayed under a different alpha no longer match.
  EXPECT_THROW(audit::check_dual_update(task_, schedule_, cluster_,
                                        pre_lambda_, pre_phi_, duals_, 0.9,
                                        0.5, 1.0),
               audit::InvariantViolation);
}

// --- Decision consistency (eq. 10 / eq. 14 / Thm. 4) -------------------------

TEST(AuditChecks, DecisionAuditRejectsAdmissionWithoutCandidate) {
  AuditorGuard guard;
  const Cluster cluster = small_cluster();
  const Task t = small_task();
  const Schedule empty;
  const CapacityLedger ledger(cluster, 4);
  const std::vector<double> zeros(2 * 4, 0.0);
  const audit::DecisionAudit a{t,     empty, 0.0,   1.0, true,
                               false, zeros, zeros, ledger};
  EXPECT_THROW(audit::check_decision(a, cluster), audit::InvariantViolation);
}

TEST(AuditChecks, DecisionAuditRejectsOverpayment) {
  AuditorGuard guard;
  const Cluster cluster = small_cluster();
  const EnergyModel energy;
  const Task t = small_task();
  Schedule s;
  s.task = t.id;
  s.run = {{0, 0}, {0, 1}};
  finalize_schedule(s, t, cluster, energy);
  const DualState duals(2, 4);  // all-zero prices
  const double objective = objective_value(s, duals);
  ASSERT_GT(objective, 0.0);
  const CapacityLedger ledger(cluster, 4);
  // Payment above the bid violates individual rationality (Thm. 4) and
  // cannot equal the eq. (14) recomputation either.
  const audit::DecisionAudit a{t,
                               s,
                               objective,
                               t.bid + 1.0,
                               true,
                               false,
                               duals.lambda_values(),
                               duals.phi_values(),
                               ledger};
  EXPECT_THROW(audit::check_decision(a, cluster), audit::InvariantViolation);
}

// --- Algorithm 2 vs brute-force oracle ---------------------------------------

class DpOracleAudit : public ::testing::Test {
 protected:
  void SetUp() override {
    task_ = small_task();
    // Non-uniform prices so the optimum is non-trivial.
    for (NodeId k = 0; k < 2; ++k) {
      for (Slot t = 0; t < 4; ++t) {
        duals_.set_lambda(k, t, 0.05 * static_cast<double>(k + 2 * t));
        duals_.set_phi(k, t, 0.01 * static_cast<double>(3 - t));
      }
    }
  }

  AuditorGuard guard_;
  Cluster cluster_ = small_cluster();
  EnergyModel energy_;
  DualState duals_{2, 4};
  Task task_;
  ScheduleDpConfig config_{};
};

TEST_F(DpOracleAudit, DpAgreesWithOracleOnSmallInstance) {
  const ScheduleDp dp(cluster_, energy_, config_);
  const Schedule found = dp.find(task_, 0, duals_);
  ASSERT_FALSE(found.empty());
  audit::check_dp_schedule(task_, 0, duals_, cluster_, energy_, config_,
                           nullptr, nullptr, found);
  EXPECT_GT(audit::Auditor::instance().checks(), 0u);
  EXPECT_EQ(audit::Auditor::instance().violations(), 0u);
  EXPECT_EQ(audit::Auditor::instance().oracle_skipped(), 0u);
}

TEST_F(DpOracleAudit, FabricatedInfeasibilityConvicted) {
  // The instance is feasible (previous test): claiming the DP found nothing
  // must be refuted by the oracle.
  const Schedule empty;
  EXPECT_THROW(audit::check_dp_schedule(task_, 0, duals_, cluster_, energy_,
                                        config_, nullptr, nullptr, empty),
               audit::InvariantViolation);
}

TEST_F(DpOracleAudit, OversizedInstanceSkipsAndCounts) {
  audit::Auditor::instance().config().oracle_max_combinations = 2;
  const ScheduleDp dp(cluster_, energy_, config_);
  const Schedule found = dp.find(task_, 0, duals_);
  audit::check_dp_schedule(task_, 0, duals_, cluster_, energy_, config_,
                           nullptr, nullptr, found);
  EXPECT_GT(audit::Auditor::instance().oracle_skipped(), 0u);
  EXPECT_EQ(audit::Auditor::instance().violations(), 0u);
}

TEST_F(DpOracleAudit, OracleCostMatchesDpObjectiveTerms) {
  bool skipped = false;
  const std::optional<double> best = audit::oracle_best_cost(
      task_, 0, duals_, cluster_, energy_, config_, nullptr, nullptr,
      50'000, &skipped);
  ASSERT_FALSE(skipped);
  ASSERT_TRUE(best.has_value());
  EXPECT_GE(*best, 0.0);
}

}  // namespace
}  // namespace lorasched
