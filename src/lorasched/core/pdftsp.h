// pdFTSP — the paper's Online Task Scheduling Algorithm (Alg. 1) plus the
// per-task schedule selection (Alg. 2) and the payment rule (eq. 14).
//
// On each arriving task the policy:
//  1. collects vendor quotes (if f_i = 1) and, per vendor candidate, runs
//     the schedule DP under the current dual prices (Alg. 2);
//  2. picks the candidate maximizing F(il) (eq. 9/10);
//  3. if F(il) <= 0, rejects; otherwise updates the duals (eq. 7/8) and
//     admits iff the schedule still fits the ground-truth capacities
//     (Alg. 1 lines 6-13), charging the payment of eq. (14) computed from
//     the pre-update duals.
#pragma once

#include <string_view>
#include <vector>

#include "lorasched/cluster/capacity_ledger.h"
#include "lorasched/cluster/cluster.h"
#include "lorasched/cluster/energy.h"
#include "lorasched/core/duals.h"
#include "lorasched/core/schedule_dp.h"
#include "lorasched/obs/trace.h"
#include "lorasched/sim/policy.h"
#include "lorasched/types.h"

namespace lorasched {

struct PdftspConfig {
  /// Lemma 2's capacity-control parameters in normalized units:
  /// alpha >= max_i b_i / S̃_i (S̃_i = the task's minimal normalized compute
  /// volume) and beta >= max_i b_i / r̃_i guarantee no node-slot is
  /// over-booked by more than one task. Use alpha_bound()/beta_bound() from
  /// taskgen.h, or the provider's price book.
  double alpha = 1.0;
  double beta = 1.0;
  /// Money normalization κ for the dual update (duals.h): roughly the
  /// smallest plausible unit welfare b̄ in the task population, so that
  /// b̄/κ >= 1. Use welfare_unit_estimate() from taskgen.h.
  double welfare_unit = 1.0;
  /// Batch-size co-adaptation (extension; empty = off): additional compute
  /// shares Algorithm 2 may run the task at, besides the user's own batch
  /// size. The best (vendor, share) candidate by F(il) wins; the chosen
  /// share is recorded as Schedule::share_override.
  std::vector<double> share_options{};
  ScheduleDpConfig dp{};
};

class Pdftsp final : public Policy,
                     public CheckpointableState,
                     public obs::Traceable {
 public:
  Pdftsp(PdftspConfig config, const Cluster& cluster, const EnergyModel& energy,
         Slot horizon);

  [[nodiscard]] std::string_view name() const override { return "pdFTSP"; }
  [[nodiscard]] std::vector<Decision> on_slot(const SlotContext& ctx) override;

  /// Handles one task exactly as Alg. 1's loop body; exposed for the
  /// truthfulness/rationality experiments and unit tests. Mutates the dual
  /// state iff F(il) > 0.
  [[nodiscard]] Decision handle_task(const Task& task,
                                     const std::vector<VendorQuote>& quotes,
                                     const CapacityLedger& ledger);

  /// Best candidate (schedule, F(il)) across vendors *without* touching the
  /// dual state — Alg. 2's outer loop. The schedule is finalized; empty run
  /// means no feasible candidate. When a ledger is supplied, node-slots
  /// blocked by outages are excluded from the DP (the outage calendar is
  /// the provider's own knowledge; residual *capacity* is still never
  /// consulted — prices do that steering, per the paper).
  struct Candidate {
    Schedule schedule;
    double objective = 0.0;  // F(il)
    /// Index into the trace-candidate list of the winner (-1 when no
    /// feasible candidate, or when no list was collected).
    int trace_index = -1;
  };
  [[nodiscard]] Candidate select_schedule(
      const Task& task, const std::vector<VendorQuote>& quotes,
      const CapacityLedger* ledger = nullptr,
      std::vector<obs::CandidateTrace>* candidates = nullptr) const;

  [[nodiscard]] const DualState& duals() const noexcept { return duals_; }
  [[nodiscard]] const PdftspConfig& config() const noexcept { return config_; }

  /// Wires the schedule-DP price-cache counters, arena gauges, and the
  /// `<prefix>_simd_dispatch` kernel gauge into `registry` (forwards to
  /// ScheduleDp::register_metrics). Services call this during setup so
  /// everything shows up in /metrics.
  void register_metrics(obs::MetricsRegistry& registry,
                        std::string_view prefix = "lorasched_dp") const;
  [[nodiscard]] ScheduleDp::CacheStats dp_cache_stats() const noexcept {
    return dp_.cache_stats();
  }

  /// Re-points the pricing parameters; used by AdaptivePdftsp, whose
  /// estimates tighten as bids are observed. Values must be positive.
  void set_pricing(double alpha, double beta, double welfare_unit);

  /// Observation-only decision tracing (obs::Traceable): with a sink
  /// attached, every handle_task() emits one DecisionTraceRecord; decisions
  /// are bit-identical with and without a sink. nullptr detaches.
  void set_trace_sink(obs::DecisionTraceSink* sink) noexcept override {
    trace_ = sink;
  }

  /// CheckpointableState: [alpha, beta, welfare_unit, λ grid, φ grid] — the
  /// complete mutable state of Alg. 1 (the DP and cluster are config).
  [[nodiscard]] std::vector<double> checkpoint_state() const override;
  void restore_state(const std::vector<double>& state) override;

 private:
  void emit_trace(const Task& task, const Candidate& best,
                  std::vector<obs::CandidateTrace>&& candidates,
                  const std::vector<obs::DualCellSample>& cells,
                  double max_lambda, double max_phi, bool admitted,
                  bool capacity_reject) const;

  PdftspConfig config_;
  const Cluster& cluster_;  // must outlive the policy
  EnergyModel energy_;
  ScheduleDp dp_;
  DualState duals_;
  obs::DecisionTraceSink* trace_ = nullptr;
};

}  // namespace lorasched
