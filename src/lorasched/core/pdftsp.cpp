#include "lorasched/core/pdftsp.h"

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "lorasched/core/pricing.h"
#include "lorasched/obs/span.h"

#ifdef LORASCHED_AUDIT
#include "lorasched/audit/invariants.h"
#endif

namespace lorasched {

Pdftsp::Pdftsp(PdftspConfig config, const Cluster& cluster,
               const EnergyModel& energy, Slot horizon)
    : config_(config),
      cluster_(cluster),
      energy_(energy),
      dp_(cluster, energy, config.dp),
      duals_(cluster.node_count(), horizon) {
  if (config_.alpha <= 0.0 || config_.beta <= 0.0 ||
      config_.welfare_unit <= 0.0) {
    throw std::invalid_argument(
        "pdFTSP needs positive alpha, beta, and welfare_unit");
  }
}

void Pdftsp::register_metrics(obs::MetricsRegistry& registry,
                              std::string_view prefix) const {
  dp_.register_metrics(registry, prefix);
}

void Pdftsp::set_pricing(double alpha, double beta, double welfare_unit) {
  if (alpha <= 0.0 || beta <= 0.0 || welfare_unit <= 0.0) {
    throw std::invalid_argument("pricing parameters must be positive");
  }
  config_.alpha = alpha;
  config_.beta = beta;
  config_.welfare_unit = welfare_unit;
}

std::vector<double> Pdftsp::checkpoint_state() const {
  std::vector<double> state;
  const auto& lambda = duals_.lambda_values();
  const auto& phi = duals_.phi_values();
  state.reserve(3 + lambda.size() + phi.size());
  state.push_back(config_.alpha);
  state.push_back(config_.beta);
  state.push_back(config_.welfare_unit);
  state.insert(state.end(), lambda.begin(), lambda.end());
  state.insert(state.end(), phi.begin(), phi.end());
  return state;
}

void Pdftsp::restore_state(const std::vector<double>& state) {
  const auto cells = duals_.lambda_values().size();
  if (state.size() != 3 + 2 * cells) {
    throw std::invalid_argument("pdFTSP state dump has wrong size");
  }
  set_pricing(state[0], state[1], state[2]);
  duals_.load(std::vector<double>(state.begin() + 3, state.begin() + 3 + cells),
              std::vector<double>(state.begin() + 3 + cells, state.end()));
}

namespace {
bool not_blocked(const void* ctx, NodeId k, Slot t) {
  return !static_cast<const CapacityLedger*>(ctx)->is_blocked(k, t);
}
}  // namespace

Pdftsp::Candidate Pdftsp::select_schedule(
    const Task& task, const std::vector<VendorQuote>& quotes,
    const CapacityLedger* ledger,
    std::vector<obs::CandidateTrace>* candidates) const {
  Candidate best;
  best.objective = -std::numeric_limits<double>::infinity();
  // Install the outage filter only when some cell is actually blocked: a
  // filter over a block-free ledger excludes nothing, so the unfiltered DP
  // (which takes the SIMD argmin-sweep fast path) is value- and
  // tie-identical to the filtered one.
  const SlotFilter filter =
      ledger != nullptr && ledger->has_blocks() ? &not_blocked : nullptr;

  // Runs Alg. 2 for one (vendor, delay, share) candidate and folds it into
  // the best-of. The trace gets an entry per candidate, feasible or not —
  // it shows every vendor's DP outcome, not just the winner's.
  auto evaluate = [&](VendorId vendor, Money vendor_price, Slot delay,
                      double share) {
    Task effective = task;
    if (share > 0.0) effective.compute_share = share;
    Schedule schedule =
        dp_.find(effective, task.arrival + delay, duals_, ledger, filter);
    obs::CandidateTrace* traced = nullptr;
    if (candidates != nullptr) {
      traced = &candidates->emplace_back();
      traced->vendor = vendor;
      traced->vendor_price = vendor_price;
      traced->prep_delay = delay;
      traced->share = share;
      traced->feasible = !schedule.empty();
    }
    if (schedule.empty()) return;
    schedule.vendor = vendor;
    schedule.vendor_price = vendor_price;
    schedule.prep_delay = delay;
    schedule.share_override = share;
    finalize_schedule(schedule, task, cluster_, energy_);
    const double objective = objective_value(schedule, duals_);
    if (traced != nullptr) {
      traced->objective = objective;
      traced->energy_cost = schedule.energy_cost;
      traced->welfare_gain = schedule.welfare_gain;
      traced->norm_compute = schedule.norm_compute;
      traced->norm_mem = schedule.norm_mem;
      traced->start = schedule.run.front().slot;
      traced->completion = schedule.completion_slot();
      traced->slots = static_cast<std::int32_t>(schedule.run.size());
    }
    if (objective > best.objective) {
      best.schedule = std::move(schedule);
      best.objective = objective;
      if (candidates != nullptr) {
        best.trace_index = static_cast<int>(candidates->size()) - 1;
      }
    }
  };
  // Canonical candidate order: per vendor, the task's own share (0) first,
  // then each distinct share option. The order is load-bearing — the
  // strict-> best-of keeps the *earliest* maximizer, and traces index into
  // this sequence.
  auto evaluate_vendor = [&](VendorId vendor, Money vendor_price, Slot delay) {
    evaluate(vendor, vendor_price, delay, 0.0);
    for (double share : config_.share_options) {
      if (share > 0.0 && share != task.compute_share) {
        evaluate(vendor, vendor_price, delay, share);
      }
    }
  };
  if (task.needs_prep) {
    // Constraint (4a): exactly one vendor must be chosen when f_i = 1.
    for (std::size_t n = 0; n < quotes.size(); ++n) {
      evaluate_vendor(static_cast<VendorId>(n), quotes[n].price,
                      quotes[n].delay);
    }
  } else {
    evaluate_vendor(kNoVendor, 0.0, 0);
  }
  if (best.schedule.empty()) best.objective = 0.0;
  return best;
}

void Pdftsp::emit_trace(const Task& task, const Candidate& best,
                        std::vector<obs::CandidateTrace>&& candidates,
                        const std::vector<obs::DualCellSample>& cells,
                        double max_lambda, double max_phi, bool admitted,
                        bool capacity_reject) const {
  obs::DecisionTraceRecord record;
  record.task = task.id;
  record.arrival = task.arrival;
  record.bid = task.bid;
  record.needs_prep = task.needs_prep;
  record.candidates = std::move(candidates);
  record.chosen = best.trace_index;
  record.objective = best.schedule.empty() ? 0.0 : best.objective;
  record.admitted = admitted;
  record.capacity_reject = capacity_reject;
  record.duals = cells;
  if (!best.schedule.empty()) {
    record.payment.vendor = best.schedule.vendor_price;
    record.payment.energy = best.schedule.energy_cost;
    record.payment.compute = max_lambda * best.schedule.norm_compute;
    record.payment.memory = max_phi * best.schedule.norm_mem;
    record.payment.total =
        payment_from_prices(best.schedule, max_lambda, max_phi);
    record.payment.charged = admitted ? record.payment.total : 0.0;
    record.payment.max_lambda = max_lambda;
    record.payment.max_phi = max_phi;
  }
  trace_->on_decision(record);
}

Decision Pdftsp::handle_task(const Task& task,
                             const std::vector<VendorQuote>& quotes,
                             const CapacityLedger& ledger) {
  LORASCHED_SPAN("pdftsp/decide");
  const bool tracing = trace_ != nullptr;
  std::vector<obs::CandidateTrace> cand_trace;
  const Candidate best =
      select_schedule(task, quotes, &ledger, tracing ? &cand_trace : nullptr);
  Decision decision;
  decision.task = task.id;

  if (best.schedule.empty() || best.objective <= 0.0) {
    if (tracing) {
      // The trace's payment decomposition for an F(il) <= 0 reject is the
      // would-be eq. (14) charge of the best candidate (nothing charged).
      const double max_l =
          best.schedule.empty() ? 0.0 : duals_.max_lambda(best.schedule);
      const double max_p =
          best.schedule.empty() ? 0.0 : duals_.max_phi(best.schedule);
      emit_trace(task, best, std::move(cand_trace), {}, max_l, max_p,
                 /*admitted=*/false, /*capacity_reject=*/false);
    }
#ifdef LORASCHED_AUDIT
    // Invariant (e): F(il) <= 0 rejects leave the duals untouched, so the
    // live grids are the pre-update prices the sign test used.
    audit::check_decision(
        audit::DecisionAudit{.task = task,
                             .schedule = best.schedule,
                             .objective =
                                 best.schedule.empty() ? 0.0 : best.objective,
                             .payment = 0.0,
                             .admitted = false,
                             .capacity_reject = false,
                             .pre_lambda = duals_.lambda_values(),
                             .pre_phi = duals_.phi_values(),
                             .ledger = ledger},
        cluster_);
#endif
    return decision;  // Alg. 1 line 13: reject, duals untouched.
  }

  // Payment must use the pre-update duals (eq. 14). payment_from_prices
  // with the explicit maxima is exactly payment(schedule, duals_), spelled
  // out so the trace can reuse the same pre-update prices.
  const double max_lambda = duals_.max_lambda(best.schedule);
  const double max_phi = duals_.max_phi(best.schedule);
  const Money price = payment_from_prices(best.schedule, max_lambda, max_phi);

  // Sample the pre-update duals on the chosen schedule's cells while they
  // are still the prices eq. (14) charged (observation only).
  std::vector<obs::DualCellSample> cells;
  if (tracing) {
    cells.reserve(best.schedule.run.size());
    for (const Assignment& a : best.schedule.run) {
      cells.push_back(obs::DualCellSample{a.node, a.slot,
                                          duals_.lambda(a.node, a.slot),
                                          duals_.phi(a.node, a.slot)});
    }
  }

#ifdef LORASCHED_AUDIT
  // Invariants (d)/(e) need the pre-update prices after the duals move on.
  const std::vector<double> audit_pre_lambda = duals_.lambda_values();
  const std::vector<double> audit_pre_phi = duals_.phi_values();
#endif

  // Alg. 1 line 7: F(il) > 0 — update the duals even if the capacity check
  // below rejects the task (the competitive analysis depends on this).
  duals_.apply_update(task, best.schedule, cluster_, config_.alpha,
                      config_.beta, config_.welfare_unit);

  // Alg. 1 line 8: enough ground-truth resources on every booked node-slot?
  for (const Assignment& a : best.schedule.run) {
    const double s = schedule_rate(best.schedule, task, cluster_, a.node);
    if (!ledger.fits(a.node, a.slot, s, task.mem_gb)) {
      if (tracing) {
        emit_trace(task, best, std::move(cand_trace), cells, max_lambda,
                   max_phi, /*admitted=*/false, /*capacity_reject=*/true);
      }
#ifdef LORASCHED_AUDIT
      audit::check_decision(
          audit::DecisionAudit{.task = task,
                               .schedule = best.schedule,
                               .objective = best.objective,
                               .payment = 0.0,
                               .admitted = false,
                               .capacity_reject = true,
                               .pre_lambda = audit_pre_lambda,
                               .pre_phi = audit_pre_phi,
                               .ledger = ledger},
          cluster_);
#endif
      return decision;  // line 12: reject.
    }
  }

  decision.admit = true;
  decision.schedule = best.schedule;
  decision.payment = price;
  if (tracing) {
    emit_trace(task, best, std::move(cand_trace), cells, max_lambda, max_phi,
               /*admitted=*/true, /*capacity_reject=*/false);
  }
#ifdef LORASCHED_AUDIT
  audit::check_decision(
      audit::DecisionAudit{.task = task,
                           .schedule = best.schedule,
                           .objective = best.objective,
                           .payment = price,
                           .admitted = true,
                           .capacity_reject = false,
                           .pre_lambda = audit_pre_lambda,
                           .pre_phi = audit_pre_phi,
                           .ledger = ledger},
      cluster_);
#endif
  return decision;
}

std::vector<Decision> Pdftsp::on_slot(const SlotContext& ctx) {
  // Tasks within a slot are processed in arrival (id) order; each admitted
  // decision is booked immediately so that Alg. 1's line-8 capacity check
  // is exact for the next task in the batch.
  std::vector<Decision> decisions;
  decisions.reserve(ctx.arrivals.size());
  for (const Task& task : ctx.arrivals) {
    Decision d = handle_task(task, ctx.market.quotes(task), ctx.ledger);
    commit_decision(ctx.ledger, cluster_, task, d);
    decisions.push_back(std::move(d));
  }
  return decisions;
}

}  // namespace lorasched
