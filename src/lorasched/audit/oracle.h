// Reference implementations of Algorithm 2 — the brute-force oracle behind
// invariant (c) of the audit catalogue (audit/audit.h), and the per-call DP
// that ScheduleDp's cached path must reproduce bit for bit.
//
// ScheduleDp solves problem (12) with a DP over (slot, completed-work)
// states plus a per-slot class-representative reduction. The oracle solves
// the *same quantized problem* by exhaustive enumeration over per-slot node
// choices — deliberately dumb, with no shared code beyond the public model
// API — so a disagreement convicts the DP (or the quantization contract),
// not the oracle. Enumeration is capped (AuditConfig::oracle_max_combinations);
// instances above the cap skip the check and bump Auditor::oracle_skipped().
#pragma once

#include <optional>

#include "lorasched/cluster/cluster.h"
#include "lorasched/cluster/energy.h"
#include "lorasched/core/duals.h"
#include "lorasched/core/schedule.h"
#include "lorasched/core/schedule_dp.h"
#include "lorasched/types.h"
#include "lorasched/workload/task.h"

namespace lorasched::audit {

/// Minimal achievable dual-priced cost (eq. 12's objective) for `task`
/// started at `start` under the DP's work quantization, found by exhaustive
/// enumeration. Returns nullopt when the instance is infeasible under the
/// quantization, or when enumeration would exceed `max_combinations`
/// (distinguish via `*skipped`).
[[nodiscard]] std::optional<double> oracle_best_cost(
    const Task& task, Slot start, const DualState& duals,
    const Cluster& cluster, const EnergyModel& energy,
    const ScheduleDpConfig& config, const void* filter_ctx, SlotFilter filter,
    long long max_combinations, bool* skipped);

/// Differential check: `found` is what ScheduleDp::find returned for the
/// same inputs. Verifies (i) feasibility agreement — the DP finds a plan
/// iff the oracle does; (ii) optimality — the found plan's cost matches the
/// oracle minimum; (iii) the found plan completes the quantized work within
/// its window. No-op (plus a skip count) above the enumeration cap.
void check_dp_schedule(const Task& task, Slot start, const DualState& duals,
                       const Cluster& cluster, const EnergyModel& energy,
                       const ScheduleDpConfig& config, const void* filter_ctx,
                       SlotFilter filter, const Schedule& found);

/// The per-call Alg. 2 DP: per-node dual lookups, per-node energy terms,
/// and freshly allocated tables on every call. Same contract and same
/// quantization as ScheduleDp::find (an unfinalized schedule, empty run
/// when infeasible); the differential tests require both to return the
/// same plan bit for bit. Slow by design: the tests and bench/micro_core's
/// find-legacy arm are its only callers.
[[nodiscard]] Schedule reference_find(const Task& task, Slot start,
                                      const DualState& duals,
                                      const Cluster& cluster,
                                      const EnergyModel& energy,
                                      const ScheduleDpConfig& config,
                                      const void* filter_ctx = nullptr,
                                      SlotFilter filter = nullptr);

}  // namespace lorasched::audit
