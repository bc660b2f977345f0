#include "lorasched/sim/validator.h"

#include <sstream>
#include <stdexcept>

namespace lorasched {
namespace {

/// Formats a diagnostic. Only failing branches call it, so a valid schedule
/// builds no stream.
template <typename... Parts>
std::string describe(const Parts&... parts) {
  std::ostringstream why;
  (why << ... << parts);
  return why.str();
}

}  // namespace

std::string validate_schedule(const Task& task, const Schedule& schedule,
                              const Cluster& cluster, Slot horizon) {
  if (schedule.task != task.id) {
    return describe("schedule belongs to task ", schedule.task, ", not ",
                    task.id);
  }
  // (4a): a vendor must be chosen iff the task needs pre-processing.
  if (task.needs_prep && schedule.vendor == kNoVendor) {
    return "task needs pre-processing but no vendor selected (4a)";
  }
  if (!task.needs_prep && schedule.vendor != kNoVendor) {
    return "vendor selected for a task without pre-processing (4a)";
  }
  const Slot start = task.arrival + schedule.prep_delay;
  Slot prev = -1;
  double done = 0.0;
  for (const Assignment& a : schedule.run) {
    if (a.node < 0 || a.node >= cluster.node_count()) {
      return "assignment on unknown node";
    }
    if (a.slot < start) {
      return describe("slot ", a.slot, " before earliest start ", start,
                      " (4c)");
    }
    if (a.slot > task.deadline) {
      return describe("slot ", a.slot, " after deadline ", task.deadline,
                      " (4d)");
    }
    if (a.slot >= horizon) {
      return describe("slot ", a.slot, " beyond horizon ", horizon);
    }
    if (a.slot <= prev) {
      return "more than one node in a single slot (4b)";
    }
    prev = a.slot;
    done += schedule_rate(schedule, task, cluster, a.node);
  }
  // (4e): cumulative computation covers M_i.
  if (done + 1e-9 < task.work) {
    return describe("work shortfall: scheduled ", done, " of ", task.work,
                    " samples (4e)");
  }
  return {};
}

void require_valid_schedule(const Task& task, const Schedule& schedule,
                            const Cluster& cluster, Slot horizon) {
  const std::string why = validate_schedule(task, schedule, cluster, horizon);
  if (!why.empty()) throw std::logic_error("invalid schedule: " + why);
}

}  // namespace lorasched
