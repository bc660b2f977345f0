#include "lorasched/workload/deadlines.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lorasched {

std::string to_string(DeadlineKind kind) {
  switch (kind) {
    case DeadlineKind::kTight: return "tight";
    case DeadlineKind::kMedium: return "medium";
    case DeadlineKind::kSlack: return "slack";
  }
  throw std::logic_error("unknown DeadlineKind");
}

double DeadlineModel::slack_factor() const noexcept {
  switch (kind) {
    case DeadlineKind::kTight: return 1.3;
    case DeadlineKind::kMedium: return 2.5;
    case DeadlineKind::kSlack: return 5.0;
  }
  return 2.5;
}

Slot DeadlineModel::min_runtime_slots(const Task& task, const Cluster& cluster) {
  double best_rate = 0.0;
  for (NodeId k = 0; k < cluster.node_count(); ++k) {
    best_rate = std::max(best_rate, cluster.task_rate(task, k));
  }
  if (best_rate <= 0.0) throw std::invalid_argument("task has zero rate");
  return static_cast<Slot>(std::ceil(task.work / best_rate));
}

Slot DeadlineModel::draw(const Task& task, const Cluster& cluster, Slot horizon,
                         util::Rng& rng) const {
  const Slot base = min_runtime_slots(task, cluster);
  const double factor = slack_factor() * rng.uniform(0.85, 1.15);
  Slot span = static_cast<Slot>(std::ceil(static_cast<double>(base) * factor));
  if (task.needs_prep) span += prep_allowance;
  Slot deadline = task.arrival + std::max<Slot>(1, span);
  // Not std::clamp: for a last-slot arrival lo = horizon > hi = horizon - 1,
  // which std::clamp leaves undefined. This is libstdc++'s clamp body, so
  // every other draw is unchanged, and a last-slot arrival gets
  // deadline == horizon - 1 (== its arrival).
  return std::min<Slot>(std::max<Slot>(deadline, task.arrival + 1),
                        horizon - 1);
}

}  // namespace lorasched
