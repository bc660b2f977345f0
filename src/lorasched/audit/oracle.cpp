#include "lorasched/audit/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "lorasched/audit/audit.h"

namespace lorasched::audit {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::int16_t kSkip = -1;

/// The DP's work quantization, recomputed from its documented contract
/// (schedule_dp.h): unit = (min positive class rate) / granularity, total
/// units rounded up and clamped to max_units, per-node units rounded down.
struct Quantization {
  bool any_progress = false;  // some node can complete at least one unit
  double unit = 0.0;
  int total_units = 0;
  std::vector<int> node_units;  // per node
};

Quantization quantize(const Task& task, const Cluster& cluster,
                      const ScheduleDpConfig& config) {
  Quantization q;
  double min_rate = kInf;
  for (int c = 0; c < cluster.class_count(); ++c) {
    const double rate =
        cluster.task_rate(task, cluster.class_representative(c));
    if (rate > 0.0) min_rate = std::min(min_rate, rate);
  }
  if (!std::isfinite(min_rate)) return q;
  q.unit = min_rate / config.granularity;
  q.total_units = static_cast<int>(std::ceil(task.work / q.unit));
  if (q.total_units > config.max_units) {
    q.unit = task.work / static_cast<double>(config.max_units);
    q.total_units = config.max_units;
  }
  q.node_units.resize(static_cast<std::size_t>(cluster.node_count()), 0);
  for (NodeId k = 0; k < cluster.node_count(); ++k) {
    const int units =
        static_cast<int>(std::floor(cluster.task_rate(task, k) / q.unit));
    q.node_units[static_cast<std::size_t>(k)] = units;
    if (units > 0) q.any_progress = true;
  }
  return q;
}

struct Enumeration {
  Slot window = 0;
  int nodes = 0;
  int total_units = 0;
  /// usable[rel * nodes + k]: node k may run at slot start + rel.
  std::vector<char> usable;
  /// cost[rel * nodes + k]: dual-priced cost of that cell.
  std::vector<double> cost;
  const std::vector<int>* node_units = nullptr;
  double best = kInf;

  void dfs(Slot rel, int units_done, double cost_so_far) {
    if (rel == window) {
      if (units_done >= total_units) best = std::min(best, cost_so_far);
      return;
    }
    dfs(rel + 1, units_done, cost_so_far);  // leave the slot idle
    const std::size_t row =
        static_cast<std::size_t>(rel) * static_cast<std::size_t>(nodes);
    for (NodeId k = 0; k < nodes; ++k) {
      if (usable[row + static_cast<std::size_t>(k)] == 0) continue;
      const int gained = (*node_units)[static_cast<std::size_t>(k)];
      dfs(rel + 1, std::min(units_done + gained, total_units),
          cost_so_far + cost[row + static_cast<std::size_t>(k)]);
    }
  }
};

}  // namespace

std::optional<double> oracle_best_cost(
    const Task& task, Slot start, const DualState& duals,
    const Cluster& cluster, const EnergyModel& energy,
    const ScheduleDpConfig& config, const void* filter_ctx, SlotFilter filter,
    long long max_combinations, bool* skipped) {
  if (skipped != nullptr) *skipped = false;
  if (task.work <= 0.0 || start < 0 || start > task.deadline ||
      task.deadline >= duals.horizon()) {
    return std::nullopt;
  }
  const Quantization q = quantize(task, cluster, config);
  if (!q.any_progress) return std::nullopt;

  Enumeration e;
  e.window = task.deadline - start + 1;
  e.nodes = cluster.node_count();
  e.total_units = q.total_units;
  e.node_units = &q.node_units;
  const auto table = static_cast<std::size_t>(e.window) *
                     static_cast<std::size_t>(e.nodes);
  e.usable.assign(table, 0);
  e.cost.assign(table, kInf);

  long long combinations = 1;
  for (Slot rel = 0; rel < e.window; ++rel) {
    const Slot t = start + rel;
    long long options = 1;  // idle
    const std::size_t row =
        static_cast<std::size_t>(rel) * static_cast<std::size_t>(e.nodes);
    for (NodeId k = 0; k < e.nodes; ++k) {
      if (q.node_units[static_cast<std::size_t>(k)] == 0) continue;
      if (filter != nullptr && !filter(filter_ctx, k, t)) continue;
      const double s_norm =
          cluster.task_rate(task, k) / cluster.compute_capacity(k);
      const double r_norm = task.mem_gb / cluster.adapter_mem_capacity(k);
      e.usable[row + static_cast<std::size_t>(k)] = 1;
      e.cost[row + static_cast<std::size_t>(k)] =
          s_norm * duals.lambda(k, t) + r_norm * duals.phi(k, t) +
          energy.cost(task, cluster, k, t);
      ++options;
    }
    if (combinations > max_combinations / options) {
      if (skipped != nullptr) *skipped = true;
      return std::nullopt;
    }
    combinations *= options;
  }

  e.dfs(0, 0, 0.0);
  if (e.best == kInf) return std::nullopt;
  return e.best;
}

void check_dp_schedule(const Task& task, Slot start, const DualState& duals,
                       const Cluster& cluster, const EnergyModel& energy,
                       const ScheduleDpConfig& config, const void* filter_ctx,
                       SlotFilter filter, const Schedule& found) {
  Auditor& auditor = Auditor::instance();
  auditor.count_check();

  bool skipped = false;
  const std::optional<double> oracle = oracle_best_cost(
      task, start, duals, cluster, energy, config, filter_ctx, filter,
      auditor.config().oracle_max_combinations, &skipped);
  if (skipped) {
    auditor.count_oracle_skip();
    return;
  }

  if (!oracle.has_value()) {
    if (!found.empty()) {
      std::ostringstream why;
      why << "Alg.2: DP found a plan for task " << task.id
          << " but exhaustive enumeration finds the instance infeasible";
      auditor.fail(why.str());
    }
    return;
  }
  if (found.empty()) {
    std::ostringstream why;
    why << "Alg.2: DP declared task " << task.id
        << " infeasible but the oracle schedules it at cost " << *oracle;
    auditor.fail(why.str());
    return;
  }

  // The found plan must lie in the window, occupy one node per slot, and
  // complete the quantized work. (It is unfinalized here: only `run` is
  // set, so rates come straight from the task.)
  const Quantization q = quantize(task, cluster, config);
  Slot prev = -1;
  int units = 0;
  double found_cost = 0.0;
  for (const Assignment& a : found.run) {
    if (a.slot < start || a.slot > task.deadline || a.slot <= prev ||
        a.node < 0 || a.node >= cluster.node_count()) {
      std::ostringstream why;
      why << "Alg.2: DP plan for task " << task.id
          << " leaves the window or books two nodes in one slot";
      auditor.fail(why.str());
      return;
    }
    prev = a.slot;
    units += q.node_units[static_cast<std::size_t>(a.node)];
    const double s_norm =
        cluster.task_rate(task, a.node) / cluster.compute_capacity(a.node);
    const double r_norm = task.mem_gb / cluster.adapter_mem_capacity(a.node);
    found_cost += s_norm * duals.lambda(a.node, a.slot) +
                  r_norm * duals.phi(a.node, a.slot) +
                  energy.cost(task, cluster, a.node, a.slot);
  }
  if (units < q.total_units) {
    std::ostringstream why;
    why << "Alg.2: DP plan for task " << task.id << " completes only "
        << units << " of " << q.total_units << " work units";
    auditor.fail(why.str());
    return;
  }
  const double scale = std::max({1.0, std::abs(found_cost), std::abs(*oracle)});
  if (std::abs(found_cost - *oracle) > 1e-7 * scale) {
    std::ostringstream why;
    why << "Alg.2: DP plan for task " << task.id << " costs " << found_cost
        << " but the oracle achieves " << *oracle;
    auditor.fail(why.str());
  }
}

Schedule reference_find(const Task& task, Slot start, const DualState& duals,
                        const Cluster& cluster, const EnergyModel& energy,
                        const ScheduleDpConfig& config, const void* filter_ctx,
                        SlotFilter filter) {
  Schedule schedule;
  schedule.task = task.id;
  if (task.work <= 0.0) return schedule;  // nothing to run
  if (start > task.deadline || start < 0 ||
      task.deadline >= duals.horizon()) {
    return schedule;  // window empty or outside the horizon
  }

  const int classes = cluster.class_count();
  const Slot window = task.deadline - start + 1;

  // --- Work quantization --------------------------------------------------
  // Unit u = (min usable class rate) / granularity; rates rounded down.
  double min_rate = kInf;
  std::vector<double> class_rate(static_cast<std::size_t>(classes));
  for (int c = 0; c < classes; ++c) {
    const double rate =
        cluster.task_rate(task, cluster.class_representative(c));
    class_rate[static_cast<std::size_t>(c)] = rate;
    if (rate > 0.0) min_rate = std::min(min_rate, rate);
  }
  if (!std::isfinite(min_rate)) return schedule;
  double unit = min_rate / config.granularity;
  int total_units = static_cast<int>(std::ceil(task.work / unit));
  if (total_units > config.max_units) {
    unit = task.work / static_cast<double>(config.max_units);
    total_units = config.max_units;
  }
  std::vector<int> class_units(static_cast<std::size_t>(classes), 0);
  int max_class_units = 0;
  for (int c = 0; c < classes; ++c) {
    class_units[static_cast<std::size_t>(c)] = static_cast<int>(
        std::floor(class_rate[static_cast<std::size_t>(c)] / unit));
    max_class_units =
        std::max(max_class_units, class_units[static_cast<std::size_t>(c)]);
  }
  if (max_class_units == 0) return schedule;  // no class can make progress
  // Quick infeasibility check: even the fastest class over every slot of the
  // window cannot reach the target.
  if (static_cast<long long>(max_class_units) * window < total_units) {
    return schedule;
  }

  // --- Per-slot class representatives (Δ_kt precompute) --------------------
  // delta[t][c]: cost increment of running slot (start + t) on the best node
  // of class c; best_node[t][c]: that node. Infinity when the class has no
  // admissible node at that slot.
  const auto tw = static_cast<std::size_t>(window);
  const auto cw = static_cast<std::size_t>(classes);
  std::vector<double> delta(tw * cw, kInf);
  std::vector<NodeId> best_node(tw * cw, -1);
  for (Slot rel = 0; rel < window; ++rel) {
    const Slot t = start + rel;
    for (int c = 0; c < classes; ++c) {
      if (class_units[static_cast<std::size_t>(c)] == 0) continue;
      // Normalized per-slot loads are constant within the class (same
      // profile): s̃ = share, r̃ = r_i / adapter capacity.
      const NodeId rep = cluster.class_representative(c);
      const double s_norm = class_rate[static_cast<std::size_t>(c)] /
                            cluster.compute_capacity(rep);
      const double r_norm = task.mem_gb / cluster.adapter_mem_capacity(rep);
      double best = kInf;
      NodeId best_k = -1;
      for (NodeId k : cluster.class_nodes(c)) {
        if (filter != nullptr && !filter(filter_ctx, k, t)) continue;
        const double cost = s_norm * duals.lambda(k, t) +
                            r_norm * duals.phi(k, t) +
                            energy.cost(task, cluster, k, t);
        if (cost < best) {
          best = cost;
          best_k = k;
        }
      }
      delta[static_cast<std::size_t>(rel) * cw + static_cast<std::size_t>(c)] =
          best;
      best_node[static_cast<std::size_t>(rel) * cw +
                static_cast<std::size_t>(c)] = best_k;
    }
  }

  // --- DP over (slot, work units) ------------------------------------------
  const auto levels = static_cast<std::size_t>(total_units) + 1;
  std::vector<double> prev(levels, kInf);
  std::vector<double> cur(levels, kInf);
  prev[0] = 0.0;
  // choice[rel][w]: class run during slot rel to reach work level w, or kSkip.
  std::vector<std::int16_t> choice(tw * levels, kSkip);

  for (Slot rel = 0; rel < window; ++rel) {
    const std::size_t row = static_cast<std::size_t>(rel) * levels;
    for (std::size_t w = 0; w < levels; ++w) {
      double best = prev[w];
      std::int16_t best_choice = kSkip;
      for (int c = 0; c < classes; ++c) {
        const int units = class_units[static_cast<std::size_t>(c)];
        if (units == 0) continue;
        const double d = delta[static_cast<std::size_t>(rel) * cw +
                               static_cast<std::size_t>(c)];
        if (d == kInf) continue;
        const std::size_t w_from = w > static_cast<std::size_t>(units)
                                       ? w - static_cast<std::size_t>(units)
                                       : 0;
        if (prev[w_from] == kInf) continue;
        const double cand = prev[w_from] + d;
        if (cand < best) {
          best = cand;
          best_choice = static_cast<std::int16_t>(c);
        }
      }
      cur[w] = best;
      choice[row + w] = best_choice;
    }
    std::swap(prev, cur);
  }

  if (prev[levels - 1] == kInf) return schedule;  // infeasible

  // --- Backtrack -----------------------------------------------------------
  std::size_t w = levels - 1;
  for (Slot rel = window - 1; rel >= 0; --rel) {
    const std::int16_t c =
        choice[static_cast<std::size_t>(rel) * levels + w];
    if (c == kSkip) continue;
    const NodeId k = best_node[static_cast<std::size_t>(rel) * cw +
                               static_cast<std::size_t>(c)];
    schedule.run.push_back({k, start + rel});
    const auto units =
        static_cast<std::size_t>(class_units[static_cast<std::size_t>(c)]);
    w = w > units ? w - units : 0;
  }
  std::reverse(schedule.run.begin(), schedule.run.end());
  return schedule;
}

}  // namespace lorasched::audit
