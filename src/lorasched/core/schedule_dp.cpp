#include "lorasched/core/schedule_dp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "lorasched/obs/registry.h"
#include "lorasched/obs/span.h"

#ifdef LORASCHED_AUDIT
#include "lorasched/audit/oracle.h"
#endif

namespace lorasched {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::int16_t kSkip = -1;

std::uint64_t next_dp_uid() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace

// --- DpScratch ---------------------------------------------------------------

std::size_t DpScratch::bytes_reserved() const noexcept {
  std::size_t bytes = (prev_.capacity() + cur_.capacity() +
                       delta_.capacity()) *
                          sizeof(double) +
                      choice_.capacity() * sizeof(std::int16_t) +
                      row_active_.capacity() * sizeof(std::size_t) +
                      argpos_.capacity() * sizeof(std::int32_t) +
                      best_node_.capacity() * sizeof(NodeId) +
                      live_.capacity() * sizeof(LiveClass) +
                      live_start_.capacity() * sizeof(std::size_t) +
                      memo_.capacity() * sizeof(Quant);
  for (const Quant& q : memo_) {
    bytes += (q.class_rate.capacity() + q.class_s_norm.capacity()) *
                 sizeof(double) +
             q.class_units.capacity() * sizeof(int);
  }
  return bytes;
}

const DpScratch::Quant& DpScratch::quantize(std::uint64_t owner,
                                            const Task& task,
                                            const Cluster& cluster,
                                            const ScheduleDpConfig& config) {
  // The memo is valid for one (ScheduleDp instance, task work); entries are
  // keyed by compute share — every vendor/delay candidate of a bid at the
  // same share reuses one entry. Slots are recycled (memo_used_ marks the
  // live prefix) so steady-state bids allocate nothing here.
  if (owner != memo_owner_ || task.work != memo_work_) {
    memo_used_ = 0;
    memo_owner_ = owner;
    memo_work_ = task.work;
  }
  for (std::size_t i = 0; i < memo_used_; ++i) {
    if (memo_[i].share == task.compute_share) return memo_[i];
  }
  if (memo_used_ == memo_.size()) memo_.emplace_back();
  Quant& q = memo_[memo_used_++];
  q.share = task.compute_share;
  q.usable = false;
  q.unit = 0.0;
  q.total_units = 0;
  q.max_class_units = 0;

  const int classes = cluster.class_count();
  const auto cw = static_cast<std::size_t>(classes);
  q.class_rate.assign(cw, 0.0);
  q.class_s_norm.assign(cw, 0.0);
  q.class_units.assign(cw, 0);

  // Bit-identical to audit::reference_find's per-call quantization: unit
  // u = (min usable class rate) / granularity, rates rounded down, table
  // capped at max_units.
  double min_rate = kInf;
  for (int c = 0; c < classes; ++c) {
    const NodeId rep = cluster.class_representative(c);
    const double rate = cluster.task_rate(task, rep);
    q.class_rate[static_cast<std::size_t>(c)] = rate;
    q.class_s_norm[static_cast<std::size_t>(c)] =
        rate / cluster.compute_capacity(rep);
    if (rate > 0.0) min_rate = std::min(min_rate, rate);
  }
  if (!std::isfinite(min_rate)) return q;
  double unit = min_rate / config.granularity;
  int total_units = static_cast<int>(std::ceil(task.work / unit));
  if (total_units > config.max_units) {
    unit = task.work / static_cast<double>(config.max_units);
    total_units = config.max_units;
  }
  for (int c = 0; c < classes; ++c) {
    q.class_units[static_cast<std::size_t>(c)] = static_cast<int>(
        std::floor(q.class_rate[static_cast<std::size_t>(c)] / unit));
    q.max_class_units =
        std::max(q.max_class_units, q.class_units[static_cast<std::size_t>(c)]);
  }
  q.unit = unit;
  q.total_units = total_units;
  q.usable = q.max_class_units > 0;
  return q;
}

// --- ScheduleDp --------------------------------------------------------------

ScheduleDp::ScheduleDp(const Cluster& cluster, const EnergyModel& energy,
                       ScheduleDpConfig config)
    : cluster_(cluster),
      energy_(energy),
      config_(config),
      uid_(next_dp_uid()),
      kernel_(config.simd ? simd::active_kernel() : simd::Kernel::kScalar) {
  if (config_.granularity < 1.0) {
    throw std::invalid_argument("granularity must be >= 1");
  }
  if (config_.max_units < 1) {
    throw std::invalid_argument("max_units must be >= 1");
  }
}

std::size_t ScheduleDp::PriceSnapshot::bytes() const noexcept {
  return (lambda.capacity() + phi.capacity() + node_cost.capacity()) *
             sizeof(double) +
         node_of.capacity() * sizeof(NodeId) +
         (base.capacity() + size.capacity() + node_pos.capacity() +
          node_stride.capacity()) *
             sizeof(std::size_t) +
         sizeof(PriceSnapshot);
}

Schedule ScheduleDp::find(const Task& task, Slot start, const DualState& duals,
                          const void* filter_ctx, SlotFilter filter) const {
  thread_local DpScratch scratch;
  return find(task, start, duals, scratch, filter_ctx, filter);
}

Schedule ScheduleDp::find(const Task& task, Slot start, const DualState& duals,
                          DpScratch& scratch, const void* filter_ctx,
                          SlotFilter filter) const {
  Schedule schedule;
  find_into(schedule, task, start, duals, scratch, filter_ctx, filter);
  return schedule;
}

void ScheduleDp::find_into(Schedule& result, const Task& task, Slot start,
                           const DualState& duals, DpScratch& scratch,
                           const void* filter_ctx, SlotFilter filter) const {
  if (duals.node_count() != cluster_.node_count()) {
    throw std::invalid_argument(
        "ScheduleDp::find: dual state has " +
        std::to_string(duals.node_count()) + " nodes, the cluster has " +
        std::to_string(cluster_.node_count()));
  }
  result.run.clear();  // keeps capacity — the steady state reuses it
  result.task = task.id;
  result.vendor = kNoVendor;
  result.vendor_price = 0.0;
  result.prep_delay = 0;
  result.total_compute = 0.0;
  result.total_mem = 0.0;
  result.norm_compute = 0.0;
  result.norm_mem = 0.0;
  result.energy_cost = 0.0;
  result.welfare_gain = 0.0;
  result.exclusive = false;
  result.share_override = 0.0;
  find_cached(result, task, start, duals, scratch, filter_ctx, filter);
  if (auto* gauge = scratch_gauge_.load(std::memory_order_relaxed)) {
    gauge->set_max(static_cast<double>(scratch.bytes_reserved()));
  }
  audit_result(task, start, duals, filter_ctx, filter, result);
}

void ScheduleDp::audit_result(const Task& task, Slot start,
                              const DualState& duals, const void* filter_ctx,
                              SlotFilter filter,
                              const Schedule& schedule) const {
#ifdef LORASCHED_AUDIT
  // Invariant (c): on instances small enough to enumerate, the DP result
  // must match the brute-force oracle (feasibility and optimal cost).
  audit::check_dp_schedule(task, start, duals, cluster_, energy_, config_,
                           filter_ctx, filter, schedule);
#else
  (void)task;
  (void)start;
  (void)duals;
  (void)filter_ctx;
  (void)filter;
  (void)schedule;
#endif
}

ScheduleDp::CacheStats ScheduleDp::cache_stats() const noexcept {
  return CacheStats{cache_hits_.load(std::memory_order_relaxed),
                    cache_misses_.load(std::memory_order_relaxed)};
}

void ScheduleDp::register_metrics(obs::MetricsRegistry& registry,
                                  std::string_view prefix) const {
  const std::string p(prefix);
  hits_counter_.store(
      &registry.counter(p + "_price_cache_hits_total",
                        "Schedule-DP calls served by the current dual-price "
                        "snapshot (prices unchanged since the last rebuild)"),
      std::memory_order_relaxed);
  misses_counter_.store(
      &registry.counter(p + "_price_cache_misses_total",
                        "Price-epoch movements (an admission updated eq. 7/8 "
                        "or first use): the snapshot is patched in place via "
                        "the dual-state dirty-cell journal, or rebuilt"),
      std::memory_order_relaxed);
  scratch_gauge_.store(
      &registry.gauge(p + "_scratch_bytes",
                      "High-water DP scratch-arena footprint in bytes"),
      std::memory_order_relaxed);
  snapshot_gauge_.store(
      &registry.gauge(p + "_snapshot_bytes",
                      "High-water dual-price snapshot footprint in bytes"),
      std::memory_order_relaxed);
  // Which min-plus kernel this instance actually dispatches to, so the
  // federation/soak planes can see the production arm (0=scalar, 1=avx2,
  // 2=neon — the simd::Kernel wire values).
  registry
      .gauge(p + "_simd_dispatch",
             "Active Alg. 2 min-plus row kernel (0=scalar, 1=avx2, 2=neon)")
      .set(static_cast<double>(kernel_));
}

std::shared_ptr<const ScheduleDp::PriceSnapshot> ScheduleDp::snapshot_for(
    const DualState& duals) const {
  util::MutexLock lock(cache_mutex_);
  if (cache_ != nullptr && cache_->uid == duals.uid() &&
      cache_->epoch == duals.epoch()) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    if (auto* counter = hits_counter_.load(std::memory_order_relaxed)) {
      counter->add();
    }
    return cache_;
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  if (auto* counter = misses_counter_.load(std::memory_order_relaxed)) {
    counter->add();
  }

  // Incremental path: same DualState, the journal covers every mutation
  // since our epoch, and no concurrent find() still holds the snapshot
  // (use_count == 1 under the mutex) — patch the dirty cells in place.
  // An admission (eq. 7/8) touches only its schedule's run, so this turns
  // the post-admission rebuild from O(nodes × horizon) into O(|run|).
  if (cache_ != nullptr && cache_->uid == duals.uid() &&
      cache_.use_count() == 1) {
    dirty_.clear();
    if (duals.dirty_cells_since(cache_->epoch, dirty_)) {
      auto* snap = const_cast<PriceSnapshot*>(cache_.get());
      const auto hz = static_cast<std::size_t>(snap->horizon);
      for (const std::uint32_t cell : dirty_) {
        const auto k = static_cast<NodeId>(cell / hz);
        const auto t = static_cast<Slot>(cell % hz);
        const std::size_t idx =
            snap->node_pos[static_cast<std::size_t>(k)] +
            static_cast<std::size_t>(t) *
                snap->node_stride[static_cast<std::size_t>(k)];
        snap->lambda[idx] = duals.lambda(k, t);
        snap->phi[idx] = duals.phi(k, t);
      }
      snap->epoch = duals.epoch();
      return cache_;
    }
  }

  auto snap = std::make_shared<PriceSnapshot>();
  snap->uid = duals.uid();
  snap->epoch = duals.epoch();
  snap->horizon = duals.horizon();
  const int classes = cluster_.class_count();
  const auto hz = static_cast<std::size_t>(snap->horizon);
  snap->base.resize(static_cast<std::size_t>(classes));
  snap->size.resize(static_cast<std::size_t>(classes));
  std::size_t total = 0;
  for (int c = 0; c < classes; ++c) {
    const auto& members = cluster_.class_nodes(c);
    snap->base[static_cast<std::size_t>(c)] = total;
    snap->size[static_cast<std::size_t>(c)] = members.size();
    total += members.size() * hz;
  }
  snap->lambda.resize(total);
  snap->phi.resize(total);
  snap->node_of.resize(total);
  snap->node_pos.resize(static_cast<std::size_t>(cluster_.node_count()));
  snap->node_stride.resize(static_cast<std::size_t>(cluster_.node_count()));
  for (int c = 0; c < classes; ++c) {
    const auto& members = cluster_.class_nodes(c);
    const std::size_t sz = members.size();
    const std::size_t base = snap->base[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < sz; ++i) {
      const NodeId k = members[i];
      snap->node_pos[static_cast<std::size_t>(k)] = base + i;
      snap->node_stride[static_cast<std::size_t>(k)] = sz;
      for (std::size_t t = 0; t < hz; ++t) {
        const std::size_t idx = base + t * sz + i;
        snap->lambda[idx] = duals.lambda(k, static_cast<Slot>(t));
        snap->phi[idx] = duals.phi(k, static_cast<Slot>(t));
        snap->node_of[idx] = k;
      }
    }
  }
  // e_ikt factors as full_node_cost(k, t) * (s_ik / C_kp); the full-node
  // cost is task-independent and identical within a class, so one row per
  // class replaces the per-node trigonometry of the reference Δ loop.
  snap->node_cost.resize(static_cast<std::size_t>(classes) * hz);
  for (int c = 0; c < classes; ++c) {
    const NodeId rep = cluster_.class_representative(c);
    for (std::size_t t = 0; t < hz; ++t) {
      snap->node_cost[static_cast<std::size_t>(c) * hz + t] =
          energy_.full_node_cost(cluster_, rep, static_cast<Slot>(t));
    }
  }

  cache_ = std::move(snap);
  if (auto* gauge = snapshot_gauge_.load(std::memory_order_relaxed)) {
    gauge->set_max(static_cast<double>(cache_->bytes()));
  }
  return cache_;
}

void ScheduleDp::find_cached(Schedule& result, const Task& task, Slot start,
                             const DualState& duals, DpScratch& scratch,
                             const void* filter_ctx, SlotFilter filter) const {
  LORASCHED_SPAN("dp/find");
  if (task.work <= 0.0) return;  // nothing to run
  if (start > task.deadline || start < 0 ||
      task.deadline >= duals.horizon()) {
    return;  // window empty or outside the horizon
  }

  const int classes = cluster_.class_count();
  const Slot window = task.deadline - start + 1;

  // --- Work quantization (memoized per bid, satellite of DESIGN.md §5) ----
  const DpScratch::Quant& q = scratch.quantize(uid_, task, cluster_, config_);
  if (!q.usable) return;  // no class can make progress
  // Quick infeasibility check: even the fastest class over every slot of
  // the window cannot reach the target.
  if (static_cast<long long>(q.max_class_units) * window < q.total_units) {
    return;
  }

  const auto snap = snapshot_for(duals);
  const auto hz = static_cast<std::size_t>(snap->horizon);

  // --- Per-slot class representatives (Δ_kt over the snapshot) ------------
  // Finite-Δ classes are compacted into per-slot LiveClass rows as they are
  // found; classes the filter kills (or with zero units) never reach the
  // DP's inner loop, and slots with no usable class skip their row
  // entirely.
  const auto tw = static_cast<std::size_t>(window);
  const auto cw = static_cast<std::size_t>(classes);
  scratch.best_node_.resize(tw * cw);  // stale entries are never read
  scratch.delta_.resize(cw * tw);      // dead-class cells are never read
  scratch.argpos_.resize(tw);
  // Class-outer sweep: the per-class invariants (representative, s̃, the
  // r̃ division) hoist out of the slot loop, and each class's snapshot rows
  // stream contiguously through the argmin kernel. Values are bit-identical
  // to the old slot-outer order — the same expressions over the same
  // operands, evaluation order only changes *across* independent (slot,
  // class) cells.
  for (int c = 0; c < classes; ++c) {
    const int units = q.class_units[static_cast<std::size_t>(c)];
    if (units == 0) continue;
    const NodeId rep = cluster_.class_representative(c);
    // Normalized per-slot loads are constant within the class (same
    // profile): s̃ = share, r̃ = r_i / adapter capacity.
    const double s_norm = q.class_s_norm[static_cast<std::size_t>(c)];
    const double r_norm = task.mem_gb / cluster_.adapter_mem_capacity(rep);
    const std::size_t sz = snap->size[static_cast<std::size_t>(c)];
    const double* node_cost =
        snap->node_cost.data() + static_cast<std::size_t>(c) * hz;
    const std::size_t row0 = snap->base[static_cast<std::size_t>(c)] +
                             static_cast<std::size_t>(start) * sz;
    double* delta_row =
        scratch.delta_.data() + static_cast<std::size_t>(c) * tw;
    if (filter == nullptr) {
      // Kernel-dispatched first-strict-minimum sweep over the whole window
      // (simd/minplus.h): consecutive slots of a class are contiguous rows
      // of the snapshot (stride sz), and the slot constant is the same
      // node_cost[t] * s̃ expression as the filtered branch — so every
      // (value, index) is bit- and tie-identical to the plain loop below.
      simd::cost_argmin_sweep(
          kernel_, snap->lambda.data() + row0, snap->phi.data() + row0, sz,
          tw, sz, s_norm, r_norm,
          node_cost + static_cast<std::size_t>(start), delta_row,
          scratch.argpos_.data());
      for (Slot rel = 0; rel < window; ++rel) {
        const auto pos = static_cast<std::size_t>(
            scratch.argpos_[static_cast<std::size_t>(rel)]);
        const NodeId* ids =
            snap->node_of.data() + row0 + static_cast<std::size_t>(rel) * sz;
        scratch.best_node_[static_cast<std::size_t>(rel) * cw +
                           static_cast<std::size_t>(c)] =
            pos < sz ? ids[pos] : -1;
      }
    } else {
      for (Slot rel = 0; rel < window; ++rel) {
        const Slot t = start + rel;
        // Bit-identical to energy_.cost(task, cluster_, k, t) for every
        // node k of the class: full_node_cost and the throughput share come
        // from the same expressions, and the class shares one profile.
        const double e_ct = node_cost[static_cast<std::size_t>(t)] * s_norm;
        const std::size_t row = row0 + static_cast<std::size_t>(rel) * sz;
        const double* lam = snap->lambda.data() + row;
        const double* phi = snap->phi.data() + row;
        const NodeId* ids = snap->node_of.data() + row;
        double best = kInf;
        NodeId best_k = -1;
        for (std::size_t i = 0; i < sz; ++i) {
          if (!filter(filter_ctx, ids[i], t)) continue;
          const double cost = s_norm * lam[i] + r_norm * phi[i] + e_ct;
          if (cost < best) {
            best = cost;
            best_k = ids[i];
          }
        }
        scratch.best_node_[static_cast<std::size_t>(rel) * cw +
                           static_cast<std::size_t>(c)] = best_k;
        delta_row[static_cast<std::size_t>(rel)] = best;
      }
    }
  }
  // Live rows are rebuilt slot-major in class order — the same LiveClass
  // sequence the old slot-outer loop pushed.
  scratch.live_.clear();
  scratch.live_start_.resize(tw + 1);
  for (Slot rel = 0; rel < window; ++rel) {
    scratch.live_start_[static_cast<std::size_t>(rel)] = scratch.live_.size();
    for (int c = 0; c < classes; ++c) {
      const int units = q.class_units[static_cast<std::size_t>(c)];
      if (units == 0) continue;
      const double best = scratch.delta_[static_cast<std::size_t>(c) * tw +
                                         static_cast<std::size_t>(rel)];
      if (best != kInf) {
        scratch.live_.push_back(DpScratch::LiveClass{
            best, static_cast<std::size_t>(units),
            static_cast<std::int16_t>(c)});
      }
    }
  }
  scratch.live_start_[tw] = scratch.live_.size();

  // --- DP over (slot, work units) -----------------------------------------
  const auto levels = static_cast<std::size_t>(q.total_units) + 1;
  scratch.prev_.assign(levels, kInf);
  scratch.cur_.assign(levels, kInf);
  scratch.prev_[0] = 0.0;
  scratch.choice_.resize(tw * levels);  // stale cells guarded by row_active_
  scratch.row_active_.resize(tw);
  double* prev = scratch.prev_.data();
  double* cur = scratch.cur_.data();
  // Reachability frontier: after processing row rel, every level above
  // Σ_{r<=rel} max-units(live classes of r) is provably +inf, so the row
  // kernel only touches [0, frontier] and the tail keeps the kInf the
  // buffers were initialized with (the frontier only grows, and a level is
  // first written in the row that reaches it). Choice cells at or above the
  // per-row active count are never written — row_active_ makes the
  // backtrack read them as kSkip, which is exactly what the full scan
  // computed for provably-+inf cells.
  std::size_t frontier = 0;
  for (Slot rel = 0; rel < window; ++rel) {
    std::int16_t* chrow =
        scratch.choice_.data() + static_cast<std::size_t>(rel) * levels;
    const DpScratch::LiveClass* lo =
        scratch.live_.data() +
        scratch.live_start_[static_cast<std::size_t>(rel)];
    const DpScratch::LiveClass* hi =
        scratch.live_.data() +
        scratch.live_start_[static_cast<std::size_t>(rel) + 1];
    if (lo == hi) {
      // No usable class this slot: the row is pure carry-over (the
      // reference path copies prev into cur and swaps; skipping both is
      // value-identical and saves the O(levels · classes) dead pass).
      scratch.row_active_[static_cast<std::size_t>(rel)] = 0;
      continue;
    }
    std::size_t row_max = 0;
    for (const DpScratch::LiveClass* e = lo; e != hi; ++e) {
      if (e->units > row_max) row_max = e->units;
    }
    frontier = std::min(frontier + row_max, levels - 1);
    const std::size_t active = frontier + 1;
    scratch.row_active_[static_cast<std::size_t>(rel)] = active;
    // Min-plus relaxation of the row, dispatched to the active kernel
    // (scalar / AVX2 / NEON — bit- and tie-identical by the lane contract
    // of simd/minplus.h).
    simd::dp_row(kernel_, prev, cur, chrow, active, lo, hi);
    std::swap(prev, cur);
  }

  if (prev[levels - 1] == kInf) return;  // infeasible

  // --- Backtrack -----------------------------------------------------------
  std::size_t w = levels - 1;
  for (Slot rel = window - 1; rel >= 0; --rel) {
    const std::int16_t c =
        w < scratch.row_active_[static_cast<std::size_t>(rel)]
            ? scratch.choice_[static_cast<std::size_t>(rel) * levels + w]
            : kSkip;
    if (c == kSkip) continue;
    const NodeId k = scratch.best_node_[static_cast<std::size_t>(rel) * cw +
                                        static_cast<std::size_t>(c)];
    result.run.push_back({k, start + rel});
    const auto units =
        static_cast<std::size_t>(q.class_units[static_cast<std::size_t>(c)]);
    w = w > units ? w - units : 0;
  }
  std::reverse(result.run.begin(), result.run.end());
}

}  // namespace lorasched
