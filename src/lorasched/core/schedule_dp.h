// Per-task optimal schedule search — Algorithm 2's `findSchedule`.
//
// Solves problem (12): place the task's M_i samples on (node, slot) pairs in
// the window [start, deadline] minimizing Σ x_ikt (s_ik λ_kt + r_i φ_kt +
// e_ikt) with at most one node per slot, via the dynamic program of eq. (13)
// over (slot, completed-work) states.
//
// Implementation notes (DESIGN.md §5):
//  * Work is quantized to integer units u = min_class s / granularity with
//    rates rounded *down*, so any DP-complete plan also satisfies (4e) with
//    the true rates.
//  * Δ_kt does not depend on the work level, so the inner min over nodes is
//    pre-reduced to one representative node per GPU class per slot — exact,
//    and turns O(W T K) into O(T K + W T #classes).
//  * The hot path is *price-epoch cached*: because the duals only move when
//    a task is admitted (eq. 7/8), the λ/φ grids are snapshotted into
//    class-major contiguous rows keyed on (DualState::uid(),
//    DualState::epoch()) and every find() between two admissions reuses the
//    snapshot; all DP tables live in a reusable DpScratch arena, so
//    steady-state find() calls allocate nothing. The original per-call DP
//    (per-node dual lookups, freshly allocated tables) survives as the
//    reference implementation audit::reference_find (audit/oracle.h); the
//    differential tests require the two to agree bit for bit.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "lorasched/cluster/cluster.h"
#include "lorasched/cluster/energy.h"
#include "lorasched/core/duals.h"
#include "lorasched/core/schedule.h"
#include "lorasched/core/simd/minplus.h"
#include "lorasched/types.h"
#include "lorasched/util/mutex.h"
#include "lorasched/util/thread_annotations.h"
#include "lorasched/workload/task.h"

namespace lorasched {

namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace obs

struct ScheduleDpConfig {
  /// Work units per slot on the slowest node class (>= 1); higher values
  /// give finer plans at linear DP cost.
  double granularity = 2.0;
  /// Upper bound on the number of work units (guards DP table size).
  int max_units = 4096;
  /// SIMD min-plus row kernel (DESIGN.md §5c): true (default) dispatches
  /// the cached path's inner loops to the best runtime-detected vector arm
  /// (AVX2/NEON, cpuid-checked, scalar everywhere else); false pins the
  /// scalar reference. Results are bit-identical either way — the lane
  /// order is pinned (simd/minplus.h) and the differential tests enforce
  /// it; the knob exists for A/B benchmarking and as an escape hatch, and
  /// the LORASCHED_DP_SIMD environment variable can force an arm
  /// process-wide underneath it.
  bool simd = true;
};

/// Optional per-(node, slot) admissibility filter; when set, the DP only
/// places work on (k, t) pairs the filter accepts (used by capacity-aware
/// baselines; pdFTSP itself runs unfiltered, prices do the steering).
using SlotFilter = bool (*)(const void* ctx, NodeId k, Slot t);

/// Reusable DP work area: the delta/best-node/DP-row/choice tables plus the
/// per-bid quantization memo. One scratch serves any number of sequential
/// find() calls (buffers grow to the high-water mark and stay); concurrent
/// calls need one scratch per thread — the scratch-less find() overload
/// manages a thread_local one automatically.
class DpScratch {
 public:
  DpScratch() = default;
  DpScratch(const DpScratch&) = delete;
  DpScratch& operator=(const DpScratch&) = delete;

  /// Bytes currently reserved across all buffers (the arena's high-water
  /// footprint; exposed as a gauge via ScheduleDp::register_metrics).
  [[nodiscard]] std::size_t bytes_reserved() const noexcept;

 private:
  friend class ScheduleDp;

  /// One usable class at one slot of the window (finite Δ only — classes
  /// the filter kills or that cannot progress never reach the DP rows).
  /// The layout is the SIMD kernels' row-class descriptor so the live rows
  /// feed simd::dp_row without repacking.
  using LiveClass = simd::MinPlusClass;

  /// Work quantization for one (task work, compute share) — identical for
  /// every vendor/delay candidate of a bid, so it is computed once per
  /// share and memoized (keyed by the owning ScheduleDp's uid so a
  /// thread_local scratch can serve many instances safely).
  struct Quant {
    double share = 0.0;  // memo key within (owner, work)
    double unit = 0.0;
    int total_units = 0;
    int max_class_units = 0;
    bool usable = false;  // some class makes progress at a finite rate
    std::vector<double> class_rate;    // s_ik of the class representative
    std::vector<double> class_s_norm;  // class_rate / C_kp
    std::vector<int> class_units;      // floor(class_rate / unit)
  };

  const DpScratch::Quant& quantize(std::uint64_t owner, const Task& task,
                                   const Cluster& cluster,
                                   const ScheduleDpConfig& config);

  std::vector<double> prev_;
  std::vector<double> cur_;
  std::vector<std::int16_t> choice_;
  // Valid choice prefix per window row: cells at w >= row_active_[rel] were
  // provably +inf carry-overs (above the reachability frontier), so the DP
  // never writes them and the backtrack reads them as kSkip implicitly.
  std::vector<std::size_t> row_active_;
  std::vector<double> delta_;       // class-major: delta_[c*window + rel]
  std::vector<std::int32_t> argpos_;  // per-class sweep argmin positions
  std::vector<NodeId> best_node_;
  std::vector<LiveClass> live_;
  std::vector<std::size_t> live_start_;

  std::uint64_t memo_owner_ = 0;
  double memo_work_ = -1.0;
  std::size_t memo_used_ = 0;  // live prefix of memo_; slots beyond it are
                               // recycled capacity, never cleared
  std::vector<Quant> memo_;
};

class ScheduleDp {
 public:
  ScheduleDp(const Cluster& cluster, const EnergyModel& energy,
             ScheduleDpConfig config = {});

  // The cache members (mutex, snapshot, counters) make copies meaningless.
  ScheduleDp(const ScheduleDp&) = delete;
  ScheduleDp& operator=(const ScheduleDp&) = delete;

  /// Finds the cost-minimal execution plan for `task` within
  /// [start, task.deadline]. Returns an *unfinalized* schedule: `run` is
  /// filled, vendor fields are left for the caller. Returns an empty run if
  /// no feasible plan exists. `filter_ctx`/`filter` optionally restrict the
  /// usable (node, slot) pairs. Safe to call concurrently from any number
  /// of threads as long as nobody mutates `duals` meanwhile. Throws
  /// std::invalid_argument when `duals` was not built for this cluster's
  /// node count.
  [[nodiscard]] Schedule find(const Task& task, Slot start,
                              const DualState& duals,
                              const void* filter_ctx = nullptr,
                              SlotFilter filter = nullptr) const;

  /// As above with an explicit work area (instead of the thread_local one).
  [[nodiscard]] Schedule find(const Task& task, Slot start,
                              const DualState& duals, DpScratch& scratch,
                              const void* filter_ctx = nullptr,
                              SlotFilter filter = nullptr) const;

  /// Allocation-free steady state: fills `result` in place, reusing its
  /// run-vector capacity. After the arena and the result have grown to the
  /// workload's high-water mark, a cached-path call performs zero heap
  /// allocations (bench/micro_core pins this with an allocation hook).
  void find_into(Schedule& result, const Task& task, Slot start,
                 const DualState& duals, DpScratch& scratch,
                 const void* filter_ctx = nullptr,
                 SlotFilter filter = nullptr) const;

  struct CacheStats {
    std::uint64_t hits = 0;    // find() served by the current snapshot
    std::uint64_t misses = 0;  // snapshot rebuilt (epoch moved / first use)
  };
  [[nodiscard]] CacheStats cache_stats() const noexcept;

  /// Wires the price-cache hit/miss counters and the arena/snapshot
  /// footprint gauges into `registry` (names `<prefix>_price_cache_hits_total`,
  /// `..._misses_total`, `<prefix>_scratch_bytes`, `<prefix>_snapshot_bytes`),
  /// plus the `<prefix>_simd_dispatch` gauge reporting this instance's
  /// min-plus kernel (0=scalar, 1=avx2, 2=neon). Several ScheduleDp
  /// instances may share one registry — the counters aggregate. Call during
  /// setup, before concurrent find() traffic.
  void register_metrics(obs::MetricsRegistry& registry,
                        std::string_view prefix = "lorasched_dp") const;

  /// The min-plus kernel this instance dispatches to (config.simd ∧ the
  /// process-wide simd::active_kernel detection).
  [[nodiscard]] simd::Kernel kernel() const noexcept { return kernel_; }

  [[nodiscard]] const ScheduleDpConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Class-major contiguous copy of one dual-price state: for class c the
  /// values of slot t occupy [base[c] + t*size[c], +size[c]) — the per-slot
  /// class argmin scans one cache line instead of gathering node-major
  /// cells horizon*8 bytes apart. `node_cost` is the task-independent
  /// full-node energy cost per (class, slot), laid out c*horizon + t.
  struct PriceSnapshot {
    std::uint64_t uid = 0;
    std::uint64_t epoch = 0;
    Slot horizon = 0;
    std::vector<std::size_t> base;
    std::vector<std::size_t> size;
    std::vector<double> lambda;
    std::vector<double> phi;
    std::vector<NodeId> node_of;
    std::vector<double> node_cost;
    // Node k's slot-t cell sits at node_pos[k] + t * node_stride[k] — the
    // inverse of the class-major layout, used to patch the dirty cells of
    // an admission in place instead of rebuilding the whole snapshot.
    std::vector<std::size_t> node_pos;
    std::vector<std::size_t> node_stride;

    [[nodiscard]] std::size_t bytes() const noexcept;
  };

  void find_cached(Schedule& result, const Task& task, Slot start,
                   const DualState& duals, DpScratch& scratch,
                   const void* filter_ctx, SlotFilter filter) const;
  [[nodiscard]] std::shared_ptr<const PriceSnapshot> snapshot_for(
      const DualState& duals) const EXCLUDES(cache_mutex_);
  void audit_result(const Task& task, Slot start, const DualState& duals,
                    const void* filter_ctx, SlotFilter filter,
                    const Schedule& schedule) const;

  const Cluster& cluster_;  // must outlive the ScheduleDp
  EnergyModel energy_;      // by value: cheap, and callers often pass rvalues
  ScheduleDpConfig config_;
  std::uint64_t uid_;  // keys the thread_local scratch's quantization memo
  simd::Kernel kernel_ = simd::Kernel::kScalar;  // resolved at construction

  mutable util::Mutex cache_mutex_;
  mutable std::shared_ptr<const PriceSnapshot> cache_
      GUARDED_BY(cache_mutex_);
  mutable std::vector<std::uint32_t> dirty_ GUARDED_BY(cache_mutex_);
  mutable std::atomic<std::uint64_t> cache_hits_{0};
  mutable std::atomic<std::uint64_t> cache_misses_{0};
  // Optional obs wiring (register_metrics); null until registered.
  mutable std::atomic<obs::Counter*> hits_counter_{nullptr};
  mutable std::atomic<obs::Counter*> misses_counter_{nullptr};
  mutable std::atomic<obs::Gauge*> scratch_gauge_{nullptr};
  mutable std::atomic<obs::Gauge*> snapshot_gauge_{nullptr};
};

}  // namespace lorasched
