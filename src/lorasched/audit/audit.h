// Paper-invariant audit layer — the always-verifiable encoding of pdFTSP's
// theory (DESIGN.md §9).
//
// The auditor is a process-wide registry of invariant checks hooked into the
// core policy, CapacityLedger, ScheduleDp, the simulation engine, and the
// serving stack's ShardRunner. The hooks are compile-time gated: they
// exist only when the library is built with -DLORASCHED_AUDIT=ON (which
// defines the LORASCHED_AUDIT macro), so production builds pay nothing —
// not even a branch. The check *implementations* are always compiled,
// which keeps them honest under clang-tidy/-Werror in every configuration
// and lets the fuzz harnesses and unit tests drive them directly in
// non-audit builds.
//
// Invariant catalogue (equation references are to the source paper):
//   (a) eq. (7)/(8)  — dual prices λ_kt/φ_kt are non-decreasing and follow
//                      the multiplicative update exactly; untouched cells
//                      stay bit-identical.
//   (b) (4f)/(4g)    — per-(node, slot) committed compute/memory never
//                      exceeds capacity; ledger snapshot/restore conserves
//                      booked totals.
//   (c) Alg. 2       — the DP schedule matches a brute-force oracle on
//                      instances small enough to enumerate (audit/oracle.h).
//   (d) eq. (14)     — the payment of an admitted bid is built from the
//                      pre-update duals and satisfies p_i <= b_i (Thm. 4).
//   (e) eq. (10)     — admission is consistent with the sign of F(il).
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace lorasched::audit {

/// Thrown (in fail-fast mode) when an invariant check fails. Derives from
/// std::logic_error because a violation is by definition a programming bug,
/// never an input error.
class InvariantViolation final : public std::logic_error {
 public:
  explicit InvariantViolation(const std::string& what)
      : std::logic_error("audit invariant violated: " + what) {}
};

struct AuditConfig {
  /// Throw InvariantViolation on the first failed check. When false,
  /// violations are only counted (Auditor::violations()) — useful for
  /// surveying a run without aborting it.
  bool fail_fast = true;
  /// The brute-force Alg. 2 oracle enumerates at most this many node
  /// sequences ((usable nodes + 1)^window); larger DP calls skip the
  /// differential check (counted in oracle_skipped()).
  long long oracle_max_combinations = 50'000;
  /// Relative tolerance for monetary / resource-volume comparisons. The
  /// checks recompute sums of products of doubles in a different order than
  /// the audited code, so exact equality is only required where the audited
  /// code copies values verbatim.
  double rel_tol = 1e-9;
};

/// Process-wide audit state: configuration plus check/violation counters.
/// Counters are atomic so concurrently serving threads may audit in
/// parallel; the config is expected to be set once, before serving.
class Auditor {
 public:
  static Auditor& instance();

  [[nodiscard]] AuditConfig& config() noexcept { return config_; }
  [[nodiscard]] const AuditConfig& config() const noexcept { return config_; }

  [[nodiscard]] std::uint64_t checks() const noexcept {
    return checks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t violations() const noexcept {
    return violations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t oracle_skipped() const noexcept {
    return oracle_skipped_.load(std::memory_order_relaxed);
  }

  /// Zeroes all counters (config is untouched).
  void reset() noexcept {
    checks_.store(0, std::memory_order_relaxed);
    violations_.store(0, std::memory_order_relaxed);
    oracle_skipped_.store(0, std::memory_order_relaxed);
  }

  void count_check() noexcept {
    checks_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_oracle_skip() noexcept {
    oracle_skipped_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records a violation; throws InvariantViolation in fail-fast mode.
  void fail(const std::string& what);

 private:
  Auditor() = default;

  AuditConfig config_{};
  std::atomic<std::uint64_t> checks_{0};
  std::atomic<std::uint64_t> violations_{0};
  std::atomic<std::uint64_t> oracle_skipped_{0};
};

}  // namespace lorasched::audit
