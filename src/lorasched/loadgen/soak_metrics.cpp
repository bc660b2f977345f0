#include "lorasched/loadgen/soak_metrics.h"

#include <algorithm>

#include "lorasched/loadgen/firehose.h"

namespace lorasched::loadgen {

namespace {

constexpr double kNsPerSecond = 1e9;

// Soak latencies span sub-microsecond (in-process seam) to seconds
// (backpressured wire runs); widen the default histogram floor accordingly.
obs::HistogramOptions latency_options() {
  obs::HistogramOptions options;
  options.min = 1e-7;
  options.max = 100.0;
  options.buckets_per_octave = 8;
  return options;
}

void accumulate(SoakSourceReport& into, const SoakSourceReport& from) {
  into.offered += from.offered;
  into.responded += from.responded;
  into.admitted += from.admitted;
  into.rejected += from.rejected;
  into.shed += from.shed;
  into.lost += from.lost;
  into.out_of_order += from.out_of_order;
  into.duplicates += from.duplicates;
  into.unknown += from.unknown;
  into.reoffered += from.reoffered;
}

}  // namespace

const char* to_string(SoakStatus status) noexcept {
  switch (status) {
    case SoakStatus::kAdmitted: return "admitted";
    case SoakStatus::kRejected: return "rejected";
    case SoakStatus::kShedFull: return "shed_full";
    case SoakStatus::kShedClosed: return "shed_closed";
  }
  return "unknown";
}

SoakMetrics::SoakMetrics()
    : offered_(registry_.counter("loadgen_bids_offered_total",
                                 "Bids sent by the firehose sources")),
      responded_(registry_.counter("loadgen_bids_responded_total",
                                   "Responses that resolved an offered bid")),
      admitted_(registry_.counter("loadgen_bids_admitted_total",
                                  "Offered bids the service admitted")),
      rejected_(registry_.counter("loadgen_bids_rejected_total",
                                  "Offered bids the service rejected")),
      shed_(registry_.counter("loadgen_bids_shed_total",
                              "Offered bids shed at the ingest edge")),
      lost_gaps_(registry_.counter(
          "loadgen_sequence_anomalies_total",
          "Out-of-order, duplicate, and unknown responses")),
      latency_(registry_.histogram("loadgen_e2e_latency_seconds",
                                   latency_options(),
                                   "Send-to-decision latency, all decisions")),
      admit_latency_(registry_.histogram(
          "loadgen_admit_latency_seconds", latency_options(),
          "Send-to-decision latency, admitted bids only")),
      epoch_ns_(now_ns()) {}

std::int64_t SoakMetrics::now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             util::MonoClock::now().time_since_epoch())
      .count();
}

SoakMetrics::SourceState& SoakMetrics::state(std::uint32_t source) {
  auto it = sources_.find(source);
  if (it == sources_.end()) {
    it = sources_.emplace(source, SourceState{}).first;
    it->second.totals.source = source;
  }
  return it->second;
}

void SoakMetrics::bump_timeline(std::int64_t recv_ns) {
  const std::int64_t elapsed = recv_ns - epoch_ns_;
  const auto second = elapsed <= 0
                          ? std::size_t{0}
                          : static_cast<std::size_t>(
                                elapsed / static_cast<std::int64_t>(1e9));
  if (per_second_.size() <= second) per_second_.resize(second + 1, 0);
  ++per_second_[second];
}

void SoakMetrics::record_offered(std::uint32_t source, std::uint64_t seq,
                                 std::int64_t send_ns) {
  util::MutexLock lock(mutex_);
  SourceState& src = state(source);
  ++src.totals.offered;
  const auto [it, inserted] = src.outstanding.emplace(seq, send_ns);
  if (!inserted) {
    // A sender re-using a live seq would corrupt the accounting; keep the
    // first send time and flag it.
    ++src.totals.reoffered;
  }
  offered_.add(1);
}

void SoakMetrics::record_response(std::uint32_t source, std::uint64_t seq,
                                  SoakStatus status, std::int64_t recv_ns) {
  util::MutexLock lock(mutex_);
  SourceState& src = state(source);
  const bool is_decision =
      status == SoakStatus::kAdmitted || status == SoakStatus::kRejected;
  const auto it = src.outstanding.find(seq);
  if (it == src.outstanding.end()) {
    // Not outstanding: a replay of an already-resolved seq is a duplicate
    // (a restarted sender re-walking its sequence space shows up here);
    // anything else was never offered at all.
    if (src.any_decided && seq <= src.max_decided) {
      ++src.totals.duplicates;
    } else {
      ++src.totals.unknown;
    }
    lost_gaps_.add(1);
    return;
  }
  const std::int64_t send_ns = it->second;
  src.outstanding.erase(it);
  ++src.totals.responded;
  responded_.add(1);
  bump_timeline(recv_ns);
  const double seconds =
      static_cast<double>(recv_ns - send_ns) / kNsPerSecond;
  switch (status) {
    case SoakStatus::kAdmitted:
      ++src.totals.admitted;
      admitted_.add(1);
      latency_.record(seconds);
      admit_latency_.record(seconds);
      break;
    case SoakStatus::kRejected:
      ++src.totals.rejected;
      rejected_.add(1);
      latency_.record(seconds);
      break;
    case SoakStatus::kShedFull:
    case SoakStatus::kShedClosed:
      ++src.totals.shed;
      shed_.add(1);
      break;
  }
  if (is_decision) {
    // Order check, decisions only: shed replies return straight from the
    // ingest edge and may legitimately out-race queued decisions.
    if (src.any_decided && seq < src.max_decided) {
      ++src.totals.out_of_order;
      lost_gaps_.add(1);
    }
    if (!src.any_decided || seq > src.max_decided) {
      src.max_decided = seq;
    }
    src.any_decided = true;
  }
}

void SoakMetrics::on_admitted(const TaskOutcome& outcome,
                              const Schedule& schedule) {
  (void)schedule;
  record_response(bid_source(outcome.task), bid_seq(outcome.task),
                  SoakStatus::kAdmitted, now_ns());
}

void SoakMetrics::on_rejected(const TaskOutcome& outcome) {
  record_response(bid_source(outcome.task), bid_seq(outcome.task),
                  SoakStatus::kRejected, now_ns());
}

std::uint64_t SoakMetrics::outstanding() const {
  util::MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [source, src] : sources_) {
    total += src.outstanding.size();
  }
  return total;
}

std::uint64_t SoakMetrics::outstanding(std::uint32_t source) const {
  util::MutexLock lock(mutex_);
  const auto it = sources_.find(source);
  return it == sources_.end() ? 0 : it->second.outstanding.size();
}

SoakReport SoakMetrics::report() const {
  util::MutexLock lock(mutex_);
  SoakReport out;
  out.sources.reserve(sources_.size());
  for (const auto& [source, src] : sources_) {
    SoakSourceReport row = src.totals;
    row.lost = src.outstanding.size();
    accumulate(out.totals, row);
    out.sources.push_back(row);
  }
  out.totals.source = 0;
  out.latency = latency_.snapshot();
  out.admit_latency = admit_latency_.snapshot();
  out.responses_per_second = per_second_;
  out.elapsed_seconds =
      static_cast<double>(now_ns() - epoch_ns_) / kNsPerSecond;
  return out;
}

}  // namespace lorasched::loadgen
