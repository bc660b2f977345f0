#include "lorasched/shard/shard_runner.h"

#include <stdexcept>
#include <utility>

#include "lorasched/obs/span.h"
#include "lorasched/shard/shard_planner.h"
#include "lorasched/sim/validator.h"
#include "lorasched/util/timing.h"

#ifdef LORASCHED_AUDIT
#include "lorasched/audit/invariants.h"
#endif

namespace lorasched::shard {

PolicyFactory make_pdftsp_factory(PdftspConfig config) {
  return [config](const Cluster& cluster, const EnergyModel& energy,
                  Slot horizon) -> std::unique_ptr<Policy> {
    return std::make_unique<Pdftsp>(config, cluster, energy, horizon);
  };
}

ShardRunner::ShardRunner(int shard_id, const Cluster& fleet,
                         std::vector<NodeId> members, const EnergyModel& energy,
                         const Marketplace& market, Slot horizon,
                         const PolicyFactory& factory, PriceBoard& board,
                         bool time_decisions, bool sole_shard)
    : shard_id_(shard_id),
      horizon_(horizon),
      time_decisions_(time_decisions),
      sole_shard_(sole_shard),
      to_global_(std::move(members)),
      cluster_(ShardPlanner::sub_cluster(fleet, to_global_)),
      energy_(energy),
      market_(market),
      board_(board),
      inbox_(kInboxCapacity, service::BackpressureMode::kBlock),
      ledger_(cluster_, horizon),
      policy_(factory(cluster_, energy_, horizon)),
      pdftsp_(dynamic_cast<const Pdftsp*>(policy_.get())) {
  if (policy_ == nullptr) {
    throw std::invalid_argument("policy factory returned null");
  }
  global_class_of_local_.reserve(to_global_.size());
  for (const NodeId g : to_global_) {
    global_class_of_local_.push_back(fleet.node_class(g));
  }
  if (!sole_shard_) worker_ = std::thread(&ShardRunner::thread_main, this);
}

ShardRunner::~ShardRunner() {
  {
    util::MutexLock lock(mutex_);
    command_ = Command::kStop;
  }
  command_cv_.notify_one();
  if (worker_.joinable()) worker_.join();
}

void ShardRunner::register_dp_metrics(obs::MetricsRegistry& registry) const {
  util::MutexLock lock(mutex_);
  if (pdftsp_ != nullptr) pdftsp_->register_metrics(registry);
}

void ShardRunner::block(NodeId local_node, Slot t) {
  util::MutexLock lock(mutex_);
  ledger_.block(local_node, t);
}

void ShardRunner::begin_round(Slot slot, std::size_t expected) {
  if (expected == 0) {
    throw std::invalid_argument("shard round needs at least one bid");
  }
  {
    util::MutexLock lock(mutex_);
    if (command_ != Command::kIdle) {
      throw std::logic_error("shard round already in flight");
    }
    round_slot_ = slot;
    round_expected_ = expected;
    round_done_ = false;
    batch_.clear();
    command_ = Command::kDecide;
  }
  command_cv_.notify_one();
}

void ShardRunner::offer(Task bid) {
  if (sole_shard_) {
    util::MutexLock lock(mutex_);
    batch_.push_back(std::move(bid));
    return;
  }
  const service::SubmitResult result = inbox_.submit(std::move(bid));
  if (result != service::SubmitResult::kAccepted) {
    throw std::logic_error("shard inbox refused a bid mid-round");
  }
}

const std::vector<ShardRunner::RoundResult>& ShardRunner::wait_round() {
  util::MutexLock lock(mutex_);
  if (sole_shard_) {
    if (command_ != Command::kDecide) {
      throw std::logic_error("no shard round armed");
    }
    command_ = Command::kIdle;
    decide_round();  // a throw reaches the caller directly
    return results_;
  }
  while (!round_done_) done_cv_.wait(lock);
  if (round_error_ != nullptr) {
    const std::exception_ptr error = std::exchange(round_error_, nullptr);
    std::rethrow_exception(error);
  }
  return results_;
}

void ShardRunner::thread_main() {
  for (;;) {
    util::MutexLock lock(mutex_);
    while (command_ == Command::kIdle) command_cv_.wait(lock);
    if (command_ == Command::kStop) return;
    // The round runs with mutex_ held (see the header's lock-discipline
    // note): the leader only touches the inbox while a round is in
    // flight, so this serializes decision state against parked-state
    // accessors without ever blocking the offer path.
    std::exception_ptr error;
    try {
      while (batch_.size() < round_expected_) {
        inbox_.wait_available();
        for (Task& bid : inbox_.drain()) batch_.push_back(std::move(bid));
      }
      decide_round();
    } catch (...) {
      error = std::current_exception();
    }
    round_error_ = error;
    command_ = Command::kIdle;
    round_done_ = true;
    lock.unlock();
    done_cv_.notify_all();
  }
}

void ShardRunner::decide_round() {
  LORASCHED_SPAN("shard/decide");
  const Slot slot = round_slot_;
  const std::vector<Task>& batch = batch_;
  if (batch.size() != round_expected_) {
    throw std::logic_error("shard round mis-fed (leader protocol bug)");
  }

  const SlotContext ctx{slot, batch, cluster_, energy_, market_, ledger_};
  const util::Stopwatch watch;
  std::vector<Decision> decisions = policy_->on_slot(ctx);
  const double batch_seconds = watch.seconds();
  if (decisions.size() != batch.size()) {
    throw std::logic_error("policy returned wrong number of decisions");
  }
  const double per_task_seconds =
      time_decisions_ ? batch_seconds / static_cast<double>(batch.size()) : 0.0;

  results_.clear();
  results_.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Task& task = batch[i];
    const Decision& d = decisions[i];
    if (d.task != task.id) {
      throw std::logic_error("policy decisions out of order");
    }
#ifdef LORASCHED_AUDIT
    audit::check_outcome_accounting(task, d);
#endif
    if (d.admit) {
      // Validated against the shard's own sub-cluster; the service re-maps
      // node ids to the fleet before anything escapes the shard boundary.
      require_valid_schedule(task, d.schedule, cluster_, horizon_);
      if (d.payment < -1e-9) {
        throw std::logic_error("negative payment");
      }
      booked_ += d.schedule.total_compute;
    }
    RoundResult result;
    result.task = task;
    result.decision = std::move(decisions[i]);
    result.decide_seconds = per_task_seconds;
    results_.push_back(std::move(result));
  }
#ifdef LORASCHED_AUDIT
  // Per-shard conservation: this shard's ledger against its own bookings.
  audit::check_ledger_totals(ledger_, booked_);
#endif

  if (!sole_shard_) publish_locked(slot + 1);
}

void ShardRunner::publish(Slot from) {
  util::MutexLock lock(mutex_);
  publish_locked(from);
}

void ShardRunner::publish_locked(Slot from) {
  PriceSnapshot snapshot;
  snapshot.published_slot = from - 1;
  const int classes = board_.class_count();
  snapshot.classes.assign(static_cast<std::size_t>(classes), ClassPrice{});
  std::vector<double> cells(static_cast<std::size_t>(classes), 0.0);
  const DualState* duals = pdftsp_ != nullptr ? &pdftsp_->duals() : nullptr;

  for (NodeId k = 0; k < cluster_.node_count(); ++k) {
    const auto c =
        static_cast<std::size_t>(global_class_of_local_[static_cast<
            std::size_t>(k)]);
    ClassPrice& cls = snapshot.classes[c];
    for (Slot t = from; t < horizon_; ++t) {
      cells[c] += 1.0;
      if (!ledger_.is_blocked(k, t)) {
        cls.free_compute += ledger_.remaining_compute(k, t);
        cls.free_mem += ledger_.remaining_mem(k, t);
      }
      if (duals != nullptr) {
        cls.mean_lambda += duals->lambda(k, t);
        cls.mean_phi += duals->phi(k, t);
      }
    }
  }
  for (int c = 0; c < classes; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    ClassPrice& cls = snapshot.classes[ci];
    if (cells[ci] > 0.0) {
      cls.mean_lambda /= cells[ci];
      cls.mean_phi /= cells[ci];
    }
    snapshot.free_compute += cls.free_compute;
  }
  board_.publish(shard_id_, snapshot);
}

std::vector<double> ShardRunner::policy_state() const {
  util::MutexLock lock(mutex_);
  return policy_state_locked();
}

std::vector<double> ShardRunner::policy_state_locked() const {
  const auto* state = dynamic_cast<const CheckpointableState*>(policy_.get());
  if (state == nullptr) {
    throw std::logic_error("shard policy does not implement CheckpointableState");
  }
  return state->checkpoint_state();
}

ShardState ShardRunner::state() const {
  util::MutexLock lock(mutex_);
  return ShardState{booked_, policy_state_locked(), ledger_.snapshot()};
}

void ShardRunner::restore_policy_state(const std::vector<double>& state) {
  util::MutexLock lock(mutex_);
  auto* target = dynamic_cast<CheckpointableState*>(policy_.get());
  if (target == nullptr) {
    throw std::logic_error("shard policy does not implement CheckpointableState");
  }
  target->restore_state(state);
}

void ShardRunner::restore_ledger(const CapacityLedger::Snapshot& snapshot,
                                 double booked) {
  util::MutexLock lock(mutex_);
  ledger_.restore(snapshot);
  booked_ = booked;
}

void ShardRunner::accumulate_utilization(double& used, double& cap) const {
  // Mirrors CapacityLedger::compute_utilization()'s accumulation order so a
  // 1-shard service reproduces the monolithic fraction bit for bit.
  util::MutexLock lock(mutex_);
  for (NodeId k = 0; k < cluster_.node_count(); ++k) {
    cap += cluster_.compute_capacity(k) * static_cast<double>(horizon_);
    for (Slot t = 0; t < horizon_; ++t) used += ledger_.used_compute(k, t);
  }
}

}  // namespace lorasched::shard
