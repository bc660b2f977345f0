#include "lorasched/shard/sharded_service.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "lorasched/obs/span.h"
#include "lorasched/service/slot_clock.h"
#include "lorasched/sim/validator.h"
#include "lorasched/util/timing.h"

namespace lorasched::shard {

namespace {

/// Rewrites a shard-local schedule onto fleet node ids.
Schedule to_fleet(Schedule schedule, const std::vector<NodeId>& to_global) {
  for (Assignment& a : schedule.run) {
    a.node = to_global[static_cast<std::size_t>(a.node)];
  }
  return schedule;
}

}  // namespace

HandleFactory local_handles(PolicyFactory factory) {
  return [factory = std::move(factory)](
             int shard_id, std::vector<NodeId> members,
             const ShardContext& ctx) -> std::unique_ptr<ShardHandle> {
    return std::make_unique<ShardRunner>(
        shard_id, ctx.fleet, std::move(members), ctx.energy, ctx.market,
        ctx.horizon, factory, ctx.board, ctx.config.time_decisions,
        /*sole_shard=*/ctx.config.shards == 1);
  };
}

ShardedService::ShardedService(const Instance& env,
                               const PolicyFactory& factory,
                               ShardedConfig config)
    : ShardedService(env, local_handles(factory), config) {}

ShardedService::ShardedService(const Instance& env,
                               const HandleFactory& handles,
                               ShardedConfig config)
    : cluster_(env.cluster),
      energy_(env.energy),
      market_(env.market),
      horizon_(env.horizon),
      config_(config),
      plan_(ShardPlanner::plan(cluster_, config.shards)),
      board_(config.shards, cluster_.class_count()),
      router_(RouterConfig{config.reroute_attempts, config.router_seed},
              ShardPlanner::topology(cluster_, plan_)),
      queue_(config.queue_capacity, config.backpressure) {
  if (horizon_ <= 0) {
    throw std::invalid_argument("service horizon must be positive");
  }
  init_shards(env, handles);
  reroutes_total_ = &metrics_.registry().counter(
      "lorasched_router_reroutes_total",
      "Bids the router re-offered to another shard at least once "
      "(second chance)");
  reroute_admits_total_ = &metrics_.registry().counter(
      "lorasched_router_reroute_admits_total",
      "Rerouted bids eventually admitted by a non-first-choice shard");
  failovers_total_ = &metrics_.registry().counter(
      "lorasched_router_failovers_total",
      "Bid offers moved off a dead shard (no reroute budget consumed)");
  reroute_ratio_ = &metrics_.registry().gauge(
      "lorasched_router_reroute_ratio",
      "Fraction of routed bids re-offered at least once, over the run");
  const obs::HistogramOptions phase_options{.min = 1e-6, .max = 10.0};
  phase_arm_ = &metrics_.registry().histogram(
      "lorasched_round_arm_seconds", phase_options,
      "Per re-offer round: arming every shard with work (begin_round)");
  phase_offer_ = &metrics_.registry().histogram(
      "lorasched_round_offer_seconds", phase_options,
      "Per re-offer round: feeding every armed shard's inbox");
  phase_decide_ = &metrics_.registry().histogram(
      "lorasched_round_decide_seconds", phase_options,
      "Per re-offer round: waiting out every shard's decisions");
  phase_publish_ = &metrics_.registry().histogram(
      "lorasched_round_publish_seconds", phase_options,
      "Per slot: refreshing prices of shards that sat the slot out");
  queue_.register_metrics(metrics_.registry());
}

void ShardedService::init_shards(const Instance& env,
                                 const HandleFactory& handles) {
  const ShardContext ctx{cluster_, energy_, market_,
                         horizon_,  board_,  config_};
  owner_.assign(static_cast<std::size_t>(cluster_.node_count()), {-1, -1});
  shards_.reserve(plan_.nodes.size());
  for (std::size_t s = 0; s < plan_.nodes.size(); ++s) {
    const std::vector<NodeId>& members = plan_.nodes[s];
    for (std::size_t local = 0; local < members.size(); ++local) {
      owner_[static_cast<std::size_t>(members[local])] = {
          static_cast<int>(s), static_cast<NodeId>(local)};
    }
    shards_.push_back(handles(static_cast<int>(s), members, ctx));
  }
  // Failure calendar, mapped into the owning shard's ledger — the union of
  // the shard ledgers is exactly the monolithic service's blocked set.
  for (const Outage& outage : env.outages) {
    const auto [shard, local] = owner_[static_cast<std::size_t>(outage.node)];
    for (Slot t = std::max<Slot>(0, outage.from);
         t < std::min<Slot>(horizon_, outage.to); ++t) {
      shards_[static_cast<std::size_t>(shard)]->block(local, t);
    }
  }
  // Seed the board so slot-0 routing sees real free capacity, not the
  // "nothing published" placeholder. A sole shard needs no routing.
  if (!sole_shard()) {
    for (const auto& shard : shards_) shard->publish(0);
  }
  // Every shard registers the same DP cache-metric names, so hits/misses
  // aggregate fleet-wide in this service's registry.
  for (const auto& shard : shards_) {
    shard->register_dp_metrics(metrics_.registry());
  }
}

service::SubmitResult ShardedService::submit(const Task& bid) {
  dirty_.store(true, std::memory_order_relaxed);
  const service::SubmitResult result = queue_.submit(bid);
  if (result == service::SubmitResult::kAccepted) metrics_.record_ingest();
  return result;
}

void ShardedService::add_subscriber(service::DecisionSubscriber* subscriber) {
  if (subscriber != nullptr) subscribers_.push_back(subscriber);
}

void ShardedService::reject_late(const Task& bid) {
  TaskOutcome outcome;
  outcome.task = bid.id;
  outcome.bid = bid.bid;
  outcome.true_value = bid.true_value;
  outcome.arrival = bid.arrival;
  sim_metrics_.add_rejected();
  metrics_.record_rejected_late();
  outcomes_.push_back(outcome);
  schedules_.push_back(Schedule{});
  for (service::DecisionSubscriber* sub : subscribers_) {
    sub->on_rejected(outcome);
  }
}

void ShardedService::pump() {
  dirty_.store(true, std::memory_order_relaxed);
  for (Task& bid : queue_.drain()) {
    held_[bid.arrival].push_back(std::move(bid));
  }
}

void ShardedService::step() {
  if (finished_ || next_slot_ >= horizon_) {
    throw std::logic_error("sharded service stepped past its horizon");
  }
  LORASCHED_SPAN("shard/step");
  dirty_.store(true, std::memory_order_relaxed);
  const Slot now = next_slot_;

  const std::vector<Task> drained = queue_.drain();
  const std::size_t queue_depth = queue_.depth();

  // Assemble the slot batch: bids held for this slot plus freshly drained
  // ones due now; future bids wait, stale ones hit the late-bid policy.
  std::vector<Task> batch;
  for (auto it = held_.begin(); it != held_.end() && it->first <= now;
       it = held_.erase(it)) {
    for (Task& bid : it->second) batch.push_back(std::move(bid));
  }
  for (const Task& bid : drained) {
    if (bid.arrival > now) {
      held_[bid.arrival].push_back(bid);
    } else {
      batch.push_back(bid);
    }
  }
  std::erase_if(batch, [&](const Task& bid) {
    if (bid.arrival >= now) return false;
    if (config_.late_bids == service::LateBidMode::kReject) {
      reject_late(bid);
      return true;
    }
    return false;
  });
  for (Task& bid : batch) bid.arrival = now;  // no-op except clamped bids

  // The engine's arrival order: within a slot, ties break by task id.
  std::stable_sort(batch.begin(), batch.end(),
                   [](const Task& a, const Task& b) { return a.id < b.id; });

  decide_batch(now, batch, drained.size(), queue_depth);
  ++next_slot_;
}

void ShardedService::decide_batch(Slot now, std::vector<Task>& batch,
                                  std::size_t drained,
                                  std::size_t queue_depth) {
  const std::uint64_t rerouted_before = rerouted_bids_;
  const std::uint64_t admits_before = reroute_admits_;
  const std::uint64_t failovers_before = failover_bids_;
  double batch_seconds = 0.0;
  if (!batch.empty()) {
    const int shards = shard_count();
    const util::Stopwatch watch;

    // One consistent price read per slot; every ranking this slot uses it.
    // A sole shard ranks every bid {0} and reads no prices.
    std::vector<PriceSnapshot> prices;
    if (!sole_shard()) {
      prices.reserve(static_cast<std::size_t>(shards));
      for (int s = 0; s < shards; ++s) prices.push_back(board_.read(s));
    }

    struct Item {
      Task task;
      std::vector<int> ranking;
      std::size_t choice = 0;  // index into ranking of the current offer
      /// Ranking steps taken because the shard was dead, not because it
      /// rejected — they don't consume the second-chance budget, so a
      /// healthy run (credits always 0) behaves exactly as before.
      std::size_t credits = 0;
      double decide_seconds = 0.0;
    };
    std::vector<Item> items;
    items.reserve(batch.size());
    for (Task& task : batch) {
      Item item;
      item.ranking = sole_shard() ? std::vector<int>{0}
                                  : router_.rank(task, prices);
      item.task = std::move(task);
      items.push_back(std::move(item));
    }
    routed_bids_ += items.size();

    // Advances the item's choice past dead shards, free of budget.
    const auto skip_dead = [&](Item& item) {
      while (item.choice < item.ranking.size() &&
             !shards_[static_cast<std::size_t>(
                          item.ranking[item.choice])]
                  ->alive()) {
        ++item.choice;
        ++item.credits;
      }
    };

    struct Final {
      std::size_t item = 0;
      int shard = -1;  // admitting shard; -1 = final reject
      Decision decision;
    };
    std::vector<Final> finals;
    finals.reserve(items.size());

    // offers[s] = item indices this round, ascending (== ascending task id,
    // the monolithic batch order within each shard's sub-batch).
    std::vector<std::vector<std::size_t>> offers(
        static_cast<std::size_t>(shards));
    std::vector<char> touched(static_cast<std::size_t>(shards), 0);
    for (std::size_t i = 0; i < items.size(); ++i) {
      skip_dead(items[i]);
      if (items[i].choice < items[i].ranking.size()) {
        offers[static_cast<std::size_t>(items[i].ranking[items[i].choice])]
            .push_back(i);
      } else {
        finals.push_back(Final{i, -1, Decision{}});  // no live shard left
      }
    }

    for (;;) {
      bool any = false;
      for (const auto& sub : offers) any = any || !sub.empty();
      if (!any) break;

      // Arm every shard with work *before* feeding any inbox: the runners
      // drain concurrently, so sub-batches larger than the inbox capacity
      // cannot deadlock, and the shards decide this round in parallel. A
      // shard dying at any point this round (arm, feed, or wait) fails over
      // its whole sub-batch instead of failing the slot.
      std::vector<char> down(static_cast<std::size_t>(shards), 0);
      const util::Stopwatch arm_watch;
      for (int s = 0; s < shards; ++s) {
        const auto& sub = offers[static_cast<std::size_t>(s)];
        if (sub.empty()) continue;
        try {
          shards_[static_cast<std::size_t>(s)]->begin_round(now, sub.size());
          touched[static_cast<std::size_t>(s)] = 1;
        } catch (const ShardUnavailable&) {
          down[static_cast<std::size_t>(s)] = 1;
        }
      }
      phase_arm_->record(arm_watch.seconds());
      const util::Stopwatch offer_watch;
      for (int s = 0; s < shards; ++s) {
        if (down[static_cast<std::size_t>(s)] != 0) continue;
        try {
          for (const std::size_t i : offers[static_cast<std::size_t>(s)]) {
            shards_[static_cast<std::size_t>(s)]->offer(items[i].task);
          }
        } catch (const ShardUnavailable&) {
          down[static_cast<std::size_t>(s)] = 1;
        }
      }
      phase_offer_->record(offer_watch.seconds());

      std::vector<std::vector<std::size_t>> next(
          static_cast<std::size_t>(shards));
      // A reject (or dead shard) moves the bid to the next live shard in
      // its ranking; only rejects consume the reroute budget.
      const auto reoffer_or_reject = [&](std::size_t i,
                                         const Decision& decision,
                                         bool budget) {
        Item& item = items[i];
        ++item.choice;
        if (!budget) ++item.credits;
        skip_dead(item);
        const bool more =
            item.choice - item.credits <=
                static_cast<std::size_t>(config_.reroute_attempts) &&
            item.choice < item.ranking.size();
        if (more) {
          if (item.choice - item.credits == 1 && budget) ++rerouted_bids_;
          next[static_cast<std::size_t>(item.ranking[item.choice])]
              .push_back(i);
        } else {
          finals.push_back(Final{i, -1, decision});
        }
      };

      double round_critical = 0.0;
      const util::Stopwatch decide_watch;
      for (int s = 0; s < shards; ++s) {
        const auto& sub = offers[static_cast<std::size_t>(s)];
        if (sub.empty()) continue;
        const std::vector<RoundResult>* results = nullptr;
        if (down[static_cast<std::size_t>(s)] == 0) {
          try {
            results = &shards_[static_cast<std::size_t>(s)]->wait_round();
          } catch (const ShardUnavailable&) {
            results = nullptr;
          }
        }
        if (results == nullptr) {
          // The shard died mid-round; none of its decisions happened.
          failover_bids_ += sub.size();
          for (const std::size_t i : sub) {
            reoffer_or_reject(i, Decision{}, /*budget=*/false);
          }
          continue;
        }
        double shard_seconds = 0.0;
        for (std::size_t j = 0; j < results->size(); ++j) {
          const RoundResult& r = (*results)[j];
          shard_seconds += r.decide_seconds;
          Item& item = items[sub[j]];
          item.decide_seconds += r.decide_seconds;
          if (r.decision.admit) {
            if (item.choice > item.credits) ++reroute_admits_;
            finals.push_back(Final{sub[j], s, r.decision});
          } else {
            reoffer_or_reject(sub[j], r.decision, /*budget=*/true);
          }
        }
        round_critical = std::max(round_critical, shard_seconds);
      }
      phase_decide_->record(decide_watch.seconds());
      critical_seconds_ += round_critical;
      offers.swap(next);
    }
    batch_seconds = watch.seconds();

    // The service's irrevocable decision order: ascending task id within
    // the slot, exactly the monolithic batch order.
    std::sort(finals.begin(), finals.end(), [&](const Final& a,
                                                const Final& b) {
      return items[a.item].task.id < items[b.item].task.id;
    });

    for (Final& f : finals) {
      const Item& item = items[f.item];
      const Task& task = item.task;
      TaskOutcome outcome;
      outcome.task = task.id;
      outcome.bid = task.bid;
      outcome.true_value = task.true_value;
      outcome.arrival = task.arrival;
      outcome.decide_seconds = item.decide_seconds;
      if (f.shard >= 0) {
        Schedule schedule = std::move(f.decision.schedule);
        // The runner validated against its sub-cluster; re-check against
        // the fleet to pin the id remap (profiles are identical copies, so
        // a correct remap can never fail here). A sole shard's ids already
        // are the fleet's.
        if (!sole_shard()) {
          schedule = to_fleet(
              std::move(schedule),
              shards_[static_cast<std::size_t>(f.shard)]->to_global());
          require_valid_schedule(task, schedule, cluster_, horizon_);
        }
        outcome.admitted = true;
        outcome.payment = f.decision.payment;
        outcome.vendor = schedule.vendor;
        outcome.vendor_cost = schedule.vendor_price;
        outcome.energy_cost = schedule.energy_cost;
        outcome.completion = schedule.completion_slot();
        outcome.slots_used = static_cast<int>(schedule.run.size());
        for (std::size_t r = 1; r < schedule.run.size(); ++r) {
          if (schedule.run[r].slot != schedule.run[r - 1].slot + 1) {
            ++outcome.preemptions;
          }
        }
        booked_compute_ += schedule.total_compute;
        sim_metrics_.add_admitted(outcome);
        metrics_.record_admitted();
        for (service::DecisionSubscriber* sub : subscribers_) {
          sub->on_admitted(outcome, schedule);
          sub->on_payment(task.id, f.decision.payment);
        }
        outcomes_.push_back(outcome);
        schedules_.push_back(std::move(schedule));
      } else {
        sim_metrics_.add_rejected();
        metrics_.record_rejected();
        for (service::DecisionSubscriber* sub : subscribers_) {
          sub->on_rejected(outcome);
        }
        outcomes_.push_back(outcome);
        schedules_.push_back(Schedule{});
      }
    }

    // Shards that sat the slot out republish under the leader, so the
    // board's content after every slot is a pure function of decision
    // history — a restored service reproduces it exactly. Dead shards keep
    // their last published summary (the router already skips them). A
    // sole shard has no board to keep.
    const util::Stopwatch publish_watch;
    for (int s = 0; s < shards && !sole_shard(); ++s) {
      if (touched[static_cast<std::size_t>(s)] != 0) continue;
      if (!shards_[static_cast<std::size_t>(s)]->alive()) continue;
      try {
        shards_[static_cast<std::size_t>(s)]->publish(now + 1);
      } catch (const ShardUnavailable&) {
        // Died between the liveness check and the publish; degrade.
      }
    }
    phase_publish_->record(publish_watch.seconds());
  }

  reroutes_total_->add(rerouted_bids_ - rerouted_before);
  reroute_admits_total_->add(reroute_admits_ - admits_before);
  failovers_total_->add(failover_bids_ - failovers_before);
  reroute_ratio_->set(routed_bids_ == 0
                          ? 0.0
                          : static_cast<double>(rerouted_bids_) /
                                static_cast<double>(routed_bids_));

  service::SlotReport report;
  report.slot = now;
  report.drained = drained;
  report.batch = batch.size();
  std::size_t held = 0;
  for (const auto& [slot, bids] : held_) held += bids.size();
  report.pending = held;
  report.queue_depth = queue_depth;
  report.decide_seconds = batch_seconds;
  metrics_.record_slot(report, batch.empty() || !config_.time_decisions
                                   ? 0.0
                                   : batch_seconds /
                                         static_cast<double>(batch.size()));
  for (service::DecisionSubscriber* sub : subscribers_) {
    sub->on_slot_end(report);
  }
}

void ShardedService::run(std::chrono::nanoseconds slot_period) {
  const service::SlotClock clock(slot_period);
  while (next_slot_ < horizon_) {
    if (!idle()) clock.wait_slot_end(next_slot_);
    step();
  }
}

SimResult ShardedService::finish() {
  if (!done()) {
    throw std::logic_error("finish() before the horizon completed");
  }
  if (finished_) {
    throw std::logic_error("finish() called twice");
  }
  finished_ = true;

  // Conservation, twice: each shard's ledger against its own bookings, and
  // the shard sum against the service's aggregate. A dead shard has no
  // ledger to read — its leader-side booked sum (every admission the leader
  // actually applied) stands in, so the aggregate check still holds.
  double ledger_compute = 0.0;
  for (const auto& shard : shards_) {
    double shard_compute = 0.0;
    bool have_ledger = false;
    if (shard->alive()) {
      try {
        // Only the ledger sum is needed, not the policy dump, so policies
        // that cannot checkpoint finish too. The order is node-major,
        // slot-minor — the same as iterating used_compute(k, t).
        double shard_cap = 0.0;
        shard->accumulate_utilization(shard_compute, shard_cap);
        have_ledger = true;
      } catch (const ShardUnavailable&) {
        have_ledger = false;
      }
    }
    if (!have_ledger) {
      ledger_compute += shard->booked_compute();
      continue;
    }
    if (std::abs(shard_compute - shard->booked_compute()) >
        1e-6 * std::max(1.0, shard->booked_compute())) {
      throw std::logic_error(
          "shard ledger bookings do not match admitted schedules "
          "(policy bug)");
    }
    ledger_compute += shard_compute;
  }
  if (std::abs(ledger_compute - booked_compute_) >
      1e-6 * std::max(1.0, booked_compute_)) {
    throw std::logic_error(
        "aggregate ledger bookings do not match admitted schedules");
  }

  SimResult result;
  result.metrics = sim_metrics_;
  double used = 0.0;
  double cap = 0.0;
  for (const auto& shard : shards_) {
    try {
      shard->accumulate_utilization(used, cap);
    } catch (const ShardUnavailable&) {
      // A dead shard's grid is unreadable; utilization covers the shards
      // that survived.
    }
  }
  result.metrics.utilization = cap > 0.0 ? used / cap : 0.0;
  result.outcomes = std::move(outcomes_);
  result.schedules = std::move(schedules_);
  return result;
}

ShardedCheckpoint ShardedService::checkpoint() const {
  ShardedCheckpoint cp;
  cp.next_slot = next_slot_;
  cp.horizon = horizon_;
  cp.shards = shard_count();
  cp.router_seed = config_.router_seed;
  cp.reroute_attempts = config_.reroute_attempts;
  cp.booked_compute = booked_compute_;
  cp.shard_states.reserve(shards_.size());
  for (const auto& shard : shards_) {
    cp.shard_states.push_back(shard->state());
  }
  for (const auto& [slot, bids] : held_) {
    cp.pending.insert(cp.pending.end(), bids.begin(), bids.end());
  }
  const std::vector<Task> queued = queue_.peek();
  cp.pending.insert(cp.pending.end(), queued.begin(), queued.end());
  cp.outcomes = outcomes_;
  cp.schedules = schedules_;
  cp.metrics = sim_metrics_;
  return cp;
}

void ShardedService::restore(const ShardedCheckpoint& checkpoint) {
  if (dirty_.load(std::memory_order_relaxed) || finished_) {
    throw std::logic_error("restore() requires a fresh service");
  }
  if (checkpoint.horizon != horizon_) {
    throw std::invalid_argument("checkpoint horizon mismatch");
  }
  if (checkpoint.next_slot < 0 || checkpoint.next_slot > horizon_) {
    throw std::invalid_argument("checkpoint slot out of range");
  }
  if (checkpoint.shards != shard_count() ||
      checkpoint.shard_states.size() != shards_.size()) {
    throw std::invalid_argument("checkpoint shard count mismatch");
  }
  if (checkpoint.router_seed != config_.router_seed ||
      checkpoint.reroute_attempts != config_.reroute_attempts) {
    throw std::invalid_argument("checkpoint router config mismatch");
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->restore_state(checkpoint.shard_states[s]);
  }
  next_slot_ = checkpoint.next_slot;
  booked_compute_ = checkpoint.booked_compute;
  sim_metrics_ = checkpoint.metrics;
  outcomes_ = checkpoint.outcomes;
  schedules_ = checkpoint.schedules;
  held_.clear();
  for (const Task& bid : checkpoint.pending) {
    held_[bid.arrival].push_back(bid);
  }
  // Re-publish the board exactly as the original service last did (its
  // final act of slot next_slot-1 published from = next_slot everywhere).
  if (!sole_shard()) {
    for (const auto& shard : shards_) shard->publish(next_slot_);
  }
}

}  // namespace lorasched::shard
