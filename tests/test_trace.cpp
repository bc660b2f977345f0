// Decision tracing: the JSONL schema round-trips exactly, the tracer's
// aggregates match the stream it wrote, and — the load-bearing contract —
// attaching a trace sink is observation-only: a traced policy makes
// bit-identical decisions (admissions, payments, welfare) to an untraced
// one, both through the batch engine and the streaming service.
#include "lorasched/obs/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lorasched/core/online_params.h"
#include "lorasched/core/pdftsp.h"
#include "lorasched/shard/sharded_service.h"
#include "lorasched/sim/engine.h"
#include "test_helpers.h"

namespace lorasched::obs {
namespace {

DecisionTraceRecord sample_record() {
  DecisionTraceRecord record;
  record.task = 17;
  record.arrival = 3;
  record.bid = 0.1;  // 17-digit round-trip material
  record.needs_prep = true;
  CandidateTrace own;
  own.vendor = kNoVendor;
  own.feasible = true;
  own.objective = 0.25;
  own.energy_cost = 0.05;
  own.welfare_gain = 0.3;
  own.norm_compute = 1.5;
  own.norm_mem = 0.75;
  own.start = 4;
  own.completion = 9;
  own.slots = 6;
  CandidateTrace vend;
  vend.vendor = 2;
  vend.vendor_price = 0.02;
  vend.prep_delay = 1;
  vend.share = 0.5;
  vend.feasible = false;
  record.candidates = {own, vend};
  record.chosen = 0;
  record.objective = 0.25;
  record.admitted = true;
  record.duals = {{0, 4, 0.001, 0.002}, {0, 5, 0.0, 0.004}};
  record.payment.vendor = 0.0;
  record.payment.energy = 0.05;
  record.payment.compute = 0.0015;
  record.payment.memory = 0.003;
  record.payment.total = 0.0545;
  record.payment.charged = 0.0545;
  record.payment.max_lambda = 0.001;
  record.payment.max_phi = 0.004;
  return record;
}

void expect_same_record(const DecisionTraceRecord& a,
                        const DecisionTraceRecord& b) {
  EXPECT_EQ(a.task, b.task);
  EXPECT_EQ(a.arrival, b.arrival);
  EXPECT_EQ(a.bid, b.bid);
  EXPECT_EQ(a.needs_prep, b.needs_prep);
  EXPECT_EQ(a.chosen, b.chosen);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.capacity_reject, b.capacity_reject);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    SCOPED_TRACE(i);
    const CandidateTrace& x = a.candidates[i];
    const CandidateTrace& y = b.candidates[i];
    EXPECT_EQ(x.vendor, y.vendor);
    EXPECT_EQ(x.vendor_price, y.vendor_price);
    EXPECT_EQ(x.prep_delay, y.prep_delay);
    EXPECT_EQ(x.share, y.share);
    EXPECT_EQ(x.feasible, y.feasible);
    EXPECT_EQ(x.objective, y.objective);
    EXPECT_EQ(x.energy_cost, y.energy_cost);
    EXPECT_EQ(x.welfare_gain, y.welfare_gain);
    EXPECT_EQ(x.norm_compute, y.norm_compute);
    EXPECT_EQ(x.norm_mem, y.norm_mem);
    EXPECT_EQ(x.start, y.start);
    EXPECT_EQ(x.completion, y.completion);
    EXPECT_EQ(x.slots, y.slots);
  }
  ASSERT_EQ(a.duals.size(), b.duals.size());
  for (std::size_t i = 0; i < a.duals.size(); ++i) {
    EXPECT_EQ(a.duals[i].node, b.duals[i].node);
    EXPECT_EQ(a.duals[i].slot, b.duals[i].slot);
    EXPECT_EQ(a.duals[i].lambda, b.duals[i].lambda);
    EXPECT_EQ(a.duals[i].phi, b.duals[i].phi);
  }
  EXPECT_EQ(a.payment.vendor, b.payment.vendor);
  EXPECT_EQ(a.payment.energy, b.payment.energy);
  EXPECT_EQ(a.payment.compute, b.payment.compute);
  EXPECT_EQ(a.payment.memory, b.payment.memory);
  EXPECT_EQ(a.payment.total, b.payment.total);
  EXPECT_EQ(a.payment.charged, b.payment.charged);
  EXPECT_EQ(a.payment.max_lambda, b.payment.max_lambda);
  EXPECT_EQ(a.payment.max_phi, b.payment.max_phi);
}

TEST(TraceSchema, JsonRoundTripIsExact) {
  const DecisionTraceRecord record = sample_record();
  const Json json = decision_to_json(record);
  expect_same_record(decision_from_json(json), record);
  // And through the serialized text, which is what JSONL consumers see.
  expect_same_record(parse_decision_line(json.dump()), record);
}

TEST(TraceSchema, ParseRejectsSchemaViolations) {
  EXPECT_THROW((void)parse_decision_line("not json"), std::invalid_argument);
  EXPECT_THROW((void)parse_decision_line("{}"), std::invalid_argument);
  // A structurally valid object with a wrong-typed member.
  Json json = decision_to_json(sample_record());
  json.as_object()["task"] = Json("seventeen");
  EXPECT_THROW((void)decision_from_json(json), std::invalid_argument);
}

TEST(DecisionTracer, StreamsJsonlAndAggregates) {
  std::ostringstream out;
  DecisionTracer tracer(&out);
  DecisionTraceRecord admitted = sample_record();
  DecisionTraceRecord rejected = sample_record();
  rejected.task = 18;
  rejected.admitted = false;
  rejected.payment.charged = 0.0;
  tracer.on_decision(admitted);
  tracer.on_decision(rejected);
  tracer.flush();

  EXPECT_EQ(tracer.records(), 2u);
  EXPECT_EQ(tracer.admitted(), 1u);
  ASSERT_EQ(tracer.instants().size(), 2u);
  EXPECT_TRUE(tracer.instants()[0].admitted);
  EXPECT_FALSE(tracer.instants()[1].admitted);

  std::istringstream in(out.str());
  std::string line;
  std::vector<DecisionTraceRecord> parsed;
  while (std::getline(in, line)) parsed.push_back(parse_decision_line(line));
  ASSERT_EQ(parsed.size(), 2u);
  expect_same_record(parsed[0], admitted);
  expect_same_record(parsed[1], rejected);
}

TEST(DecisionTracer, InstantBufferIsBounded) {
  DecisionTracer tracer(nullptr, 2);
  for (int i = 0; i < 5; ++i) tracer.on_decision(sample_record());
  EXPECT_EQ(tracer.records(), 5u);
  EXPECT_EQ(tracer.instants().size(), 2u);
  EXPECT_EQ(tracer.instants_dropped(), 3u);
}

TEST(ChromeTrace, EmitsParseableEventsForDecisions) {
  std::vector<DecisionInstant> decisions(2);
  decisions[0].ts_ns = 1000;
  decisions[0].task = 1;
  decisions[0].admitted = true;
  decisions[1].ts_ns = 3000;
  decisions[1].task = 2;
  std::ostringstream out;
  write_chrome_trace(out, decisions);
  const Json doc = Json::parse(out.str());
  const Json::Array& events = doc.at("traceEvents").as_array();
  ASSERT_GE(events.size(), 2u);
  for (const Json& event : events) {
    EXPECT_NO_THROW((void)event.at("ph").as_string());
    EXPECT_NO_THROW((void)event.at("ts").as_number());
  }
}

}  // namespace
}  // namespace lorasched::obs

namespace lorasched {
namespace {

using obs::DecisionTraceRecord;
using obs::DecisionTracer;

Instance trace_instance(std::uint64_t seed = 42) {
  return make_instance(testing::small_scenario(seed));
}

void expect_identical_results(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.metrics.social_welfare, b.metrics.social_welfare);
  EXPECT_EQ(a.metrics.total_payments, b.metrics.total_payments);
  EXPECT_EQ(a.metrics.admitted, b.metrics.admitted);
  EXPECT_EQ(a.metrics.rejected, b.metrics.rejected);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.outcomes[i].task, b.outcomes[i].task);
    EXPECT_EQ(a.outcomes[i].admitted, b.outcomes[i].admitted);
    EXPECT_EQ(a.outcomes[i].payment, b.outcomes[i].payment);
    EXPECT_EQ(a.outcomes[i].vendor, b.outcomes[i].vendor);
    EXPECT_EQ(a.outcomes[i].completion, b.outcomes[i].completion);
  }
}

TEST(TracingEquivalence, EngineDecisionsAreBitIdenticalWithTracing) {
  const Instance instance = trace_instance();

  Pdftsp plain(pdftsp_config_for(instance), instance.cluster, instance.energy,
               instance.horizon);
  const SimResult baseline = run_simulation(instance, plain);

  Pdftsp traced(pdftsp_config_for(instance), instance.cluster, instance.energy,
                instance.horizon);
  std::ostringstream jsonl;
  DecisionTracer tracer(&jsonl);
  traced.set_trace_sink(&tracer);
  const SimResult observed = run_simulation(instance, traced);

  expect_identical_results(baseline, observed);
  EXPECT_EQ(tracer.records(), baseline.outcomes.size());
  EXPECT_EQ(tracer.admitted(),
            static_cast<std::uint64_t>(baseline.metrics.admitted));
}

TEST(TracingEquivalence, AdaptivePolicyForwardsSinkAndStaysIdentical) {
  const Instance instance = trace_instance(7);

  AdaptivePdftsp plain(OnlineParamEstimator::Config{}, instance.cluster,
                       instance.energy, instance.horizon);
  const SimResult baseline = run_simulation(instance, plain);

  AdaptivePdftsp traced(OnlineParamEstimator::Config{}, instance.cluster,
                        instance.energy, instance.horizon);
  DecisionTracer tracer;
  traced.set_trace_sink(&tracer);
  const SimResult observed = run_simulation(instance, traced);

  expect_identical_results(baseline, observed);
  EXPECT_EQ(tracer.records(), baseline.outcomes.size());
}

TEST(TracingEquivalence, ServiceDecisionsAreBitIdenticalWithTracing) {
  const Instance instance = trace_instance(11);

  const auto serve = [&instance](DecisionTracer* tracer) {
    const shard::PolicyFactory pdftsp =
        shard::make_pdftsp_factory(pdftsp_config_for(instance));
    shard::ShardedConfig config;
    config.time_decisions = false;
    shard::ShardedService server(
        instance,
        [&](const Cluster& cluster, const EnergyModel& energy, Slot horizon) {
          std::unique_ptr<Policy> policy = pdftsp(cluster, energy, horizon);
          if (tracer != nullptr) {
            dynamic_cast<Pdftsp&>(*policy).set_trace_sink(tracer);
          }
          return policy;
        },
        config);
    for (const Task& task : instance.tasks) (void)server.submit(task);
    server.close();
    server.run(std::chrono::nanoseconds{0});
    return server.finish();
  };

  const SimResult baseline = serve(nullptr);
  DecisionTracer tracer;
  const SimResult observed = serve(&tracer);
  expect_identical_results(baseline, observed);
  EXPECT_EQ(tracer.records(), baseline.outcomes.size());
}

TEST(TraceContent, RecordsExplainEveryDecision) {
  const Instance instance = trace_instance(5);
  Pdftsp policy(pdftsp_config_for(instance), instance.cluster, instance.energy,
                instance.horizon);
  std::ostringstream jsonl;
  DecisionTracer tracer(&jsonl);
  policy.set_trace_sink(&tracer);
  const SimResult result = run_simulation(instance, policy);

  std::map<TaskId, const TaskOutcome*> outcomes;
  for (const TaskOutcome& outcome : result.outcomes) {
    outcomes[outcome.task] = &outcome;
  }

  std::istringstream in(jsonl.str());
  std::string line;
  std::size_t records = 0;
  while (std::getline(in, line)) {
    const DecisionTraceRecord record = obs::parse_decision_line(line);
    ++records;
    ASSERT_NE(outcomes.count(record.task), 0u) << "unknown task in trace";
    const TaskOutcome& outcome = *outcomes[record.task];

    // Alg. 2's candidate sweep is always recorded.
    ASSERT_FALSE(record.candidates.empty());
    EXPECT_EQ(record.admitted, outcome.admitted);
    EXPECT_EQ(record.bid, outcome.bid);

    // Eq. (14): components sum to total; admitted bids are charged exactly
    // the engine's committed payment, rejected bids are charged nothing.
    const obs::PaymentTrace& pay = record.payment;
    EXPECT_NEAR(pay.total, pay.vendor + pay.energy + pay.compute + pay.memory,
                1e-12);
    if (record.admitted) {
      EXPECT_EQ(pay.charged, outcome.payment);
      ASSERT_GE(record.chosen, 0);
      ASSERT_LT(static_cast<std::size_t>(record.chosen),
                record.candidates.size());
      const obs::CandidateTrace& chosen =
          record.candidates[static_cast<std::size_t>(record.chosen)];
      EXPECT_TRUE(chosen.feasible);
      EXPECT_EQ(chosen.vendor, outcome.vendor);
      EXPECT_EQ(chosen.completion, outcome.completion);
      EXPECT_EQ(chosen.slots, outcome.slots_used);
      // Eq. (10): admission requires a strictly positive objective.
      EXPECT_GT(record.objective, 0.0);
      // The sampled duals cover the chosen schedule's cells, and the
      // payment's max prices are attained on those cells.
      ASSERT_EQ(record.duals.size(),
                static_cast<std::size_t>(chosen.slots));
      double max_lambda = 0.0;
      double max_phi = 0.0;
      for (const obs::DualCellSample& cell : record.duals) {
        max_lambda = std::max(max_lambda, cell.lambda);
        max_phi = std::max(max_phi, cell.phi);
      }
      EXPECT_EQ(pay.max_lambda, max_lambda);
      EXPECT_EQ(pay.max_phi, max_phi);
    } else {
      EXPECT_EQ(pay.charged, 0.0);
      if (!record.capacity_reject) {
        // A plain price-out: no feasible positive-objective candidate.
        EXPECT_LE(record.objective, 0.0);
      }
    }
  }
  EXPECT_EQ(records, result.outcomes.size());
}

TEST(TraceContent, DetachingTheSinkStopsEmission) {
  const Instance instance = trace_instance(3);
  Pdftsp policy(pdftsp_config_for(instance), instance.cluster, instance.energy,
                instance.horizon);
  DecisionTracer tracer;
  policy.set_trace_sink(&tracer);
  policy.set_trace_sink(nullptr);
  (void)run_simulation(instance, policy);
  EXPECT_EQ(tracer.records(), 0u);
}

}  // namespace
}  // namespace lorasched
