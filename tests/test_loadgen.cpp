// Load-generation subsystem (DESIGN.md §14): the firehose id packing and
// stream synthesis must be deterministic in the seed; SoakMetrics must
// account crafted gap / out-of-order / duplicate / restart-resequenced
// decision streams exactly; latency CDF quantiles must honor the log-bucket
// error bound; the verdict JSON must round-trip and merge exactly; and the
// whole loop — firehose through a real admission service, in-process and
// over the wire ingest seam — must come back clean.
#include "lorasched/loadgen/firehose.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lorasched/core/pdftsp.h"
#include "lorasched/experiments/scenario.h"
#include "lorasched/io/serialize.h"
#include "lorasched/loadgen/arrival.h"
#include "lorasched/loadgen/soak_metrics.h"
#include "lorasched/loadgen/verdict.h"
#include "lorasched/net/firehose_ingest.h"
#include "lorasched/net/messages.h"
#include "lorasched/net/transport.h"
#include "lorasched/net/wire.h"
#include "lorasched/shard/sharded_service.h"
#include "test_helpers.h"

namespace lorasched::loadgen {
namespace {

using namespace std::chrono_literals;

// --- Bid id packing ---------------------------------------------------------

TEST(BidId, PackRoundTrip) {
  const std::uint32_t sources[] = {0, 1, 63, kMaxBidSource};
  const std::uint64_t seqs[] = {0, 1, 12345, kMaxBidSeq};
  for (const std::uint32_t source : sources) {
    for (const std::uint64_t seq : seqs) {
      const TaskId id = encode_bid_id(source, seq);
      EXPECT_GE(id, 0) << "ids must never go negative";
      EXPECT_EQ(bid_source(id), source);
      EXPECT_EQ(bid_seq(id), seq);
    }
  }
}

TEST(BidId, SourceMajorOrdering) {
  // A slot batch sorted by task id is sorted by (source, seq) — the
  // property the zero-out-of-order soak invariant rests on.
  EXPECT_LT(encode_bid_id(0, kMaxBidSeq), encode_bid_id(1, 0));
  EXPECT_LT(encode_bid_id(5, 10), encode_bid_id(5, 11));
}

TEST(BidId, RejectsOutOfRange) {
  EXPECT_THROW((void)encode_bid_id(kMaxBidSource + 1, 0),
               std::invalid_argument);
  EXPECT_THROW((void)encode_bid_id(0, kMaxBidSeq + 1), std::invalid_argument);
}

// --- Arrival shaping --------------------------------------------------------

TEST(Arrival, EveryMixNormalizesToBaseRate) {
  const ArrivalMix mixes[] = {ArrivalMix::kPoisson, ArrivalMix::kBurst,
                              ArrivalMix::kDiurnal, ArrivalMix::kMLaaS,
                              ArrivalMix::kPhilly,  ArrivalMix::kHelios};
  for (const ArrivalMix mix : mixes) {
    const std::vector<double> rates = arrival_rates(mix, 144, 50.0, 7);
    ASSERT_EQ(rates.size(), 144u);
    double sum = 0.0;
    for (const double r : rates) {
      EXPECT_GE(r, 0.0);
      sum += r;
    }
    // kBurst truncates a partial duty cycle at the horizon tail, so allow
    // a few percent; the analytic shapes normalize exactly.
    EXPECT_NEAR(sum / 144.0, 50.0, 5.0 * 0.05 * 50.0) << to_string(mix);
  }
}

TEST(Arrival, DeterministicAndParseRoundTrip) {
  const ArrivalMix mixes[] = {ArrivalMix::kPoisson, ArrivalMix::kBurst,
                              ArrivalMix::kDiurnal, ArrivalMix::kMLaaS,
                              ArrivalMix::kPhilly,  ArrivalMix::kHelios};
  for (const ArrivalMix mix : mixes) {
    EXPECT_EQ(arrival_rates(mix, 96, 20.0, 11), arrival_rates(mix, 96, 20.0, 11));
    EXPECT_EQ(parse_arrival_mix(to_string(mix)), mix);
  }
  EXPECT_THROW((void)parse_arrival_mix("bogus"), std::invalid_argument);
}

TEST(Arrival, PaceBidsZeroPeriodReplaysInOrder) {
  std::vector<Task> bids;
  for (const Slot arrival : {0, 0, 1, 3}) {
    bids.push_back(testing::make_task(static_cast<TaskId>(bids.size()),
                                      arrival, arrival + 4, 100.0));
  }
  std::vector<TaskId> emitted;
  std::vector<Slot> slot_ends;
  const std::size_t n = pace_bids(
      bids, 0ns, [&](const Task& bid) { emitted.push_back(bid.id); },
      [&](Slot slot) { slot_ends.push_back(slot); });
  EXPECT_EQ(n, bids.size());
  EXPECT_EQ(emitted, (std::vector<TaskId>{0, 1, 2, 3}));
  // Every slot up to the last arrival closes, including the empty slot 2.
  EXPECT_EQ(slot_ends, (std::vector<Slot>{0, 1, 2, 3}));
}

// --- Firehose stream synthesis ----------------------------------------------

std::vector<Task> generate_stream(std::uint32_t source, std::uint64_t seed,
                                  Slot window = 0) {
  const ScenarioConfig scenario = testing::small_scenario();
  const Instance env = make_instance(scenario);
  FirehoseConfig config;
  config.source = source;
  config.seed = seed;
  config.rate_per_slot = 4.0;
  config.horizon = scenario.horizon;
  config.arrival_window = window;
  config.taskgen = scenario.taskgen;
  return BidFirehose(config, env.cluster, env.energy, env.market).generate();
}

TEST(Firehose, SameSeedBitIdentical) {
  const std::vector<Task> a = generate_stream(3, 42);
  const std::vector<Task> b = generate_stream(3, 42);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // The bid-line serialization covers every field bit-for-bit.
    EXPECT_EQ(io::format_bid_line(a[i]), io::format_bid_line(b[i]));
  }
}

TEST(Firehose, SeqDenseSortedAndWindowed) {
  const Slot window = 24;
  const std::vector<Task> stream = generate_stream(2, 7, window);
  ASSERT_GT(stream.size(), 0u);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(bid_source(stream[i].id), 2u);
    EXPECT_EQ(bid_seq(stream[i].id), i) << "seq must be dense from 0";
    EXPECT_LT(stream[i].arrival, window);
    if (i > 0) {
      EXPECT_LE(stream[i - 1].arrival, stream[i].arrival);
    }
  }
}

TEST(Firehose, SourcesAndSeedsDecorrelate) {
  EXPECT_NE(firehose_stream_seed(42, 0), firehose_stream_seed(42, 1));
  EXPECT_NE(firehose_stream_seed(42, 0), firehose_stream_seed(43, 0));
  const std::vector<Task> a = generate_stream(0, 42);
  const std::vector<Task> b = generate_stream(1, 42);
  ASSERT_GT(a.size(), 0u);
  ASSERT_GT(b.size(), 0u);
  // Beyond the id prefix, the streams must differ in substance.
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].arrival != b[i].arrival || a[i].work != b[i].work ||
              a[i].bid != b[i].bid;
  }
  EXPECT_TRUE(differs);
}

// --- SoakMetrics sequence accounting ----------------------------------------

TEST(SoakMetricsTest, CleanStream) {
  SoakMetrics soak;
  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    soak.record_offered(1, seq, 1000 * static_cast<std::int64_t>(seq));
  }
  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    soak.record_response(1, seq,
                         seq % 2 == 0 ? SoakStatus::kAdmitted
                                      : SoakStatus::kRejected,
                         1000 * static_cast<std::int64_t>(seq) + 500);
  }
  const SoakReport report = soak.report();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.totals.offered, 5u);
  EXPECT_EQ(report.totals.responded, 5u);
  EXPECT_EQ(report.totals.admitted, 3u);
  EXPECT_EQ(report.totals.rejected, 2u);
  EXPECT_EQ(report.totals.lost, 0u);
  EXPECT_EQ(soak.outstanding(), 0u);
}

TEST(SoakMetricsTest, GapCountsAsLost) {
  SoakMetrics soak;
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    soak.record_offered(0, seq, 0);
  }
  // seq 1 and 2 never come back.
  soak.record_response(0, 0, SoakStatus::kAdmitted, 10);
  soak.record_response(0, 3, SoakStatus::kAdmitted, 20);
  const SoakReport report = soak.report();
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.totals.lost, 2u);
  EXPECT_EQ(report.totals.out_of_order, 0u);
  EXPECT_EQ(soak.outstanding(), 2u);
}

TEST(SoakMetricsTest, OutOfOrderDecisionDetected) {
  SoakMetrics soak;
  soak.record_offered(0, 0, 0);
  soak.record_offered(0, 1, 0);
  soak.record_response(0, 1, SoakStatus::kAdmitted, 10);  // max decided: 1
  soak.record_response(0, 0, SoakStatus::kRejected, 20);  // regression
  const SoakReport report = soak.report();
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.totals.out_of_order, 1u);
  EXPECT_EQ(report.totals.responded, 2u);  // both still resolved
  EXPECT_EQ(report.totals.lost, 0u);
}

TEST(SoakMetricsTest, DuplicateResponseDetected) {
  SoakMetrics soak;
  soak.record_offered(0, 0, 0);
  soak.record_response(0, 0, SoakStatus::kAdmitted, 10);
  soak.record_response(0, 0, SoakStatus::kAdmitted, 20);  // replayed
  const SoakReport report = soak.report();
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.totals.duplicates, 1u);
  EXPECT_EQ(report.totals.responded, 1u);
  EXPECT_EQ(report.totals.admitted, 1u);
}

TEST(SoakMetricsTest, RestartResequencedSenderShowsAsDuplicates) {
  SoakMetrics soak;
  for (std::uint64_t seq = 0; seq < 3; ++seq) soak.record_offered(7, seq, 0);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    soak.record_response(7, seq, SoakStatus::kAdmitted,
                         static_cast<std::int64_t>(seq) + 1);
  }
  // The sender restarts and re-walks its sequence space from 0; the
  // service's replayed decisions must not double-count.
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    soak.record_response(7, seq, SoakStatus::kAdmitted,
                         static_cast<std::int64_t>(seq) + 100);
  }
  const SoakReport report = soak.report();
  EXPECT_EQ(report.totals.duplicates, 3u);
  EXPECT_EQ(report.totals.responded, 3u);
  EXPECT_FALSE(report.clean());
}

TEST(SoakMetricsTest, ReofferedLiveSeqFlagged) {
  SoakMetrics soak;
  soak.record_offered(0, 5, 100);
  soak.record_offered(0, 5, 200);  // same seq still outstanding
  const SoakReport report = soak.report();
  EXPECT_EQ(report.totals.reoffered, 1u);
  EXPECT_EQ(report.totals.offered, 2u);
  EXPECT_EQ(soak.outstanding(), 1u);  // one map entry, first send time kept
}

TEST(SoakMetricsTest, ShedsExemptFromOrderCheck) {
  SoakMetrics soak;
  for (std::uint64_t seq = 0; seq < 3; ++seq) soak.record_offered(0, seq, 0);
  soak.record_response(0, 2, SoakStatus::kAdmitted, 10);  // max decided: 2
  // A shed reply for an earlier seq races back from the ingest edge —
  // legitimate, not out-of-order.
  soak.record_response(0, 0, SoakStatus::kShedFull, 20);
  // A *decision* for an earlier seq is still a violation.
  soak.record_response(0, 1, SoakStatus::kRejected, 30);
  const SoakReport report = soak.report();
  EXPECT_EQ(report.totals.shed, 1u);
  EXPECT_EQ(report.totals.out_of_order, 1u);
  EXPECT_EQ(report.totals.responded, 3u);
}

TEST(SoakMetricsTest, UnknownResponseDetected) {
  SoakMetrics soak;
  soak.record_offered(0, 0, 0);
  soak.record_response(0, 99, SoakStatus::kAdmitted, 10);  // never offered
  const SoakReport report = soak.report();
  EXPECT_EQ(report.totals.unknown, 1u);
  EXPECT_FALSE(report.clean());
}

TEST(SoakMetricsTest, PerSourceRowsIsolateFaults) {
  SoakMetrics soak;
  soak.record_offered(0, 0, 0);
  soak.record_offered(3, 0, 0);
  soak.record_response(0, 0, SoakStatus::kAdmitted, 10);
  // Source 3's bid is lost; source 0 stays clean.
  const SoakReport report = soak.report();
  ASSERT_EQ(report.sources.size(), 2u);
  EXPECT_EQ(report.sources[0].source, 0u);
  EXPECT_EQ(report.sources[0].lost, 0u);
  EXPECT_EQ(report.sources[1].source, 3u);
  EXPECT_EQ(report.sources[1].lost, 1u);
  EXPECT_EQ(report.totals.lost, 1u);
}

// --- Latency CDF quantiles --------------------------------------------------

TEST(SoakMetricsTest, LatencyQuantilesWithinLogBucketBound) {
  SoakMetrics soak;
  // 1000 samples at exactly 1ms..1000ms: the exact p-th percentile of the
  // population is p*10 ms.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::int64_t send_ns = static_cast<std::int64_t>(i) * 10'000'000;
    const std::int64_t latency_ns =
        static_cast<std::int64_t>(i + 1) * 1'000'000;
    soak.record_offered(0, i, send_ns);
    soak.record_response(0, i, SoakStatus::kAdmitted, send_ns + latency_ns);
  }
  const SoakReport report = soak.report();
  ASSERT_EQ(report.latency.count, 1000u);
  EXPECT_NEAR(report.latency.mean(), 0.5005, 1e-9);  // sum/count is exact
  // 8 buckets/octave bounds quantile relative error at 2^(1/8)-1 ~ 9.05%.
  const double bound = std::pow(2.0, 1.0 / 8.0) - 1.0 + 1e-6;
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = p * 10.0 / 1000.0;  // seconds
    const double estimate = report.latency.percentile(p);
    EXPECT_NEAR(estimate, exact, exact * bound) << "p" << p;
  }
  // Admit-only histogram saw the same samples here.
  EXPECT_EQ(report.admit_latency.count, 1000u);
}

// --- Verdict JSON -----------------------------------------------------------

SoakReport sample_report() {
  SoakMetrics soak;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    const auto send = static_cast<std::int64_t>(seq) * 1000;
    soak.record_offered(seq % 3, seq / 3, send);
    soak.record_response(seq % 3, seq / 3,
                         seq % 5 == 0 ? SoakStatus::kRejected
                                      : SoakStatus::kAdmitted,
                         send + 50'000 + static_cast<std::int64_t>(seq));
  }
  soak.record_offered(0, 1000, 0);  // one lost bid -> verdict not ok
  return soak.report();
}

TEST(Verdict, JsonRoundTripsExactly) {
  const SoakReport report = sample_report();
  const obs::Json doc = verdict_json(report);
  const SoakReport back = parse_verdict(obs::Json::parse(doc.dump()));
  EXPECT_EQ(back.totals.offered, report.totals.offered);
  EXPECT_EQ(back.totals.responded, report.totals.responded);
  EXPECT_EQ(back.totals.admitted, report.totals.admitted);
  EXPECT_EQ(back.totals.rejected, report.totals.rejected);
  EXPECT_EQ(back.totals.lost, report.totals.lost);
  EXPECT_FALSE(back.clean());
  ASSERT_EQ(back.sources.size(), report.sources.size());
  for (std::size_t i = 0; i < back.sources.size(); ++i) {
    EXPECT_EQ(back.sources[i].source, report.sources[i].source);
    EXPECT_EQ(back.sources[i].offered, report.sources[i].offered);
  }
  // Raw bucket counts survive, so re-derived quantiles match bit-for-bit.
  ASSERT_EQ(back.latency.counts, report.latency.counts);
  EXPECT_EQ(back.latency.count, report.latency.count);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.latency.percentile(99.0)),
            std::bit_cast<std::uint64_t>(report.latency.percentile(99.0)));
}

TEST(Verdict, MergeSumsPartsExactly) {
  // Two disjoint partial runs vs. one combined run over the same samples:
  // the merge must be exact, not quantile-of-quantiles.
  SoakMetrics part_a;
  SoakMetrics part_b;
  SoakMetrics combined;
  for (std::uint64_t i = 0; i < 200; ++i) {
    SoakMetrics& part = i % 2 == 0 ? part_a : part_b;
    const std::uint32_t source = i % 2 == 0 ? 0u : 1u;
    const auto send = static_cast<std::int64_t>(i) * 1000;
    const auto recv = send + 1'000'000 + static_cast<std::int64_t>(i) * 7'000;
    part.record_offered(source, i / 2, send);
    part.record_response(source, i / 2, SoakStatus::kAdmitted, recv);
    combined.record_offered(source, i / 2, send);
    combined.record_response(source, i / 2, SoakStatus::kAdmitted, recv);
  }
  const SoakReport merged =
      merge_reports({part_a.report(), part_b.report()});
  const SoakReport whole = combined.report();
  EXPECT_TRUE(merged.clean());
  EXPECT_EQ(merged.totals.offered, whole.totals.offered);
  EXPECT_EQ(merged.totals.admitted, whole.totals.admitted);
  ASSERT_EQ(merged.sources.size(), 2u);
  ASSERT_EQ(merged.latency.counts, whole.latency.counts);
  EXPECT_EQ(merged.latency.count, whole.latency.count);
  for (const double p : {50.0, 99.0, 99.9}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(merged.latency.percentile(p)),
              std::bit_cast<std::uint64_t>(whole.latency.percentile(p)));
  }
  EXPECT_THROW((void)parse_verdict(obs::Json::parse("{\"schema\":\"x\"}")),
               std::invalid_argument);
}

// --- Wire codecs ------------------------------------------------------------

TEST(WireBid, CodecsRoundTripBitExactly) {
  net::BidSubmitMsg submit;
  submit.source = 9;
  submit.seq = (std::uint64_t{1} << 40) + 17;
  submit.send_ns = -1234567890123;
  submit.task = testing::make_task(encode_bid_id(9, 17), 3, 9, 500.0);
  const net::BidSubmitMsg submit2 =
      net::decode_bid_submit(net::encode(submit));
  EXPECT_EQ(submit2.source, submit.source);
  EXPECT_EQ(submit2.seq, submit.seq);
  EXPECT_EQ(submit2.send_ns, submit.send_ns);
  EXPECT_EQ(io::format_bid_line(submit2.task),
            io::format_bid_line(submit.task));

  net::BidDecisionMsg decision;
  decision.source = 9;
  decision.seq = 17;
  decision.send_ns = 42;
  decision.task = encode_bid_id(9, 17);
  decision.status = net::BidStatus::kShedClosed;
  decision.payment = 0.1 + 0.2;
  decision.decided_slot = 5;
  const net::BidDecisionMsg decision2 =
      net::decode_bid_decision(net::encode(decision));
  EXPECT_EQ(decision2.status, decision.status);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(decision2.payment),
            std::bit_cast<std::uint64_t>(decision.payment));
  EXPECT_EQ(decision2.decided_slot, decision.decided_slot);
  EXPECT_EQ(decision2.task, decision.task);

  net::BidStreamEndMsg end;
  end.source = 3;
  end.offered = 1'000'000;
  const net::BidStreamEndMsg end2 =
      net::decode_bid_stream_end(net::encode(end));
  EXPECT_EQ(end2.source, end.source);
  EXPECT_EQ(end2.offered, end.offered);
}

// --- End-to-end: firehose through a real service ----------------------------

TEST(SoakService, InProcessSeamRunsClean) {
  const ScenarioConfig scenario = testing::small_scenario();
  const Instance env = make_instance(scenario);
  std::vector<Task> bids;
  for (const std::uint32_t source : {0u, 1u}) {
    FirehoseConfig config;
    config.source = source;
    config.rate_per_slot = 2.0;
    config.horizon = env.horizon;
    config.arrival_window = env.horizon - 8;  // leave drain headroom
    config.taskgen = scenario.taskgen;
    for (Task& bid :
         BidFirehose(config, env.cluster, env.energy, env.market).generate()) {
      bids.push_back(std::move(bid));
    }
  }
  ASSERT_GT(bids.size(), 0u);

  shard::ShardedConfig config;
  config.queue_capacity = bids.size() + 1;
  config.late_bids = service::LateBidMode::kClamp;
  shard::ShardedService server(
      env, shard::make_pdftsp_factory(pdftsp_config_for(env)), config);
  SoakMetrics soak;
  server.add_subscriber(&soak);

  for (const Task& bid : bids) {
    soak.record_offered(bid_source(bid.id), bid_seq(bid.id),
                        SoakMetrics::now_ns());
    ASSERT_EQ(server.submit(bid), service::SubmitResult::kAccepted);
  }
  server.close();
  for (Slot t = 0; t < env.horizon; ++t) server.step();

  const SoakReport report = soak.report();
  EXPECT_TRUE(report.clean())
      << "lost " << report.totals.lost << " ooo "
      << report.totals.out_of_order << " dup " << report.totals.duplicates;
  EXPECT_EQ(report.totals.offered, bids.size());
  EXPECT_EQ(report.totals.responded, bids.size());
  EXPECT_GT(report.latency.count, 0u);
}

TEST(SoakService, WireIngestSeamRunsClean) {
  const ScenarioConfig scenario = testing::small_scenario();
  const Instance env = make_instance(scenario);
  FirehoseConfig firehose_config;
  firehose_config.source = 4;
  firehose_config.rate_per_slot = 2.0;
  firehose_config.horizon = env.horizon;
  firehose_config.arrival_window = env.horizon - 8;
  firehose_config.taskgen = scenario.taskgen;
  const std::vector<Task> bids =
      BidFirehose(firehose_config, env.cluster, env.energy, env.market)
          .generate();
  ASSERT_GT(bids.size(), 0u);

  shard::ShardedConfig config;
  config.queue_capacity = bids.size() + 1;
  config.late_bids = service::LateBidMode::kClamp;
  shard::ShardedService server(
      env, shard::make_pdftsp_factory(pdftsp_config_for(env)), config);

  net::FirehoseIngest::Config ingest_config;
  ingest_config.expected_streams = 1;
  net::FirehoseIngest ingest(
      ingest_config, [&server](const Task& bid) { return server.submit(bid); },
      [&server] { server.close(); });
  net::IngestSubscriber relay(ingest);
  server.add_subscriber(&relay);

  // The consumer drives the service until the stream-end quiesce closes
  // the queue, after which run() fast-forwards to the horizon.
  std::thread consumer([&server] { server.run(200us); });

  SoakMetrics soak;
  net::Connection client(
      net::Socket::connect("127.0.0.1", ingest.port()), net::Connection::Config{},
      [&soak](net::Frame&& frame) {
        if (frame.type != net::MsgType::kBidDecision) return;
        const net::BidDecisionMsg msg =
            net::decode_bid_decision(frame.payload);
        soak.record_response(msg.source, msg.seq,
                             static_cast<SoakStatus>(msg.status),
                             SoakMetrics::now_ns());
      },
      [](const std::string&) {});
  for (const Task& bid : bids) {
    net::BidSubmitMsg msg;
    msg.source = 4;
    msg.seq = bid_seq(bid.id);
    msg.send_ns = SoakMetrics::now_ns();
    msg.task = bid;
    soak.record_offered(msg.source, msg.seq, msg.send_ns);
    ASSERT_TRUE(client.send(net::MsgType::kBidSubmit, net::encode(msg)));
  }
  net::BidStreamEndMsg end;
  end.source = 4;
  end.offered = bids.size();
  ASSERT_TRUE(client.send(net::MsgType::kBidStreamEnd, net::encode(end)));

  consumer.join();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (soak.outstanding() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  ingest.stop();

  const SoakReport report = soak.report();
  EXPECT_TRUE(report.clean())
      << "lost " << report.totals.lost << " ooo "
      << report.totals.out_of_order << " dup " << report.totals.duplicates
      << " unknown " << report.totals.unknown;
  EXPECT_EQ(report.totals.responded, bids.size());
  EXPECT_EQ(ingest.pending(), 0u);
  EXPECT_EQ(ingest.streams_ended(), 1u);
}

}  // namespace
}  // namespace lorasched::loadgen
