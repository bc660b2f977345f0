// Distributed control plane (DESIGN.md §11): wire primitives and frame
// decoding must reject every malformed input with WireError; every typed
// message must round-trip bit-exactly (doubles cross as fixed64 bit
// patterns); the TCP transport must detect peer failure via heartbeats; and
// a ShardedService over RemoteShardHandles must be *bit-identical* to the
// in-process service at the same K — including after an agent crash
// (graceful degradation, no hang) and after a reconnect-and-resync.
#include "lorasched/net/remote_shard.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "lorasched/experiments/scenario.h"
#include "lorasched/io/serialize.h"
#include "lorasched/net/host_agent.h"
#include "lorasched/net/http.h"
#include "lorasched/net/messages.h"
#include "lorasched/net/transport.h"
#include "lorasched/net/wire.h"
#include "lorasched/obs/cluster_trace.h"
#include "lorasched/obs/federation.h"
#include "lorasched/shard/sharded_service.h"
#include "test_helpers.h"

namespace lorasched::net {
namespace {

using namespace std::chrono_literals;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// --- Wire primitives --------------------------------------------------------

TEST(Wire, VarintRoundTrip) {
  const std::uint64_t values[] = {
      0, 1, 127, 128, 300, (std::uint64_t{1} << 32) + 5,
      std::numeric_limits<std::uint64_t>::max()};
  WireWriter w;
  for (const std::uint64_t v : values) w.put_varint(v);
  WireReader r(w.bytes());
  for (const std::uint64_t v : values) EXPECT_EQ(r.get_varint("v"), v);
  r.expect_done("varints");
}

TEST(Wire, SvarintRoundTrip) {
  const std::int64_t values[] = {0,  -1, 1, 63, -64, 1234567,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  WireWriter w;
  for (const std::int64_t v : values) w.put_svarint(v);
  WireReader r(w.bytes());
  for (const std::int64_t v : values) EXPECT_EQ(r.get_svarint("v"), v);
}

TEST(Wire, DoublesCrossBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           0.1 + 0.2,
                           1e308,
                           5e-324,  // smallest denormal
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  WireWriter w;
  for (const double v : values) w.put_f64(v);
  WireReader r(w.bytes());
  for (const double v : values) {
    EXPECT_EQ(bits(r.get_f64("v")), bits(v));
  }
}

TEST(Wire, RejectsOverlongVarint) {
  // 0 encoded in two bytes (0x80 0x00) is overlong and must not decode.
  const std::vector<std::uint8_t> overlong{0x80, 0x00};
  WireReader r(overlong);
  EXPECT_THROW((void)r.get_varint("overlong"), WireError);
}

TEST(Wire, RejectsVarintOverflow) {
  // Ten continuation-heavy bytes pushing past 64 bits.
  const std::vector<std::uint8_t> huge{0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                       0xFF, 0xFF, 0xFF, 0xFF, 0x7F};
  WireReader r(huge);
  EXPECT_THROW((void)r.get_varint("overflow"), WireError);
}

TEST(Wire, RejectsTruncation) {
  WireWriter w;
  w.put_f64(3.5);
  {
    WireReader r(w.bytes().data(), 3);
    EXPECT_THROW((void)r.get_f64("f"), WireError);
  }
  WireWriter s;
  s.put_varint(5);  // string length 5 with no bytes behind it
  WireReader r(s.bytes());
  EXPECT_THROW((void)r.get_string("s"), WireError);
}

TEST(Wire, RejectsAbsurdCounts) {
  WireWriter w;
  w.put_varint(kMaxWireElements + 1);
  WireReader r(w.bytes());
  EXPECT_THROW((void)r.get_count("count"), WireError);
}

TEST(Wire, RejectsTrailingBytes) {
  WireWriter w;
  w.put_u8(1);
  w.put_u8(2);
  WireReader r(w.bytes());
  (void)r.get_u8("first");
  EXPECT_THROW(r.expect_done("payload"), WireError);
}

// --- Frame decoding ---------------------------------------------------------

TEST(FrameDecoding, ByteAtATimeReassembly) {
  const auto a = encode_frame(MsgType::kPing, {});
  const auto b = encode_frame(MsgType::kError, encode(ErrorMsg{3, "x"}));
  std::vector<std::uint8_t> stream = a;
  stream.insert(stream.end(), b.begin(), b.end());
  FrameDecoder decoder;
  std::vector<Frame> frames;
  Frame frame;
  for (const std::uint8_t byte : stream) {
    decoder.feed(&byte, 1);
    while (decoder.next(frame)) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MsgType::kPing);
  EXPECT_EQ(frames[1].type, MsgType::kError);
  EXPECT_EQ(decode_error(frames[1].payload).message, "x");
}

TEST(FrameDecoding, RejectsBadMagic) {
  auto bytes = encode_frame(MsgType::kPing, {});
  bytes[0] = 'X';
  FrameDecoder decoder;
  EXPECT_THROW(
      {
        decoder.feed(bytes.data(), bytes.size());
        Frame frame;
        while (decoder.next(frame)) {
        }
      },
      WireError);
}

TEST(FrameDecoding, RejectsVersionSkew) {
  auto bytes = encode_frame(MsgType::kPing, {});
  bytes[4] = kWireVersion + 1;
  FrameDecoder decoder;
  try {
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    while (decoder.next(frame)) {
    }
    FAIL() << "version skew must throw";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(FrameDecoding, RejectsUnknownType) {
  auto bytes = encode_frame(MsgType::kPing, {});
  bytes[5] = 200;
  FrameDecoder decoder;
  EXPECT_THROW(
      {
        decoder.feed(bytes.data(), bytes.size());
        Frame frame;
        while (decoder.next(frame)) {
        }
      },
      WireError);
}

TEST(FrameDecoding, RejectsAbsurdPayloadLength) {
  std::vector<std::uint8_t> bytes(kWireMagic, kWireMagic + 4);
  bytes.push_back(kWireVersion);
  bytes.push_back(static_cast<std::uint8_t>(MsgType::kOffer));
  WireWriter w;
  w.put_varint(kMaxWirePayload + 1);
  for (const std::uint8_t byte : w.bytes()) bytes.push_back(byte);
  FrameDecoder decoder;
  EXPECT_THROW(
      {
        decoder.feed(bytes.data(), bytes.size());
        Frame frame;
        while (decoder.next(frame)) {
        }
      },
      WireError);
}

TEST(FrameDecoding, PartialFrameIsNotAFrame) {
  const auto bytes = encode_frame(MsgType::kError, encode(ErrorMsg{1, "yo"}));
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size() - 1);
  Frame frame;
  EXPECT_FALSE(decoder.next(frame));
}

// --- Typed messages ---------------------------------------------------------

Task gnarly_task() {
  Task task;
  task.id = 987654321;
  task.arrival = 3;
  task.deadline = 47;
  task.dataset_samples = 0.1 + 0.2;  // not exactly representable
  task.epochs = 5;
  task.work = 1.5e6;
  task.mem_gb = 2.0 / 3.0;
  task.compute_share = 1.0 / 3.0;
  task.needs_prep = true;
  task.model = 2;
  task.bid = 12.345678901234567;
  task.true_value = 12.0;
  return task;
}

TEST(Messages, OfferRoundTripIsBitExact) {
  OfferMsg msg;
  msg.shard_id = 3;
  msg.task = gnarly_task();
  const OfferMsg back = decode_offer(encode(msg));
  EXPECT_EQ(back.shard_id, msg.shard_id);
  EXPECT_EQ(back.task.id, msg.task.id);
  EXPECT_EQ(back.task.arrival, msg.task.arrival);
  EXPECT_EQ(back.task.deadline, msg.task.deadline);
  EXPECT_EQ(bits(back.task.dataset_samples), bits(msg.task.dataset_samples));
  EXPECT_EQ(back.task.epochs, msg.task.epochs);
  EXPECT_EQ(bits(back.task.work), bits(msg.task.work));
  EXPECT_EQ(bits(back.task.mem_gb), bits(msg.task.mem_gb));
  EXPECT_EQ(bits(back.task.compute_share), bits(msg.task.compute_share));
  EXPECT_EQ(back.task.needs_prep, msg.task.needs_prep);
  EXPECT_EQ(back.task.model, msg.task.model);
  EXPECT_EQ(bits(back.task.bid), bits(msg.task.bid));
  EXPECT_EQ(bits(back.task.true_value), bits(msg.task.true_value));
}

TEST(Messages, AssignShardRoundTrip) {
  AssignShardMsg msg;
  msg.shard_id = 2;
  msg.members = {1, 4, 6};
  msg.alpha = 2.25;
  msg.beta = 1.0 / 7.0;
  msg.welfare_unit = 0.01;
  msg.share_options = {0.25, 0.5, 1.0};
  msg.time_decisions = false;
  const AssignShardMsg back = decode_assign_shard(encode(msg));
  EXPECT_EQ(back.shard_id, msg.shard_id);
  EXPECT_EQ(back.members, msg.members);
  EXPECT_EQ(bits(back.alpha), bits(msg.alpha));
  EXPECT_EQ(bits(back.beta), bits(msg.beta));
  EXPECT_EQ(bits(back.welfare_unit), bits(msg.welfare_unit));
  ASSERT_EQ(back.share_options.size(), msg.share_options.size());
  for (std::size_t i = 0; i < msg.share_options.size(); ++i) {
    EXPECT_EQ(bits(back.share_options[i]), bits(msg.share_options[i]));
  }
  EXPECT_EQ(back.time_decisions, msg.time_decisions);
}

TEST(Messages, RoundResultsRoundTrip) {
  RoundResultsMsg msg;
  msg.shard_id = 1;
  msg.slot = 9;
  WireDecision admit;
  admit.task = 17;
  admit.admit = true;
  admit.payment = 3.14159;
  admit.decide_seconds = 0.0;
  admit.schedule.task = 17;
  admit.schedule.vendor = 2;
  admit.schedule.vendor_price = 0.5;
  admit.schedule.prep_delay = 1;
  admit.schedule.run = {{0, 10}, {0, 11}, {1, 12}};
  admit.schedule.total_compute = 750.0;
  admit.schedule.total_mem = 6.0;
  admit.schedule.norm_compute = 0.75;
  admit.schedule.norm_mem = 0.125;
  admit.schedule.energy_cost = 0.9;
  admit.schedule.welfare_gain = 7.7;
  admit.schedule.share_override = 0.5;
  WireDecision reject;
  reject.task = 18;
  msg.results = {admit, reject};
  msg.snapshot.published_slot = 9;
  msg.snapshot.free_compute = 1234.5;
  msg.snapshot.classes = {{10.0, 2.0, 0.25, 0.5}, {20.0, 4.0, 0.125, 0.0}};

  const RoundResultsMsg back = decode_round_results(encode(msg));
  EXPECT_EQ(back.shard_id, msg.shard_id);
  EXPECT_EQ(back.slot, msg.slot);
  ASSERT_EQ(back.results.size(), 2u);
  EXPECT_EQ(back.results[0].task, 17);
  EXPECT_TRUE(back.results[0].admit);
  EXPECT_EQ(bits(back.results[0].payment), bits(admit.payment));
  EXPECT_EQ(back.results[0].schedule.run, admit.schedule.run);
  EXPECT_EQ(back.results[0].schedule.vendor, admit.schedule.vendor);
  EXPECT_EQ(bits(back.results[0].schedule.total_compute),
            bits(admit.schedule.total_compute));
  EXPECT_EQ(bits(back.results[0].schedule.welfare_gain),
            bits(admit.schedule.welfare_gain));
  EXPECT_EQ(bits(back.results[0].schedule.share_override),
            bits(admit.schedule.share_override));
  EXPECT_EQ(back.results[1].task, 18);
  EXPECT_FALSE(back.results[1].admit);
  EXPECT_TRUE(back.results[1].schedule.empty());
  EXPECT_EQ(back.snapshot.published_slot, 9);
  ASSERT_EQ(back.snapshot.classes.size(), 2u);
  EXPECT_EQ(bits(back.snapshot.classes[0].mean_lambda), bits(0.25));
}

/// The satellite pin: a seqlock PriceBoard snapshot shipped over the wire
/// and republished into another board reads back bit-identically.
TEST(Messages, PriceBoardSummaryWireRoundTripIsBitExact) {
  shard::PriceBoard board(2, 3);
  shard::PriceSnapshot snap;
  snap.published_slot = 7;
  snap.free_compute = 0.1 + 0.2;
  snap.classes = {{1.0 / 3.0, 2.0 / 3.0, 1e-17, -0.0},
                  {5e-324, 1e308, 0.5, 0.25},
                  {0.0, 1.0, 2.0, 3.0}};
  board.publish(1, snap);

  PublishReplyMsg msg;
  msg.shard_id = 1;
  msg.snapshot = board.read(1);
  const PublishReplyMsg decoded = decode_publish_reply(encode(msg));

  shard::PriceBoard restored(2, 3);
  restored.publish(1, decoded.snapshot);
  const shard::PriceSnapshot back = restored.read(1);
  EXPECT_EQ(back.published_slot, snap.published_slot);
  EXPECT_EQ(bits(back.free_compute), bits(snap.free_compute));
  ASSERT_EQ(back.classes.size(), snap.classes.size());
  for (std::size_t c = 0; c < snap.classes.size(); ++c) {
    SCOPED_TRACE(c);
    EXPECT_EQ(bits(back.classes[c].free_compute),
              bits(snap.classes[c].free_compute));
    EXPECT_EQ(bits(back.classes[c].free_mem), bits(snap.classes[c].free_mem));
    EXPECT_EQ(bits(back.classes[c].mean_lambda),
              bits(snap.classes[c].mean_lambda));
    EXPECT_EQ(bits(back.classes[c].mean_phi), bits(snap.classes[c].mean_phi));
  }
}

TEST(Messages, StateReplyRoundTrip) {
  StateReplyMsg msg;
  msg.shard_id = 0;
  msg.state.booked_compute = 42.5;
  msg.state.policy_state = {0.1, -0.2, 3.0e-9};
  msg.state.ledger.used_compute = {1.0, 0.0, 0.5, 0.25};
  const StateReplyMsg back = decode_state_reply(encode(msg));
  EXPECT_EQ(bits(back.state.booked_compute), bits(msg.state.booked_compute));
  ASSERT_EQ(back.state.policy_state.size(), msg.state.policy_state.size());
  for (std::size_t i = 0; i < msg.state.policy_state.size(); ++i) {
    EXPECT_EQ(bits(back.state.policy_state[i]),
              bits(msg.state.policy_state[i]));
  }
  EXPECT_EQ(back.state.ledger.used_compute.size(),
            msg.state.ledger.used_compute.size());
}

TEST(Messages, DecodersRejectTruncatedPayloads) {
  const auto payload = encode(OfferMsg{0, gnarly_task()});
  for (const std::size_t cut : {std::size_t{0}, payload.size() / 2,
                                payload.size() - 1}) {
    const std::vector<std::uint8_t> trimmed(payload.begin(),
                                            payload.begin() +
                                                static_cast<std::ptrdiff_t>(
                                                    cut));
    EXPECT_THROW((void)decode_offer(trimmed), WireError) << cut;
  }
  // Trailing garbage is as malformed as truncation.
  auto padded = payload;
  padded.push_back(0);
  EXPECT_THROW((void)decode_offer(padded), WireError);
}

TEST(Messages, EnvDigestSeparatesScenarios) {
  const Instance a = make_instance(lorasched::testing::small_scenario(1));
  // Same seed, different fleet shape: the handshake must tell them apart
  // (same-shape different-seed scenarios share an environment by design —
  // the digest covers the fleet, market, and horizon, not the bid stream).
  auto bigger = lorasched::testing::small_scenario(1);
  bigger.nodes = 8;
  const Instance b = make_instance(bigger);
  EXPECT_NE(env_digest(a.cluster, a.market, a.horizon),
            env_digest(b.cluster, b.market, b.horizon));
  EXPECT_EQ(env_digest(a.cluster, a.market, a.horizon),
            env_digest(a.cluster, a.market, a.horizon));
  EXPECT_NE(env_digest(a.cluster, a.market, a.horizon),
            env_digest(a.cluster, a.market, a.horizon + 1));
}

// --- Transport --------------------------------------------------------------

struct Mailbox {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Frame> frames;
  std::string close_reason;
  int closes = 0;

  void on_frame(Frame&& frame) {
    std::lock_guard<std::mutex> lock(mutex);
    frames.push_back(std::move(frame));
    cv.notify_all();
  }
  void on_close(const std::string& reason) {
    std::lock_guard<std::mutex> lock(mutex);
    close_reason = reason;
    ++closes;
    cv.notify_all();
  }
  bool wait_frames(std::size_t n, std::chrono::milliseconds budget) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, budget, [&] { return frames.size() >= n; });
  }
  bool wait_close(std::chrono::milliseconds budget) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, budget, [&] { return closes > 0; });
  }
};

/// Accepts exactly one peer on a loopback listener.
Socket accept_one(Listener& listener) { return listener.accept(); }

/// Polls `done` until it holds or `budget` elapsed.
template <typename Pred>
bool eventually(Pred done, std::chrono::milliseconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(Transport, LoopbackFramesFlowBothWays) {
  Listener listener(0);
  Socket server_sock;
  std::thread acceptor([&] { server_sock = accept_one(listener); });
  Socket client_sock = Socket::connect("127.0.0.1", listener.port());
  acceptor.join();

  Mailbox server_mail;
  Mailbox client_mail;
  Connection server(
      std::move(server_sock), {}, [&](Frame&& f) { server_mail.on_frame(std::move(f)); },
      [&](const std::string& r) { server_mail.on_close(r); });
  Connection client(
      std::move(client_sock), {}, [&](Frame&& f) { client_mail.on_frame(std::move(f)); },
      [&](const std::string& r) { client_mail.on_close(r); });

  ASSERT_TRUE(client.send(MsgType::kHello, encode(HelloMsg{99, 1, 1, 4, 1})));
  ASSERT_TRUE(server_mail.wait_frames(1, 5000ms));
  EXPECT_EQ(server_mail.frames[0].type, MsgType::kHello);
  EXPECT_EQ(decode_hello(server_mail.frames[0].payload).digest, 99u);

  ASSERT_TRUE(server.send(MsgType::kHelloAck, encode(HelloAckMsg{99})));
  ASSERT_TRUE(client_mail.wait_frames(1, 5000ms));
  EXPECT_EQ(client_mail.frames[0].type, MsgType::kHelloAck);
  // The writer counts a frame after ::send returns, so the peer's reply can
  // land before the client's counter moves: wait for it, don't race it.
  EXPECT_TRUE(eventually([&] { return client.frames_sent() > 0; }, 5000ms));
  EXPECT_GT(client.bytes_received(), 0u);
}

TEST(Transport, ConnectionTeardownNeverHangs) {
  // Regression: fail() used to notify the writer and blocked senders
  // without passing through the outbox mutex, so a writer between its
  // failed_ check and its wait slept through the wakeup and ~Connection
  // joined it forever. Build and destroy loopback pairs one after another
  // (never many at once): destroying the server fails the client from its
  // reader thread while the client's writer may still be starting up. The
  // window is a few instructions wide, so the old code hangs in only a
  // fraction of runs; the fixed code never does.
  constexpr int kPairs = 5000;
  // A hung join never returns to the test body, so the deadline is a
  // watchdog that aborts the process instead of waiting out ctest.
  std::mutex watch_mutex;
  std::condition_variable watch_cv;
  bool finished = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(watch_mutex);
    if (!watch_cv.wait_for(lock, 120s, [&] { return finished; })) {
      std::fprintf(stderr, "Connection teardown hung\n");
      std::abort();
    }
  });
  Listener listener(0);
  for (int i = 0; i < kPairs; ++i) {
    Socket server_sock;
    std::thread acceptor([&] { server_sock = accept_one(listener); });
    Socket client_sock = Socket::connect("127.0.0.1", listener.port());
    acceptor.join();
    auto server = std::make_unique<Connection>(
        std::move(server_sock), Connection::Config{}, [](Frame&&) {},
        [](const std::string&) {});
    Connection client(std::move(client_sock), {}, [](Frame&&) {},
                      [](const std::string&) {});
    if (i % 2 == 0) (void)client.send(MsgType::kPing, {});
    server.reset();
  }
  {
    std::lock_guard<std::mutex> lock(watch_mutex);
    finished = true;
  }
  watch_cv.notify_all();
  watchdog.join();
}

TEST(Transport, PeerDropRunsCloseHandlerOnce) {
  Listener listener(0);
  Socket server_sock;
  std::thread acceptor([&] { server_sock = accept_one(listener); });
  Socket client_sock = Socket::connect("127.0.0.1", listener.port());
  acceptor.join();

  Mailbox client_mail;
  auto server = std::make_unique<Connection>(
      std::move(server_sock), Connection::Config{}, [](Frame&&) {},
      [](const std::string&) {});
  Connection client(
      std::move(client_sock), {}, [&](Frame&& f) { client_mail.on_frame(std::move(f)); },
      [&](const std::string& r) { client_mail.on_close(r); });
  server.reset();  // peer goes away
  ASSERT_TRUE(client_mail.wait_close(5000ms));
  EXPECT_EQ(client_mail.closes, 1);
  EXPECT_FALSE(client.open());
  EXPECT_FALSE(client.send(MsgType::kPing, {}));
}

TEST(Transport, IdleTimeoutDetectsSilentPeer) {
  Listener listener(0);
  Socket server_sock;
  std::thread acceptor([&] { server_sock = accept_one(listener); });
  Socket client_sock = Socket::connect("127.0.0.1", listener.port());
  acceptor.join();

  Mailbox server_mail;
  Connection::Config watchful;
  watchful.idle_timeout = 200ms;  // no pings from the client -> dead
  Connection server(
      std::move(server_sock), watchful, [&](Frame&& f) { server_mail.on_frame(std::move(f)); },
      [&](const std::string& r) { server_mail.on_close(r); });
  Connection client(std::move(client_sock), {}, [](Frame&&) {},
                    [](const std::string&) {});
  EXPECT_TRUE(server_mail.wait_close(5000ms));
}

TEST(Transport, HeartbeatsKeepAnIdleLinkAlive) {
  Listener listener(0);
  Socket server_sock;
  std::thread acceptor([&] { server_sock = accept_one(listener); });
  Socket client_sock = Socket::connect("127.0.0.1", listener.port());
  acceptor.join();

  Connection::Config watchful;
  watchful.idle_timeout = 400ms;
  Connection server(std::move(server_sock), watchful, [](Frame&&) {},
                    [](const std::string&) {});
  Connection::Config chatty;
  chatty.ping_interval = 50ms;  // transport answers pongs by itself
  Connection client(std::move(client_sock), chatty, [](Frame&&) {},
                    [](const std::string&) {});
  std::this_thread::sleep_for(1000ms);
  EXPECT_TRUE(server.open());
  EXPECT_TRUE(client.open());
}

// --- Distributed service: helpers -------------------------------------------

std::unique_ptr<HostAgent> start_agent(const Instance& env,
                                       std::uint16_t port = 0) {
  HostAgent::Config config;
  config.port = port;
  config.ping_interval = 100ms;
  config.idle_timeout = 5000ms;
  auto agent = std::make_unique<HostAgent>(env, config);
  agent->start();
  return agent;
}

HelloMsg hello_for(const Instance& env, int shards) {
  HelloMsg hello;
  hello.digest = env_digest(env.cluster, env.market, env.horizon);
  hello.nodes = env.cluster.node_count();
  hello.classes = env.cluster.class_count();
  hello.horizon = env.horizon;
  hello.shards_total = shards;
  return hello;
}

std::shared_ptr<AgentLink> connect_link(
    const Instance& env, int shards, std::uint16_t port,
    std::chrono::milliseconds rpc_timeout = 20000ms) {
  LinkConfig config;
  config.port = port;
  config.ping_interval = 100ms;
  config.heartbeat_timeout = 5000ms;
  config.rpc_timeout = rpc_timeout;
  auto link = std::make_shared<AgentLink>(config, hello_for(env, shards));
  link->connect();
  return link;
}

shard::HandleFactory remote_factory(
    std::vector<std::shared_ptr<AgentLink>> links, PdftspConfig policy) {
  return [links = std::move(links), policy](
             int shard_id, std::vector<NodeId> members,
             const shard::ShardContext& ctx)
             -> std::unique_ptr<shard::ShardHandle> {
    return std::make_unique<RemoteShardHandle>(
        links[static_cast<std::size_t>(shard_id) % links.size()], policy,
        shard_id, std::move(members), ctx);
  };
}

void submit_all(shard::ShardedService& service, const Instance& env) {
  for (const Task& task : env.tasks) {
    ASSERT_EQ(service.submit(task), service::SubmitResult::kAccepted);
  }
  service.close();
}

void expect_same_outcomes(const std::vector<TaskOutcome>& a,
                          const std::vector<TaskOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].task, b[i].task);
    EXPECT_EQ(a[i].admitted, b[i].admitted);
    EXPECT_EQ(a[i].bid, b[i].bid);
    EXPECT_EQ(a[i].payment, b[i].payment);
    EXPECT_EQ(a[i].vendor, b[i].vendor);
    EXPECT_EQ(a[i].vendor_cost, b[i].vendor_cost);
    EXPECT_EQ(a[i].energy_cost, b[i].energy_cost);
    EXPECT_EQ(a[i].completion, b[i].completion);
    EXPECT_EQ(a[i].slots_used, b[i].slots_used);
  }
}

void expect_same_metrics(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.social_welfare, b.social_welfare);
  EXPECT_EQ(a.provider_utility, b.provider_utility);
  EXPECT_EQ(a.user_utility, b.user_utility);
  EXPECT_EQ(a.total_payments, b.total_payments);
  EXPECT_EQ(a.total_energy_cost, b.total_energy_cost);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.utilization, b.utilization);
}

// --- Distributed service: bit-identical to in-process -----------------------

/// K=1 is the plain online auction (inline in-process, one remote shard);
/// K=3 spreads three shards over two agents.
class RemoteServiceParity : public ::testing::TestWithParam<int> {};

TEST_P(RemoteServiceParity, BitIdenticalToInProcessAtSameK) {
  const Instance env = make_instance(lorasched::testing::small_scenario(13));
  const PdftspConfig policy = pdftsp_config_for(env);
  shard::ShardedConfig config;
  config.shards = GetParam();
  config.time_decisions = false;

  shard::ShardedService local(env, shard::make_pdftsp_factory(policy),
                              config);
  submit_all(local, env);
  while (!local.done()) local.step();

  auto agent_a = start_agent(env);
  auto agent_b = start_agent(env);
  std::vector<std::shared_ptr<AgentLink>> links = {
      connect_link(env, config.shards, agent_a->port()),
      connect_link(env, config.shards, agent_b->port())};
  shard::ShardedService remote(env, remote_factory(links, policy), config);
  submit_all(remote, env);
  while (!remote.done()) remote.step();

  // Checkpoints taken at the same point serialize byte-identically — the
  // strongest parity statement (policy duals, ledgers, outcomes, metrics).
  std::ostringstream local_bytes;
  io::write_sharded_checkpoint(local_bytes, local.checkpoint());
  std::ostringstream remote_bytes;
  io::write_sharded_checkpoint(remote_bytes, remote.checkpoint());
  EXPECT_EQ(local_bytes.str(), remote_bytes.str());

  EXPECT_EQ(remote.rerouted_bids(), local.rerouted_bids());
  EXPECT_EQ(remote.reroute_admits(), local.reroute_admits());
  EXPECT_EQ(remote.dead_shards(), 0);
  EXPECT_EQ(remote.failover_bids(), 0u);

  const SimResult local_result = local.finish();
  const SimResult remote_result = remote.finish();
  expect_same_outcomes(local_result.outcomes, remote_result.outcomes);
  expect_same_metrics(local_result.metrics, remote_result.metrics);

  for (const auto& link : links) link->send_shutdown();
  agent_a->wait();
  agent_b->wait();
}

INSTANTIATE_TEST_SUITE_P(Shards, RemoteServiceParity, ::testing::Values(1, 3));

// --- Distributed service: failure paths -------------------------------------

TEST(RemoteFault, AgentCrashMidRunDegradesInsteadOfHanging) {
  const Instance env = make_instance(lorasched::testing::small_scenario(5));
  const PdftspConfig policy = pdftsp_config_for(env);
  shard::ShardedConfig config;
  config.shards = 2;
  config.time_decisions = false;

  auto agent_a = start_agent(env);
  auto agent_b = start_agent(env);
  std::vector<std::shared_ptr<AgentLink>> links = {
      connect_link(env, 2, agent_a->port(), 2000ms),
      connect_link(env, 2, agent_b->port(), 2000ms)};
  shard::ShardedService service(env, remote_factory(links, policy), config);
  submit_all(service, env);

  const Slot kill_at = env.horizon / 3;
  while (!service.done()) {
    if (service.current_slot() == kill_at) {
      agent_b->stop();  // shard 1's host dies mid-run
    }
    service.step();
  }
  EXPECT_EQ(service.dead_shards(), 1);
  const SimResult result = service.finish();  // must not hang or throw
  EXPECT_GT(result.metrics.admitted, 0);
  // Every bid decided despite the dead shard.
  EXPECT_EQ(
      static_cast<std::size_t>(result.metrics.admitted +
                               result.metrics.rejected),
      env.tasks.size());
  links[0]->send_shutdown();
  agent_a->wait();
}

TEST(RemoteFault, SilentAgentTripsTheRpcTimeout) {
  const Instance env = make_instance(lorasched::testing::small_scenario(3));
  const std::uint64_t digest = env_digest(env.cluster, env.market, env.horizon);

  // A fake agent that completes the handshake, then never answers anything.
  Listener listener(0);
  std::mutex mutex;
  std::condition_variable cv;
  bool got_hello = false;
  bool finished = false;
  std::unique_ptr<Connection> conn;
  std::thread fake([&] {
    Socket sock;
    try {
      sock = listener.accept();
    } catch (const TransportError&) {
      return;
    }
    conn = std::make_unique<Connection>(
        std::move(sock), Connection::Config{},
        [&](Frame&& frame) {
          if (frame.type == MsgType::kHello) {
            std::lock_guard<std::mutex> lock(mutex);
            got_hello = true;
            cv.notify_all();
          }
        },
        [](const std::string&) {});
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return got_hello; });
    conn->send(MsgType::kHelloAck, encode(HelloAckMsg{digest}));
    cv.wait(lock, [&] { return finished; });
  });

  const PdftspConfig policy = pdftsp_config_for(env);
  shard::ShardedConfig config;
  config.shards = 1;
  auto link = connect_link(env, 1, listener.port(), /*rpc_timeout=*/300ms);
  // The first AssignShard RPC gets no reply: the link must fail within the
  // rpc timeout instead of wedging the leader forever.
  EXPECT_THROW(shard::ShardedService(env, remote_factory({link}, policy),
                                     config),
               shard::ShardUnavailable);
  EXPECT_FALSE(link->open());
  {
    std::lock_guard<std::mutex> lock(mutex);
    finished = true;
  }
  cv.notify_all();
  fake.join();
}

TEST(RemoteFault, ReconnectAndResyncContinuesBitIdentically) {
  const Instance env = make_instance(lorasched::testing::small_scenario(9));
  const PdftspConfig policy = pdftsp_config_for(env);
  shard::ShardedConfig config;
  config.shards = 2;
  config.time_decisions = false;

  shard::ShardedService local(env, shard::make_pdftsp_factory(policy),
                              config);
  submit_all(local, env);
  while (!local.done()) local.step();
  const SimResult local_result = local.finish();

  auto agent = start_agent(env);
  const std::uint16_t port = agent->port();
  auto link = connect_link(env, 2, port);
  shard::ShardedService remote(env, remote_factory({link}, policy), config);
  submit_all(remote, env);

  const Slot restart_at = env.horizon / 2;
  while (!remote.done()) {
    if (remote.current_slot() == restart_at) {
      // Checkpointing refreshes every handle's leader-side state cache —
      // the precondition for a faithful resync.
      (void)remote.checkpoint();
      agent->stop();
      // A revival is only safe once the leader has *noticed* the drop; a
      // link that still looks open would feed the next round into the
      // void and the handle would (correctly) declare the shard dead.
      while (link->open()) std::this_thread::sleep_for(10ms);
      agent = start_agent(env, port);  // fresh process state, same address
    }
    remote.step();
  }
  EXPECT_EQ(remote.dead_shards(), 0);
  EXPECT_EQ(remote.failover_bids(), 0u);
  EXPECT_EQ(agent->sessions_served(), 1u);  // the post-restart session

  const SimResult remote_result = remote.finish();
  expect_same_outcomes(local_result.outcomes, remote_result.outcomes);
  expect_same_metrics(local_result.metrics, remote_result.metrics);
  link->send_shutdown();
  agent->wait();
}

// --- Observability plane (DESIGN.md §12) ------------------------------------

TEST(Messages, MetricsSnapshotRoundTripIsBitExact) {
  MetricsSnapshotMsg msg;
  msg.agent = "agent-7701";
  msg.seq = 42;
  obs::MetricsGroup agent_level;
  agent_level.shard = -1;
  obs::MetricSnapshot counter;
  counter.name = "frames_total";
  counter.help = "frames on the wire";
  counter.kind = obs::MetricKind::kCounter;
  counter.value = 1234.0;
  agent_level.metrics.push_back(counter);
  obs::MetricsGroup shard_level;
  shard_level.shard = 3;
  obs::MetricSnapshot gauge;
  gauge.name = "scratch_bytes";
  gauge.kind = obs::MetricKind::kGauge;
  gauge.value = 0.1 + 0.2;  // not exactly representable; must cross bit-exact
  shard_level.metrics.push_back(gauge);
  obs::Histogram hist(obs::HistogramOptions{.min = 1e-6, .max = 10.0});
  hist.record(1e-3);
  hist.record(0.5);
  hist.record(100.0);  // overflow bucket
  obs::MetricSnapshot histogram;
  histogram.name = "rtt_seconds";
  histogram.kind = obs::MetricKind::kHistogram;
  histogram.histogram = hist.snapshot();
  shard_level.metrics.push_back(histogram);
  msg.groups = {agent_level, shard_level};

  const std::vector<std::uint8_t> bytes = encode(msg);
  const MetricsSnapshotMsg back = decode_metrics_snapshot(bytes);
  EXPECT_EQ(back.agent, msg.agent);
  EXPECT_EQ(back.seq, 42u);
  ASSERT_EQ(back.groups.size(), 2u);
  EXPECT_EQ(back.groups[0].shard, -1);
  ASSERT_EQ(back.groups[0].metrics.size(), 1u);
  EXPECT_EQ(back.groups[0].metrics[0].name, "frames_total");
  EXPECT_EQ(back.groups[0].metrics[0].help, "frames on the wire");
  EXPECT_EQ(back.groups[1].shard, 3);
  ASSERT_EQ(back.groups[1].metrics.size(), 2u);
  EXPECT_EQ(bits(back.groups[1].metrics[0].value), bits(gauge.value));
  const obs::HistogramSnapshot& h = back.groups[1].metrics[1].histogram;
  EXPECT_EQ(h.counts, histogram.histogram.counts);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(bits(h.sum), bits(histogram.histogram.sum));
  EXPECT_EQ(bits(h.min_seen), bits(histogram.histogram.min_seen));
  EXPECT_EQ(bits(h.max_seen), bits(histogram.histogram.max_seen));
  // Accepted payloads re-encode byte-identically (also pinned by the wire
  // fuzzer over its corpus).
  EXPECT_EQ(encode(back), bytes);
}

TEST(Messages, OfferAndRoundResultsCarryTraceContext) {
  OfferMsg offer;
  offer.shard_id = 1;
  offer.task = gnarly_task();
  offer.trace_id = obs::trace_mix(obs::kTraceSeed, 8);
  offer.parent_span = obs::trace_mix(offer.trace_id, 3);
  const OfferMsg offer_back = decode_offer(encode(offer));
  EXPECT_EQ(offer_back.trace_id, offer.trace_id);
  EXPECT_EQ(offer_back.parent_span, offer.parent_span);

  RoundResultsMsg results;
  results.shard_id = 1;
  results.slot = 4;
  obs::RemoteSpan span;
  span.name = "decide";
  span.task = 17;
  span.trace_id = offer.trace_id;
  span.span_id = obs::trace_mix(offer.parent_span, 18);
  span.parent_span = offer.parent_span;
  span.start_offset_ns = 1500;
  span.duration_ns = 250;
  results.spans.push_back(span);
  const std::vector<std::uint8_t> bytes = encode(results);
  const RoundResultsMsg back = decode_round_results(bytes);
  ASSERT_EQ(back.spans.size(), 1u);
  EXPECT_EQ(back.spans[0].name, "decide");
  EXPECT_EQ(back.spans[0].task, 17);
  EXPECT_EQ(back.spans[0].trace_id, span.trace_id);
  EXPECT_EQ(back.spans[0].span_id, span.span_id);
  EXPECT_EQ(back.spans[0].parent_span, span.parent_span);
  EXPECT_EQ(back.spans[0].start_offset_ns, 1500);
  EXPECT_EQ(back.spans[0].duration_ns, 250);
  EXPECT_EQ(encode(back), bytes);
}

TEST(Transport, CountsFramesPerTypeAndHeartbeatRtt) {
  Listener listener(0);
  Socket server_sock;
  std::thread acceptor([&] { server_sock = accept_one(listener); });
  Socket client_sock = Socket::connect("127.0.0.1", listener.port());
  acceptor.join();

  Mailbox server_mail;
  Mailbox client_mail;
  obs::MetricsRegistry registry;
  Connection::Config instrumented;
  instrumented.metrics = &registry;
  instrumented.ping_interval = 50ms;  // exercises the RTT histogram
  Connection server(
      std::move(server_sock), {},
      [&](Frame&& f) { server_mail.on_frame(std::move(f)); },
      [&](const std::string& r) { server_mail.on_close(r); });
  Connection client(
      std::move(client_sock), instrumented,
      [&](Frame&& f) { client_mail.on_frame(std::move(f)); },
      [&](const std::string& r) { client_mail.on_close(r); });

  ASSERT_TRUE(client.send(MsgType::kHello, encode(HelloMsg{99, 1, 1, 4, 1})));
  ASSERT_TRUE(server_mail.wait_frames(1, 5000ms));
  ASSERT_TRUE(server.send(MsgType::kHelloAck, encode(HelloAckMsg{99})));
  ASSERT_TRUE(client_mail.wait_frames(1, 5000ms));

  EXPECT_EQ(registry.counter("lorasched_net_tx_frames_hello_total").value(),
            1u);
  EXPECT_GT(registry.counter("lorasched_net_tx_bytes_hello_total").value(),
            0u);
  EXPECT_EQ(
      registry.counter("lorasched_net_rx_frames_hello_ack_total").value(),
      1u);
  EXPECT_EQ(registry.counter("lorasched_net_tx_frames_offer_total").value(),
            0u);
  // Pings flow client->server (transport-internal); the pongs coming back
  // feed the RTT histogram.
  const auto deadline = std::chrono::steady_clock::now() + 5000ms;
  while (registry.histogram("lorasched_net_heartbeat_rtt_seconds")
                 .snapshot()
                 .count == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GT(registry.histogram("lorasched_net_heartbeat_rtt_seconds")
                .snapshot()
                .count,
            0u);
}

std::string http_get(std::uint16_t port, const std::string& path) {
  Socket socket = connect_with_backoff("127.0.0.1", port, 5, 50ms);
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  std::size_t written = 0;
  while (written < request.size()) {
    const ssize_t n = ::send(socket.fd(), request.data() + written,
                             request.size() - written, 0);
    if (n <= 0) break;
    written += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buffer[1024];
  ssize_t n = 0;
  while ((n = ::recv(socket.fd(), buffer, sizeof buffer, 0)) > 0) {
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  return reply;
}

TEST(Transport, HttpServerServesMetricsHealthAndRejectsJunk) {
  obs::MetricsRegistry registry;
  registry.counter("demo_total", "a demo counter").add(5);
  HttpServer http(0);
  http.handle("/metrics", [&registry] {
    std::ostringstream text;
    registry.write_prometheus(text);
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        text.str()};
  });
  http.handle("/healthz",
              [] { return HttpResponse{200, "text/plain", "ok\n"}; });
  http.start();

  const std::string metrics = http_get(http.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE demo_total counter"), std::string::npos);
  EXPECT_NE(metrics.find("demo_total 5"), std::string::npos);

  EXPECT_NE(http_get(http.port(), "/healthz").find("ok"), std::string::npos);
  EXPECT_NE(http_get(http.port(), "/healthz?verbose=1").find("200"),
            std::string::npos);  // query strings are ignored
  EXPECT_NE(http_get(http.port(), "/nope").find("404"), std::string::npos);
  EXPECT_GE(http.requests_served(), 4u);
  http.stop();
}

TEST(RemoteService, ObservabilityOnIsBitIdenticalAndFederates) {
  const Instance env = make_instance(lorasched::testing::small_scenario(13));
  const PdftspConfig policy = pdftsp_config_for(env);
  shard::ShardedConfig config;
  config.shards = 2;
  config.time_decisions = false;

  // Baseline: everything off (the configuration every other parity test
  // runs with).
  shard::ShardedService plain(env, shard::make_pdftsp_factory(policy),
                              config);
  submit_all(plain, env);
  while (!plain.done()) plain.step();

  // Remote run with the whole observability plane on: agent metric pushes,
  // leader-side transport counters, and cross-process tracing.
  HostAgent::Config agent_config;
  agent_config.port = 0;
  agent_config.ping_interval = 100ms;
  agent_config.idle_timeout = 5000ms;
  agent_config.name = "agent-x";
  agent_config.metrics_push_interval = 50ms;
  auto agent = std::make_unique<HostAgent>(env, agent_config);
  agent->start();

  obs::FederatedRegistry federated;
  obs::ClusterTraceCollector tracer;
  obs::MetricsRegistry leader_net;
  LinkConfig link_config;
  link_config.port = agent->port();
  link_config.ping_interval = 100ms;
  link_config.heartbeat_timeout = 5000ms;
  link_config.rpc_timeout = 20000ms;
  link_config.metrics = &leader_net;
  auto link = std::make_shared<AgentLink>(link_config,
                                          hello_for(env, config.shards));
  link->set_metrics_sink([&federated](MetricsSnapshotMsg&& msg) {
    federated.absorb(msg.agent, msg.seq, msg.groups);
  });
  link->connect();

  shard::ShardedConfig traced_config = config;
  traced_config.tracer = &tracer;
  shard::ShardedService remote(env, remote_factory({link}, policy),
                               traced_config);
  submit_all(remote, env);
  while (!remote.done()) remote.step();

  // The tentpole pin: decisions are bit-identical with the full
  // observability plane on (checkpoints serialize every dual, ledger cell,
  // and outcome).
  std::ostringstream plain_bytes;
  io::write_sharded_checkpoint(plain_bytes, plain.checkpoint());
  std::ostringstream traced_bytes;
  io::write_sharded_checkpoint(traced_bytes, remote.checkpoint());
  EXPECT_EQ(plain_bytes.str(), traced_bytes.str());

  // The merged trace holds leader bid spans and the agent spans that
  // parent to them.
  EXPECT_GT(tracer.events(), 0u);
  bool saw_leader = false;
  bool saw_agent = false;
  bool saw_decide = false;
  for (const auto& summary : tracer.summaries()) {
    saw_leader = saw_leader || summary.name == "leader_round";
    saw_agent = saw_agent || summary.name == "agent_round";
    saw_decide = saw_decide || summary.name == "decide";
  }
  EXPECT_TRUE(saw_leader);
  EXPECT_TRUE(saw_agent);
  EXPECT_TRUE(saw_decide);

  // Federation: wait for a push that carries the agent's per-shard DP
  // cache counters, then check the exposition labels them.
  const auto deadline = std::chrono::steady_clock::now() + 5000ms;
  const auto exposition = [&federated] {
    std::ostringstream text;
    federated.write_prometheus(text);
    return text.str();
  };
  while (exposition().find("lorasched_dp_price_cache_hits_total{agent="
                           "\"agent-x\",shard=\"0\"}") == std::string::npos &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(20ms);
  }
  const std::string text = exposition();
  EXPECT_NE(text.find("lorasched_dp_price_cache_hits_total{agent=\"agent-x\","
                      "shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("lorasched_dp_price_cache_hits_total{agent=\"agent-x\","
                      "shard=\"1\"}"),
            std::string::npos);
  // Agent-level transport counters federate without a shard label.
  EXPECT_GT(federated.value("agent-x", -1,
                            "lorasched_net_tx_frames_round_results_total"),
            0.0);
  // Leader-side transport counters live in the local link registry.
  EXPECT_GT(
      leader_net.counter("lorasched_net_tx_frames_offer_total").value(), 0u);
  EXPECT_GT(
      leader_net.counter("lorasched_net_rx_frames_round_results_total")
          .value(),
      0u);
  // Round-phase histograms populate on the leader's service registry.
  EXPECT_GT(remote.registry()
                .histogram("lorasched_round_decide_seconds")
                .snapshot()
                .count,
            0u);
  EXPECT_GT(remote.registry()
                .histogram("lorasched_round_publish_seconds")
                .snapshot()
                .count,
            0u);

  (void)plain.finish();
  (void)remote.finish();
  link->send_shutdown();
  agent->wait();
}

// --- Concurrency regressions (DESIGN.md §13) --------------------------------

TEST(Transport, StalledPeerCannotWedgeTheFailureDetector) {
  // Regression: the maintenance thread used to enqueue pings with the
  // blocking send path, so a peer that stopped reading (full outbox)
  // parked the very thread that runs the idle-timeout check — two
  // mutually-stalled peers could deadlock forever. Pings now shed via
  // try_send() and the detector keeps ticking.
  Listener listener(0);
  Socket server_sock;
  std::thread acceptor([&] { server_sock = accept_one(listener); });
  Socket client_sock = Socket::connect("127.0.0.1", listener.port());
  acceptor.join();

  // Tiny kernel buffers so a handful of frames genuinely stalls the
  // writer against the never-reading peer.
  const int small = 4 * 1024;
  setsockopt(server_sock.fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  setsockopt(client_sock.fd(), SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));

  Mailbox server_mail;
  Connection::Config watchful;
  watchful.outbox_capacity = 2;
  watchful.ping_interval = 50ms;
  watchful.idle_timeout = 300ms;
  Connection server(
      std::move(server_sock), watchful,
      [&](Frame&& f) { server_mail.on_frame(std::move(f)); },
      [&](const std::string& r) { server_mail.on_close(r); });
  // The client never reads and never pings: its socket exists, nothing
  // else. (client_sock stays alive in this scope so the peer is stalled,
  // not gone.)
  const std::vector<std::uint8_t> chunk(64 * 1024, 0xAB);
  ASSERT_TRUE(server.send(MsgType::kOffer, chunk));   // writer blocks in send()
  ASSERT_TRUE(server.send(MsgType::kOffer, chunk));   // fills the outbox
  ASSERT_TRUE(server.send(MsgType::kOffer, chunk));

  // The silent peer must still trip the idle timeout — the maintenance
  // thread sheds its pings instead of blocking behind the full outbox.
  ASSERT_TRUE(server_mail.wait_close(5000ms));
  EXPECT_NE(server_mail.close_reason.find("idle timeout"), std::string::npos);
  EXPECT_GT(server.sends_shed_full(), 0u);
  EXPECT_FALSE(server.open());
}

TEST(RemoteFault, HealthScrapesRaceLinkFailureWithoutDeadlock) {
  // Regression for the AgentLink lock split: health() (scrape thread,
  // conn_mutex_ then mutex_, one at a time) must never deadlock or race
  // against the close handler and mailbox waiters (mutex_). Under TSan
  // this also proves the two-mutex discipline.
  const Instance env = make_instance(lorasched::testing::small_scenario(7));
  auto agent = start_agent(env);
  auto link = connect_link(env, 1, agent->port(), 500ms);
  ASSERT_TRUE(link->open());
  EXPECT_TRUE(link->health().open);

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const AgentLink::Health h = link->health();
      (void)h;
    }
  });

  // Kill the agent while the scraper hammers health().
  agent->stop();
  const auto deadline = std::chrono::steady_clock::now() + 5000ms;
  while (link->open() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_FALSE(link->open());

  // The leader path surfaces the failure via last_error_, not by poking
  // the transport under mutex_ — an immediate throw, not an rpc_timeout
  // wait.
  EXPECT_THROW((void)link->wait(0, MsgType::kRoundResults),
               shard::ShardUnavailable);
  const AgentLink::Health h = link->health();
  EXPECT_FALSE(h.open);
  EXPECT_FALSE(h.last_error.empty());

  done.store(true);
  scraper.join();
}

TEST(RemoteFault, DuplicateHelloFailsTheSessionNotTheAgent) {
  // Regression: a second Hello inside one session used to rebuild the
  // PriceBoard while that session's ShardRunners held references into it.
  // The agent must fail the offending session and keep serving new ones.
  const Instance env = make_instance(lorasched::testing::small_scenario(3));
  auto agent = start_agent(env);

  Mailbox mail;
  Socket sock = Socket::connect("127.0.0.1", agent->port());
  Connection leader(
      std::move(sock), {}, [&](Frame&& f) { mail.on_frame(std::move(f)); },
      [&](const std::string& r) { mail.on_close(r); });
  const HelloMsg hello = hello_for(env, 1);
  ASSERT_TRUE(leader.send(MsgType::kHello, encode(hello)));
  ASSERT_TRUE(mail.wait_frames(1, 5000ms));
  EXPECT_EQ(mail.frames[0].type, MsgType::kHelloAck);

  ASSERT_TRUE(leader.send(MsgType::kHello, encode(hello)));
  ASSERT_TRUE(mail.wait_close(5000ms));
  EXPECT_TRUE(agent->running());

  // A fresh session handshakes normally — the agent routed around the
  // poisoned one.
  auto link = connect_link(env, 1, agent->port());
  EXPECT_TRUE(link->open());
  EXPECT_GE(agent->sessions_served(), 2u);
  link->send_shutdown();
  agent->wait();
}

}  // namespace
}  // namespace lorasched::net
