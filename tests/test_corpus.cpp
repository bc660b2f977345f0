// Stranded-corpus guard: the committed fuzz seeds must still exercise the
// decoders they were written for. A fuzz harness treats a wholesale reject
// (bad magic, version skew) as a clean run, so after a format change a
// corpus from the old format keeps "passing" while covering nothing. These
// checks fail instead, pointing at the seeds to regenerate.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "lorasched/io/serialize.h"
#include "lorasched/net/messages.h"
#include "lorasched/net/wire.h"

namespace lorasched {
namespace {

const std::filesystem::path kCorpus = LORASCHED_FUZZ_CORPUS_DIR;

std::vector<std::uint8_t> read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(FuzzCorpus, EveryWireSeedDecodesToATypedFrame) {
  using Payload = std::vector<std::uint8_t>;
  // The typed decoder of every message kind with a payload in the corpus.
  const std::map<net::MsgType, std::function<void(const Payload&)>> typed = {
      {net::MsgType::kHello,
       [](const Payload& p) { (void)net::decode_hello(p); }},
      {net::MsgType::kAssignShard,
       [](const Payload& p) { (void)net::decode_assign_shard(p); }},
      {net::MsgType::kBeginRound,
       [](const Payload& p) { (void)net::decode_begin_round(p); }},
      {net::MsgType::kOffer,
       [](const Payload& p) { (void)net::decode_offer(p); }},
      {net::MsgType::kRoundResults,
       [](const Payload& p) { (void)net::decode_round_results(p); }},
      {net::MsgType::kStateReply,
       [](const Payload& p) { (void)net::decode_state_reply(p); }},
      {net::MsgType::kError,
       [](const Payload& p) { (void)net::decode_error(p); }},
      {net::MsgType::kMetricsSnapshot,
       [](const Payload& p) { (void)net::decode_metrics_snapshot(p); }},
  };

  int seeds = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(kCorpus / "fuzz_wire")) {
    SCOPED_TRACE(entry.path().filename().string());
    ++seeds;
    const std::vector<std::uint8_t> bytes = read_bytes(entry.path());
    net::FrameDecoder decoder;
    std::vector<net::Frame> frames;
    ASSERT_NO_THROW({
      decoder.feed(bytes.data(), bytes.size());
      net::Frame frame;
      while (decoder.next(frame)) frames.push_back(frame);
    }) << "seed is not a current-version frame stream";
    ASSERT_FALSE(frames.empty()) << "seed holds no complete frame";
    for (const net::Frame& frame : frames) {
      const auto decode = typed.find(frame.type);
      if (decode == typed.end()) continue;  // no typed payload
      EXPECT_NO_THROW(decode->second(frame.payload))
          << net::to_string(frame.type) << " payload does not decode";
    }
  }
  EXPECT_GT(seeds, 0);
}

TEST(FuzzCorpus, CheckpointSeedParsesWithTheCheckpointReader) {
  std::ifstream in(kCorpus / "fuzz_checkpoint_roundtrip" / "small_checkpoint");
  ASSERT_TRUE(in) << "seed missing";
  const shard::ShardedCheckpoint checkpoint = io::read_sharded_checkpoint(in);
  EXPECT_EQ(checkpoint.shards, 1);
  EXPECT_EQ(checkpoint.shard_states.size(), 1u);
  EXPECT_FALSE(checkpoint.outcomes.empty());
}

}  // namespace
}  // namespace lorasched
