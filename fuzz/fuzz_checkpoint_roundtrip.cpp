// Fuzz harness: checkpoint deserialization and write/read round trip.
//
// Contract under test (io/serialize.h): read_sharded_checkpoint throws
// std::invalid_argument on any malformed or truncated stream — never a
// different exception, never an unbounded allocation, never a crash. Any
// checkpoint it does accept must be stable under write -> read -> write:
// the second serialization is byte-identical to the first (the property the
// service's bit-identical resume relies on).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "lorasched/io/serialize.h"
#include "lorasched/shard/sharded_checkpoint.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream in(std::string(reinterpret_cast<const char*>(data), size));
  lorasched::shard::ShardedCheckpoint checkpoint;
  try {
    checkpoint = lorasched::io::read_sharded_checkpoint(in);
  } catch (const std::invalid_argument&) {
    return 0;  // the documented failure mode for malformed input
  }

  // From here on every exception is a serializer bug: our own writer's
  // output must always be readable. Let anything thrown escape and crash.
  std::ostringstream first;
  lorasched::io::write_sharded_checkpoint(first, checkpoint);
  std::istringstream back(first.str());
  const lorasched::shard::ShardedCheckpoint reread =
      lorasched::io::read_sharded_checkpoint(back);
  std::ostringstream second;
  lorasched::io::write_sharded_checkpoint(second, reread);
  if (first.str() != second.str()) {
    std::fprintf(stderr, "checkpoint round-trip not byte-stable\n");
    std::abort();
  }
  return 0;
}
