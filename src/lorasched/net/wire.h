// Binary wire format for the distributed control plane (DESIGN.md §11).
//
// Every frame on a leader/host-agent connection is
//
//   magic "lswp" (4 bytes) | version (1 byte) | msg type (1 byte)
//   | payload length (varint) | payload bytes
//
// and payloads are built from four primitives only: LEB128 varints
// (unsigned, at most ten bytes, overlong encodings rejected), zigzag
// varints for signed integers, little-endian fixed 64-bit doubles (a
// bit_cast of the IEEE-754 pattern, so every double crosses the wire
// bit-identically — the distributed service's determinism guarantee
// depends on this), and length-prefixed byte strings.
//
// Decoding is defensive: truncation, overlong varints, counts beyond
// kMaxWireElements, and payloads beyond kMaxWirePayload all throw
// WireError with a message naming the field — never UB, never an
// allocation driven by an unvalidated count (fuzz/fuzz_wire.cpp hammers
// exactly these paths).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace lorasched::net {

/// Malformed or truncated wire data. Also the error a decoder raises on
/// version skew, so every "this peer speaks something else" failure is one
/// catchable type.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint8_t kWireMagic[4] = {'l', 's', 'w', 'p'};
/// Bumped on every incompatible message change (2: AssignShard dropped its
/// parallel-candidates field; 3: it dropped its inbox-capacity field).
inline constexpr std::uint8_t kWireVersion = 3;
/// Frame header bytes before the varint payload length.
inline constexpr std::size_t kFramePrefix = 6;

/// Hard ceiling on a frame payload (checkpoint states dominate; a fleet
/// ledger at 1<<26 cells of doubles is ~0.5 GiB — anything past 1 GiB is a
/// corrupt or hostile length field).
inline constexpr std::uint64_t kMaxWirePayload = std::uint64_t{1} << 30;
/// Hard ceiling on any element count inside a payload, mirroring
/// io::serialize's kMaxCheckpointCount rationale.
inline constexpr std::uint64_t kMaxWireElements = std::uint64_t{1} << 26;

/// Control-plane message types (DESIGN.md §11 tables).
enum class MsgType : std::uint8_t {
  kHello = 1,          // leader -> agent: env digest + fleet shape
  kHelloAck = 2,       // agent -> leader: digest echo
  kAssignShard = 3,    // leader -> agent: shard id, members, pricing config
  kAssignAck = 4,      // agent -> leader
  kBlockCells = 5,     // leader -> agent: outage calendar for one shard
  kBlockAck = 6,       // agent -> leader
  kBeginRound = 7,     // leader -> agent: slot + expected offer count
  kOffer = 8,          // leader -> agent: one bid
  kRoundResults = 9,   // agent -> leader: decisions + fresh price summary
  kPublishRequest = 10,  // leader -> agent: republish from a slot
  kPublishReply = 11,    // agent -> leader: price summary
  kStateRequest = 12,    // leader -> agent: checkpoint one shard
  kStateReply = 13,      // agent -> leader: booked/policy/ledger state
  kRestoreState = 14,    // leader -> agent: restore one shard
  kRestoreAck = 15,      // agent -> leader
  kPing = 16,            // either direction; transport answers kPong itself
  kPong = 17,
  kShutdown = 18,  // leader -> agent: drain and exit
  kError = 19,     // agent -> leader: round failed (message = what())
  kMetricsSnapshot = 20,  // agent -> leader: cumulative metrics push
  // Bid-ingest stream (firehose client -> serving process), DESIGN.md §14.
  kBidSubmit = 21,     // client -> server: one sequenced bid
  kBidDecision = 22,   // server -> client: decision/shed for one bid
  kBidStreamEnd = 23,  // client -> server: this source is done sending
};

[[nodiscard]] const char* to_string(MsgType type) noexcept;

// --- Encoding ---------------------------------------------------------------

class WireWriter {
 public:
  void put_u8(std::uint8_t v) { buffer_.push_back(v); }
  /// LEB128 unsigned varint, 1-10 bytes.
  void put_varint(std::uint64_t v);
  /// Zigzag-mapped signed varint.
  void put_svarint(std::int64_t v) {
    put_varint((static_cast<std::uint64_t>(v) << 1) ^
               static_cast<std::uint64_t>(v >> 63));
  }
  /// Little-endian fixed 8-byte IEEE-754 pattern (bit-exact round trip).
  void put_f64(double v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// Varint length + raw bytes.
  void put_string(const std::string& s);
  void put_doubles(const std::vector<double>& values);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buffer_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buffer_);
  }

 private:
  std::vector<std::uint8_t> buffer_;
};

// --- Decoding ---------------------------------------------------------------

class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::uint8_t get_u8(const char* what);
  [[nodiscard]] std::uint64_t get_varint(const char* what);
  [[nodiscard]] std::int64_t get_svarint(const char* what) {
    const std::uint64_t z = get_varint(what);
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }
  [[nodiscard]] double get_f64(const char* what);
  [[nodiscard]] bool get_bool(const char* what) { return get_u8(what) != 0; }
  [[nodiscard]] std::string get_string(const char* what);
  [[nodiscard]] std::vector<double> get_doubles(const char* what);
  /// Varint bounded by kMaxWireElements — use for every element count that
  /// drives an allocation.
  [[nodiscard]] std::uint64_t get_count(const char* what);

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  /// Throws WireError unless the payload was consumed exactly.
  void expect_done(const char* what) const;

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --- Framing ----------------------------------------------------------------

struct Frame {
  MsgType type = MsgType::kPing;
  std::vector<std::uint8_t> payload;
};

/// Serializes a complete frame (header + payload) ready for one write.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(MsgType type,
                                                     const std::vector<
                                                         std::uint8_t>&
                                                         payload);

/// Incremental frame decoder for a byte stream: feed bytes as they arrive,
/// pop complete frames. Throws WireError on bad magic, version skew, an
/// unknown message type, or an absurd payload length — the connection is
/// then unrecoverable (framing is lost) and must be closed.
class FrameDecoder {
 public:
  void feed(const std::uint8_t* data, std::size_t size);
  /// Extracts the next complete frame, or false if more bytes are needed.
  [[nodiscard]] bool next(Frame& out);

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t scan_ = 0;  // consumed prefix, compacted lazily
};

}  // namespace lorasched::net
