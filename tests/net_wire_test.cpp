// Wire codec properties: every envelope kind a store sends round-trips
// exactly, the retired kinds are rejected, each envelope has exactly
// one encoding, and the decoder survives hostile bytes.
//
// The round-trip half builds one representative envelope per sent
// EnvelopeKind (populated fields, not defaults) plus the integer
// extremes, encodes, decodes, and compares field by field. The
// rejection half hand-writes malformed v2 bytes (overlong and
// non-minimal varints, out-of-field values, clock overflow, bad flags)
// and checks the error each one names. The fuzz half mutates well-formed
// frames — truncation, bit flips, bad magic/version/checksum — and
// asserts the asymmetric contract: decode returns an error, never
// crashes (run under ASan/UBSan in CI), never accepts a frame whose
// CRC-protected bytes changed, and whatever it accepts re-encodes to
// the same bytes. Failing seeds print via test_seeds.hpp and replay
// with UCW_SEED=<n>.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "adt/register.hpp"
#include "net/wire.hpp"
#include "store/envelope.hpp"
#include "test_seeds.hpp"
#include "util/rng.hpp"

namespace ucw {
namespace {

using Reg = RegisterAdt<std::int64_t>;
using Env = BatchEnvelope<Reg, std::string>;
namespace w = ucw::wire;

std::vector<std::uint8_t> encode(const Env& e) {
  std::vector<std::uint8_t> bytes;
  w::encode_envelope(e, &bytes);
  return bytes;
}

Env decode_ok(const std::vector<std::uint8_t>& bytes) {
  Env out;
  const char* err = nullptr;
  EXPECT_TRUE(w::decode_envelope(bytes.data(), bytes.size(), &out, &err))
      << (err ? err : "(no error set)");
  return out;
}

void expect_same_entries(const Env& a, const Env& b) {
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].key, b.entries[i].key);
    EXPECT_EQ(a.entries[i].msg.stamp.clock, b.entries[i].msg.stamp.clock);
    EXPECT_EQ(a.entries[i].msg.stamp.pid, b.entries[i].msg.stamp.pid);
    EXPECT_EQ(a.entries[i].msg.update.value, b.entries[i].msg.update.value);
  }
}

void expect_same_header(const Env& a, const Env& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.ack_clock, b.ack_clock);
  EXPECT_EQ(a.sync_markers, b.sync_markers);
  EXPECT_EQ(a.sync_markers_epoch, b.sync_markers_epoch);
  EXPECT_EQ(a.ae_reciprocate, b.ae_reciprocate);
  EXPECT_EQ(a.ae_floors, b.ae_floors);
}

// ------------------------------------------------- per-kind round trips

TEST(WireCodecTest, BatchRoundTrip) {
  // Mixed pids (i % 3): the per-entry pid path.
  Env e;
  e.kind = EnvelopeKind::kBatch;
  e.epoch = 3;
  e.seq = 41;
  e.ack_clock = 17;
  for (int i = 0; i < 5; ++i) {
    KeyedUpdate<Reg, std::string> ku;
    ku.key = "key-" + std::to_string(i);
    ku.msg.stamp = Stamp{static_cast<LogicalTime>(100 + i),
                         static_cast<ProcessId>(i % 3)};
    ku.msg.update = Reg::write(1000000 + i);
    e.entries.push_back(std::move(ku));
  }
  const Env d = decode_ok(encode(e));
  expect_same_header(e, d);
  expect_same_entries(e, d);
  EXPECT_EQ(d.snapshot, nullptr);
}

TEST(WireCodecTest, HeartbeatRoundTrip) {
  // Empty kBatch: pure piggybacked-ack carrier (gc heartbeats).
  Env e;
  e.kind = EnvelopeKind::kBatch;
  e.epoch = 1;
  e.seq = 0;
  e.ack_clock = 777;
  const Env d = decode_ok(encode(e));
  expect_same_header(e, d);
  EXPECT_TRUE(d.entries.empty());
}

TEST(WireCodecTest, DefaultEnvelopeIsSixBytes) {
  // kind, flags (no optional part), epoch, seq, ack clock, entry count.
  const std::vector<std::uint8_t> bytes = encode(Env{});
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{0, 0, 0, 0, 0, 0}));
  expect_same_header(Env{}, decode_ok(bytes));
}

TEST(WireCodecTest, ExtremesRoundTrip) {
  // Clocks 0 and UINT64_MAX in one group (a 10-byte delta), the value
  // extremes through zigzag, an empty key, and the widest pid.
  constexpr auto kMaxClock = std::numeric_limits<LogicalTime>::max();
  Env e;
  e.epoch = std::numeric_limits<std::uint64_t>::max();
  e.seq = std::numeric_limits<std::uint64_t>::max();
  e.ack_clock = kMaxClock;
  const std::int64_t values[] = {std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max(),
                                 0, -1};
  const LogicalTime clocks[] = {kMaxClock, 0, kMaxClock - 1, 1};
  const ProcessId pids[] = {std::numeric_limits<ProcessId>::max(), 0, 1, 0};
  for (int i = 0; i < 4; ++i) {
    KeyedUpdate<Reg, std::string> ku;
    ku.key = i == 0 ? "" : std::string(300, static_cast<char>('a' + i));
    ku.msg.stamp = Stamp{clocks[i], pids[i]};
    ku.msg.update = Reg::write(values[i]);
    e.entries.push_back(std::move(ku));
  }
  e.ae_floors = {kMaxClock, 0};
  e.sync_markers_epoch = 1;  // empty markers, nonzero epoch: flagged
  const Env d = decode_ok(encode(e));
  expect_same_header(e, d);
  expect_same_entries(e, d);

  // The same with one shared pid at its widest.
  for (auto& ku : e.entries) ku.msg.stamp.pid = pids[0];
  const Env shared = decode_ok(encode(e));
  expect_same_entries(e, shared);
}

TEST(WireCodecTest, SharedPidBatchPaysOnlyForInformation) {
  // A hot_udp-like batch: one sender, close clocks, short keys, values
  // counter * 8 + writer. Header: kind 1, flags 1, epoch 1, seq 300 (2),
  // ack 5000 (2), count 1, pid 1, base 4990 (2) = 11 B. Each entry:
  // key "k1000".. (1 + 5), clock delta 1, value 800002 zigzagged (3) =
  // 10 B.
  Env e;
  e.epoch = 1;
  e.seq = 300;
  e.ack_clock = 5000;
  for (int i = 0; i < 7; ++i) {
    KeyedUpdate<Reg, std::string> ku;
    ku.key = "k" + std::to_string(1000 + i);
    ku.msg.stamp = Stamp{static_cast<LogicalTime>(4996 - i), 2};
    ku.msg.update = Reg::write(8 * 100000 + 2);
    e.entries.push_back(std::move(ku));
  }
  const std::vector<std::uint8_t> bytes = encode(e);
  EXPECT_EQ(bytes.size(), 11u + 7u * 10u);
  expect_same_entries(e, decode_ok(bytes));
  // A second writer in the batch costs one pid byte per entry.
  e.entries[3].msg.stamp.pid = 1;
  EXPECT_EQ(encode(e).size(), 10u + 7u * 11u);
}

Env snapshot_envelope(EnvelopeKind kind) {
  Env e;
  e.kind = kind;
  e.epoch = 2;
  auto snap = std::make_shared<ShardSnapshot<Reg, std::string>>();
  snap->shard_index = 3;
  snap->shard_count = 8;
  snap->donor_clock = 400;
  snap->delta_marker = 377;
  snap->delta_since = kind == EnvelopeKind::kAntiEntropyDelta ? 201 : 0;
  snap->keys_total = 2;
  snap->donor_rows = {11, 0, 42};
  snap->coverage = {StreamCoverage{true, 1, 37, false},
                    StreamCoverage{false, 0, 0, false},
                    StreamCoverage{true, 2, 5, true}};
  KeySnapshot<Reg, std::string> k0;
  k0.key = "alpha";
  k0.base = -7;
  k0.floor = 390;
  k0.suffix.push_back(
      SnapshotLogEntry<Reg>{Stamp{395, 1}, Reg::write(123456789)});
  k0.suffix.push_back(
      SnapshotLogEntry<Reg>{Stamp{399, 0}, Reg::write(-42)});
  snap->keys.push_back(std::move(k0));
  KeySnapshot<Reg, std::string> k1;
  k1.key = "";  // empty key must survive the trip too
  k1.base = 0;
  k1.floor = 0;
  snap->keys.push_back(std::move(k1));
  e.snapshot = std::move(snap);
  return e;
}

void expect_same_snapshot(const Env& a, const Env& b) {
  ASSERT_NE(a.snapshot, nullptr);
  ASSERT_NE(b.snapshot, nullptr);
  const auto& s = *a.snapshot;
  const auto& d = *b.snapshot;
  EXPECT_EQ(s.shard_index, d.shard_index);
  EXPECT_EQ(s.shard_count, d.shard_count);
  EXPECT_EQ(s.donor_clock, d.donor_clock);
  EXPECT_EQ(s.delta_marker, d.delta_marker);
  EXPECT_EQ(s.delta_since, d.delta_since);
  EXPECT_EQ(s.keys_total, d.keys_total);
  EXPECT_EQ(s.donor_rows, d.donor_rows);
  ASSERT_EQ(s.coverage.size(), d.coverage.size());
  for (std::size_t i = 0; i < s.coverage.size(); ++i) {
    EXPECT_EQ(s.coverage[i].any, d.coverage[i].any);
    EXPECT_EQ(s.coverage[i].epoch, d.coverage[i].epoch);
    EXPECT_EQ(s.coverage[i].seq, d.coverage[i].seq);
    EXPECT_EQ(s.coverage[i].drained, d.coverage[i].drained);
  }
  ASSERT_EQ(s.keys.size(), d.keys.size());
  for (std::size_t i = 0; i < s.keys.size(); ++i) {
    EXPECT_EQ(s.keys[i].key, d.keys[i].key);
    EXPECT_EQ(s.keys[i].base, d.keys[i].base);
    EXPECT_EQ(s.keys[i].floor, d.keys[i].floor);
    ASSERT_EQ(s.keys[i].suffix.size(), d.keys[i].suffix.size());
    for (std::size_t j = 0; j < s.keys[i].suffix.size(); ++j) {
      EXPECT_EQ(s.keys[i].suffix[j].stamp.clock,
                d.keys[i].suffix[j].stamp.clock);
      EXPECT_EQ(s.keys[i].suffix[j].stamp.pid,
                d.keys[i].suffix[j].stamp.pid);
      EXPECT_EQ(s.keys[i].suffix[j].update.value,
                d.keys[i].suffix[j].update.value);
    }
  }
}

TEST(WireCodecTest, AntiEntropyRequestRoundTrip) {
  Env e;
  e.kind = EnvelopeKind::kAntiEntropyRequest;
  e.epoch = 4;
  e.ae_reciprocate = true;
  e.ae_floors = {100, 0, 250};
  e.sync_markers = {5, 0, 12, 3};
  e.sync_markers_epoch = 8;
  const Env d = decode_ok(encode(e));
  expect_same_header(e, d);
}

TEST(WireCodecTest, AntiEntropyDeltaRoundTrip) {
  const Env e = snapshot_envelope(EnvelopeKind::kAntiEntropyDelta);
  const Env d = decode_ok(encode(e));
  expect_same_header(e, d);
  expect_same_snapshot(e, d);
  EXPECT_EQ(d.snapshot->delta_since, 201u);  // delta marker survives
}

// ------------------------------------------------- structural rejection

TEST(WireCodecTest, RejectsTrailingBytes) {
  Env e;
  e.kind = EnvelopeKind::kBatch;
  std::vector<std::uint8_t> bytes = encode(e);
  bytes.push_back(0);
  Env out;
  const char* err = nullptr;
  EXPECT_FALSE(w::decode_envelope(bytes.data(), bytes.size(), &out, &err));
  EXPECT_STREQ(err, "trailing bytes after envelope");
}

TEST(WireCodecTest, RejectsInvalidKind) {
  Env e;
  e.kind = EnvelopeKind::kBatch;
  std::vector<std::uint8_t> bytes = encode(e);
  bytes[0] = 0xEE;
  Env out;
  EXPECT_FALSE(w::decode_envelope(bytes.data(), bytes.size(), &out));
}

TEST(WireCodecTest, RejectsRetiredSyncKinds) {
  // Kind bytes 1 and 2 were the catch-up pair (sync request, shard
  // snapshot); catch-up now runs as a bootstrap anti-entropy round, so
  // no store sends them and the decoder treats them as invalid — even
  // wrapped around an otherwise well-formed payload.
  for (const std::uint8_t kind : {std::uint8_t{1}, std::uint8_t{2}}) {
    std::vector<std::uint8_t> bytes =
        encode(snapshot_envelope(EnvelopeKind::kAntiEntropyDelta));
    bytes[0] = kind;
    Env out;
    const char* err = nullptr;
    EXPECT_FALSE(w::decode_envelope(bytes.data(), bytes.size(), &out, &err))
        << "kind byte " << int{kind};
    EXPECT_STREQ(err, "invalid envelope kind");
  }
}

/// Decodes `bytes`, expecting a rejection that names `why`.
void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     const char* why) {
  Env out;
  const char* err = nullptr;
  EXPECT_FALSE(w::decode_envelope(bytes.data(), bytes.size(), &out, &err));
  EXPECT_STREQ(err, why);
}

/// A kBatch header up to (and including) the entry count: kind,
/// `flags`, epoch 1, seq 1, ack 0, `n_entries`.
std::vector<std::uint8_t> batch_header(std::uint8_t flags,
                                       std::uint64_t n_entries) {
  std::vector<std::uint8_t> bytes;
  w::Writer wr(&bytes);
  wr.u8(0);
  wr.u8(flags);
  wr.varint(1);
  wr.varint(1);
  wr.varint(0);
  wr.varint(n_entries);
  return bytes;
}

constexpr std::uint8_t kSharedPid = w::detail::kSharedPid;

TEST(WireCodecTest, RejectsOverclaimedEntryCount) {
  // A count claiming 2^31 entries, then nothing: refused before any
  // allocation, at one byte per varint.
  expect_rejected(batch_header(0, 0x80000000u), "entry count exceeds payload");
}

TEST(WireCodecTest, RejectsEveryTruncation) {
  Env batch = snapshot_envelope(EnvelopeKind::kAntiEntropyDelta);
  batch.kind = EnvelopeKind::kBatch;
  batch.ack_clock = 900;
  batch.sync_markers = {7};
  batch.ae_floors = {3, 4};
  for (int i = 0; i < 3; ++i) {
    batch.entries.push_back(
        {"e" + std::to_string(i),
         UpdateMessage<Reg>{Stamp{static_cast<LogicalTime>(500 - i), 1},
                            Reg::write(-300 * i)}});
  }
  for (const Env& e : {snapshot_envelope(EnvelopeKind::kAntiEntropyDelta),
                       batch}) {
    const std::vector<std::uint8_t> bytes = encode(e);
    Env out;
    for (std::size_t n = 0; n < bytes.size(); ++n) {
      EXPECT_FALSE(w::decode_envelope(bytes.data(), n, &out))
          << "accepted a " << n << "-byte prefix of " << bytes.size();
    }
  }
}

TEST(WireCodecTest, RejectsOverlongVarint) {
  // Eleven bytes: ten continuation bytes, then a terminator.
  std::vector<std::uint8_t> bytes(2 + 10, 0x80);
  bytes[0] = bytes[1] = 0;  // kind, flags
  bytes.push_back(0x00);
  expect_rejected(bytes, "overlong varint");
}

TEST(WireCodecTest, RejectsVarintPast64Bits) {
  // Ten bytes whose last holds more than bit 63.
  std::vector<std::uint8_t> bytes(2 + 9, 0xFF);
  bytes[0] = bytes[1] = 0;  // kind, flags
  bytes.push_back(0x02);
  expect_rejected(bytes, "varint exceeds 64 bits");
  // Bit 63 alone is UINT64_MAX's last byte, and fine.
  bytes.back() = 0x01;
  bytes.resize(bytes.size() + 3, 0);  // seq, ack, entry count
  EXPECT_EQ(decode_ok(bytes).epoch, std::numeric_limits<std::uint64_t>::max());
}

TEST(WireCodecTest, RejectsNonMinimalVarint) {
  // Epoch 0 written as two bytes (0x80 0x00): the same value as 0x00,
  // so the envelope would have two encodings.
  expect_rejected({0, 0, 0x80, 0x00, 0, 0, 0}, "non-minimal varint");
  expect_rejected({0, 0, 0x81, 0x80, 0x00, 0, 0, 0}, "non-minimal varint");
}

TEST(WireCodecTest, RejectsPidPastItsField) {
  // One entry behind a shared pid of 2^32: ProcessId is 32 bits.
  std::vector<std::uint8_t> bytes = batch_header(kSharedPid, 1);
  w::Writer wr(&bytes);
  wr.varint(std::uint64_t{1} << 32);  // pid
  wr.varint(5);                       // base clock
  wr.varint(0);                       // key ""
  wr.varint(0);                       // clock delta
  wr.zigzag(0);                       // value
  expect_rejected(bytes, "varint exceeds its field");
}

TEST(WireCodecTest, RejectsClockPastUint64Max) {
  std::vector<std::uint8_t> bytes = batch_header(kSharedPid, 1);
  w::Writer wr(&bytes);
  wr.varint(0);                                        // pid
  wr.varint(std::numeric_limits<LogicalTime>::max());  // base clock
  wr.varint(0);                                        // key ""
  wr.varint(1);                                        // delta past max
  wr.zigzag(0);
  expect_rejected(bytes, "clock delta overflows");
}

TEST(WireCodecTest, RejectsUnknownFlagBit) {
  for (int bit = 5; bit < 8; ++bit) {
    expect_rejected({0, static_cast<std::uint8_t>(1u << bit), 0, 0, 0, 0},
                    "unknown flag bits");
  }
}

TEST(WireCodecTest, RejectsNonCanonicalEncodings) {
  // Shared pid with no entry to share it.
  expect_rejected({0, kSharedPid, 0, 0, 0, 0},
                  "shared pid flag without entries");
  // Flagged sections that are empty.
  expect_rejected({0, w::detail::kHasSyncMarkers, 0, 0, 0, 0, 0, 0},
                  "empty sync markers section");
  expect_rejected({0, w::detail::kHasAeFloors, 0, 0, 0, 0, 0},
                  "empty ae floors section");
  // A base clock below every entry's clock (the base is the minimum).
  std::vector<std::uint8_t> bytes = batch_header(kSharedPid, 2);
  w::Writer wr(&bytes);
  wr.varint(3);  // pid
  wr.varint(10);
  for (int i = 1; i <= 2; ++i) {
    wr.varint(0);  // key ""
    wr.varint(static_cast<std::uint64_t>(i));
    wr.zigzag(i);
  }
  expect_rejected(bytes, "clock base is not the minimum");
  // Per-entry pids that are all the same pid.
  bytes = batch_header(0, 2);
  wr.varint(10);
  for (int i = 0; i < 2; ++i) {
    wr.varint(0);
    wr.varint(static_cast<std::uint64_t>(i));
    wr.varint(3);  // pid
    wr.zigzag(i);
  }
  expect_rejected(bytes, "per-entry pids that could be shared");
}

// ------------------------------------------------------------- framing

TEST(WireFrameTest, SingleFrameRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  std::vector<std::vector<std::uint8_t>> frames;
  w::encode_frames(payload.data(), payload.size(), /*sender=*/2,
                   /*msg_id=*/99, &frames);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].size(), w::kFrameHeaderBytes + payload.size());
  w::FrameHeader h;
  const std::uint8_t* body = nullptr;
  const char* err = nullptr;
  ASSERT_TRUE(
      w::decode_frame(frames[0].data(), frames[0].size(), &h, &body, &err))
      << err;
  EXPECT_EQ(h.version, w::kWireVersion);
  EXPECT_EQ(h.sender, 2);
  EXPECT_EQ(h.msg_id, 99u);
  EXPECT_EQ(h.frag_index, 0);
  EXPECT_EQ(h.frag_count, 1);
  ASSERT_EQ(h.payload_len, payload.size());
  EXPECT_EQ(std::vector<std::uint8_t>(body, body + h.payload_len), payload);
}

TEST(WireFrameTest, FragmentationSplitsAndReassembles) {
  Rng rng(ucw::test::seed_or(11));
  std::vector<std::uint8_t> payload(2500);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  std::vector<std::vector<std::uint8_t>> frames;
  w::encode_frames(payload.data(), payload.size(), 1, 7, &frames,
                   /*max_payload=*/1000);
  ASSERT_EQ(frames.size(), 3u);  // 1000 + 1000 + 500
  std::vector<std::uint8_t> reassembled;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    w::FrameHeader h;
    const std::uint8_t* body = nullptr;
    ASSERT_TRUE(w::decode_frame(frames[i].data(), frames[i].size(), &h,
                                &body));
    EXPECT_EQ(h.frag_index, i);
    EXPECT_EQ(h.frag_count, frames.size());
    EXPECT_EQ(h.msg_id, 7u);
    reassembled.insert(reassembled.end(), body, body + h.payload_len);
  }
  EXPECT_EQ(reassembled, payload);
}

TEST(WireFrameTest, EmptyPayloadStillFrames) {
  std::vector<std::vector<std::uint8_t>> frames;
  w::encode_frames(nullptr, 0, 0, 1, &frames);
  ASSERT_EQ(frames.size(), 1u);
  w::FrameHeader h;
  const std::uint8_t* body = nullptr;
  ASSERT_TRUE(w::decode_frame(frames[0].data(), frames[0].size(), &h, &body));
  EXPECT_EQ(h.payload_len, 0u);
}

TEST(WireFrameTest, RejectsBadMagicVersionLengthChecksum) {
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  std::vector<std::vector<std::uint8_t>> frames;
  w::encode_frames(payload.data(), payload.size(), 0, 5, &frames);
  const std::vector<std::uint8_t>& good = frames[0];
  w::FrameHeader h;
  const std::uint8_t* body = nullptr;
  const char* err = nullptr;

  auto mutated = good;
  mutated[0] ^= 0xFF;  // magic
  EXPECT_FALSE(w::decode_frame(mutated.data(), mutated.size(), &h, &body,
                               &err));
  EXPECT_STREQ(err, "bad magic");

  mutated = good;
  mutated[1] = 0x7F;  // version
  EXPECT_FALSE(w::decode_frame(mutated.data(), mutated.size(), &h, &body,
                               &err));
  EXPECT_STREQ(err, "unsupported version");

  mutated = good;
  mutated.resize(w::kFrameHeaderBytes - 1);  // no room for the header
  EXPECT_FALSE(w::decode_frame(mutated.data(), mutated.size(), &h, &body,
                               &err));
  EXPECT_STREQ(err, "short frame");

  mutated = good;
  mutated.pop_back();  // the payload length is the datagram's: crc fails
  EXPECT_FALSE(w::decode_frame(mutated.data(), mutated.size(), &h, &body,
                               &err));
  EXPECT_STREQ(err, "bad checksum");

  mutated = good;
  mutated[w::kFrameCrcOffset] ^= 0x01;  // crc
  EXPECT_FALSE(w::decode_frame(mutated.data(), mutated.size(), &h, &body,
                               &err));
  EXPECT_STREQ(err, "bad checksum");

  mutated = good;
  mutated.back() ^= 0x01;  // payload bit flip -> crc catches it
  EXPECT_FALSE(w::decode_frame(mutated.data(), mutated.size(), &h, &body,
                               &err));
  EXPECT_STREQ(err, "bad checksum");
}

// ------------------------------------------------------------ fuzz loop

/// A random well-formed envelope: fuzz corpus element.
Env random_envelope(Rng& rng) {
  Env e;
  constexpr EnvelopeKind kKinds[] = {EnvelopeKind::kBatch,
                                     EnvelopeKind::kAntiEntropyRequest,
                                     EnvelopeKind::kAntiEntropyDelta};
  e.kind = kKinds[static_cast<std::size_t>(rng.uniform_int(0, 2))];
  e.epoch = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
  e.seq = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
  e.ack_clock = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
  const int n_entries = static_cast<int>(rng.uniform_int(0, 6));
  for (int i = 0; i < n_entries; ++i) {
    KeyedUpdate<Reg, std::string> ku;
    ku.key = "k" + std::to_string(rng.uniform_int(0, 30));
    ku.msg.stamp = Stamp{static_cast<LogicalTime>(rng.uniform_int(0, 1000)),
                         static_cast<ProcessId>(rng.uniform_int(0, 7))};
    ku.msg.update = Reg::write(rng.uniform_int(-1000000, 1000000));
    e.entries.push_back(std::move(ku));
  }
  if (rng.chance(0.3)) {
    auto snap = std::make_shared<ShardSnapshot<Reg, std::string>>();
    snap->shard_index = static_cast<std::size_t>(rng.uniform_int(0, 15));
    snap->shard_count = 16;
    snap->donor_clock = static_cast<LogicalTime>(rng.uniform_int(0, 5000));
    const int n_keys = static_cast<int>(rng.uniform_int(0, 4));
    for (int i = 0; i < n_keys; ++i) {
      KeySnapshot<Reg, std::string> k;
      k.key = "s" + std::to_string(i);
      k.base = rng.uniform_int(-100, 100);
      k.floor = static_cast<LogicalTime>(rng.uniform_int(0, 100));
      const int n_suffix = static_cast<int>(rng.uniform_int(0, 3));
      for (int j = 0; j < n_suffix; ++j) {
        k.suffix.push_back(SnapshotLogEntry<Reg>{
            Stamp{static_cast<LogicalTime>(rng.uniform_int(0, 500)),
                  static_cast<ProcessId>(rng.uniform_int(0, 7))},
            Reg::write(rng.uniform_int(-99, 99))});
      }
      snap->keys.push_back(std::move(k));
    }
    e.snapshot = std::move(snap);
  }
  if (rng.chance(0.4)) e.sync_markers = {1, 2, 3};
  e.ae_reciprocate = rng.chance(0.5);
  if (rng.chance(0.4)) {
    e.ae_floors = {static_cast<LogicalTime>(rng.uniform_int(0, 99))};
  }
  return e;
}

/// >= 10k mutated frames against the full decode path (frame -> CRC ->
/// envelope). Mutations on CRC-protected bytes must be rejected at the
/// frame layer; mutations with the CRC *recomputed* (simulating a
/// malicious sender rather than line noise) push hostile-but-checksummed
/// payloads into decode_envelope, which must error out or accept — but
/// never crash, hang, or over-allocate. ASan/UBSan make "never crash"
/// a real assertion in CI.
TEST(WireFuzzTest, MutatedFramesNeverCrashNeverSilentlyAccept) {
  const auto seeds = ucw::test::property_seeds({1, 2, 3, 4});
  constexpr int kMutationsPerSeed = 3000;  // x4 seeds >= 10k frames
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE(ucw::test::seed_trace(seed));
    Rng rng(seed);
    for (int round = 0; round < kMutationsPerSeed; ++round) {
      const Env e = random_envelope(rng);
      std::vector<std::uint8_t> payload;
      w::encode_envelope(e, &payload);
      std::vector<std::vector<std::uint8_t>> frames;
      w::encode_frames(payload.data(), payload.size(),
                       static_cast<std::uint16_t>(rng.uniform_int(0, 7)),
                       static_cast<std::uint32_t>(round), &frames);
      std::vector<std::uint8_t> frame = std::move(frames[0]);

      const int mode = static_cast<int>(rng.uniform_int(0, 3));
      bool crc_repaired = false;
      if (mode == 0) {
        // Truncate anywhere (header or payload).
        frame.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1)));
      } else if (mode == 1) {
        // 1-8 random bit flips anywhere.
        const int flips = static_cast<int>(rng.uniform_int(1, 8));
        for (int f = 0; f < flips; ++f) {
          const auto at = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(frame.size()) - 1));
          frame[at] ^= static_cast<std::uint8_t>(
              1u << rng.uniform_int(0, 7));
        }
      } else if (mode == 2) {
        // Malicious sender: corrupt the payload, then recompute the CRC
        // so the frame layer accepts and the envelope decoder faces the
        // hostile bytes itself.
        if (frame.size() > w::kFrameHeaderBytes) {
          const int flips = static_cast<int>(rng.uniform_int(1, 8));
          for (int f = 0; f < flips; ++f) {
            const auto at = static_cast<std::size_t>(rng.uniform_int(
                static_cast<std::int64_t>(w::kFrameHeaderBytes),
                static_cast<std::int64_t>(frame.size()) - 1));
            frame[at] ^= static_cast<std::uint8_t>(
                1u << rng.uniform_int(0, 7));
          }
          const std::uint32_t crc = w::crc32(
              frame.data() + w::kFrameHeaderBytes,
              frame.size() - w::kFrameHeaderBytes);
          for (std::size_t b = 0; b < 4; ++b) {
            frame[w::kFrameCrcOffset + b] =
                static_cast<std::uint8_t>(crc >> (8 * b));
          }
          crc_repaired = true;
        }
      } else {
        // Pure garbage of the same length.
        for (auto& b : frame) {
          b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
      }

      w::FrameHeader h;
      const std::uint8_t* body = nullptr;
      if (!w::decode_frame(frame.data(), frame.size(), &h, &body)) {
        continue;  // rejected at the frame layer: contract satisfied
      }
      // The frame layer accepted. Without a repaired CRC that means the
      // mutation happened to cancel out or missed the protected bytes —
      // verify the payload really is byte-identical before letting it
      // through as a "silent accept".
      if (!crc_repaired) {
        ASSERT_EQ(h.payload_len, payload.size())
            << "frame layer accepted a mutated length (round " << round
            << ")";
        ASSERT_EQ(0, std::memcmp(body, payload.data(), payload.size()))
            << "frame layer accepted mutated payload bytes (round "
            << round << ")";
      }
      // Hostile-but-checksummed payload: decode must not crash. Either
      // verdict is fine; a success must yield a kind a store sends
      // (never a retired one) and, since each envelope has exactly one
      // encoding, re-encode to the very bytes it came from.
      Env out;
      const char* err = nullptr;
      if (w::decode_envelope(body, h.payload_len, &out, &err)) {
        EXPECT_LE(static_cast<std::uint8_t>(out.kind),
                  static_cast<std::uint8_t>(EnvelopeKind::kAntiEntropyDelta));
        EXPECT_NE(out.kind, EnvelopeKind::kSyncRequest);
        EXPECT_NE(out.kind, EnvelopeKind::kShardSnapshot);
        ASSERT_EQ(encode(out), std::vector<std::uint8_t>(
                                   body, body + h.payload_len))
            << "accepted a second encoding (round " << round << ")";
      }
    }
  }
}

/// The honest path stays honest under the same seeds: whatever
/// random_envelope emits must round-trip unchanged.
TEST(WireFuzzTest, RandomEnvelopesAlwaysRoundTrip) {
  const auto seeds = ucw::test::property_seeds({21, 22});
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE(ucw::test::seed_trace(seed));
    Rng rng(seed);
    for (int round = 0; round < 500; ++round) {
      const Env e = random_envelope(rng);
      const std::vector<std::uint8_t> bytes = encode(e);
      const Env d = decode_ok(bytes);
      EXPECT_EQ(encode(d), bytes);
      expect_same_header(e, d);
      expect_same_entries(e, d);
      EXPECT_EQ(e.snapshot != nullptr, d.snapshot != nullptr);
      if (e.snapshot && d.snapshot) expect_same_snapshot(e, d);
    }
  }
}

}  // namespace
}  // namespace ucw
