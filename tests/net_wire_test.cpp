// Wire codec properties: every envelope kind a store sends round-trips
// exactly, the retired kinds are rejected, and the decoder survives
// hostile bytes.
//
// The round-trip half builds one representative envelope per sent
// EnvelopeKind (populated fields, not defaults), encodes, decodes, and
// compares field by field. The fuzz half mutates well-formed frames —
// truncation, bit flips, bad magic/version/length/checksum — and
// asserts the asymmetric contract: decode returns an error, never
// crashes (run under ASan/UBSan in CI), and never accepts a frame
// whose CRC-protected bytes changed. Failing seeds print via
// test_seeds.hpp and replay with UCW_SEED=<n>.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
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
    EXPECT_EQ(a.entries[i].msg.known, b.entries[i].msg.known);
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
    ku.msg.known = {static_cast<LogicalTime>(90 + i),
                    static_cast<LogicalTime>(95 + i), 0};
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

TEST(WireCodecTest, RejectsOverclaimedEntryCount) {
  // kind + epoch/seq/ack + a count claiming 2^31 entries, then nothing.
  std::vector<std::uint8_t> bytes;
  w::Writer wr(&bytes);
  wr.u8(0);
  wr.u64(1);
  wr.u64(1);
  wr.u64(0);
  wr.u32(0x80000000u);
  Env out;
  const char* err = nullptr;
  EXPECT_FALSE(w::decode_envelope(bytes.data(), bytes.size(), &out, &err));
  EXPECT_STREQ(err, "entry count exceeds payload");
}

TEST(WireCodecTest, RejectsEveryTruncation) {
  const Env e = snapshot_envelope(EnvelopeKind::kAntiEntropyDelta);
  const std::vector<std::uint8_t> bytes = encode(e);
  Env out;
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(w::decode_envelope(bytes.data(), n, &out))
        << "accepted a " << n << "-byte prefix of " << bytes.size();
  }
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
  mutated[4] = 0x7F;  // version
  EXPECT_FALSE(w::decode_frame(mutated.data(), mutated.size(), &h, &body,
                               &err));
  EXPECT_STREQ(err, "unsupported version");

  mutated = good;
  mutated[16] = 0xFF;  // payload_len no longer matches datagram size
  EXPECT_FALSE(w::decode_frame(mutated.data(), mutated.size(), &h, &body,
                               &err));
  EXPECT_STREQ(err, "length mismatch");

  mutated = good;
  mutated[20] ^= 0x01;  // crc
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
    const int n_known = static_cast<int>(rng.uniform_int(0, 4));
    for (int j = 0; j < n_known; ++j) {
      ku.msg.known.push_back(
          static_cast<LogicalTime>(rng.uniform_int(0, 1000)));
    }
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
          frame[20] = static_cast<std::uint8_t>(crc);
          frame[21] = static_cast<std::uint8_t>(crc >> 8);
          frame[22] = static_cast<std::uint8_t>(crc >> 16);
          frame[23] = static_cast<std::uint8_t>(crc >> 24);
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
      // verdict is fine; a success must at least yield a kind a store
      // sends (never a retired one).
      Env out;
      const char* err = nullptr;
      if (w::decode_envelope(body, h.payload_len, &out, &err)) {
        EXPECT_LE(static_cast<std::uint8_t>(out.kind),
                  static_cast<std::uint8_t>(EnvelopeKind::kAntiEntropyDelta));
        EXPECT_NE(out.kind, EnvelopeKind::kSyncRequest);
        EXPECT_NE(out.kind, EnvelopeKind::kShardSnapshot);
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
      const Env d = decode_ok(encode(e));
      expect_same_header(e, d);
      expect_same_entries(e, d);
      EXPECT_EQ(e.snapshot != nullptr, d.snapshot != nullptr);
      if (e.snapshot && d.snapshot) expect_same_snapshot(e, d);
    }
  }
}

}  // namespace
}  // namespace ucw
