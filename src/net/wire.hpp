// Versioned binary envelope codec: BatchEnvelope <-> untrusted bytes.
//
// Everything before this layer moves envelopes as C++ objects between
// in-process transports; a real socket moves bytes, and bytes are
// hostile. The codec therefore has one asymmetric contract:
//
//   * encode is total — any well-formed envelope serializes;
//   * decode is defensive — its input is an UNTRUSTED byte string
//     (truncated datagrams, bit flips, stale versions, deliberate
//     garbage), and it must return an error, never crash, never throw,
//     and never silently accept a frame whose checksum does not match.
//
// Every read is bounds-checked, every count is sanity-capped against
// the bytes that could possibly back it (a varint length prefix must
// not become a 4 GiB allocation), and a payload that decodes but
// leaves trailing bytes is rejected — trailing garbage means a framing
// bug or an attack, not padding. Each envelope has exactly one
// encoding: non-minimal varints, flagged-but-empty sections and a
// clock base that is not the group minimum are rejected too.
//
// Frame layout (little-endian, fixed 16 bytes; kFrameOverheadBytes in
// store/envelope.hpp follows it):
//
//   offset size field
//        0    1 magic 'U' (0x55)
//        1    1 version (kWireVersion)
//        2    2 sender pid
//        4    4 msg id (per-sender counter; keys fragment reassembly)
//        8    2 fragment index
//       10    2 fragment count
//       12    4 CRC32 (IEEE) of this frame's payload bytes
//       16      payload... (its length is the datagram's, minus 16)
//
// One envelope = one message = `frag_count` frames. Delta snapshots (a
// rejoiner's bootstrap round above all) routinely exceed a UDP
// datagram, so the frame carries fragmentation fields and the
// transport reassembles by (sender, msg id). The CRC is per frame: a
// corrupted fragment is dropped before it can poison a reassembly.
//
// Envelope payload (v2). "varint" is unsigned LEB128 (7 bits per byte,
// low group first, at most 10 bytes); signed values are zigzag varints.
// The paper's message is an update plus "a timestamp composed of two
// integer values", so the codec pays only for information:
//
//   kind        u8      EnvelopeKind (offset 0)
//   flags       u8      which optional parts follow (Flag below)
//   epoch, seq, ack_clock   varint each
//   entries     varint count; when nonzero: [pid varint if kSharedPid],
//               base clock varint (the entries' minimum), then per entry:
//               key, clock - base varint, [pid varint unless kSharedPid],
//               update
//   snapshot    if kHasSnapshot (layout at put_snapshot)
//   sync        if kHasSyncMarkers: varint count, markers, marker epoch
//   ae floors   if kHasAeFloors: varint count, floors
//
// A store's kBatch carries only the sender's own updates, so its pid is
// written once; the base + delta clocks cost a byte per entry when the
// batch's stamps are close. Neither depends on the entries' order.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "adt/register.hpp"
#include "store/envelope.hpp"

namespace ucw::wire {

inline constexpr std::uint8_t kMagic = 0x55;  // 'U'
inline constexpr std::uint8_t kWireVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Where the frame's CRC32 sits (little-endian u32).
inline constexpr std::size_t kFrameCrcOffset = 12;
static_assert(kFrameHeaderBytes == kFrameOverheadBytes,
              "the bench estimate and the real frame header agree");

/// Largest payload slice per frame: localhost UDP tops out near 64 KiB
/// per datagram; leave headroom for the header and kernel padding.
inline constexpr std::size_t kDefaultMaxFramePayload = 60000;

/// A u64 needs ten 7-bit groups; the tenth holds only bit 63.
inline constexpr int kMaxVarintBytes = 10;

// ----------------------------------------------------------------- CRC32

/// CRC32 (IEEE 802.3, reflected) over a byte range.
[[nodiscard]] inline std::uint32_t crc32(const std::uint8_t* data,
                                         std::size_t len) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// --------------------------------------------- bounded writer / reader

/// Append-only byte writer (encode side; total).
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>* out) : out_(out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u16(std::uint16_t v) { put_le(v, 2); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      out_->push_back(static_cast<std::uint8_t>(v | 0x80));
      v >>= 7;
    }
    out_->push_back(static_cast<std::uint8_t>(v));
  }
  /// Zigzag maps small magnitudes of either sign to small varints.
  void zigzag(std::int64_t v) {
    varint((static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63));
  }
  void bytes(const std::uint8_t* p, std::size_t n) {
    out_->insert(out_->end(), p, p + n);
  }

 private:
  void put_le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t>* out_;
};

/// Bounds-checked reader (decode side; every get returns false on
/// underrun or a malformed varint and the caller propagates — no read
/// ever touches bytes past `len`). A malformed varint also records why
/// in error(); a plain underrun leaves error() null.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len)
      : p_(data), len_(len), i_(0) {}

  [[nodiscard]] std::size_t remaining() const { return len_ - i_; }
  [[nodiscard]] bool done() const { return i_ == len_; }
  [[nodiscard]] const char* error() const { return error_; }

  /// Records why decoding stopped (the first reason wins); false.
  [[nodiscard]] bool fail(const char* what) {
    if (error_ == nullptr) error_ = what;
    return false;
  }

  [[nodiscard]] bool u8(std::uint8_t* v) {
    if (remaining() < 1) return false;
    *v = p_[i_++];
    return true;
  }
  [[nodiscard]] bool u16(std::uint16_t* v) { return get_le(v, 2); }
  [[nodiscard]] bool u32(std::uint32_t* v) { return get_le(v, 4); }
  [[nodiscard]] bool bytes(std::uint8_t* dst, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(dst, p_ + i_, n);
    i_ += n;
    return true;
  }

  /// One LEB128 varint, in its only (minimal) encoding.
  [[nodiscard]] bool varint(std::uint64_t* v) {
    std::uint64_t acc = 0;
    for (int k = 0;; ++k) {  // ends by byte 10 at the latest
      if (remaining() < 1) return false;
      const std::uint8_t b = p_[i_++];
      if (k == kMaxVarintBytes - 1) {
        if ((b & 0x80) != 0) return fail("overlong varint");
        if (b > 1) return fail("varint exceeds 64 bits");
      }
      acc |= static_cast<std::uint64_t>(b & 0x7F) << (7 * k);
      if ((b & 0x80) == 0) {
        if (b == 0 && k > 0) return fail("non-minimal varint");
        *v = acc;
        return true;
      }
    }
  }

  /// A varint into a narrower unsigned field; wider values are refused.
  template <typename T>
    requires std::is_unsigned_v<T>
  [[nodiscard]] bool varint(T* v) {
    std::uint64_t x;
    if (!varint(&x)) return false;
    if constexpr (sizeof(T) < sizeof(x)) {
      if (x > std::numeric_limits<T>::max()) {
        return fail("varint exceeds its field");
      }
    }
    *v = static_cast<T>(x);
    return true;
  }

  [[nodiscard]] bool zigzag(std::int64_t* v) {
    std::uint64_t x;
    if (!varint(&x)) return false;
    *v = static_cast<std::int64_t>((x >> 1) ^ (~(x & 1) + 1));
    return true;
  }

  /// Sanity cap for length prefixes: a claimed element count can be
  /// honest only if at least `min_bytes_each` bytes per element remain.
  /// Rejecting here keeps a flipped length byte from turning into a
  /// multi-gigabyte reserve before the per-element reads would fail.
  [[nodiscard]] bool fits(std::uint64_t count, std::size_t min_bytes_each) {
    return min_bytes_each == 0 || count <= remaining() / min_bytes_each;
  }

 private:
  template <typename T>
  [[nodiscard]] bool get_le(T* v, int n) {
    if (remaining() < static_cast<std::size_t>(n)) return false;
    std::uint64_t acc = 0;
    for (int k = 0; k < n; ++k) {
      acc |= static_cast<std::uint64_t>(p_[i_ + k]) << (8 * k);
    }
    i_ += n;
    *v = static_cast<T>(acc);
    return true;
  }

  const std::uint8_t* p_;
  std::size_t len_;
  std::size_t i_;
  const char* error_ = nullptr;
};

// -------------------------------------------------- value (de)serializers
//
// The envelope is generic over the ADT's Update/State and the key type;
// ValueCodec<T> is the customization point that pins each leaf type to
// bytes. Unsigned integers are varints and signed ones zigzag varints;
// strings are varint-length-prefixed; RegWrite wraps its value. A new
// ADT going on the wire adds one specialization here (or next to its own
// definition). kMinBytes is the smallest encoding, for Reader::fits.

template <typename T>
struct ValueCodec;  // no primary definition: unsupported leaf = compile error

template <typename T>
  requires std::is_integral_v<T>
struct ValueCodec<T> {
  static constexpr std::size_t kMinBytes = 1;
  static void encode(const T& v, Writer* w) {
    if constexpr (std::is_signed_v<T>) {
      w->zigzag(static_cast<std::int64_t>(v));
    } else {
      w->varint(static_cast<std::uint64_t>(v));
    }
  }
  [[nodiscard]] static bool decode(Reader* r, T* v) {
    if constexpr (std::is_signed_v<T>) {
      std::int64_t x;
      if (!r->zigzag(&x)) return false;
      if constexpr (sizeof(T) < sizeof(x)) {
        if (x < std::numeric_limits<T>::min() ||
            x > std::numeric_limits<T>::max()) {
          return r->fail("varint exceeds its field");
        }
      }
      *v = static_cast<T>(x);
      return true;
    } else {
      return r->varint(v);
    }
  }
};

template <>
struct ValueCodec<std::string> {
  static constexpr std::size_t kMinBytes = 1;  // the length prefix
  static void encode(const std::string& v, Writer* w) {
    w->varint(v.size());
    w->bytes(reinterpret_cast<const std::uint8_t*>(v.data()), v.size());
  }
  [[nodiscard]] static bool decode(Reader* r, std::string* v) {
    std::uint64_t n;
    if (!r->varint(&n) || n > r->remaining()) return false;
    v->resize(n);
    return n == 0 ||
           r->bytes(reinterpret_cast<std::uint8_t*>(v->data()), n);
  }
};

template <typename V>
struct ValueCodec<RegWrite<V>> {
  static constexpr std::size_t kMinBytes = ValueCodec<V>::kMinBytes;
  static void encode(const RegWrite<V>& u, Writer* w) {
    ValueCodec<V>::encode(u.value, w);
  }
  [[nodiscard]] static bool decode(Reader* r, RegWrite<V>* u) {
    return ValueCodec<V>::decode(r, &u->value);
  }
};

// ------------------------------------------------------ envelope payload

namespace detail {

/// Bits of the envelope's flags byte; any other bit is rejected.
enum Flag : std::uint8_t {
  kHasSnapshot = 1u << 0,
  kHasSyncMarkers = 1u << 1,  ///< sync_markers and sync_markers_epoch
  kHasAeFloors = 1u << 2,
  kReciprocate = 1u << 3,
  kSharedPid = 1u << 4,  ///< every entry has the pid written once
};
inline constexpr std::uint8_t kKnownFlags =
    kHasSnapshot | kHasSyncMarkers | kHasAeFloors | kReciprocate | kSharedPid;

/// StreamCoverage's two booleans share one byte.
inline constexpr std::uint8_t kCoverageAny = 1u << 0;
inline constexpr std::uint8_t kCoverageDrained = 1u << 1;

/// The kinds a store sends: kBatch and the anti-entropy pair. The
/// retired kSyncRequest/kShardSnapshot bytes decode as invalid.
[[nodiscard]] inline bool valid_kind(std::uint8_t kind) {
  switch (static_cast<EnvelopeKind>(kind)) {
    case EnvelopeKind::kBatch:
    case EnvelopeKind::kAntiEntropyRequest:
    case EnvelopeKind::kAntiEntropyDelta:
      return true;
    case EnvelopeKind::kSyncRequest:
    case EnvelopeKind::kShardSnapshot:
      break;
  }
  return false;
}

inline void put_u64_vec(const std::vector<std::uint64_t>& v, Writer* w) {
  w->varint(v.size());
  for (const std::uint64_t x : v) w->varint(x);
}

[[nodiscard]] inline bool get_u64_vec(Reader* r,
                                      std::vector<std::uint64_t>* v) {
  std::uint64_t n;
  if (!r->varint(&n) || !r->fits(n, 1)) return false;
  v->resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!r->varint(&(*v)[i])) return false;
  }
  return true;
}

/// Smallest clock among `items`' stamps: the base a clock group's
/// deltas are taken from (any order of the items encodes).
template <typename Items, typename StampOf>
[[nodiscard]] LogicalTime min_clock(const Items& items, StampOf stamp_of) {
  LogicalTime base = std::numeric_limits<LogicalTime>::max();
  for (const auto& item : items) base = std::min(base, stamp_of(item).clock);
  return base;
}

/// Reads one clock delta and adds it to `base`. Checks only what one
/// entry can: the group-level canonical check is the caller's.
[[nodiscard]] inline bool get_clock(Reader* r, LogicalTime base,
                                    LogicalTime* clock, bool* at_base) {
  std::uint64_t delta;
  if (!r->varint(&delta)) return false;
  if (delta > std::numeric_limits<LogicalTime>::max() - base) {
    return r->fail("clock delta overflows");
  }
  *clock = base + delta;
  *at_base = *at_base || delta == 0;
  return true;
}

// Snapshot layout: shard_index, shard_count, donor_clock, delta_marker,
// delta_since, keys_total (varints); donor_rows (varint count +
// varints); coverage (varint count, then per stream a flags byte and
// varint epoch, seq); keys (varint count, then per key: key, base state,
// varint floor, varint suffix count and, when nonzero, a base clock
// followed by per entry: clock delta, pid, update).
template <UqAdt A, typename Key>
void put_snapshot(const ShardSnapshot<A, Key>& s, Writer* w) {
  w->varint(s.shard_index);
  w->varint(s.shard_count);
  w->varint(s.donor_clock);
  w->varint(s.delta_marker);
  w->varint(s.delta_since);
  w->varint(s.keys_total);
  put_u64_vec(s.donor_rows, w);
  w->varint(s.coverage.size());
  for (const StreamCoverage& c : s.coverage) {
    w->u8(static_cast<std::uint8_t>((c.any ? kCoverageAny : 0) |
                                    (c.drained ? kCoverageDrained : 0)));
    w->varint(c.epoch);
    w->varint(c.seq);
  }
  w->varint(s.keys.size());
  for (const KeySnapshot<A, Key>& k : s.keys) {
    ValueCodec<Key>::encode(k.key, w);
    ValueCodec<typename A::State>::encode(k.base, w);
    w->varint(k.floor);
    w->varint(k.suffix.size());
    if (k.suffix.empty()) continue;
    const LogicalTime base = min_clock(
        k.suffix, [](const SnapshotLogEntry<A>& e) { return e.stamp; });
    w->varint(base);
    for (const SnapshotLogEntry<A>& e : k.suffix) {
      w->varint(e.stamp.clock - base);
      w->varint(e.stamp.pid);
      ValueCodec<typename A::Update>::encode(e.update, w);
    }
  }
}

template <UqAdt A, typename Key>
[[nodiscard]] bool get_snapshot(Reader* r, ShardSnapshot<A, Key>* s) {
  if (!r->varint(&s->shard_index) || !r->varint(&s->shard_count) ||
      !r->varint(&s->donor_clock) || !r->varint(&s->delta_marker) ||
      !r->varint(&s->delta_since) || !r->varint(&s->keys_total) ||
      !get_u64_vec(r, &s->donor_rows)) {
    return false;
  }
  std::uint64_t n_cov;
  if (!r->varint(&n_cov) || !r->fits(n_cov, 3)) return false;
  s->coverage.resize(n_cov);
  for (StreamCoverage& c : s->coverage) {
    std::uint8_t bits;
    if (!r->u8(&bits) || !r->varint(&c.epoch) || !r->varint(&c.seq)) {
      return false;
    }
    if ((bits & ~(kCoverageAny | kCoverageDrained)) != 0) {
      return r->fail("unknown coverage bits");
    }
    c.any = (bits & kCoverageAny) != 0;
    c.drained = (bits & kCoverageDrained) != 0;
  }
  std::uint64_t n_keys;
  if (!r->varint(&n_keys) ||
      !r->fits(n_keys, ValueCodec<Key>::kMinBytes +
                           ValueCodec<typename A::State>::kMinBytes + 2)) {
    return false;
  }
  s->keys.resize(n_keys);
  for (KeySnapshot<A, Key>& k : s->keys) {
    std::uint64_t n_suffix;
    if (!ValueCodec<Key>::decode(r, &k.key) ||
        !ValueCodec<typename A::State>::decode(r, &k.base) ||
        !r->varint(&k.floor) || !r->varint(&n_suffix) ||
        !r->fits(n_suffix, 2 + ValueCodec<typename A::Update>::kMinBytes)) {
      return false;
    }
    if (n_suffix == 0) continue;
    LogicalTime base;
    if (!r->varint(&base)) return false;
    k.suffix.resize(n_suffix);
    bool at_base = false;
    for (SnapshotLogEntry<A>& e : k.suffix) {
      if (!get_clock(r, base, &e.stamp.clock, &at_base) ||
          !r->varint(&e.stamp.pid) ||
          !ValueCodec<typename A::Update>::decode(r, &e.update)) {
        return false;
      }
    }
    if (!at_base) return r->fail("clock base is not the minimum");
  }
  return true;
}

}  // namespace detail

/// Serializes one envelope (any kind) into `out` (appended). Total.
template <UqAdt A, typename Key>
void encode_envelope(const BatchEnvelope<A, Key>& e,
                     std::vector<std::uint8_t>* out) {
  const auto stamp_of = [](const KeyedUpdate<A, Key>& ku) {
    return ku.msg.stamp;
  };
  const bool has_entries = !e.entries.empty();
  const LogicalTime base = detail::min_clock(e.entries, stamp_of);
  const bool shared_pid =
      has_entries &&
      std::all_of(e.entries.begin(), e.entries.end(),
                  [&](const KeyedUpdate<A, Key>& ku) {
                    return ku.msg.stamp.pid == e.entries[0].msg.stamp.pid;
                  });
  const bool has_sync = !e.sync_markers.empty() || e.sync_markers_epoch != 0;
  const std::uint8_t flags = static_cast<std::uint8_t>(
      (e.snapshot ? detail::kHasSnapshot : 0) |
      (has_sync ? detail::kHasSyncMarkers : 0) |
      (e.ae_floors.empty() ? 0 : detail::kHasAeFloors) |
      (e.ae_reciprocate ? detail::kReciprocate : 0) |
      (shared_pid ? detail::kSharedPid : 0));

  Writer w(out);
  w.u8(static_cast<std::uint8_t>(e.kind));
  w.u8(flags);
  w.varint(e.epoch);
  w.varint(e.seq);
  w.varint(e.ack_clock);
  w.varint(e.entries.size());
  if (has_entries) {
    if (shared_pid) w.varint(e.entries[0].msg.stamp.pid);
    w.varint(base);
    for (const KeyedUpdate<A, Key>& entry : e.entries) {
      ValueCodec<Key>::encode(entry.key, &w);
      w.varint(entry.msg.stamp.clock - base);
      if (!shared_pid) w.varint(entry.msg.stamp.pid);
      ValueCodec<typename A::Update>::encode(entry.msg.update, &w);
    }
  }
  if (e.snapshot) detail::put_snapshot(*e.snapshot, &w);
  if (has_sync) {
    detail::put_u64_vec(e.sync_markers, &w);
    w.varint(e.sync_markers_epoch);
  }
  if (!e.ae_floors.empty()) detail::put_u64_vec(e.ae_floors, &w);
}

/// Parses an envelope payload from untrusted bytes. On any violation —
/// underrun, malformed varint, over-claimed count, invalid kind or flag
/// bits, a non-canonical encoding, trailing garbage — returns false with
/// `*err` naming the first failure; `*out` is then unspecified but
/// always a valid object.
template <UqAdt A, typename Key>
[[nodiscard]] bool decode_envelope(const std::uint8_t* data, std::size_t len,
                                   BatchEnvelope<A, Key>* out,
                                   const char** err = nullptr) {
  Reader r(data, len);
  // A malformed varint names itself; otherwise the section does.
  const auto fail = [&](const char* what) {
    if (err) *err = r.error() ? r.error() : what;
    return false;
  };
  *out = BatchEnvelope<A, Key>{};
  std::uint8_t kind, flags;
  if (!r.u8(&kind)) return fail("short read: kind");
  if (!detail::valid_kind(kind)) return fail("invalid envelope kind");
  out->kind = static_cast<EnvelopeKind>(kind);
  if (!r.u8(&flags)) return fail("short read: flags");
  if ((flags & ~detail::kKnownFlags) != 0) return fail("unknown flag bits");
  if (!r.varint(&out->epoch) || !r.varint(&out->seq) ||
      !r.varint(&out->ack_clock)) {
    return fail("short read: envelope header");
  }
  const bool shared_pid = (flags & detail::kSharedPid) != 0;
  std::uint64_t n_entries;
  if (!r.varint(&n_entries)) return fail("short read: entry count");
  if (!r.fits(n_entries, ValueCodec<Key>::kMinBytes + 1 +
                             ValueCodec<typename A::Update>::kMinBytes +
                             (shared_pid ? 0 : 1))) {
    return fail("entry count exceeds payload");
  }
  if (n_entries == 0 && shared_pid) {
    return fail("shared pid flag without entries");
  }
  if (n_entries != 0) {
    ProcessId pid = 0;
    LogicalTime base;
    if ((shared_pid && !r.varint(&pid)) || !r.varint(&base)) {
      return fail("short read: entry group");
    }
    out->entries.resize(n_entries);
    bool at_base = false;
    bool pids_differ = false;
    for (KeyedUpdate<A, Key>& entry : out->entries) {
      Stamp& stamp = entry.msg.stamp;
      if (!ValueCodec<Key>::decode(&r, &entry.key)) {
        return fail("short read: entry key");
      }
      if (!detail::get_clock(&r, base, &stamp.clock, &at_base)) {
        return fail("short read: entry clock");
      }
      if (shared_pid) {
        stamp.pid = pid;
      } else if (!r.varint(&stamp.pid)) {
        return fail("short read: entry pid");
      }
      pids_differ = pids_differ || stamp.pid != out->entries[0].msg.stamp.pid;
      if (!ValueCodec<typename A::Update>::decode(&r, &entry.msg.update)) {
        return fail("short read: entry update");
      }
    }
    if (!at_base) return fail("clock base is not the minimum");
    if (!shared_pid && !pids_differ) {
      return fail("per-entry pids that could be shared");
    }
  }
  if ((flags & detail::kHasSnapshot) != 0) {
    auto snap = std::make_shared<ShardSnapshot<A, Key>>();
    if (!detail::get_snapshot(&r, snap.get())) {
      return fail("malformed snapshot");
    }
    out->snapshot = std::move(snap);
  }
  if ((flags & detail::kHasSyncMarkers) != 0) {
    if (!detail::get_u64_vec(&r, &out->sync_markers) ||
        !r.varint(&out->sync_markers_epoch)) {
      return fail("short read: sync markers");
    }
    if (out->sync_markers.empty() && out->sync_markers_epoch == 0) {
      return fail("empty sync markers section");
    }
  }
  if ((flags & detail::kHasAeFloors) != 0) {
    if (!detail::get_u64_vec(&r, &out->ae_floors)) {
      return fail("short read: ae floors");
    }
    if (out->ae_floors.empty()) return fail("empty ae floors section");
  }
  out->ae_reciprocate = (flags & detail::kReciprocate) != 0;
  if (!r.done()) return fail("trailing bytes after envelope");
  return true;
}

// ----------------------------------------------------------------- frames

struct FrameHeader {
  std::uint8_t version = 0;
  std::uint16_t sender = 0;
  std::uint32_t msg_id = 0;
  std::uint16_t frag_index = 0;
  std::uint16_t frag_count = 0;
  std::uint32_t payload_len = 0;  ///< implied: datagram length - header
  std::uint32_t crc = 0;
};

/// Splits `payload` into CRC'd frames of at most `max_payload` payload
/// bytes each, all tagged (sender, msg_id). An empty payload still
/// produces one frame (frag 0/1) — heartbeat envelopes are near-empty
/// but never zero-length, so this is belt and braces.
inline void encode_frames(const std::uint8_t* payload, std::size_t len,
                          std::uint16_t sender, std::uint32_t msg_id,
                          std::vector<std::vector<std::uint8_t>>* frames,
                          std::size_t max_payload = kDefaultMaxFramePayload) {
  if (max_payload == 0) max_payload = 1;
  const std::size_t n_frags = len == 0 ? 1 : (len + max_payload - 1) / max_payload;
  frames->clear();
  frames->reserve(n_frags);
  for (std::size_t f = 0; f < n_frags; ++f) {
    const std::size_t off = f * max_payload;
    const std::size_t n = std::min(max_payload, len - off);
    std::vector<std::uint8_t> frame;
    frame.reserve(kFrameHeaderBytes + n);
    Writer w(&frame);
    w.u8(kMagic);
    w.u8(kWireVersion);
    w.u16(sender);
    w.u32(msg_id);
    w.u16(static_cast<std::uint16_t>(f));
    w.u16(static_cast<std::uint16_t>(n_frags));
    w.u32(crc32(payload + off, n));
    w.bytes(payload + off, n);
    frames->push_back(std::move(frame));
  }
}

/// Validates one datagram as a frame: magic, version, fragment-field
/// sanity, CRC. On success `*payload` points into `data` (zero-copy
/// view; valid while `data` is). Untrusted input.
[[nodiscard]] inline bool decode_frame(const std::uint8_t* data,
                                       std::size_t len, FrameHeader* h,
                                       const std::uint8_t** payload,
                                       const char** err = nullptr) {
  const auto fail = [&](const char* what) {
    if (err) *err = what;
    return false;
  };
  if (len < kFrameHeaderBytes) return fail("short frame");
  Reader r(data, len);
  std::uint8_t magic;
  if (!r.u8(&magic) || magic != kMagic) return fail("bad magic");
  if (!r.u8(&h->version) || !r.u16(&h->sender) || !r.u32(&h->msg_id) ||
      !r.u16(&h->frag_index) || !r.u16(&h->frag_count) || !r.u32(&h->crc)) {
    return fail("short frame header");
  }
  if (h->version != kWireVersion) return fail("unsupported version");
  if (h->frag_count == 0 || h->frag_index >= h->frag_count) {
    return fail("invalid fragment fields");
  }
  h->payload_len = static_cast<std::uint32_t>(len - kFrameHeaderBytes);
  *payload = data + kFrameHeaderBytes;
  if (crc32(*payload, h->payload_len) != h->crc) return fail("bad checksum");
  return true;
}

}  // namespace ucw::wire
