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
// the bytes that could possibly back it (a 32-bit length prefix must
// not become a 4 GiB allocation), and a payload that decodes but
// leaves trailing bytes is rejected — trailing garbage means a framing
// bug or an attack, not padding.
//
// Frame layout (little-endian, 24 bytes — matching the
// kFrameOverheadBytes estimate the batching benches already charge):
//
//   offset size field
//        0    4 magic "UCW1" (0x31574355 LE)
//        4    2 version (kWireVersion)
//        6    2 sender pid
//        8    4 msg id (per-sender counter; keys fragment reassembly)
//       12    2 fragment index
//       14    2 fragment count
//       16    4 payload length of THIS frame
//       20    4 CRC32 (IEEE) of this frame's payload bytes
//       24      payload...
//
// One envelope = one message = `frag_count` frames. Delta snapshots (a
// rejoiner's bootstrap round above all) routinely exceed a UDP
// datagram, so the frame carries fragmentation fields and the
// transport reassembles by (sender, msg id). The CRC is per frame: a
// corrupted fragment is dropped before it can poison a reassembly.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "adt/register.hpp"
#include "store/envelope.hpp"

namespace ucw::wire {

inline constexpr std::uint32_t kMagic = 0x31574355u;  // "UCW1" in LE bytes
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 24;
static_assert(kFrameHeaderBytes == kFrameOverheadBytes,
              "the bench estimate and the real frame header agree");

/// Largest payload slice per frame: localhost UDP tops out near 64 KiB
/// per datagram; leave headroom for the header and kernel padding.
inline constexpr std::size_t kDefaultMaxFramePayload = 60000;

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

/// Append-only little-endian byte writer (encode side; total).
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>* out) : out_(out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u16(std::uint16_t v) { put_le(v, 2); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }
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

/// Bounds-checked little-endian reader (decode side; every get returns
/// false on underrun and the caller propagates — no read ever touches
/// bytes past `len`).
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len)
      : p_(data), len_(len), i_(0) {}

  [[nodiscard]] std::size_t remaining() const { return len_ - i_; }
  [[nodiscard]] bool done() const { return i_ == len_; }

  [[nodiscard]] bool u8(std::uint8_t* v) {
    if (remaining() < 1) return false;
    *v = p_[i_++];
    return true;
  }
  [[nodiscard]] bool u16(std::uint16_t* v) { return get_le(v, 2); }
  [[nodiscard]] bool u32(std::uint32_t* v) { return get_le(v, 4); }
  [[nodiscard]] bool u64(std::uint64_t* v) { return get_le(v, 8); }
  [[nodiscard]] bool bytes(std::uint8_t* dst, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(dst, p_ + i_, n);
    i_ += n;
    return true;
  }
  [[nodiscard]] bool skip(std::size_t n) {
    if (remaining() < n) return false;
    i_ += n;
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
};

// -------------------------------------------------- value (de)serializers
//
// The envelope is generic over the ADT's Update/State and the key type;
// ValueCodec<T> is the customization point that pins each leaf type to
// bytes. Integral leaves are fixed-width LE; strings are u32-length-
// prefixed; RegWrite wraps its value. A new ADT going on the wire adds
// one specialization here (or next to its own definition).

template <typename T>
struct ValueCodec;  // no primary definition: unsupported leaf = compile error

template <typename T>
  requires std::is_integral_v<T>
struct ValueCodec<T> {
  static constexpr std::size_t kMinBytes = sizeof(T);
  static void encode(const T& v, Writer* w) {
    if constexpr (sizeof(T) == 1) {
      w->u8(static_cast<std::uint8_t>(v));
    } else if constexpr (sizeof(T) == 2) {
      w->u16(static_cast<std::uint16_t>(v));
    } else if constexpr (sizeof(T) == 4) {
      w->u32(static_cast<std::uint32_t>(v));
    } else {
      w->u64(static_cast<std::uint64_t>(v));
    }
  }
  [[nodiscard]] static bool decode(Reader* r, T* v) {
    if constexpr (sizeof(T) == 1) {
      std::uint8_t x;
      if (!r->u8(&x)) return false;
      *v = static_cast<T>(x);
    } else if constexpr (sizeof(T) == 2) {
      std::uint16_t x;
      if (!r->u16(&x)) return false;
      *v = static_cast<T>(x);
    } else if constexpr (sizeof(T) == 4) {
      std::uint32_t x;
      if (!r->u32(&x)) return false;
      *v = static_cast<T>(x);
    } else {
      std::uint64_t x;
      if (!r->u64(&x)) return false;
      *v = static_cast<T>(x);
    }
    return true;
  }
};

template <>
struct ValueCodec<std::string> {
  static constexpr std::size_t kMinBytes = 4;  // the length prefix
  static void encode(const std::string& v, Writer* w) {
    w->u32(static_cast<std::uint32_t>(v.size()));
    w->bytes(reinterpret_cast<const std::uint8_t*>(v.data()), v.size());
  }
  [[nodiscard]] static bool decode(Reader* r, std::string* v) {
    std::uint32_t n;
    if (!r->u32(&n) || n > r->remaining()) return false;
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
  w->u32(static_cast<std::uint32_t>(v.size()));
  for (const std::uint64_t x : v) w->u64(x);
}

[[nodiscard]] inline bool get_u64_vec(Reader* r,
                                      std::vector<std::uint64_t>* v) {
  std::uint32_t n;
  if (!r->u32(&n) || !r->fits(n, 8)) return false;
  v->resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!r->u64(&(*v)[i])) return false;
  }
  return true;
}

template <UqAdt A>
void put_stamped_update(const Stamp& stamp, const typename A::Update& u,
                        Writer* w) {
  w->u64(stamp.clock);
  w->u32(stamp.pid);
  ValueCodec<typename A::Update>::encode(u, w);
}

template <UqAdt A>
[[nodiscard]] bool get_stamped_update(Reader* r, Stamp* stamp,
                                      typename A::Update* u) {
  return r->u64(&stamp->clock) && r->u32(&stamp->pid) &&
         ValueCodec<typename A::Update>::decode(r, u);
}

template <UqAdt A, typename Key>
void put_snapshot(const ShardSnapshot<A, Key>& s, Writer* w) {
  w->u64(s.shard_index);
  w->u64(s.shard_count);
  w->u64(s.donor_clock);
  w->u64(s.delta_marker);
  w->u64(s.delta_since);
  w->u64(s.keys_total);
  put_u64_vec(s.donor_rows, w);
  w->u32(static_cast<std::uint32_t>(s.coverage.size()));
  for (const StreamCoverage& c : s.coverage) {
    w->u8(c.any ? 1 : 0);
    w->u64(c.epoch);
    w->u64(c.seq);
    w->u8(c.drained ? 1 : 0);
  }
  w->u32(static_cast<std::uint32_t>(s.keys.size()));
  for (const KeySnapshot<A, Key>& k : s.keys) {
    ValueCodec<Key>::encode(k.key, w);
    ValueCodec<typename A::State>::encode(k.base, w);
    w->u64(k.floor);
    w->u32(static_cast<std::uint32_t>(k.suffix.size()));
    for (const SnapshotLogEntry<A>& e : k.suffix) {
      put_stamped_update<A>(e.stamp, e.update, w);
    }
  }
}

template <UqAdt A, typename Key>
[[nodiscard]] bool get_snapshot(Reader* r, ShardSnapshot<A, Key>* s) {
  std::uint64_t shard_index, shard_count, keys_total;
  if (!r->u64(&shard_index) || !r->u64(&shard_count) ||
      !r->u64(&s->donor_clock) || !r->u64(&s->delta_marker) ||
      !r->u64(&s->delta_since) || !r->u64(&keys_total)) {
    return false;
  }
  s->shard_index = static_cast<std::size_t>(shard_index);
  s->shard_count = static_cast<std::size_t>(shard_count);
  s->keys_total = static_cast<std::size_t>(keys_total);
  if (!get_u64_vec(r, &s->donor_rows)) return false;
  std::uint32_t n_cov;
  if (!r->u32(&n_cov) || !r->fits(n_cov, 18)) return false;
  s->coverage.resize(n_cov);
  for (std::uint32_t i = 0; i < n_cov; ++i) {
    StreamCoverage& c = s->coverage[i];
    std::uint8_t any, drained;
    if (!r->u8(&any) || !r->u64(&c.epoch) || !r->u64(&c.seq) ||
        !r->u8(&drained) || any > 1 || drained > 1) {
      return false;
    }
    c.any = any != 0;
    c.drained = drained != 0;
  }
  std::uint32_t n_keys;
  if (!r->u32(&n_keys) ||
      !r->fits(n_keys, ValueCodec<Key>::kMinBytes +
                           ValueCodec<typename A::State>::kMinBytes + 12)) {
    return false;
  }
  s->keys.resize(n_keys);
  for (std::uint32_t i = 0; i < n_keys; ++i) {
    KeySnapshot<A, Key>& k = s->keys[i];
    if (!ValueCodec<Key>::decode(r, &k.key) ||
        !ValueCodec<typename A::State>::decode(r, &k.base) ||
        !r->u64(&k.floor)) {
      return false;
    }
    std::uint32_t n_suffix;
    if (!r->u32(&n_suffix) ||
        !r->fits(n_suffix,
                 12 + ValueCodec<typename A::Update>::kMinBytes)) {
      return false;
    }
    k.suffix.resize(n_suffix);
    for (std::uint32_t j = 0; j < n_suffix; ++j) {
      SnapshotLogEntry<A>& e = k.suffix[j];
      if (!get_stamped_update<A>(r, &e.stamp, &e.update)) return false;
    }
  }
  return true;
}

}  // namespace detail

/// Serializes one envelope (any kind) into `out` (appended). Total.
template <UqAdt A, typename Key>
void encode_envelope(const BatchEnvelope<A, Key>& e,
                     std::vector<std::uint8_t>* out) {
  Writer w(out);
  w.u8(static_cast<std::uint8_t>(e.kind));
  w.u64(e.epoch);
  w.u64(e.seq);
  w.u64(e.ack_clock);
  w.u32(static_cast<std::uint32_t>(e.entries.size()));
  for (const KeyedUpdate<A, Key>& entry : e.entries) {
    ValueCodec<Key>::encode(entry.key, &w);
    detail::put_stamped_update<A>(entry.msg.stamp, entry.msg.update, &w);
    detail::put_u64_vec(entry.msg.known, &w);
  }
  w.u8(e.snapshot ? 1 : 0);
  if (e.snapshot) detail::put_snapshot(*e.snapshot, &w);
  detail::put_u64_vec(e.sync_markers, &w);
  w.u64(e.sync_markers_epoch);
  w.u8(e.ae_reciprocate ? 1 : 0);
  detail::put_u64_vec(e.ae_floors, &w);
}

/// Parses an envelope payload from untrusted bytes. On any violation —
/// underrun, over-claimed count, invalid kind or flag byte, trailing
/// garbage — returns false with `*err` naming the first failure; `*out`
/// is then unspecified but always a valid object.
template <UqAdt A, typename Key>
[[nodiscard]] bool decode_envelope(const std::uint8_t* data, std::size_t len,
                                   BatchEnvelope<A, Key>* out,
                                   const char** err = nullptr) {
  const auto fail = [&](const char* what) {
    if (err) *err = what;
    return false;
  };
  *out = BatchEnvelope<A, Key>{};
  Reader r(data, len);
  std::uint8_t kind;
  if (!r.u8(&kind)) return fail("short read: kind");
  if (!detail::valid_kind(kind)) return fail("invalid envelope kind");
  out->kind = static_cast<EnvelopeKind>(kind);
  if (!r.u64(&out->epoch) || !r.u64(&out->seq) || !r.u64(&out->ack_clock)) {
    return fail("short read: envelope header");
  }
  std::uint32_t n_entries;
  if (!r.u32(&n_entries) ||
      !r.fits(n_entries, ValueCodec<Key>::kMinBytes + 12 +
                             ValueCodec<typename A::Update>::kMinBytes + 4)) {
    return fail("entry count exceeds payload");
  }
  out->entries.resize(n_entries);
  for (std::uint32_t i = 0; i < n_entries; ++i) {
    KeyedUpdate<A, Key>& entry = out->entries[i];
    if (!ValueCodec<Key>::decode(&r, &entry.key)) {
      return fail("short read: entry key");
    }
    if (!detail::get_stamped_update<A>(&r, &entry.msg.stamp,
                                       &entry.msg.update)) {
      return fail("short read: entry update");
    }
    if (!detail::get_u64_vec(&r, &entry.msg.known)) {
      return fail("short read: entry known rows");
    }
  }
  std::uint8_t has_snapshot;
  if (!r.u8(&has_snapshot) || has_snapshot > 1) {
    return fail("invalid snapshot flag");
  }
  if (has_snapshot != 0) {
    auto snap = std::make_shared<ShardSnapshot<A, Key>>();
    if (!detail::get_snapshot(&r, snap.get())) {
      return fail("malformed snapshot");
    }
    out->snapshot = std::move(snap);
  }
  if (!detail::get_u64_vec(&r, &out->sync_markers)) {
    return fail("short read: sync markers");
  }
  if (!r.u64(&out->sync_markers_epoch)) {
    return fail("short read: sync markers epoch");
  }
  std::uint8_t reciprocate;
  if (!r.u8(&reciprocate) || reciprocate > 1) {
    return fail("invalid reciprocate flag");
  }
  out->ae_reciprocate = reciprocate != 0;
  if (!detail::get_u64_vec(&r, &out->ae_floors)) {
    return fail("short read: ae floors");
  }
  if (!r.done()) return fail("trailing bytes after envelope");
  return true;
}

// ----------------------------------------------------------------- frames

struct FrameHeader {
  std::uint16_t version = 0;
  std::uint16_t sender = 0;
  std::uint32_t msg_id = 0;
  std::uint16_t frag_index = 0;
  std::uint16_t frag_count = 0;
  std::uint32_t payload_len = 0;
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
    w.u32(kMagic);
    w.u16(kWireVersion);
    w.u16(sender);
    w.u32(msg_id);
    w.u16(static_cast<std::uint16_t>(f));
    w.u16(static_cast<std::uint16_t>(n_frags));
    w.u32(static_cast<std::uint32_t>(n));
    w.u32(crc32(payload + off, n));
    w.bytes(payload + off, n);
    frames->push_back(std::move(frame));
  }
}

/// Validates one datagram as a frame: magic, version, exact length
/// match, fragment-field sanity, CRC. On success `*payload` points into
/// `data` (zero-copy view; valid while `data` is). Untrusted input.
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
  std::uint32_t magic;
  if (!r.u32(&magic)) return fail("short frame");
  if (magic != kMagic) return fail("bad magic");
  if (!r.u16(&h->version) || !r.u16(&h->sender) || !r.u32(&h->msg_id) ||
      !r.u16(&h->frag_index) || !r.u16(&h->frag_count) ||
      !r.u32(&h->payload_len) || !r.u32(&h->crc)) {
    return fail("short frame header");
  }
  if (h->version != kWireVersion) return fail("unsupported version");
  if (h->frag_count == 0 || h->frag_index >= h->frag_count) {
    return fail("invalid fragment fields");
  }
  if (h->payload_len != len - kFrameHeaderBytes) {
    return fail("length mismatch");
  }
  *payload = data + kFrameHeaderBytes;
  if (crc32(*payload, h->payload_len) != h->crc) return fail("bad checksum");
  return true;
}

}  // namespace ucw::wire
