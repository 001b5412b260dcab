// Batch envelopes: the wire format of the UCStore.
//
// Algorithm 1 broadcasts one message per update; a store hosting
// thousands of independent UC objects behind one endpoint would pay that
// broadcast cost per key touched. The envelope amortizes it: one
// reliable broadcast carries many keyed updates, each still stamped by
// its own object's Lamport clock, so per-key arbitration (and therefore
// update consistency, Theorem 2 applied per key) is untouched — the
// network merely learns to carpool. Delivery demultiplexes the entries
// back into the per-key replicas in envelope order.
//
// Buffering never delays *local* visibility (the sender applies each
// update synchronously at update() time) and never blocks the caller, so
// the wait-freedom argument of Proposition 4 survives batching verbatim.
//
// The recovery subsystem rides the same wire type. Every broadcast
// envelope carries (epoch, seq) — the sender's incarnation and position
// in its own stream — and, when stability tracking is on, `ack_clock`,
// the sender's store clock: the envelope-level ack that feeds the
// store-level stability tracker. Two point-to-point kinds implement the
// one repair protocol: kAntiEntropyRequest carries the caller's
// per-shard delta markers, and each kAntiEntropyDelta reply carries one
// shard's compacted base + unstable suffix (recovery/snapshot.hpp) for
// the keys that advanced since. A partition heal and a crash-restart
// rejoin (a bootstrap round, whose rejoiner holds no markers yet) are
// the same exchange. Only kBatch envelopes are part of the seq stream;
// the p2p kinds live outside it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adt/concepts.hpp"
#include "core/message.hpp"
#include "recovery/snapshot.hpp"

namespace ucw {

/// One update addressed to one object of the keyspace.
template <UqAdt A, typename Key = std::string>
struct KeyedUpdate {
  Key key;
  UpdateMessage<A> msg;
};

enum class EnvelopeKind : std::uint8_t {
  kBatch,               ///< broadcast: keyed updates + piggybacked ack
  /// Retired (catch-up now runs as a bootstrap anti-entropy round): the
  /// store never sends these two and wire::decode_envelope rejects them.
  /// Declared only to keep the numbering and existing `switch`es.
  kSyncRequest,
  kShardSnapshot,
  kAntiEntropyRequest,  ///< p2p: "ship me what moved since my markers"
  kAntiEntropyDelta,    ///< p2p: one shard's delta snapshot
};

/// A batch of keyed updates shipped as a single reliable broadcast —
/// and, via `kind`, the carrier of the repair protocol's p2p messages.
/// `(epoch, seq)` positions a kBatch envelope in its sender's stream:
/// correctness of *delivery* never depends on them (the per-key logs
/// absorb replays), but under FIFO links they are what lets a catching-up
/// replica prove a snapshot covered the prefix of a live stream.
template <UqAdt A, typename Key = std::string>
struct BatchEnvelope {
  EnvelopeKind kind = EnvelopeKind::kBatch;
  std::uint64_t epoch = 0;  ///< sender incarnation (bumped on restart)
  std::uint64_t seq = 0;    ///< sender's kBatch broadcast counter
  std::vector<KeyedUpdate<A, Key>> entries;
  /// Sender's store clock at send time; 0 when stability is off. An
  /// empty-entries kBatch envelope with a nonzero ack_clock is an ack
  /// heartbeat (sent so silent processes do not pin the GC floor).
  LogicalTime ack_clock = 0;
  /// kAntiEntropyDelta payload. Shared: envelope copies (one per
  /// receiver in a broadcast transport, plus scheduler captures) must
  /// not deep-copy a whole shard's state.
  std::shared_ptr<const ShardSnapshot<A, Key>> snapshot;
  /// kAntiEntropyRequest: per-shard delta markers — "shard i of you I
  /// hold as of your marker sync_markers[i]" — valid for the donor
  /// incarnation `sync_markers_epoch`. Empty, all-zero (a fresh
  /// joiner's) or stale-epoch markers make the donor serve full
  /// snapshots.
  std::vector<std::uint64_t> sync_markers;
  std::uint64_t sync_markers_epoch = 0;
  /// kAntiEntropyRequest: also serve yourself from me (one call heals
  /// both directions of a pair).
  bool ae_reciprocate = false;
  /// kAntiEntropyRequest: the requester's stability rows — per origin
  /// process, the largest stamp clock it provably received everything
  /// below (raised only by first-hand, gap-gated acks; see
  /// recovery/stability.hpp). A donor may skip any suffix entry with
  /// stamp.clock <= ae_floors[stamp.pid]: the requester already holds
  /// it live. Empty when the requester runs without stability tracking,
  /// and on a bootstrap round.
  std::vector<LogicalTime> ae_floors;
};

/// Per-message framing cost charged by the bytes_batched /
/// bytes_unbatched estimate below: the UDP frame header of net/wire.hpp
/// (kFrameHeaderBytes, which a static_assert there ties to this). The
/// estimate's *relative* saving comes from paying it once per envelope
/// instead of once per update; bytes actually sent are counted by the
/// transport.
inline constexpr std::size_t kFrameOverheadBytes = 16;

/// Envelope header past the frame, for the same estimate only: kind
/// byte, epoch, seq, ack clock at fixed width. The real codec writes
/// them as varints behind a flags byte, so this is an upper bound.
inline constexpr std::size_t kEnvelopeHeaderBytes =
    1 + sizeof(std::uint64_t) + sizeof(std::uint64_t) + sizeof(LogicalTime);

[[nodiscard]] inline std::size_t key_wire_bytes(const std::string& k) {
  return k.size() + 1;
}
template <typename K>
[[nodiscard]] std::size_t key_wire_bytes(const K&) {
  return sizeof(K);
}

/// Estimated wire size of one suffix entry: stamp + payload.
template <UqAdt A>
[[nodiscard]] std::size_t wire_size(const SnapshotLogEntry<A>& e) {
  return sizeof(e.stamp.clock) + sizeof(e.stamp.pid) +
         sizeof(typename A::Update);
}

/// Approximate serialized size of a base state. Containers count their
/// elements — a compacted base grows with *live state*, which is exactly
/// the component of catch-up cost the recovery subsystem claims to
/// bound, so a sizeof-only estimate would misreport it as constant.
template <typename State>
[[nodiscard]] std::size_t state_wire_bytes(const State& s) {
  if constexpr (requires { typename State::value_type; s.size(); }) {
    return sizeof(State) + s.size() * sizeof(typename State::value_type);
  } else {
    return sizeof(State);
  }
}

/// Estimated wire size of a shard snapshot: per-key base states plus
/// unstable suffixes plus the donor bookkeeping rows (and the delta
/// markers — three more fixed words).
template <UqAdt A, typename Key>
[[nodiscard]] std::size_t wire_size(const ShardSnapshot<A, Key>& s) {
  std::size_t bytes = 5 * sizeof(std::uint64_t) + sizeof(LogicalTime) +
                      s.donor_rows.size() * sizeof(LogicalTime) +
                      s.coverage.size() * (2 * sizeof(std::uint64_t) + 2);
  for (const auto& k : s.keys) {
    bytes += key_wire_bytes(k.key) + state_wire_bytes(k.base) +
             sizeof(LogicalTime);
    for (const auto& e : k.suffix) bytes += wire_size(e);
  }
  return bytes;
}

/// Estimated wire size of an envelope: one frame plus the header plus
/// the keyed payloads (and the snapshot / sync markers, per kind).
template <UqAdt A, typename Key>
[[nodiscard]] std::size_t wire_size(const BatchEnvelope<A, Key>& e) {
  std::size_t bytes = kFrameOverheadBytes + kEnvelopeHeaderBytes;
  for (const auto& entry : e.entries) {
    bytes += key_wire_bytes(entry.key) + wire_size(entry.msg);
  }
  if (e.snapshot) bytes += wire_size(*e.snapshot);
  bytes += e.sync_markers.size() * sizeof(std::uint64_t);
  bytes += e.ae_floors.size() * sizeof(LogicalTime);
  return bytes;
}

/// What the same entries would have cost as one broadcast per update
/// (the Algorithm-1 baseline the message-complexity bench measures).
template <UqAdt A, typename Key>
[[nodiscard]] std::size_t unbatched_wire_size(
    const BatchEnvelope<A, Key>& e) {
  std::size_t bytes = 0;
  for (const auto& entry : e.entries) {
    bytes +=
        kFrameOverheadBytes + key_wire_bytes(entry.key) + wire_size(entry.msg);
  }
  return bytes;
}

}  // namespace ucw
