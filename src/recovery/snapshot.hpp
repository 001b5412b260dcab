// ShardSnapshot: the wire format of snapshot shipping (catch-up).
//
// A replica that crashes and restarts (or joins late) must not replay
// every envelope ever broadcast — the brief-announcement companion paper
// makes rejoin-after-partition a first-class scenario, and the Snapshot
// policy of Section VII-C already shows a stable prefix can be folded
// into a base state. A ShardSnapshot ships exactly that fold, per shard:
// for every live key the donor's compacted base state (everything
// stamped at or below the key's GC floor) plus the *unstable log
// suffix* — the entries above the floor that some process might not
// have received yet. Catch-up cost is therefore O(live state + unstable
// suffix), independent of history length.
//
// The snapshot also carries the donor's bookkeeping the joiner needs to
// resume live delivery soundly:
//  * `donor_clock` / `donor_rows` — the donor's store clock and its
//    stability knowledge, so the joiner's new stamps clear everything
//    the snapshot covers and its own GC does not restart from zero;
//  * `coverage` — per sender, the (epoch, seq) position of the donor in
//    that sender's envelope stream. Under FIFO links this tells the
//    joiner whether the prefix of a sender's live stream it is about to
//    see was already inside the snapshot, or whether an envelope fell
//    into the gap (dropped while the joiner was down, not yet at the
//    donor when it served) and the sync must be retried.
//
// These are pure message structs: the codec that fills them from a
// StoreShard and installs them back lives in recovery/catchup.hpp, and
// the wire-size estimates live with the rest of the wire format in
// store/envelope.hpp.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "adt/concepts.hpp"
#include "clock/timestamp.hpp"

namespace ucw {

/// One stamped update of a key's unstable log suffix.
template <UqAdt A>
struct SnapshotLogEntry {
  Stamp stamp;
  typename A::Update update;
};

/// One key's compacted state: base (prefix <= floor folded) + suffix.
template <UqAdt A, typename Key = std::string>
struct KeySnapshot {
  Key key;
  typename A::State base;
  LogicalTime floor = 0;  ///< stamps <= floor are inside `base`
  std::vector<SnapshotLogEntry<A>> suffix;
};

/// The donor's position in one sender's broadcast envelope stream:
/// "I have received everything of incarnation `epoch` up to `seq`"
/// (FIFO links make the prefix contiguous). `drained` marks a settled
/// stream: nothing this sender ever broadcast is still in flight, so
/// the donor's prefix IS the sender's complete stream as of the serve —
/// a joiner installing this snapshot misses nothing of it, and anything
/// the (possibly still alive) sender broadcasts later reaches the
/// now-live joiner directly. For a crashed sender this is the classic
/// failure-detector verdict; for a live-but-silent one it is what lets
/// a bootstrap round complete without waiting for it to speak.
struct StreamCoverage {
  bool any = false;  ///< false: nothing received from this sender yet
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  bool drained = false;
};

/// One shard's delta snapshot (a repair round ships shard_count of them).
///
/// Incremental encoding: every shard engine stamps each of its keys with
/// a monotone *advance marker* (bumped whenever the key's log gains an
/// entry or a base), and a snapshot records the engine counter it was
/// cut at (`delta_marker`) plus the marker it is relative to
/// (`delta_since`). `delta_since == 0` is a full snapshot; otherwise the
/// snapshot carries only the keys that advanced after `delta_since`,
/// and is a complete statement relative to a receiver that already holds
/// the donor's shard state as of `delta_since` — which the receiver
/// proves by having echoed that marker (received with an earlier
/// install) in its request. Every repair round after the first — a
/// bootstrap retry or a heal-time exchange — re-ships only what moved
/// since, not every shard in full.
template <UqAdt A, typename Key = std::string>
struct ShardSnapshot {
  std::size_t shard_index = 0;
  std::size_t shard_count = 0;
  LogicalTime donor_clock = 0;
  /// Donor engine's advance counter when this snapshot was cut; echo it
  /// back to request the next serve as a delta from here.
  std::uint64_t delta_marker = 0;
  /// Marker this snapshot is relative to (0 = full: every live key).
  std::uint64_t delta_since = 0;
  /// Live keys at the donor when cut — keys_total - keys.size() is how
  /// many clean keys the delta skipped.
  std::size_t keys_total = 0;
  std::vector<LogicalTime> donor_rows;   ///< donor stability knowledge
  std::vector<StreamCoverage> coverage;  ///< per sender, see above
  std::vector<KeySnapshot<A, Key>> keys;

  /// Keyed updates carried in the unstable suffixes (the part of
  /// catch-up that scales with in-flight traffic, not history).
  [[nodiscard]] std::size_t suffix_entries() const {
    std::size_t n = 0;
    for (const auto& k : keys) n += k.suffix.size();
    return n;
  }
};

}  // namespace ucw
