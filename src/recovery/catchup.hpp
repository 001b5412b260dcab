// Catch-up: the snapshot codec and the rejoiner's stream proof.
//
// A restarted (or late-joining) store catches up through the one repair
// protocol, as a *bootstrap* anti-entropy round (StoreCore::request_sync):
//
//   joiner                              donor
//     | -- AntiEntropyRequest (p2p) ------> |   collect_garbage(), then
//     |                                     |   per shard encode
//     | <-- AntiEntropyDelta × shards ----- |   base + suffix (p2p)
//     |  install_base + replay suffix       |
//     |  re-base clock, adopt donor rows    |
//     |  prove live streams ..............  |   (prove_stream below)
//
// Live delivery never pauses: envelopes arriving during the round are
// applied immediately (per-key logs are set-unions, order-insensitive)
// and whatever the deltas already covered is absorbed as duplicates.
// The delicate part is the opposite direction — an envelope broadcast
// while the joiner was down is *dropped* at the joiner, and may still be
// in flight towards the donor when it serves, so neither party holds it.
// The round therefore proves every sender's stream: under FIFO links
// the donor's coverage (epoch, seq) and the seq of the first envelope
// the joiner receives live decide exactly whether the prefix was covered
// or a gap exists, and a gap re-issues the round (the missing envelopes
// reach the donor eventually — reliable broadcast — so retries
// terminate). Once every stream is proven the round completes and the
// replica is provably caught up in O(live state + unstable suffix).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/replica.hpp"
#include "recovery/snapshot.hpp"
#include "store/shard.hpp"

namespace ucw {

// ----- snapshot codec -------------------------------------------------

/// Serializes one shard's compacted state, restricted to the keys
/// `include` admits (the delta codec's hook: the shard engine passes its
/// dirty-set check; pass always-true for a full snapshot). The caller
/// compacts first (collect_garbage) so the suffixes carry only the
/// unstable window. `keys_total` records the live-key count regardless
/// of the filter, so installers and tests can see how much a delta
/// skipped.
template <UqAdt A, typename Key, typename IncludeFn>
[[nodiscard]] ShardSnapshot<A, Key> encode_shard_snapshot(
    StoreShard<A, Key>& shard, std::size_t shard_index,
    std::size_t shard_count, IncludeFn&& include) {
  ShardSnapshot<A, Key> snap;
  snap.shard_index = shard_index;
  snap.shard_count = shard_count;
  snap.keys_total = shard.keys_live();
  snap.keys.reserve(shard.keys_live());
  shard.for_each([&](const Key& k, ReplayReplica<A>& r) {
    if (!include(k)) return;
    KeySnapshot<A, Key> ks;
    ks.key = k;
    ks.base = r.log().base_state();
    ks.floor = r.log().floor();
    ks.suffix.reserve(r.log().size());
    for (const auto& e : r.log().entries()) {
      ks.suffix.push_back(SnapshotLogEntry<A>{e.stamp, e.update});
    }
    snap.keys.push_back(std::move(ks));
  });
  shard.note_snapshot_exported();
  return snap;
}

/// Full snapshot: every live key of the shard.
template <UqAdt A, typename Key>
[[nodiscard]] ShardSnapshot<A, Key> encode_shard_snapshot(
    StoreShard<A, Key>& shard, std::size_t shard_index,
    std::size_t shard_count) {
  return encode_shard_snapshot(shard, shard_index, shard_count,
                               [](const Key&) { return true; });
}

/// Installs one key's snapshot into a replica: adopt the donor base,
/// then replay the suffix through apply() (overlaps with entries the
/// replica picked up live are absorbed as duplicates). Returns suffix
/// entries replayed. Base-without-suffix is NOT a valid install — the
/// suffix holds exactly the entries the donor had not yet folded, and
/// nothing else will redeliver them (the `install_skips_suffix` corpus
/// mutant is this function with the loop deleted, and the auditor
/// refutes it).
template <UqAdt A, typename Key>
std::size_t install_key_snapshot(ReplayReplica<A>& rep,
                                 const KeySnapshot<A, Key>& ks) {
  (void)rep.install_base(ks.base, ks.floor);
  for (const auto& e : ks.suffix) {
    rep.apply(e.stamp.pid, UpdateMessage<A>{e.stamp, e.update});
  }
  return ks.suffix.size();
}

// ----- per-sender seq coverage ----------------------------------------

/// Which seqs of one sender's (single-epoch) envelope stream this store
/// provably holds — received live, or covered by an installed snapshot /
/// anti-entropy delta. Kept as sorted disjoint segments: per-link FIFO
/// makes live arrivals in-order, so a segment boundary appears exactly
/// where a drop-mode partition discarded envelopes, and one partition
/// episode costs one segment. `prefix()` — the largest X with [0, X]
/// fully covered — is the only claim the recovery protocols may make to
/// peers: under drops, "largest seq seen" over-claims (the classic FIFO
/// shortcut), and an over-claimed coverage row would let a catching-up
/// peer verify a stream whose gap entries nobody shipped it — exactly
/// the `coverage_claims_last_seq` corpus mutant, which swaps prefix()
/// for last() at the claim site and loses the gap entries for good.
class SeqCoverage {
 public:
  /// One seq received live (duplicates and overlaps are fine).
  void add(std::uint64_t seq);
  /// [0, hi] proven covered wholesale (snapshot install, AE completion).
  void add_prefix(std::uint64_t hi);
  /// Forget everything (the sender restarted under a new epoch).
  void reset();

  [[nodiscard]] bool any() const { return !segs_.empty(); }
  /// Whether seq 0 is covered (a prefix claim exists at all).
  [[nodiscard]] bool has_prefix() const {
    return !segs_.empty() && segs_.front().first == 0;
  }
  /// Largest X with [0, X] covered; only meaningful when has_prefix().
  [[nodiscard]] std::uint64_t prefix() const { return segs_.front().second; }
  /// Largest seq covered by any segment.
  [[nodiscard]] std::uint64_t last() const { return segs_.back().second; }
  /// No holes: one segment covering [0, last()].
  [[nodiscard]] bool contiguous() const {
    return segs_.empty() || (segs_.size() == 1 && segs_[0].first == 0);
  }
  [[nodiscard]] std::size_t segments() const { return segs_.size(); }

 private:
  /// Sorted, disjoint, non-adjacent [lo, hi] ranges.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> segs_;
};

// ----- bootstrap stream proof -----------------------------------------

/// What the joiner has observed of one sender's live stream since it
/// (re)started: the incarnation and the seq of its first envelope.
struct PeerStreamView {
  bool any = false;
  std::uint64_t epoch = 0;
  std::uint64_t first_seq = 0;
};

enum class StreamProof : std::uint8_t {
  kUnproven,  ///< not yet decidable: keep guarding
  kVerified,  ///< the donor's deltas covered everything live delivery missed
  kGap,       ///< envelopes neither party holds yet: re-issue the round
};

/// Decides whether a bootstrapping store holds sender q's whole stream:
/// `live` is what arrived here directly, `donor` the coverage the
/// round's deltas carried for q. The caller verifies its own pid
/// without asking (its old incarnation drained before the restart).
[[nodiscard]] StreamProof prove_stream(const PeerStreamView& live,
                                       const StreamCoverage& donor);

}  // namespace ucw
