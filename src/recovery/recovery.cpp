#include "recovery/stability.hpp"

#include <algorithm>

#include "recovery/catchup.hpp"

namespace ucw {

StoreStabilityTracker::StoreStabilityTracker(ProcessId self,
                                             std::size_t n_processes)
    : clock_(self, n_processes) {}

ProcessId StoreStabilityTracker::self() const { return clock_.self(); }
std::size_t StoreStabilityTracker::size() const { return clock_.size(); }

void StoreStabilityTracker::advance_self(LogicalTime t) {
  clock_.advance_self(t);
}

void StoreStabilityTracker::observe_ack(ProcessId from, LogicalTime t) {
  if (from != clock_.self()) clock_.mark_alive(from);
  clock_.observe_direct(from, t);
}

void StoreStabilityTracker::adopt(
    const std::vector<LogicalTime>& donor_rows) {
  clock_.merge_rows(donor_rows);
}

void StoreStabilityTracker::set_crashed(ProcessId p, bool crashed) {
  if (p == clock_.self()) return;
  if (crashed) {
    clock_.mark_crashed(p);
  } else {
    clock_.mark_alive(p);
  }
}

bool StoreStabilityTracker::crashed(ProcessId p) const {
  return clock_.is_crashed(p);
}

LogicalTime StoreStabilityTracker::floor() const {
  return clock_.stability_floor();
}

LogicalTime StoreStabilityTracker::lag() const {
  const LogicalTime self_row = clock_.rows()[clock_.self()];
  const LogicalTime f = floor();
  return self_row > f ? self_row - f : 0;
}

const std::vector<LogicalTime>& StoreStabilityTracker::rows() const {
  return clock_.rows();
}

std::string StoreStabilityTracker::to_string() const {
  return clock_.to_string();
}

// ----- SeqCoverage ----------------------------------------------------

void SeqCoverage::add(std::uint64_t seq) {
  // Find the first segment whose hi+1 >= seq (the earliest one `seq`
  // could extend or fall inside), insert or grow there, then merge a
  // now-adjacent right neighbor. Live arrivals are in-order per link,
  // so the common case is extending the last segment in O(1).
  if (!segs_.empty() && segs_.back().second + 1 == seq) {
    segs_.back().second = seq;
    return;
  }
  auto it = std::lower_bound(
      segs_.begin(), segs_.end(), seq,
      [](const std::pair<std::uint64_t, std::uint64_t>& s, std::uint64_t v) {
        return s.second + 1 < v;
      });
  if (it == segs_.end()) {
    segs_.emplace_back(seq, seq);
    return;
  }
  if (seq + 1 < it->first) {
    segs_.insert(it, {seq, seq});
    return;
  }
  it->first = std::min(it->first, seq);
  it->second = std::max(it->second, seq);
  const auto next = it + 1;
  if (next != segs_.end() && it->second + 1 >= next->first) {
    it->second = std::max(it->second, next->second);
    segs_.erase(next);
  }
}

void SeqCoverage::add_prefix(std::uint64_t hi) {
  // Swallow every segment that [0, hi] touches or abuts.
  std::uint64_t new_hi = hi;
  auto it = segs_.begin();
  while (it != segs_.end() && it->first <= hi + 1) {
    new_hi = std::max(new_hi, it->second);
    ++it;
  }
  segs_.erase(segs_.begin(), it);
  segs_.insert(segs_.begin(), {0, new_hi});
}

void SeqCoverage::reset() { segs_.clear(); }

// ----- prove_stream ---------------------------------------------------

StreamProof prove_stream(const PeerStreamView& v, const StreamCoverage& c) {
  if (!v.any) {
    // Nothing received live from q yet. If its stream was settled at
    // the donor's serve (crashed, or alive-but-silent, with nothing
    // in flight) the delta holds all of it and later sends reach
    // us directly — nothing to guard. Otherwise keep guarding: an
    // envelope of q's could have been dropped here while down and
    // still be in flight towards the donor; the stall retry
    // re-serves with refreshed coverage until this resolves.
    return c.drained ? StreamProof::kVerified : StreamProof::kUnproven;
  }
  if (v.first_seq == 0 && (v.epoch == 0 || (c.any && c.epoch >= v.epoch))) {
    // We saw this epoch from its very beginning — and, for a restarted
    // sender, the donor provably holds the prior epochs: it received
    // an epoch >= v.epoch envelope from q, and per-link FIFO means
    // every earlier (older-epoch) q message had been delivered to it
    // first. Epoch 0 alone needs no such proof (nothing precedes it).
    // Without the qualifier, a crashed sender's pre-restart tail that
    // was dropped here and had not yet reached the donor at serve
    // time would be silently lost.
    return StreamProof::kVerified;
  }
  if (c.any && c.epoch > v.epoch) {
    // Our live stream from q is a stale older incarnation; FIFO means
    // the donor received all of it before it ever saw the newer epoch,
    // so the delta covered it.
    return StreamProof::kVerified;
  }
  if (c.any && c.epoch == v.epoch && c.seq + 1 >= v.first_seq) {
    return StreamProof::kVerified;  // donor covered [0, first_seq)
  }
  // Envelopes [donor coverage, first_seq) of q's stream were dropped
  // while this process was down and had not reached the donor when it
  // served. Reliable broadcast will deliver them to the donor
  // eventually — re-issue the round.
  return StreamProof::kGap;
}

}  // namespace ucw
