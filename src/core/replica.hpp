// Algorithm 1: the universal strong-update-consistent replica.
//
// Faithful to the paper's pseudocode — a Lamport clock, a timestamped
// update log, one broadcast per update, queries answered by replaying the
// log in timestamp order — plus the three execution policies Section
// VII-C sketches:
//
//   NaiveReplay  — the literal Algorithm 1: every query replays the whole
//                  log from s0. O(|log|) per query, zero extra memory.
//   CachedPrefix — keeps the state obtained from the already-applied
//                  prefix; in-order arrivals extend it in O(1), a message
//                  older than the cached prefix ("very late message")
//                  discards the cache and the next query replays fully.
//   Snapshot     — additionally checkpoints the state every K applied
//                  updates; a late message restores the nearest snapshot
//                  at or before its insertion point and replays the
//                  suffix: late messages cost O(K + distance) instead of
//                  O(|log|).
//
// The replica is transport-agnostic and single-threaded by design (the
// paper's processes are sequential); the runtime glue delivers messages
// and invokes operations from one logical thread per replica. Wait-free:
// neither local_update nor query ever blocks on the network.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "adt/concepts.hpp"
#include "clock/matrix_clock.hpp"
#include "clock/timestamp.hpp"
#include "core/message.hpp"
#include "core/stamped_log.hpp"

namespace ucw {

enum class ReplayPolicy { NaiveReplay, CachedPrefix, Snapshot };

[[nodiscard]] inline std::string to_string(ReplayPolicy p) {
  switch (p) {
    case ReplayPolicy::NaiveReplay:
      return "naive-replay";
    case ReplayPolicy::CachedPrefix:
      return "cached-prefix";
    case ReplayPolicy::Snapshot:
      return "snapshot";
  }
  return "?";
}

struct ReplicaStats {
  std::uint64_t local_updates = 0;
  std::uint64_t remote_updates = 0;
  std::uint64_t duplicate_updates = 0;
  std::uint64_t queries = 0;
  std::uint64_t transitions = 0;        ///< ADT transitions executed
  std::uint64_t full_replays = 0;       ///< replays started from s0/base
  std::uint64_t late_insertions = 0;    ///< arrivals before the log tail
  std::uint64_t cache_invalidations = 0;
  std::uint64_t snapshot_restores = 0;
  std::uint64_t gc_folded = 0;          ///< log entries folded by GC
  std::uint64_t base_installs = 0;      ///< snapshot bases adopted (catch-up)
  std::uint64_t absorbed_below_floor = 0;  ///< replays of folded entries
};

template <UqAdt A>
class ReplayReplica {
 public:
  struct Config {
    ReplayPolicy policy = ReplayPolicy::CachedPrefix;
    std::size_t snapshot_interval = 64;  ///< K for ReplayPolicy::Snapshot
    /// Stamp from this clock instead of a private per-replica one. The
    /// UCStore points every keyed replica of a process at one store-wide
    /// clock: stamps then rise monotonically across the *whole* envelope
    /// stream a process emits, which is what lets stability (and thus GC
    /// and snapshot floors) be tracked once per process instead of once
    /// per key. Still a valid Lamport clock per key, so per-key
    /// arbitration (Theorem 2) is untouched. Atomic so that the shard
    /// engines of a worker pool — each replica still single-owner, but
    /// owners spread across threads — can tick and merge it without
    /// coordination; the replica itself is an engine-local view over
    /// this store clock. Not owned.
    AtomicLamportClock* shared_clock = nullptr;
    /// Tolerate arrivals at or below the GC floor by absorbing them as
    /// duplicates instead of failing loudly. Only sound when the floor
    /// provably covers every entry this replica ever received (the
    /// store-level tracker guarantees exactly that under FIFO links), so
    /// a below-floor arrival can only be a redelivery of a folded entry —
    /// e.g. at-least-once duplicates, or live envelopes overlapping an
    /// installed snapshot after catch-up.
    bool absorb_below_floor = false;
    /// Arbitration order for the log (mutation corpus only; anything but
    /// kLexicographic is a deliberately injected bug — see src/faults/).
    StampOrder stamp_order = StampOrder::kLexicographic;
  };

  ReplayReplica(A adt, ProcessId pid, Config config = {})
      : adt_(std::move(adt)),
        pid_(pid),
        config_(config),
        clock_(pid),
        log_(adt_),
        cache_(adt_.initial()),
        scratch_(adt_.initial()) {
    UCW_CHECK(config_.snapshot_interval >= 1);
    log_.set_order(config_.stamp_order);
  }

  [[nodiscard]] ProcessId pid() const { return pid_; }
  [[nodiscard]] const A& adt() const { return adt_; }
  [[nodiscard]] const ReplicaStats& stats() const { return stats_; }
  [[nodiscard]] const StampedLog<A>& log() const { return log_; }
  [[nodiscard]] LogicalTime clock_now() const {
    return config_.shared_clock ? config_.shared_clock->now() : clock_.now();
  }

  /// Algorithm 1, update(u): ticks the clock and returns the message the
  /// caller must reliably broadcast (including back to this replica via
  /// apply(), which SimUcObject does synchronously).
  [[nodiscard]] UpdateMessage<A> local_update(typename A::Update u) {
    ++stats_.local_updates;
    const Stamp stamp = tick_clock();
    if (stability_) {
      stability_->advance_self(stamp.clock);
    }
    return UpdateMessage<A>{stamp, std::move(u)};
  }

  /// Applies a locally issued update that was already stamped from the
  /// shared store clock. The store router stamps at update() time —
  /// possibly on a different thread than the engine owning this replica
  /// (the atomic clock makes that sound) — so the replica only has to
  /// account and self-deliver.
  void apply_local(const UpdateMessage<A>& m) {
    ++stats_.local_updates;
    if (stability_) stability_->advance_self(m.stamp.clock);
    apply(pid_, m);
  }

  /// Algorithm 1, on receive: merges the clock and inserts into the log.
  /// Used for both self-delivery and remote messages.
  ///
  /// Stability deliberately uses only *direct* knowledge — the clocks of
  /// messages this replica itself received. Gossiped rows (what the
  /// sender holds) must never raise the fold floor: they say nothing
  /// about what is still in flight towards *us*, and folding past an
  /// in-flight stamp would break convergence.
  void apply(ProcessId from, const UpdateMessage<A>& m) {
    observe_clock(m.stamp.clock);
    if (from != pid_) ++stats_.remote_updates;
    if (stability_) {
      // FIFO links make "max clock received from `from`" equal to
      // "received everything from `from` up to that clock".
      stability_->observe_direct(from, m.stamp.clock);
    }
    if (config_.absorb_below_floor && m.stamp.clock <= log_.floor()) {
      // Redelivery of an already-folded entry (see Config): the base
      // state reflects it, so dropping it is the set-union no-op of
      // Algorithm 1, just against the compacted prefix.
      ++stats_.duplicate_updates;
      ++stats_.absorbed_below_floor;
      return;
    }
    auto pos = log_.insert(m.stamp, m.update);
    if (!pos.has_value()) {
      ++stats_.duplicate_updates;
      return;
    }
    on_inserted(*pos);
  }

  /// Algorithm 1, query(q): replays the log (per policy) and evaluates.
  [[nodiscard]] typename A::QueryOut query(const typename A::QueryIn& qi) {
    return query_with_stamp(qi).first;
  }

  /// As query(), also returning the stamp of the query event (queries
  /// tick the clock too — Algorithm 1 line 13). Used by the history
  /// recorder to stamp query events exactly as the algorithm does.
  [[nodiscard]] std::pair<typename A::QueryOut, Stamp> query_with_stamp(
      const typename A::QueryIn& qi) {
    ++stats_.queries;
    const Stamp stamp = tick_clock();
    return {adt_.output(current_state(), qi), stamp};
  }

  /// The converged value the replica currently holds (replays if needed).
  [[nodiscard]] const typename A::State& current_state() {
    switch (config_.policy) {
      case ReplayPolicy::NaiveReplay: {
        ++stats_.full_replays;
        scratch_ = log_.base_state();
        for (std::size_t i = 0; i < log_.size(); ++i) {
          scratch_ = adt_.transition(std::move(scratch_), log_.at(i).update);
          ++stats_.transitions;
        }
        return scratch_;
      }
      case ReplayPolicy::CachedPrefix:
      case ReplayPolicy::Snapshot: {
        extend_cache();
        return cache_;
      }
    }
    return cache_;
  }

  /// Stamps of every update currently visible (certificate recording).
  [[nodiscard]] std::vector<Stamp> visible_stamps() const {
    return log_.stamps();
  }

  /// Rough resident footprint: log plus snapshots (memory benches).
  [[nodiscard]] std::size_t approx_bytes() const {
    return log_.approx_bytes() +
           snapshots_.size() * sizeof(typename A::State);
  }

  // ----- Section VII-C: stability tracking and log GC ------------------

  /// Enables stability tracking (requires FIFO links; see stamped_log).
  void enable_stability(std::size_t n_processes) {
    stability_.emplace(pid_, n_processes);
  }
  [[nodiscard]] bool stability_enabled() const {
    return stability_.has_value();
  }
  [[nodiscard]] const MatrixClock* stability() const {
    return stability_ ? &*stability_ : nullptr;
  }
  void mark_crashed(ProcessId p) {
    if (stability_) stability_->mark_crashed(p);
  }

  /// Folds the stable prefix into the base state; returns entries folded.
  std::size_t collect_garbage() {
    if (!stability_) return 0;
    return fold_to(stability_->stability_floor());
  }

  /// Folds the log prefix at or below `floor` into the base state. The
  /// caller guarantees no entry it still needs applied can be stamped at
  /// or below `floor` — either its own per-key tracker (collect_garbage)
  /// or the store-level tracker pushing one floor down across the whole
  /// keyspace. Returns entries folded.
  std::size_t fold_to(LogicalTime floor) {
    // Cached/snapshot positions index the live log; folding shifts them.
    const std::size_t folded = log_.fold(adt_, floor);
    if (folded > 0) {
      stats_.gc_folded += folded;
      rebase_after_fold(folded);
    }
    return folded;
  }

  /// Adopts a donor's compacted prefix (snapshot shipping): replaces the
  /// log base with `base` covering everything stamped <= floor, drops the
  /// local entries that prefix subsumes and rebuilds the caches. The
  /// caller then replays the donor's unstable suffix through apply(),
  /// whose set-union semantics absorb whatever overlaps survive locally.
  /// Returns false (and changes nothing) when the local floor already
  /// covers `floor`.
  bool install_base(typename A::State base, LogicalTime floor) {
    if (!log_.install_base(std::move(base), floor)) return false;
    ++stats_.base_installs;
    observe_clock(floor);  // new local stamps must clear the folded prefix
    snapshots_.clear();
    cache_ = log_.base_state();
    cache_len_ = 0;
    return true;
  }

 private:
  // Engine-local view over the clock: the shared atomic store clock
  // when configured, else the replica's own sequential one.
  [[nodiscard]] Stamp tick_clock() {
    return config_.shared_clock ? config_.shared_clock->tick()
                                : clock_.tick();
  }
  void observe_clock(LogicalTime t) {
    if (config_.shared_clock) {
      config_.shared_clock->observe(t);
    } else {
      clock_.observe(t);
    }
  }

  void on_inserted(std::size_t pos) {
    if (config_.policy == ReplayPolicy::NaiveReplay) return;
    if (pos + 1 == log_.size()) return;  // tail append: cache still valid
    ++stats_.late_insertions;
    if (pos < cache_len_) {
      // The cached prefix contains states that no longer reflect the
      // arbitration order: roll back.
      if (config_.policy == ReplayPolicy::Snapshot) {
        restore_snapshot(pos);
      } else {
        ++stats_.cache_invalidations;
        cache_ = log_.base_state();
        cache_len_ = 0;
      }
    }
    // Snapshots at or after the insertion point describe shifted indices.
    while (!snapshots_.empty() && snapshots_.back().applied > pos) {
      snapshots_.pop_back();
    }
  }

  void restore_snapshot(std::size_t pos) {
    ++stats_.snapshot_restores;
    while (!snapshots_.empty() && snapshots_.back().applied > pos) {
      snapshots_.pop_back();
    }
    if (snapshots_.empty()) {
      ++stats_.cache_invalidations;
      cache_ = log_.base_state();
      cache_len_ = 0;
    } else {
      cache_ = snapshots_.back().state;
      cache_len_ = snapshots_.back().applied;
    }
  }

  void extend_cache() {
    if (cache_len_ == 0 && log_.size() > 0) {
      ++stats_.full_replays;
      cache_ = log_.base_state();
    }
    while (cache_len_ < log_.size()) {
      cache_ = adt_.transition(std::move(cache_), log_.at(cache_len_).update);
      ++stats_.transitions;
      ++cache_len_;
      if (config_.policy == ReplayPolicy::Snapshot &&
          cache_len_ % config_.snapshot_interval == 0) {
        snapshots_.push_back(SnapshotEntry{cache_len_, cache_});
      }
    }
  }

  void rebase_after_fold(std::size_t folded) {
    // Log indices shifted down by `folded`; drop snapshots that pointed
    // into the folded prefix and re-anchor the rest.
    std::vector<SnapshotEntry> kept;
    for (auto& s : snapshots_) {
      if (s.applied >= folded) {
        kept.push_back(SnapshotEntry{s.applied - folded, std::move(s.state)});
      }
    }
    snapshots_ = std::move(kept);
    if (cache_len_ >= folded) {
      cache_len_ -= folded;
    } else {
      cache_ = log_.base_state();
      cache_len_ = 0;
    }
  }

  struct SnapshotEntry {
    std::size_t applied;  ///< log prefix length the state corresponds to
    typename A::State state;
  };

  A adt_;
  ProcessId pid_;
  Config config_;
  LamportClock clock_;
  StampedLog<A> log_;
  ReplicaStats stats_;

  typename A::State cache_;
  std::size_t cache_len_ = 0;
  std::vector<SnapshotEntry> snapshots_;
  typename A::State scratch_;  // NaiveReplay work area

  std::optional<MatrixClock> stability_;
};

}  // namespace ucw
