// The mutation corpus switch: one FaultSpec on StoreConfig selects one
// deliberately broken store variant.
//
// Each Fault is a small, documented perversion of exactly one invariant
// the recovery/anti-entropy/arbitration stack depends on (see the
// mutation-corpus table in ARCHITECTURE.md "Consistency auditing").
// The corpus exists to certify the certifier: the black-box auditor
// (src/audit/) must detect every mutant on its gated scenario seeds and
// must never refute the clean control arm. `tools/ucfuzz.cpp` sweeps
// seeds × mutants × clean through record→certify→shrink and reports the
// detection rates.
//
// These switches are TEST-ONLY bug injection. Never set a fault outside
// the audit/fuzz pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ucw {

enum class Fault : std::uint8_t {
  kNone = 0,
  /// The PR 7 original: stability observes acks from streams with a
  /// detected seq gap, so GC folds the floor over entries anti-entropy
  /// has yet to redeliver and the repair is absorbed below the floor.
  kFoldAcksAcrossGaps,
  /// Non-commutative merge: equal-clock stamps are ordered by arrival
  /// instead of by the pid tie-break, so replicas that received the
  /// tied updates in different orders replay different arbitration
  /// orders — merging logs A∪B no longer equals B∪A.
  kMergeTiesByArrival,
  /// Mixed-version arbitration skew: odd-pid replicas invert the
  /// equal-clock pid tie-break (the classic rolling-upgrade bug where
  /// v2 "fixed" the comparator). The cluster no longer shares one
  /// total order, so any tie that decides a key's final value diverges.
  kLwwTieSkew,
  /// GC floor advanced past an open bootstrap round (the name predates
  /// the merge of catch-up into anti-entropy): the fold pause that
  /// keeps a rejoiner's mid-round stability rows out of the floor is
  /// skipped, so it folds over entries of streams it has not verified.
  kGcDuringCatchupSession,
  /// Delta install (every repair round, bootstrap rounds included)
  /// adopts the donor base but never replays the unstable suffix,
  /// losing every entry that only the delta could have delivered.
  kInstallSkipsSuffix,
  /// Echo suppression collapses provenance: any key whose *last*
  /// advance was installed from the requester is skipped in a delta,
  /// even when third-party content rode in since the requester's
  /// baseline — the relay that lets one representative reconcile a
  /// whole partition side silently drops it.
  kEchoSuppressThirdParty,
  /// Installed knowledge is not marked dirty: deltas served from this
  /// store omit everything it learned second-hand, so snapshot/AE
  /// relays never propagate past one hop.
  kInstallSkipsDirtyMark,
  /// Stream coverage served with every delta claims `last_seq` (the
  /// pre-partition FIFO shortcut) instead of the proven prefix, and
  /// calls gapped streams drained — a bootstrapping joiner then
  /// verifies, and an AE requester adopts, streams whose hole entries
  /// nobody ever shipped it.
  kCoverageClaimsLastSeq,
  /// Anti-entropy adopts the peer's coverage and stability rows from
  /// the first delta of a round instead of waiting for the complete
  /// batch, vouching for data still in flight in the round's remaining
  /// shards.
  kAeAdoptOnFirstDelta,
  /// Acks overstate the clock by one: an envelope vouches for a stamp
  /// this store may be about to issue but has not broadcast, so a
  /// receiver can fold its floor past the in-flight entry and absorb
  /// it as a redelivery when it lands.
  kAckOverstatesClock,
};

/// The single switch StoreConfig carries. A struct (not a bare enum) so
/// call sites read `config.fault.is(Fault::k…)` and future corpus
/// extensions (fault parameters, multi-fault sets) stay source-stable.
struct FaultSpec {
  Fault fault = Fault::kNone;

  [[nodiscard]] constexpr bool is(Fault f) const { return fault == f; }
  [[nodiscard]] constexpr bool none() const { return fault == Fault::kNone; }
};

/// Stable wire name of a fault ("none" for the clean store) — what
/// ScenarioSpec JSON and the history meta header record.
[[nodiscard]] std::string to_string(Fault f);

/// Parses a wire name ("" and "none" both mean no fault). Returns false
/// on an unknown name.
[[nodiscard]] bool fault_from_name(std::string_view name, Fault* out);

/// One corpus entry: the mutant, its wire name, the invariant it
/// perverts, what the auditor is expected to report, the scenario shape
/// that makes it bite, and the curated seeds the CI gate runs.
struct FaultInfo {
  Fault fault = Fault::kNone;
  const char* name = "";
  /// The ARCHITECTURE.md invariant the mutant violates.
  const char* invariant = "";
  /// What the perversion does, one line.
  const char* summary = "";
  /// Scenario shaping: the fault needs a crash/restart in the schedule
  /// to be reachable (recovery-path mutants)…
  bool wants_restart = false;
  /// …or three-way splits (relay/echo mutants need a third party).
  bool wants_three_way = false;
  /// Seeds on which the campaign gate demands detection (curated by
  /// sweeping `random_fault_scenario`; every listed seed detects —
  /// that is what `ucfuzz campaign --gate` re-verifies in CI).
  std::vector<std::uint64_t> gated_seeds{};
};

/// The mutation corpus, in stable order (kNone excluded).
[[nodiscard]] const std::vector<FaultInfo>& fault_corpus();

/// Corpus lookup by fault; nullptr for kNone/unknown.
[[nodiscard]] const FaultInfo* fault_info(Fault f);

}  // namespace ucw
