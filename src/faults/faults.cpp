#include "faults/fault_spec.hpp"

namespace ucw {

namespace {

// Wire names are part of the interchange format (ScenarioSpec JSON,
// history meta header, campaign reports): never rename, only append.
struct NameRow {
  Fault fault;
  const char* name;
};

constexpr NameRow kNames[] = {
    {Fault::kNone, "none"},
    {Fault::kFoldAcksAcrossGaps, "fold_acks_across_gaps"},
    {Fault::kMergeTiesByArrival, "merge_ties_by_arrival"},
    {Fault::kLwwTieSkew, "lww_tie_skew"},
    {Fault::kGcDuringCatchupSession, "gc_during_catchup_session"},
    {Fault::kInstallSkipsSuffix, "install_skips_suffix"},
    {Fault::kEchoSuppressThirdParty, "echo_suppress_third_party"},
    {Fault::kInstallSkipsDirtyMark, "install_skips_dirty_mark"},
    {Fault::kCoverageClaimsLastSeq, "coverage_claims_last_seq"},
    {Fault::kAeAdoptOnFirstDelta, "ae_adopt_on_first_delta"},
    {Fault::kAckOverstatesClock, "ack_overstates_clock"},
};

}  // namespace

std::string to_string(Fault f) {
  for (const auto& row : kNames) {
    if (row.fault == f) return row.name;
  }
  return "unknown";
}

bool fault_from_name(std::string_view name, Fault* out) {
  if (name.empty()) {
    *out = Fault::kNone;
    return true;
  }
  for (const auto& row : kNames) {
    if (name == row.name) {
      *out = row.fault;
      return true;
    }
  }
  return false;
}

const std::vector<FaultInfo>& fault_corpus() {
  // Gated seeds are curated by `ucfuzz sweep`: each listed seed is one
  // where the auditor detects the mutant today, so the CI gate turns a
  // silent detection regression into a red build. Shapes (restart /
  // three-way) steer random_fault_scenario toward the code path the
  // mutant lives on; detection rates on *unshaped* seeds are reported
  // by the campaign but not gated.
  static const std::vector<FaultInfo> corpus = {
      {Fault::kFoldAcksAcrossGaps,
       "fold_acks_across_gaps",
       "Gapped streams' acks are frozen out of the stability floor",
       "stability keeps folding acks from streams with a detected seq gap, "
       "so the floor passes entries anti-entropy has yet to redeliver",
       /*wants_restart=*/false, /*wants_three_way=*/false,
       {7, 8, 11}},
      {Fault::kMergeTiesByArrival,
       "merge_ties_by_arrival",
       "Arbitration is a total order: equal clocks break ties by pid",
       "equal-clock stamps sort in arrival order, so replicas that saw the "
       "tie in different orders replay different winners",
       /*wants_restart=*/false, /*wants_three_way=*/false,
       {12, 14, 16}},
      {Fault::kLwwTieSkew,
       "lww_tie_skew",
       "Every replica applies the same arbitration order",
       "odd-pid replicas invert the equal-clock pid tie-break, splitting "
       "the cluster into two arbitration regimes",
       /*wants_restart=*/false, /*wants_three_way=*/false,
       {3, 12, 14}},
      {Fault::kGcDuringCatchupSession,
       "gc_during_catchup_session",
       "GC pauses while a bootstrap round is open",
       "the stability floor advances mid-round, folding acks the joiner "
       "adopted before verifying the streams behind them",
       /*wants_restart=*/true, /*wants_three_way=*/true,
       {10, 27, 71}},
      {Fault::kInstallSkipsSuffix,
       "install_skips_suffix",
       "Delta install = base state + replay of the unstable suffix",
       "install adopts the donor base but drops the suffix, losing every "
       "entry only the delta could deliver",
       /*wants_restart=*/true, /*wants_three_way=*/false,
       {6, 7, 9}},
      {Fault::kEchoSuppressThirdParty,
       "echo_suppress_third_party",
       "Echo suppression skips only entries the requester itself donated",
       "any key last advanced by a requester install is suppressed wholesale, "
       "dropping third-party content that rode in since the baseline",
       /*wants_restart=*/false, /*wants_three_way=*/true,
       {65, 108, 142}},
      {Fault::kInstallSkipsDirtyMark,
       "install_skips_dirty_mark",
       "Installed keys join the dirty set so deltas relay them onward",
       "keys learned from a donor are never marked dirty, so this store's "
       "deltas omit second-hand knowledge and relays stop at one hop",
       /*wants_restart=*/false, /*wants_three_way=*/true,
       {16, 50, 51}},
      {Fault::kCoverageClaimsLastSeq,
       "coverage_claims_last_seq",
       "Coverage claims only the proven contiguous prefix of a stream",
       "coverage advertises last_seq over holes and counts gapped streams "
       "as drained, so joiners verify streams never fully shipped to them",
       /*wants_restart=*/true, /*wants_three_way=*/false,
       {101, 136, 137}},
      {Fault::kAeAdoptOnFirstDelta,
       "ae_adopt_on_first_delta",
       "AE adopts peer coverage/stability rows only after a complete round",
       "rows are adopted on the round's first delta, vouching for shards "
       "still in flight",
       /*wants_restart=*/false, /*wants_three_way=*/false,
       {5, 7, 8}},
      {Fault::kAckOverstatesClock,
       "ack_overstates_clock",
       "An ack vouches only for stamps this store has already broadcast",
       "acks claim clock+1, letting receivers fold the floor past an "
       "in-flight entry and absorb it below the floor when it lands",
       /*wants_restart=*/false, /*wants_three_way=*/false,
       {1, 10, 20}},
  };
  return corpus;
}

const FaultInfo* fault_info(Fault f) {
  for (const auto& info : fault_corpus()) {
    if (info.fault == f) return &info;
  }
  return nullptr;
}

}  // namespace ucw
