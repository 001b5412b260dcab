// Partition scenarios: drop-mode splits, per-sender coverage tracking,
// and the heal-time anti-entropy exchange.
//
// Layered like the subsystem: the SeqCoverage primitive first, then the
// network's drop-mode partition semantics, then live StoreCore clusters
// — the acceptance split (≥ 100 diverged keys reconciled by deltas that
// ship measurably less than full shards), asymmetric three-way heals,
// the ack-gating soundness property (a gapped stream must freeze the GC
// floor until anti-entropy re-proves coverage), a partition crossing an
// open bootstrap round, updates racing the heal exchange — and finally
// the harness-level PartitionPlan plumbing. Everything is seeded and
// virtual-time deterministic: a failure reproduces bit-for-bit.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "adt/all.hpp"
#include "net/scheduler.hpp"
#include "recovery/all.hpp"
#include "runtime/store_harness.hpp"
#include "store/all.hpp"
#include "test_seeds.hpp"
#include "util/assert.hpp"

namespace ucw {
namespace {

using S = SetAdt<int>;
using Store = SimUcStore<S>;
using Env = Store::Envelope;

SimNetwork<Env>::Config fifo_net_config(std::size_t n) {
  SimNetwork<Env>::Config cfg;
  cfg.n_processes = n;
  cfg.latency = LatencyModel::constant(10.0);
  cfg.fifo_links = true;
  cfg.seed = 5;
  return cfg;
}

StoreConfig gc_store_config(std::size_t window = 4) {
  StoreConfig cfg;
  cfg.batch_window = window;
  cfg.shard_count = 4;
  cfg.gc = true;
  return cfg;
}

/// One keyed update per store + flush + drain, `rounds` times, skipping
/// crashed stores (drive_rounds of the recovery suite, shared keyspace).
template <typename Stores>
void drive_rounds(SimScheduler& sched, Stores& stores, SimNetwork<Env>& net,
                  int rounds, int base, int n_keys = 7) {
  for (int r = 0; r < rounds; ++r) {
    for (auto& s : stores) {
      if (net.crashed(s->pid())) continue;
      const int v = base + r * 10 + static_cast<int>(s->pid());
      s->update("k" + std::to_string(v % n_keys), S::insert(v));
    }
    for (auto& s : stores) (void)s->flush();
    sched.run();
  }
}

// ----- SeqCoverage ----------------------------------------------------

TEST(SeqCoverageTest, InOrderArrivalsStayOneSegment) {
  SeqCoverage c;
  EXPECT_FALSE(c.any());
  EXPECT_TRUE(c.contiguous());
  for (std::uint64_t s = 0; s <= 5; ++s) c.add(s);
  EXPECT_TRUE(c.has_prefix());
  EXPECT_EQ(c.prefix(), 5u);
  EXPECT_EQ(c.segments(), 1u);
  EXPECT_TRUE(c.contiguous());
  c.add(3);  // at-least-once duplicate: absorbed
  EXPECT_EQ(c.segments(), 1u);
  EXPECT_EQ(c.prefix(), 5u);
}

TEST(SeqCoverageTest, DropsOpenSegmentsAndFillsClose) {
  SeqCoverage c;
  c.add(0);
  c.add(1);
  c.add(4);  // 2-3 dropped
  c.add(5);
  EXPECT_EQ(c.segments(), 2u);
  EXPECT_TRUE(c.has_prefix());
  EXPECT_EQ(c.prefix(), 1u);  // the honest claim, not last()
  EXPECT_EQ(c.last(), 5u);
  EXPECT_FALSE(c.contiguous());
  c.add(3);
  EXPECT_EQ(c.segments(), 2u);
  c.add(2);  // hole closed: segments join
  EXPECT_TRUE(c.contiguous());
  EXPECT_EQ(c.prefix(), 5u);
}

TEST(SeqCoverageTest, MidStreamJoinHasNoPrefixUntilProven) {
  SeqCoverage c;
  c.add(12);
  c.add(13);
  EXPECT_TRUE(c.any());
  EXPECT_FALSE(c.has_prefix());
  EXPECT_FALSE(c.contiguous());
  c.add_prefix(11);  // the snapshot/AE proof of [0, 11]
  EXPECT_TRUE(c.contiguous());
  EXPECT_EQ(c.prefix(), 13u);
}

TEST(SeqCoverageTest, AddPrefixSwallowsOnlyReachableSegments) {
  SeqCoverage c;
  c.add(4);
  c.add(9);
  c.add_prefix(5);  // touches {4} (and abuts 5), not {9}
  EXPECT_EQ(c.segments(), 2u);
  EXPECT_EQ(c.prefix(), 5u);
  EXPECT_FALSE(c.contiguous());
  c.add_prefix(8);  // abuts {9}: swallowed
  EXPECT_TRUE(c.contiguous());
  EXPECT_EQ(c.prefix(), 9u);
}

TEST(SeqCoverageTest, AdjacentArrivalsCoalesceAtBothEnds) {
  SeqCoverage c;
  c.add(5);
  // Extend the segment's upper end, then its lower end: adjacency must
  // absorb into the existing segment, never open a new one.
  c.add(6);
  EXPECT_EQ(c.segments(), 1u);
  c.add(4);
  EXPECT_EQ(c.segments(), 1u);
  EXPECT_EQ(c.last(), 6u);
  // A fill that is adjacent to two segments at once bridges them into
  // exactly one.
  c.add(8);
  EXPECT_EQ(c.segments(), 2u);
  c.add(7);
  EXPECT_EQ(c.segments(), 1u);
  EXPECT_EQ(c.last(), 8u);
  EXPECT_FALSE(c.has_prefix());  // [4,8] still floats above seq 0
  c.add_prefix(3);
  EXPECT_TRUE(c.contiguous());
  EXPECT_EQ(c.prefix(), 8u);
}

TEST(SeqCoverageTest, AddPrefixAfterGapClaimsOnlyTheProvenPrefix) {
  SeqCoverage c;
  // Live stream with a partition hole: [0,1] received, 2-6 dropped,
  // [7,8] received after the heal.
  c.add(0);
  c.add(1);
  c.add(7);
  c.add(8);
  EXPECT_EQ(c.segments(), 2u);
  EXPECT_EQ(c.prefix(), 1u);
  // An AE round proves [0,4]: the prefix advances, the floating segment
  // beyond the remaining hole must not be swallowed.
  c.add_prefix(4);
  EXPECT_EQ(c.segments(), 2u);
  EXPECT_EQ(c.prefix(), 4u);
  EXPECT_FALSE(c.contiguous());
  // A later round proves [0,6]: now adjacent to [7,8] — one segment.
  c.add_prefix(6);
  EXPECT_TRUE(c.contiguous());
  EXPECT_EQ(c.prefix(), 8u);
}

TEST(SeqCoverageTest, RepeatedAdoptionOfTheSameClaimIsIdempotent) {
  // AE rounds are at-least-once: the same peer coverage claim can be
  // adopted on every repeated round (retries, duplicated completions).
  // Re-adoption must neither regress the prefix nor split segments.
  SeqCoverage c;
  c.add(10);
  c.add(11);
  c.add_prefix(9);
  EXPECT_TRUE(c.contiguous());
  EXPECT_EQ(c.prefix(), 11u);
  for (int round = 0; round < 3; ++round) {
    c.add_prefix(9);  // the identical claim, re-adopted
    EXPECT_TRUE(c.contiguous());
    EXPECT_EQ(c.segments(), 1u);
    EXPECT_EQ(c.prefix(), 11u);
  }
  // A stale round's *older* claim is absorbed too — monotone, no split.
  c.add_prefix(2);
  EXPECT_TRUE(c.contiguous());
  EXPECT_EQ(c.prefix(), 11u);
}

// ----- SimNetwork drop-mode partitions --------------------------------

TEST(SimNetworkPartitionTest, DropModeDropsCrossGroupUntilHeal) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(3));
  std::vector<int> got(3, 0);
  for (ProcessId p = 0; p < 3; ++p) {
    net.set_handler(p, [&got, p](ProcessId, const Env&) { ++got[p]; });
  }
  net.partition({0, 0, 1});
  EXPECT_TRUE(net.partitioned());
  EXPECT_TRUE(net.same_partition(0, 1));
  EXPECT_FALSE(net.same_partition(0, 2));
  net.broadcast_others(0, Env{});
  sched.run();
  EXPECT_EQ(got[1], 1);  // same group: delivered
  EXPECT_EQ(got[2], 0);  // cross group: dropped, not held
  EXPECT_EQ(net.stats().messages_dropped_partition, 1u);
  EXPECT_EQ(net.stats().messages_held_partition, 0u);

  net.heal();
  EXPECT_FALSE(net.partitioned());
  EXPECT_TRUE(net.same_partition(0, 2));
  net.broadcast_others(0, Env{});
  sched.run();
  EXPECT_EQ(got[2], 1);  // traffic flows again; the dropped one is gone
  EXPECT_EQ(got[1], 2);
}

TEST(SimNetworkPartitionTest, RepartitionMergesGroupsAsymmetrically) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(3));
  net.partition({0, 1, 2});
  EXPECT_FALSE(net.same_partition(0, 1));
  net.partition({0, 0, 1});  // asymmetric heal: {0,1} merge, 2 stays out
  EXPECT_TRUE(net.same_partition(0, 1));
  EXPECT_FALSE(net.same_partition(1, 2));
  EXPECT_TRUE(net.partitioned());
  net.partition({0, 0, 0});  // all-zero map == heal
  EXPECT_FALSE(net.partitioned());
}

// ----- acceptance: split-write-heal with delta anti-entropy -----------

/// Counts keys on which the two stores currently disagree.
std::size_t diverged_keys(Store& a, Store& b, int n_keys) {
  std::size_t n = 0;
  for (int k = 0; k < n_keys; ++k) {
    const std::string key = "key" + std::to_string(k);
    if (!(a.state_of(key) == b.state_of(key))) ++n;
  }
  return n;
}

TEST(PartitionTest, SplitWriteHealConvergesAndSecondDeltaShipsLess) {
  constexpr int kKeys = 120;
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(2));
  StoreConfig scfg = gc_store_config(/*window=*/8);
  Store a(S{}, 0, net, scfg);
  Store b(S{}, 1, net, scfg);

  // Common history on all keys, fully delivered.
  for (int k = 0; k < kKeys; ++k) {
    a.update("key" + std::to_string(k), S::insert(k));
  }
  (void)a.flush();
  sched.run();
  (void)b.flush();
  sched.run();
  ASSERT_EQ(diverged_keys(a, b, kKeys), 0u);

  // Split. Both sides stay available and write disjoint values to every
  // key: ≥ 100 keys diverge.
  net.partition({0, 1});
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = "key" + std::to_string(k);
    a.update(key, S::insert(1'000 + k));
    b.update(key, S::insert(2'000 + k));
  }
  for (auto* s : {&a, &b}) (void)s->flush();
  sched.run();
  ASSERT_GE(diverged_keys(a, b, kKeys), 100u);
  ASSERT_GT(net.stats().messages_dropped_partition, 0u);

  // Heal + one bidirectional anti-entropy round. First exchange between
  // this pair: no markers yet, so it ships full shards — and repairs
  // every key.
  net.heal();
  ASSERT_TRUE(a.anti_entropy_round(1, /*reciprocate=*/true));
  sched.run();
  for (int i = 0; i < 3; ++i) {
    for (auto* s : {&a, &b}) (void)s->flush();
    sched.run();
  }
  EXPECT_EQ(diverged_keys(a, b, kKeys), 0u);
  EXPECT_GE(a.stats().ae_rounds_completed, 1u);
  EXPECT_GE(b.stats().ae_rounds_completed, 1u);
  const std::uint64_t keys_served_round1 =
      a.stats().snapshot_keys_served + b.stats().snapshot_keys_served;
  const std::uint64_t entries_round1 =
      a.stats().ae_entries_served + b.stats().ae_entries_served;
  ASSERT_GT(keys_served_round1, 0u);

  // Split again; this time only a small fraction of the keyspace moves.
  net.partition({0, 1});
  for (int k = 0; k < 10; ++k) {
    a.update("key" + std::to_string(k), S::insert(3'000 + k));
    b.update("key" + std::to_string(k + 10), S::insert(4'000 + k));
  }
  for (auto* s : {&a, &b}) (void)s->flush();
  sched.run();
  ASSERT_GT(diverged_keys(a, b, kKeys), 0u);

  net.heal();
  ASSERT_TRUE(a.anti_entropy_round(1, /*reciprocate=*/true));
  sched.run();
  for (int i = 0; i < 3; ++i) {
    for (auto* s : {&a, &b}) (void)s->flush();
    sched.run();
  }
  EXPECT_EQ(diverged_keys(a, b, kKeys), 0u);

  // The second exchange was incremental: the markers installed in round
  // one let each donor skip every clean key, so round two shipped
  // measurably fewer keys and entries than a full ShardSnapshot batch
  // of the same shards (which is exactly what round one was).
  const std::uint64_t keys_served_round2 =
      a.stats().snapshot_keys_served + b.stats().snapshot_keys_served -
      keys_served_round1;
  const std::uint64_t entries_round2 = a.stats().ae_entries_served +
                                       b.stats().ae_entries_served -
                                       entries_round1;
  const std::uint64_t skipped =
      a.stats().snapshot_keys_skipped_delta +
      b.stats().snapshot_keys_skipped_delta;
  EXPECT_LT(keys_served_round2, keys_served_round1 / 2);
  EXPECT_LT(entries_round2, entries_round1);
  EXPECT_GT(skipped, keys_served_round2);
  EXPECT_EQ(a.stats().ae_rounds_completed, 2u);
}

// ----- three-way partition, asymmetric heal order ---------------------

TEST(PartitionTest, ThreeWayPartitionHealsAsymmetrically) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(3));
  const StoreConfig scfg = gc_store_config();
  std::vector<std::unique_ptr<Store>> stores;
  for (ProcessId p = 0; p < 3; ++p) {
    stores.push_back(std::make_unique<Store>(S{}, p, net, scfg));
  }
  drive_rounds(sched, stores, net, 4, 0);

  // Full three-way split: every store writes alone.
  net.partition({0, 1, 2});
  drive_rounds(sched, stores, net, 4, 100);

  // First heal step: {0, 1} merge while 2 stays isolated.
  net.partition({0, 0, 1});
  ASSERT_TRUE(stores[0]->anti_entropy_round(1, /*reciprocate=*/true));
  sched.run();
  drive_rounds(sched, stores, net, 3, 200);
  for (int k = 0; k < 7; ++k) {
    const std::string key = "k" + std::to_string(k);
    EXPECT_EQ(stores[0]->state_of(key), stores[1]->state_of(key)) << key;
  }

  // Second heal step: 2 rejoins. 2's exchange with 0 relays everything
  // both ways (including what 0 learned from 1 second-hand — installs
  // dirty the donor's keys too); 1 then pulls from 0, which by now
  // holds 2's side as well. This mirrors the harness policy: every
  // process runs one pull per regained group.
  net.heal();
  ASSERT_TRUE(stores[2]->anti_entropy_round(0, /*reciprocate=*/true));
  sched.run();
  ASSERT_TRUE(stores[1]->anti_entropy_round(0, /*reciprocate=*/false));
  sched.run();
  drive_rounds(sched, stores, net, 3, 300);
  for (int k = 0; k < 7; ++k) {
    const std::string key = "k" + std::to_string(k);
    const auto want = stores[0]->state_of(key);
    EXPECT_EQ(stores[1]->state_of(key), want) << key;
    EXPECT_EQ(stores[2]->state_of(key), want) << key;
  }
}

// ----- soundness: gapped streams freeze the floor ---------------------

TEST(PartitionTest, GappedStreamAcksAreIgnoredUntilAntiEntropy) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(2));
  StoreConfig scfg = gc_store_config(/*window=*/2);
  // This test exercises the gating mechanics by hand: keep the
  // flush-tick auto anti-entropy out of the way so the gap stays open
  // until the explicit round below.
  scfg.auto_anti_entropy = false;
  Store a(S{}, 0, net, scfg);
  Store b(S{}, 1, net, scfg);
  for (int r = 0; r < 6; ++r) {
    a.update("k" + std::to_string(r % 5), S::insert(r));
    b.update("k" + std::to_string(r % 5), S::insert(100 + r));
    (void)a.flush();
    (void)b.flush();
    sched.run();
    (void)a.flush();
    (void)b.flush();
    sched.run();
  }
  const LogicalTime floor_before = a.stats().stability_floor;
  ASSERT_GT(floor_before, 0u);

  // Split: b keeps broadcasting into the void towards a.
  net.partition({0, 1});
  for (int r = 0; r < 5; ++r) {
    b.update("p" + std::to_string(r), S::insert(r));
    (void)b.flush();
    sched.run();
  }
  net.heal();

  // Post-heal traffic WITHOUT anti-entropy: a detects the gap in b's
  // stream and must ignore b's acks — the dropped envelopes' entries
  // are still missing here, and folding past them would absorb their
  // eventual anti-entropy redelivery as "already folded". The floor
  // freezes at its pre-partition value.
  for (int r = 0; r < 6; ++r) {
    b.update("q" + std::to_string(r), S::insert(r));
    (void)b.flush();
    sched.run();
    (void)a.flush();
    sched.run();
  }
  EXPECT_TRUE(a.stream_gapped(1));
  EXPECT_GT(a.stats().stream_gaps_detected, 0u);
  EXPECT_LE(a.stats().stability_floor, floor_before);
  ASSERT_NE(a.state_of("p0"), b.state_of("p0"));  // genuinely diverged

  // Anti-entropy re-proves b's stream coverage (and ships the missing
  // entries); acks resume and the floor thaws past the frozen point.
  ASSERT_TRUE(a.anti_entropy_round(1, /*reciprocate=*/true));
  sched.run();
  EXPECT_FALSE(a.stream_gapped(1));
  for (int r = 0; r < 4; ++r) {
    a.update("k0", S::insert(500 + r));
    b.update("k1", S::insert(600 + r));
    (void)a.flush();
    (void)b.flush();
    sched.run();
    (void)a.flush();
    (void)b.flush();
    sched.run();
  }
  EXPECT_GT(a.stats().stability_floor, floor_before);
  for (int r = 0; r < 5; ++r) {
    const std::string key = "p" + std::to_string(r);
    EXPECT_EQ(a.state_of(key), b.state_of(key)) << key;
  }
  EXPECT_EQ(a.state_of("k0"), b.state_of("k0"));
}

TEST(PartitionTest, AutoAntiEntropyRepairsGapsFromTheFlushTick) {
  // No explicit anti_entropy_round anywhere: the stores notice the
  // gapped streams themselves on the flush tick and pull from the
  // origin — a heal is self-repairing even when nobody orchestrates it
  // (and even for entries whose envelopes a one-shot heal-time exchange
  // would have missed in flight).
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(2));
  const StoreConfig scfg = gc_store_config();
  Store a(S{}, 0, net, scfg);
  Store b(S{}, 1, net, scfg);
  for (int r = 0; r < 4; ++r) {
    a.update("k" + std::to_string(r), S::insert(r));
    (void)a.flush();
    (void)b.flush();
    sched.run();
  }
  net.partition({0, 1});
  a.update("s", S::insert(1));
  b.update("s", S::insert(2));
  (void)a.flush();
  (void)b.flush();
  sched.run();
  net.heal();
  // Live traffic resumes; its seq jump is the gap detection. The next
  // flush ticks run the anti-entropy pulls and the split reconciles.
  for (int r = 0; r < 6; ++r) {
    a.update("t", S::insert(10 + r));
    b.update("t", S::insert(20 + r));
    (void)a.flush();
    (void)b.flush();
    sched.run();
  }
  EXPECT_GT(a.stats().ae_rounds_started + b.stats().ae_rounds_started, 0u);
  EXPECT_GT(a.stats().ae_rounds_completed + b.stats().ae_rounds_completed,
            0u);
  EXPECT_FALSE(a.stream_gapped(1));
  EXPECT_FALSE(b.stream_gapped(0));
  EXPECT_EQ(a.state_of("s"), (std::set<int>{1, 2}));
  EXPECT_EQ(b.state_of("s"), (std::set<int>{1, 2}));
  EXPECT_EQ(a.state_of("t"), b.state_of("t"));
}

// ----- partition across an open bootstrap round -----------------------

TEST(PartitionTest, BootstrapRoundSurvivesPartitionAndGcStaysPaused) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(3));
  StoreConfig scfg = gc_store_config();
  scfg.ae_patience_ticks = 1;  // ticks are driven by hand below
  std::vector<std::unique_ptr<Store>> stores;
  for (ProcessId p = 0; p < 3; ++p) {
    stores.push_back(std::make_unique<Store>(S{}, p, net, scfg));
  }
  drive_rounds(sched, stores, net, 8, 0);
  net.crash(2);
  drive_rounds(sched, stores, net, 4, 50);
  ASSERT_TRUE(net.can_restart(2));
  net.restart(2);
  stores[2] = std::make_unique<Store>(S{}, 2, net, scfg);

  // Isolate the joiner the instant it asks: the request is dropped
  // cross-group, every stall-retry rotation lands on an unreachable
  // donor, and the round stays open for the whole split. The joiner
  // is still bootstrapping (reads stay available, updates refused), so
  // only the majority side issues traffic.
  net.partition({0, 0, 1});
  ASSERT_TRUE(stores[2]->request_sync(0));
  sched.run();
  auto majority_round = [&](int base) {
    for (ProcessId p = 0; p < 2; ++p) {
      stores[p]->update("k" + std::to_string((base + p) % 7),
                        S::insert(base + static_cast<int>(p)));
    }
    for (auto& s : stores) (void)s->flush();
    sched.run();
  };
  for (int r = 0; r < 5; ++r) majority_round(100 + 10 * r);
  EXPECT_TRUE(stores[2]->bootstrap_open());
  EXPECT_EQ(stores[2]->stats().ae_snapshots_installed, 0u);
  EXPECT_GT(stores[2]->stats().ae_rounds_started, 1u);  // retried
  // GC is paused while the round is open — the load-bearing pause:
  // the joiner's floor must not move on untrusted rows.
  EXPECT_EQ(stores[2]->stats().stability_floor, 0u);
  EXPECT_EQ(stores[2]->stats().gc_folded, 0u);

  // Heal. The very next stall retry reaches a live donor; the round
  // completes through its own retries (no other round involved —
  // anti_entropy_round is refused while the bootstrap round is open).
  net.heal();
  EXPECT_FALSE(stores[2]->anti_entropy_round(0));
  for (int r = 0; r < 6; ++r) majority_round(200 + 10 * r);
  ASSERT_FALSE(stores[2]->bootstrap_open());
  EXPECT_EQ(stores[2]->stats().ae_rounds_completed, 1u);
  drive_rounds(sched, stores, net, 3, 400);
  EXPECT_GT(stores[2]->stats().ae_snapshots_installed, 0u);
  for (int k = 0; k < 7; ++k) {
    const std::string key = "k" + std::to_string(k);
    const auto want = stores[0]->state_of(key);
    EXPECT_EQ(stores[1]->state_of(key), want) << key;
    EXPECT_EQ(stores[2]->state_of(key), want) << key;
  }
  // And with the round complete, GC resumes at the rejoined store.
  EXPECT_GT(stores[2]->stats().stability_floor, 0u);
}

// ----- updates racing the heal exchange -------------------------------

TEST(PartitionTest, UpdatesIssuedDuringHealExchangeAreNotLost) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(2));
  const StoreConfig scfg = gc_store_config();
  Store a(S{}, 0, net, scfg);
  Store b(S{}, 1, net, scfg);
  for (int r = 0; r < 4; ++r) {
    a.update("k" + std::to_string(r), S::insert(r));
    b.update("k" + std::to_string(r), S::insert(100 + r));
    (void)a.flush();
    (void)b.flush();
    sched.run();
  }
  net.partition({0, 1});
  a.update("split", S::insert(1));
  b.update("split", S::insert(2));
  (void)a.flush();
  (void)b.flush();
  sched.run();

  net.heal();
  ASSERT_TRUE(a.anti_entropy_round(1, /*reciprocate=*/true));
  // The exchange is now in flight (request at t+10, delta replies at
  // t+20, reciprocal pull behind them). Updates stamped *during* that
  // window ride the normal broadcast path and must not be lost or
  // double-applied when the deltas land around them.
  sched.run_until(sched.now() + 15.0);
  a.update("during", S::insert(10));
  b.update("during", S::insert(20));
  (void)a.flush();
  (void)b.flush();
  sched.run();
  for (int i = 0; i < 3; ++i) {
    (void)a.flush();
    (void)b.flush();
    sched.run();
  }
  EXPECT_EQ(a.state_of("split"), (std::set<int>{1, 2}));
  EXPECT_EQ(b.state_of("split"), (std::set<int>{1, 2}));
  EXPECT_EQ(a.state_of("during"), (std::set<int>{10, 20}));
  EXPECT_EQ(b.state_of("during"), (std::set<int>{10, 20}));
  EXPECT_GE(a.stats().ae_rounds_completed, 1u);
}

// ----- harness: PartitionPlan -----------------------------------------

TEST(PartitionHarnessTest, PartitionPlanSplitsHealsAndConverges) {
  StoreRunConfig cfg;
  cfg.n_processes = 4;
  cfg.seed = test::seed_or(21);
  SCOPED_TRACE(test::seed_trace(cfg.seed));
  cfg.fifo_links = true;
  cfg.n_keys = 40;
  cfg.ops_per_process = 80;
  cfg.update_ratio = 0.9;
  cfg.store = gc_store_config();
  cfg.flush_period = 1'000.0;
  cfg.partitions = {
      PartitionPlan{4'000.0, {0, 0, 1, 1}},
      PartitionPlan{11'000.0, {0, 0, 0, 0}},
  };
  const auto out = run_store_simulation(S{}, cfg, [](Rng& rng) {
    WorkloadConfig w;
    w.value_range = 32;
    return random_set_update(rng, w);
  });
  EXPECT_TRUE(out.converged) << (out.diverged_keys.empty()
                                     ? "?"
                                     : out.diverged_keys.front());
  EXPECT_GT(out.net.messages_dropped_partition, 0u);
  std::uint64_t ae_completed = 0, ae_served = 0, gaps = 0;
  for (const auto& s : out.store_stats) {
    ae_completed += s.ae_rounds_completed;
    ae_served += s.ae_rounds_served;
    gaps += s.stream_gaps_detected;
  }
  EXPECT_GT(ae_completed, 0u);
  EXPECT_GT(ae_served, 0u);
  EXPECT_GT(gaps, 0u);
}

TEST(PartitionHarnessTest, UnhealedFinalSplitIsHealedBeforeTheCheck) {
  StoreRunConfig cfg;
  cfg.n_processes = 3;
  cfg.seed = test::seed_or(9);
  SCOPED_TRACE(test::seed_trace(cfg.seed));
  cfg.fifo_links = true;
  cfg.n_keys = 20;
  cfg.ops_per_process = 50;
  cfg.store = gc_store_config();
  cfg.flush_period = 1'000.0;
  // Only a split — no heal plan. The harness heals (plus one AE sweep)
  // before the quiesce barrier so the check speaks for a connected
  // cluster instead of failing on a never-healed topology.
  cfg.partitions = {PartitionPlan{3'000.0, {0, 1, 1}}};
  const auto out = run_store_simulation(S{}, cfg, [](Rng& rng) {
    WorkloadConfig w;
    return random_set_update(rng, w);
  });
  EXPECT_TRUE(out.converged);
  EXPECT_GT(out.net.messages_dropped_partition, 0u);
  std::uint64_t ae_completed = 0;
  for (const auto& s : out.store_stats) ae_completed += s.ae_rounds_completed;
  EXPECT_GT(ae_completed, 0u);
}

// ----- hold→drop escalation -------------------------------------------

TEST(SimNetworkPartitionTest, EscalationHealWithinGraceOnlyDelays) {
  // A message sent into an escalating split is *held*; healing inside
  // its grace window releases it with fresh latency — delayed, never
  // lost, and nothing counts as a partition drop.
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(2));
  int got = 0;
  net.set_handler(0, [](ProcessId, const Env&) {});
  net.set_handler(1, [&got](ProcessId, const Env&) { ++got; });
  net.partition_escalating({0, 1}, /*grace=*/500.0);
  EXPECT_TRUE(net.escalating());
  net.broadcast_others(0, Env{});
  sched.run_until(100.0);
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.held_messages(), 1u);
  net.heal();
  sched.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(net.held_messages(), 0u);
  EXPECT_EQ(net.stats().messages_dropped_escalation, 0u);
  EXPECT_EQ(net.stats().messages_dropped_partition, 0u);
}

TEST(SimNetworkPartitionTest, EscalationDropsWhenGraceExpires) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(2));
  int got = 0;
  net.set_handler(0, [](ProcessId, const Env&) {});
  net.set_handler(1, [&got](ProcessId, const Env&) { ++got; });
  net.partition_escalating({0, 1}, /*grace=*/500.0);
  net.broadcast_others(0, Env{});
  sched.run();  // past the deadline with the split still up
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.held_messages(), 0u);
  EXPECT_EQ(net.stats().messages_dropped_escalation, 1u);
  EXPECT_EQ(net.stats().messages_dropped_partition, 1u);
  net.heal();
  net.broadcast_others(0, Env{});
  sched.run();
  EXPECT_EQ(got, 1);  // post-heal traffic flows normally
}

TEST(PartitionHarnessTest, EscalatingPlanHealedInsideGraceLosesNothing) {
  // A short blip under a generous grace: every cross-group message
  // rides out the split in the hold buffer, so the run needs no gap
  // detection and no anti-entropy to converge.
  StoreRunConfig cfg;
  cfg.n_processes = 3;
  cfg.seed = test::seed_or(31);
  SCOPED_TRACE(test::seed_trace(cfg.seed));
  cfg.fifo_links = true;
  cfg.n_keys = 20;
  cfg.ops_per_process = 60;
  cfg.store = gc_store_config();
  cfg.flush_period = 1'000.0;
  cfg.partitions = {
      PartitionPlan{3'000.0, {0, 1, 1}, /*anti_entropy=*/true,
                    /*ae_delay=*/1.0, /*escalation_grace=*/6'000.0},
      PartitionPlan{5'000.0, {0, 0, 0}},
  };
  const auto out = run_store_simulation(S{}, cfg, [](Rng& rng) {
    WorkloadConfig w;
    return random_set_update(rng, w);
  });
  EXPECT_TRUE(out.converged);
  EXPECT_EQ(out.net.messages_dropped_escalation, 0u);
  EXPECT_EQ(out.net.messages_dropped_partition, 0u);
  EXPECT_GT(out.net.messages_held_partition, 0u);
}

TEST(PartitionHarnessTest, EscalationOutlivingGraceDropsAndAeRepairs) {
  // The split outlives the grace window: held messages expire into
  // drops (both the escalation and the partition counters move), the
  // receivers detect stream gaps, and the heal-time anti-entropy pull
  // reconciles — the drop-mode guarantees degrade to, not past, the
  // existing repair path.
  StoreRunConfig cfg;
  cfg.n_processes = 3;
  cfg.seed = test::seed_or(32);
  SCOPED_TRACE(test::seed_trace(cfg.seed));
  cfg.fifo_links = true;
  cfg.n_keys = 20;
  cfg.ops_per_process = 80;
  cfg.store = gc_store_config();
  cfg.flush_period = 1'000.0;
  cfg.partitions = {
      PartitionPlan{3'000.0, {0, 1, 1}, /*anti_entropy=*/true,
                    /*ae_delay=*/1.0, /*escalation_grace=*/1'500.0},
      PartitionPlan{12'000.0, {0, 0, 0}},
  };
  const auto out = run_store_simulation(S{}, cfg, [](Rng& rng) {
    WorkloadConfig w;
    return random_set_update(rng, w);
  });
  EXPECT_TRUE(out.converged) << (out.diverged_keys.empty()
                                     ? "?"
                                     : out.diverged_keys.front());
  EXPECT_GT(out.net.messages_dropped_escalation, 0u);
  EXPECT_GE(out.net.messages_dropped_partition,
            out.net.messages_dropped_escalation);
  std::uint64_t ae_completed = 0, skipped = 0;
  for (const auto& s : out.store_stats) {
    ae_completed += s.ae_rounds_completed;
    skipped += s.ae_entries_skipped_covered;
  }
  EXPECT_GT(ae_completed, 0u);
  // Coverage summaries on the AE request: donors skip suffix entries
  // the requester provably held before the split.
  EXPECT_GT(skipped, 0u);
}

}  // namespace
}  // namespace ucw
