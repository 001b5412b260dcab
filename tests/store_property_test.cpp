// Batched and unbatched delivery are indistinguishable to the UCStore.
//
// Two layers of evidence, matching the two things that could go wrong:
//
//  1. Delivery-transform equivalence (the theorem): given one fixed
//     stream of stamped keyed updates, applying it one-message-per-
//     update versus coalesced into arbitrary envelopes — under random
//     per-replica orders and duplicate delivery — drives every replica
//     to *identical* per-key state. Algorithm 1's replay depends only
//     on the set of (stamp, update) pairs per key, never on arrival
//     grouping; batching is a pure delivery-layer transform.
//
//  2. End-to-end convergence (the system): full simulations with
//     random schedules, latency, crashes and duplicate delivery
//     converge every surviving store to identical per-key state, for
//     every batch window, and identically-seeded runs replay
//     bit-for-bit.
//  3. Recovery interleavings (the subsystem): a snapshot install
//     overlapped by stale and duplicated live redelivery is absorbed
//     exactly; full simulations with crashes *and restarts* converge the
//     rejoined replica to the same per-key state as replicas that never
//     crashed; and a catch-up after a long history transfers the
//     unstable suffix, not the history (asserted via the GC/snapshot
//     counters).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "adt/all.hpp"
#include "recovery/all.hpp"
#include "runtime/store_harness.hpp"
#include "store/all.hpp"
#include "test_seeds.hpp"

namespace ucw {
namespace {

using S = SetAdt<int>;
using Entry = KeyedUpdate<S>;
using Env = BatchEnvelope<S>;

/// A fixed stream of stamped keyed updates, as n_processes sequential
/// senders with distinct (clock, pid) stamps would have produced it.
std::vector<Entry> make_stream(Rng& rng, std::size_t n_processes,
                               std::size_t ops, std::size_t n_keys,
                               double skew) {
  ZipfianKeys keyspace(n_keys, skew);
  std::vector<LogicalTime> clocks(n_processes, 0);
  std::vector<Entry> stream;
  stream.reserve(ops);
  WorkloadConfig w;
  w.value_range = 16;
  for (std::size_t i = 0; i < ops; ++i) {
    const auto p = static_cast<ProcessId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_processes) - 1));
    // Jump the clock occasionally, as merges with remote stamps would.
    clocks[p] += static_cast<LogicalTime>(rng.uniform_int(1, 3));
    stream.push_back(Entry{
        keyspace.sample(rng),
        UpdateMessage<S>{Stamp{clocks[p], p}, random_set_update(rng, w)}});
  }
  return stream;
}

/// One receiving replica of the keyspace: a single shard is enough (the
/// shard split is local structure; delivery semantics are per key).
struct KeyspaceReplica {
  StoreShard<S> shard{S{}, 0, {}};

  void apply(const Entry& e) { shard.replica(e.key).apply(e.msg.stamp.pid, e.msg); }

  [[nodiscard]] std::map<std::string, std::set<int>> final_states() {
    std::map<std::string, std::set<int>> out;
    shard.for_each([&](const std::string& k, ReplayReplica<S>& r) {
      out[k] = r.current_state();
    });
    return out;
  }
};

/// Delivers the stream unbatched: per-replica random order, each entry
/// its own message, duplicated with probability dup_p.
std::map<std::string, std::set<int>> deliver_unbatched(
    const std::vector<Entry>& stream, Rng& rng, double dup_p) {
  std::vector<Entry> order = stream;
  rng.shuffle(order);
  KeyspaceReplica rep;
  for (const Entry& e : order) {
    rep.apply(e);
    if (rng.chance(dup_p)) rep.apply(e);
  }
  return rep.final_states();
}

/// Delivers the stream batched: random partition into envelopes of
/// random sizes, envelopes shuffled, some envelopes delivered twice.
std::map<std::string, std::set<int>> deliver_batched(
    const std::vector<Entry>& stream, Rng& rng, double dup_p) {
  std::vector<Env> envelopes;
  std::size_t i = 0;
  while (i < stream.size()) {
    const auto batch = static_cast<std::size_t>(rng.uniform_int(1, 9));
    Env e;
    for (std::size_t j = 0; j < batch && i < stream.size(); ++j, ++i) {
      e.entries.push_back(stream[i]);
    }
    envelopes.push_back(std::move(e));
  }
  rng.shuffle(envelopes);
  KeyspaceReplica rep;
  for (const Env& e : envelopes) {
    for (const Entry& entry : e.entries) rep.apply(entry);
    if (rng.chance(dup_p)) {
      for (const Entry& entry : e.entries) rep.apply(entry);
    }
  }
  return rep.final_states();
}

TEST(StorePropertyTest, BatchedAndUnbatchedDeliveryAgreeExactly) {
  for (std::uint64_t seed : test::property_seeds(
           {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18,
            19, 20})) {
    SCOPED_TRACE(test::seed_trace(seed));
    Rng rng(seed);
    const auto stream = make_stream(rng, /*n_processes=*/5, /*ops=*/400,
                                    /*n_keys=*/40, /*skew=*/0.99);
    // Reference: timestamp-order replay is what every correct replica
    // must converge to, however delivery grouped or reordered things.
    const auto reference = deliver_unbatched(stream, rng, 0.0);
    for (int trial = 0; trial < 4; ++trial) {
      auto u = deliver_unbatched(stream, rng, /*dup_p=*/0.3);
      auto b = deliver_batched(stream, rng, /*dup_p=*/0.3);
      EXPECT_EQ(u, reference) << "unbatched replica diverged, seed " << seed;
      EXPECT_EQ(b, reference) << "batched replica diverged, seed " << seed;
    }
  }
}

TEST(StorePropertyTest, EndToEndConvergesForEveryWindow) {
  for (std::uint64_t seed : test::property_seeds({3, 11, 27})) {
    SCOPED_TRACE(test::seed_trace(seed));
    for (std::size_t window : {1u, 4u, 16u}) {
      StoreRunConfig cfg;
      cfg.n_processes = 5;
      cfg.seed = seed;
      cfg.n_keys = 50;
      cfg.skew = 0.99;
      cfg.ops_per_process = 60;
      cfg.update_ratio = 0.85;
      cfg.duplicate_probability = 0.2;
      cfg.store.batch_window = window;
      cfg.flush_period = 1'500.0;
      cfg.crashes = {CrashPlan{1, 8'000.0}};
      const auto out = run_store_simulation(S{}, cfg, [](Rng& rng) {
        WorkloadConfig w;
        w.value_range = 16;
        return random_set_update(rng, w);
      });
      EXPECT_TRUE(out.converged)
          << "seed " << seed << " window " << window << " diverged";
      EXPECT_GT(out.net.messages_duplicated, 0u);
      EXPECT_GT(out.keys_touched, 0u);
    }
  }
}

TEST(StorePropertyTest, IdenticallySeededRunsReplayBitForBit) {
  auto run = [] {
    StoreRunConfig cfg;
    cfg.n_processes = 4;
    cfg.seed = 99;
    cfg.n_keys = 30;
    cfg.ops_per_process = 50;
    cfg.store.batch_window = 4;
    cfg.duplicate_probability = 0.1;
    return run_store_simulation(S{}, cfg, [](Rng& rng) {
      WorkloadConfig w;
      return random_set_update(rng, w);
    });
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.final_states, b.final_states);
  EXPECT_EQ(a.net.broadcasts, b.net.broadcasts);
  EXPECT_EQ(a.net.messages_sent, b.net.messages_sent);
  EXPECT_EQ(a.total_updates, b.total_updates);
  EXPECT_DOUBLE_EQ(a.duration, b.duration);
}

TEST(StorePropertyTest, SnapshotInstallAbsorbsStaleAndDuplicateRedelivery) {
  ReplayReplica<S>::Config absorb_cfg;
  absorb_cfg.absorb_below_floor = true;
  for (std::uint64_t seed :
       test::property_seeds({1, 2, 3, 4, 5, 6, 7, 8, 9, 10})) {
    SCOPED_TRACE(test::seed_trace(seed));
    Rng rng(seed);
    const auto stream = make_stream(rng, /*n_processes=*/5, /*ops=*/300,
                                    /*n_keys=*/25, /*skew=*/0.99);
    // Donor: receives everything, folds the median-clock prefix.
    StoreShard<S> donor(S{}, 0, absorb_cfg);
    for (const Entry& e : stream) {
      donor.replica(e.key).apply(e.msg.stamp.pid, e.msg);
    }
    std::vector<LogicalTime> clocks;
    for (const Entry& e : stream) clocks.push_back(e.msg.stamp.clock);
    std::nth_element(clocks.begin(), clocks.begin() + clocks.size() / 2,
                     clocks.end());
    const LogicalTime floor = clocks[clocks.size() / 2];
    donor.for_each([&](const std::string&, ReplayReplica<S>& r) {
      (void)r.fold_to(floor);
    });
    const auto snap = encode_shard_snapshot(donor, 0, 1);

    // Joiner: a random 30% of the stream raced ahead of the snapshot,
    // then the snapshot installs, then the *whole* stream is redelivered
    // shuffled and duplicated (stale envelopes it already covers).
    StoreShard<S> joiner(S{}, 9, absorb_cfg);
    for (const Entry& e : stream) {
      if (rng.chance(0.3)) joiner.replica(e.key).apply(e.msg.stamp.pid, e.msg);
    }
    for (const auto& ks : snap.keys) {
      (void)install_key_snapshot(joiner.replica(ks.key), ks);
    }
    std::vector<Entry> order = stream;
    rng.shuffle(order);
    for (const Entry& e : order) {
      joiner.replica(e.key).apply(e.msg.stamp.pid, e.msg);
      if (rng.chance(0.3)) joiner.replica(e.key).apply(e.msg.stamp.pid, e.msg);
    }

    std::map<std::string, std::set<int>> donor_states, joiner_states;
    donor.for_each([&](const std::string& k, ReplayReplica<S>& r) {
      donor_states[k] = r.current_state();
    });
    joiner.for_each([&](const std::string& k, ReplayReplica<S>& r) {
      joiner_states[k] = r.current_state();
    });
    EXPECT_EQ(joiner_states, donor_states) << "seed " << seed;
  }
}

TEST(StorePropertyTest, ConvergesThroughCrashRestartInterleavings) {
  for (std::uint64_t seed : test::property_seeds({5, 21, 42})) {
    SCOPED_TRACE(test::seed_trace(seed));
    StoreRunConfig cfg;
    cfg.n_processes = 5;
    cfg.seed = seed;
    cfg.fifo_links = true;
    cfg.n_keys = 40;
    cfg.skew = 0.99;
    cfg.ops_per_process = 70;
    cfg.update_ratio = 0.85;
    cfg.duplicate_probability = 0.15;
    cfg.store.batch_window = 4;
    cfg.store.gc = true;
    cfg.flush_period = 1'200.0;
    cfg.crashes = {CrashPlan{1, 6'000.0}, CrashPlan{3, 9'000.0}};
    cfg.restarts = {RestartPlan{1, 14'000.0, /*resume_ops=*/30}};
    const auto out = run_store_simulation(S{}, cfg, [](Rng& rng) {
      WorkloadConfig w;
      w.value_range = 16;
      return random_set_update(rng, w);
    });
    // The rejoined replica must agree with replicas that never crashed —
    // i.e. the run is indistinguishable, per key, from an uninterrupted
    // one — even under at-least-once delivery of both live envelopes and
    // snapshots.
    EXPECT_TRUE(out.converged)
        << "seed " << seed << " diverged on "
        << (out.diverged_keys.empty() ? "?" : out.diverged_keys.front());
    EXPECT_EQ(out.net.restarts, 1u);
    EXPECT_GT(out.net.messages_duplicated, 0u);
    EXPECT_GT(out.store_stats[1].ae_snapshots_installed, 0u);
  }
}

TEST(StorePropertyTest, CatchUpTransfersSuffixNotHistory) {
  // The acceptance sweep: ~10k keyed updates over 1000 zipfian keys,
  // then a crash + rejoin. With GC on, the catch-up replays the
  // unstable suffix; with GC off it replays (nearly) the full history.
  auto run = [](bool gc) {
    StoreRunConfig cfg;
    cfg.n_processes = 4;
    cfg.seed = 7;
    cfg.fifo_links = true;
    cfg.n_keys = 1000;
    cfg.skew = 0.99;
    cfg.ops_per_process = 2'600;
    cfg.update_ratio = 1.0;
    cfg.think_time = LatencyModel::exponential(100.0);
    cfg.store.batch_window = 8;
    cfg.store.gc = gc;
    cfg.flush_period = 1'000.0;
    cfg.crashes = {CrashPlan{3, 150'000.0}};
    cfg.restarts = {RestartPlan{3, 170'000.0, /*resume_ops=*/40}};
    return run_store_simulation(S{}, cfg, [](Rng& rng) {
      WorkloadConfig w;
      w.value_range = 64;
      return random_set_update(rng, w);
    });
  };
  const auto compacted = run(true);
  const auto full = run(false);
  ASSERT_TRUE(compacted.converged);
  ASSERT_TRUE(full.converged);
  ASSERT_GT(compacted.total_updates, 9'000u);
  const StoreStats& joiner = compacted.store_stats[3];
  const StoreStats& joiner_full = full.store_stats[3];
  ASSERT_GT(joiner.ae_snapshots_installed, 0u);
  ASSERT_GT(joiner_full.ae_snapshots_installed, 0u);
  // GC'd catch-up ships the unstable suffix only: a small fraction of
  // the history, and far less than the uncompacted control transfers.
  EXPECT_LT(joiner.ae_entries_installed * 5, compacted.total_updates);
  EXPECT_GT(joiner_full.ae_entries_installed,
            joiner.ae_entries_installed * 5);
  // And the steady-state logs stay bounded cluster-wide.
  EXPECT_LT(compacted.log_entries_resident * 2, full.log_entries_resident);
}

TEST(StorePropertyTest, RandomPartitionCrashScheduleStillConverges) {
  // Seeded random schedules of drop-mode partition/heal events (plus a
  // crash + rejoin) interleaved with zipfian updates: both sides of
  // every split keep writing, heal-time anti-entropy reconciles, and
  // every surviving store ends identical per key. The schedule itself
  // is drawn from the seed, so a failure names its reproduction.
  for (const std::uint64_t seed : test::property_seeds({13, 29, 57})) {
    SCOPED_TRACE(test::seed_trace(seed));
    Rng rng(seed);
    StoreRunConfig cfg;
    cfg.n_processes = 5;
    cfg.seed = seed;
    cfg.fifo_links = true;
    cfg.n_keys = 40;
    cfg.skew = 0.99;
    cfg.ops_per_process = 80;
    cfg.update_ratio = 0.9;
    cfg.store.batch_window = 4;
    cfg.store.gc = true;
    cfg.flush_period = 1'000.0;
    SimTime at = 4'000.0;
    for (int cut = 0; cut < 3; ++cut) {
      std::vector<std::size_t> groups;
      for (std::size_t p = 0; p < cfg.n_processes; ++p) {
        groups.push_back(static_cast<std::size_t>(rng.uniform_int(0, 1)));
      }
      cfg.partitions.push_back(PartitionPlan{at, groups});
      at += 3'000.0 + 1'000.0 * static_cast<SimTime>(rng.uniform_int(0, 2));
      cfg.partitions.push_back(
          PartitionPlan{at, std::vector<std::size_t>(cfg.n_processes, 0)});
      at += 3'000.0;
    }
    cfg.crashes = {CrashPlan{2, 6'500.0}};
    cfg.restarts = {RestartPlan{2, at + 2'000.0, /*resume_ops=*/20}};
    const auto out = run_store_simulation(S{}, cfg, [](Rng& r) {
      WorkloadConfig w;
      w.value_range = 16;
      return random_set_update(r, w);
    });
    EXPECT_TRUE(out.converged)
        << "seed " << seed << " diverged on "
        << (out.diverged_keys.empty() ? "?" : out.diverged_keys.front());
    EXPECT_GT(out.net.messages_dropped_partition, 0u) << "seed " << seed;
    std::uint64_t ae_completed = 0;
    for (const auto& s : out.store_stats) ae_completed += s.ae_rounds_completed;
    EXPECT_GT(ae_completed, 0u) << "seed " << seed;
  }
}

TEST(StorePropertyTest, RehealServesDeltaSnapshots) {
  // Two split/heal episodes between the same groups. The first
  // episode's installs leave delta markers behind, so the second heal's
  // anti-entropy serves deltas: keys that did not advance since are
  // skipped, and the cluster still converges.
  StoreRunConfig cfg;
  cfg.n_processes = 4;
  cfg.seed = 71;
  cfg.fifo_links = true;
  cfg.n_keys = 60;
  cfg.skew = 0.99;
  cfg.ops_per_process = 90;
  cfg.update_ratio = 0.95;
  cfg.store.batch_window = 4;
  cfg.store.gc = true;
  cfg.flush_period = 1'000.0;
  cfg.partitions = {
      PartitionPlan{4'000.0, {0, 0, 1, 1}},
      PartitionPlan{8'000.0, {0, 0, 0, 0}},
      PartitionPlan{12'000.0, {0, 0, 1, 1}},
      PartitionPlan{16'000.0, {0, 0, 0, 0}},
  };
  const auto out = run_store_simulation(S{}, cfg, [](Rng& r) {
    WorkloadConfig w;
    w.value_range = 32;
    return random_set_update(r, w);
  });
  ASSERT_TRUE(out.converged);
  std::uint64_t skipped = 0;
  for (const auto& s : out.store_stats) {
    skipped += s.snapshot_keys_skipped_delta;
  }
  EXPECT_GT(skipped, 0u);
}

TEST(StorePropertyTest, CrashedMajorityStillConvergesSurvivors) {
  StoreRunConfig cfg;
  cfg.n_processes = 5;
  cfg.seed = 17;
  cfg.n_keys = 25;
  cfg.ops_per_process = 50;
  cfg.store.batch_window = 8;
  cfg.flush_period = 1'000.0;
  cfg.crashes = {CrashPlan{0, 5'000.0}, CrashPlan{2, 6'000.0},
                 CrashPlan{4, 7'000.0}};
  const auto out = run_store_simulation(S{}, cfg, [](Rng& rng) {
    WorkloadConfig w;
    return random_set_update(rng, w);
  });
  // Availability does not degrade with failures: the two survivors kept
  // accepting updates and agree on every key.
  EXPECT_TRUE(out.converged);
}

}  // namespace
}  // namespace ucw
