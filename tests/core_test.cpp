#include <gtest/gtest.h>

#include <memory>

#include "core/all.hpp"
#include "net/scheduler.hpp"

namespace ucw {
namespace {

using S = SetAdt<int>;
using IntSet = std::set<int>;

struct SetCluster {
  SimScheduler scheduler;
  std::unique_ptr<SimNetwork<UpdateMessage<S>>> net;
  std::vector<std::unique_ptr<SimUcObject<S>>> objs;

  explicit SetCluster(std::size_t n, ReplayPolicy policy,
                      LatencyModel latency = LatencyModel::exponential(100.0),
                      std::uint64_t seed = 1, bool fifo = false) {
    typename SimNetwork<UpdateMessage<S>>::Config cfg;
    cfg.n_processes = n;
    cfg.latency = latency;
    cfg.seed = seed;
    cfg.fifo_links = fifo;
    net = std::make_unique<SimNetwork<UpdateMessage<S>>>(scheduler, cfg);
    typename ReplayReplica<S>::Config rcfg;
    rcfg.policy = policy;
    rcfg.snapshot_interval = 4;
    for (ProcessId p = 0; p < n; ++p) {
      objs.push_back(std::make_unique<SimUcObject<S>>(S{}, p, *net, rcfg));
    }
  }
};

class ReplicaPolicyTest : public ::testing::TestWithParam<ReplayPolicy> {};

TEST_P(ReplicaPolicyTest, ConvergesToSameStateOnAllReplicas) {
  SetCluster c(4, GetParam());
  c.objs[0]->update(S::insert(1));
  c.objs[1]->update(S::insert(2));
  c.objs[2]->update(S::remove(1));
  c.objs[3]->update(S::insert(3));
  c.scheduler.run();
  const auto expected = c.objs[0]->query(S::read());
  for (auto& o : c.objs) {
    EXPECT_EQ(o->query(S::read()), expected);
  }
}

TEST_P(ReplicaPolicyTest, LocalUpdateVisibleImmediately) {
  SetCluster c(3, GetParam());
  c.objs[0]->update(S::insert(7));
  // Before the network delivers anywhere: wait-free read sees own write.
  EXPECT_EQ(c.objs[0]->query(S::read()), (IntSet{7}));
  EXPECT_EQ(c.objs[1]->query(S::read()), IntSet{});
}

TEST_P(ReplicaPolicyTest, AgreedOrderIsTimestampOrderNotArrival) {
  // Two concurrent writes; whatever the delivery order, all replicas
  // converge to the state of the (clock, pid)-lexicographic execution.
  SetCluster c(2, GetParam(), LatencyModel::uniform(50.0, 500.0), 42);
  c.objs[0]->update(S::insert(5));
  c.objs[1]->update(S::remove(5));
  c.scheduler.run();
  // Both stamped clock=1; pid 0 < pid 1, so I(5) then D(5): {} wins.
  EXPECT_EQ(c.objs[0]->query(S::read()), IntSet{});
  EXPECT_EQ(c.objs[1]->query(S::read()), IntSet{});
}

TEST_P(ReplicaPolicyTest, ManyRandomOpsAllPoliciesAgree) {
  Rng rng(99);
  SetCluster c(3, GetParam(), LatencyModel::exponential(200.0), 7);
  for (int i = 0; i < 200; ++i) {
    const ProcessId p = static_cast<ProcessId>(rng.uniform_int(0, 2));
    const int v = static_cast<int>(rng.uniform_int(0, 9));
    if (rng.chance(0.6)) {
      c.objs[p]->update(S::insert(v));
    } else {
      c.objs[p]->update(S::remove(v));
    }
    if (rng.chance(0.3)) (void)c.objs[p]->query(S::read());
    c.scheduler.run_until(c.scheduler.now() + 50.0);
  }
  c.scheduler.run();
  const auto expected = c.objs[0]->query(S::read());
  for (auto& o : c.objs) EXPECT_EQ(o->query(S::read()), expected);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReplicaPolicyTest,
                         ::testing::Values(ReplayPolicy::NaiveReplay,
                                           ReplayPolicy::CachedPrefix,
                                           ReplayPolicy::Snapshot),
                         [](const auto& info) {
                           return to_string(info.param) == "naive-replay"
                                      ? std::string("Naive")
                                  : to_string(info.param) == "cached-prefix"
                                      ? std::string("Cached")
                                      : std::string("Snapshot");
                         });

TEST(ReplayReplica, PoliciesProduceIdenticalStatesUnderLateMessages) {
  // Same message sequence fed to three replicas differing only in
  // policy; states must agree after every step.
  typename ReplayReplica<S>::Config naive{ReplayPolicy::NaiveReplay, 4};
  typename ReplayReplica<S>::Config cached{ReplayPolicy::CachedPrefix, 4};
  typename ReplayReplica<S>::Config snap{ReplayPolicy::Snapshot, 4};
  ReplayReplica<S> a(S{}, 0, naive), b(S{}, 0, cached), d(S{}, 0, snap);

  Rng rng(5);
  std::vector<UpdateMessage<S>> messages;
  for (int i = 0; i < 60; ++i) {
    const auto stamp = Stamp{static_cast<LogicalTime>(rng.uniform_int(1, 40)),
                             static_cast<ProcessId>(rng.uniform_int(1, 3))};
    const int v = static_cast<int>(rng.uniform_int(0, 5));
    const auto u = rng.chance(0.5) ? S::insert(v) : S::remove(v);
    messages.push_back(UpdateMessage<S>{stamp, u});
  }
  for (const auto& m : messages) {
    a.apply(m.stamp.pid, m);
    b.apply(m.stamp.pid, m);
    d.apply(m.stamp.pid, m);
    EXPECT_EQ(a.query(S::read()), b.query(S::read()));
    EXPECT_EQ(a.query(S::read()), d.query(S::read()));
  }
  EXPECT_GT(b.stats().late_insertions, 0u);
}

TEST(ReplayReplica, NaiveReplaysEveryQuery) {
  ReplayReplica<S> r(S{}, 0, {ReplayPolicy::NaiveReplay, 64});
  auto m1 = r.local_update(S::insert(1));
  r.apply(0, m1);
  (void)r.query(S::read());
  (void)r.query(S::read());
  EXPECT_EQ(r.stats().full_replays, 2u);
  EXPECT_EQ(r.stats().transitions, 2u);
}

TEST(ReplayReplica, CachedPrefixAppliesEachUpdateOnce) {
  ReplayReplica<S> r(S{}, 0, {ReplayPolicy::CachedPrefix, 64});
  for (int i = 0; i < 10; ++i) {
    auto m = r.local_update(S::insert(i));
    r.apply(0, m);
    (void)r.query(S::read());
  }
  // In-order arrivals: exactly one transition per update.
  EXPECT_EQ(r.stats().transitions, 10u);
  EXPECT_EQ(r.stats().late_insertions, 0u);
}

TEST(ReplayReplica, SnapshotRestoreBoundsLateCost) {
  ReplayReplica<S> r(S{}, 5, {ReplayPolicy::Snapshot, 4});
  // 20 in-order updates from a remote peer, then query to build cache.
  for (int i = 1; i <= 20; ++i) {
    r.apply(1, UpdateMessage<S>{Stamp{static_cast<LogicalTime>(10 * i), 1},
                                S::insert(i)});
  }
  (void)r.query(S::read());
  const auto before = r.stats().transitions;
  // A straggler lands near the tail (between 18th and 19th update).
  r.apply(2, UpdateMessage<S>{Stamp{185, 2}, S::insert(99)});
  (void)r.query(S::read());
  const auto replayed = r.stats().transitions - before;
  // Snapshot every 4: restore at applied=16, replay ≤ 5 + the straggler.
  EXPECT_LE(replayed, 6u);
  EXPECT_EQ(r.stats().snapshot_restores, 1u);
  auto state = r.query(S::read());
  EXPECT_EQ(state.count(99), 1u);
}

TEST(ReplayReplica, DuplicateStampsIgnored) {
  ReplayReplica<S> r(S{}, 0);
  UpdateMessage<S> m{Stamp{5, 1}, S::insert(1)};
  r.apply(1, m);
  r.apply(1, m);
  EXPECT_EQ(r.stats().duplicate_updates, 1u);
  EXPECT_EQ(r.log().size(), 1u);
}

TEST(StampedLog, InsertKeepsStampOrder) {
  StampedLog<S> log{S{}};
  EXPECT_EQ(log.insert(Stamp{3, 0}, S::insert(3)), std::optional<std::size_t>(0));
  EXPECT_EQ(log.insert(Stamp{1, 0}, S::insert(1)), std::optional<std::size_t>(0));
  EXPECT_EQ(log.insert(Stamp{2, 0}, S::insert(2)), std::optional<std::size_t>(1));
  EXPECT_EQ(log.insert(Stamp{2, 0}, S::insert(9)), std::nullopt);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.at(0).stamp, (Stamp{1, 0}));
  EXPECT_EQ(log.at(2).stamp, (Stamp{3, 0}));
}

TEST(StampedLog, FoldMovesPrefixIntoBaseState) {
  StampedLog<S> log{S{}};
  (void)log.insert(Stamp{1, 0}, S::insert(1));
  (void)log.insert(Stamp{2, 1}, S::insert(2));
  (void)log.insert(Stamp{5, 0}, S::remove(1));
  EXPECT_EQ(log.fold(S{}, 2), 2u);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.base_state(), (IntSet{1, 2}));
  EXPECT_EQ(log.floor(), 2u);
  // Below-floor arrivals are a protocol violation.
  EXPECT_THROW((void)log.insert(Stamp{1, 1}, S::insert(9)), contract_error);
}

TEST(GarbageCollection, StableLogPrefixFoldsAndStateSurvives) {
  SetCluster c(3, ReplayPolicy::CachedPrefix,
               LatencyModel::constant(10.0), 3, /*fifo=*/true);
  for (auto& o : c.objs) o->replica().enable_stability(3);
  for (int round = 0; round < 10; ++round) {
    for (ProcessId p = 0; p < 3; ++p) {
      c.objs[p]->update(S::insert(round * 3 + static_cast<int>(p)));
    }
    c.scheduler.run();
  }
  std::size_t folded = 0;
  for (auto& o : c.objs) folded += o->replica().collect_garbage();
  EXPECT_GT(folded, 0u);
  // Convergence must survive folding.
  const auto expected = c.objs[0]->query(S::read());
  EXPECT_EQ(expected.size(), 30u);
  for (auto& o : c.objs) {
    EXPECT_EQ(o->query(S::read()), expected);
    EXPECT_LT(o->replica().log().size(), 30u);
  }
}

TEST(GarbageCollection, CrashedProcessBlocksFloorUntilMarked) {
  SetCluster c(3, ReplayPolicy::CachedPrefix,
               LatencyModel::constant(10.0), 3, /*fifo=*/true);
  for (auto& o : c.objs) o->replica().enable_stability(3);
  c.net->crash(2);  // process 2 never acknowledges anything
  for (int i = 0; i < 5; ++i) c.objs[0]->update(S::insert(i));
  c.scheduler.run();
  // Process 1 speaks (stability needs to hear from every live peer —
  // a silent peer pins the floor exactly like a suspected-crashed one).
  c.objs[1]->update(S::insert(99));
  c.scheduler.run();
  EXPECT_EQ(c.objs[0]->replica().collect_garbage(), 0u);
  c.objs[0]->replica().mark_crashed(2);
  c.objs[1]->replica().mark_crashed(2);
  EXPECT_GT(c.objs[0]->replica().collect_garbage(), 0u);
}

TEST(UcMemory, Algorithm2LastWriterWins) {
  SimScheduler sched;
  SimNetwork<MemWriteMessage<std::string, int>>::Config cfg;
  cfg.n_processes = 2;
  cfg.latency = LatencyModel::uniform(10.0, 100.0);
  cfg.seed = 11;
  SimNetwork<MemWriteMessage<std::string, int>> net(sched, cfg);
  SimUcMemory<std::string, int> m0(0, -1, net), m1(1, -1, net);

  EXPECT_EQ(m0.read("x"), -1);  // initial value
  m0.write("x", 10);
  m1.write("x", 20);  // same clock, higher pid: wins arbitration
  m1.write("y", 7);
  sched.run();
  EXPECT_EQ(m0.read("x"), 20);
  EXPECT_EQ(m1.read("x"), 20);
  EXPECT_EQ(m0.read("y"), 7);
  EXPECT_EQ(m0.replica().cell_count(), 2u);
}

TEST(UcMemory, MemoryBoundedByRegisterCount) {
  SimScheduler sched;
  SimNetwork<MemWriteMessage<std::string, int>>::Config cfg;
  cfg.n_processes = 1;
  SimNetwork<MemWriteMessage<std::string, int>> net(sched, cfg);
  SimUcMemory<std::string, int> m(0, 0, net);
  for (int i = 0; i < 1000; ++i) {
    m.write("r" + std::to_string(i % 4), i);
  }
  sched.run();
  EXPECT_EQ(m.replica().cell_count(), 4u);
  EXPECT_EQ(m.replica().stats().writes, 1000u);
}

TEST(QuorumRegister, WriteThenReadLinearizes) {
  SimScheduler sched;
  SimNetwork<QuorumMessage<int>>::Config cfg;
  cfg.n_processes = 3;
  cfg.latency = LatencyModel::constant(50.0);
  SimNetwork<QuorumMessage<int>> net(sched, cfg);
  std::vector<std::unique_ptr<QuorumRegister<int>>> regs;
  for (ProcessId p = 0; p < 3; ++p) {
    regs.push_back(std::make_unique<QuorumRegister<int>>(p, 0, net));
  }
  double write_done_at = -1;
  regs[0]->write(42, [&] { write_done_at = sched.now(); });
  sched.run();
  // One round trip of 50µs each way.
  EXPECT_GE(write_done_at, 100.0);

  int read_value = -1;
  double read_done_at = -1;
  regs[1]->read([&](int v) {
    read_value = v;
    read_done_at = sched.now();
  });
  sched.run();
  EXPECT_EQ(read_value, 42);
  // Read has two phases: at least two round trips.
  EXPECT_GE(read_done_at - write_done_at, 200.0);
}

TEST(QuorumRegister, OperationLatencyScalesWithNetworkLatency) {
  auto measure = [](double lat) {
    SimScheduler sched;
    SimNetwork<QuorumMessage<int>>::Config cfg;
    cfg.n_processes = 3;
    cfg.latency = LatencyModel::constant(lat);
    SimNetwork<QuorumMessage<int>> net(sched, cfg);
    std::vector<std::unique_ptr<QuorumRegister<int>>> regs;
    for (ProcessId p = 0; p < 3; ++p) {
      regs.push_back(std::make_unique<QuorumRegister<int>>(p, 0, net));
    }
    double done = -1;
    regs[0]->write(1, [&] { done = sched.now(); });
    sched.run();
    return done;
  };
  // Attiya–Welch in action: halving latency halves operation time, while
  // the UC object's operations stay at zero simulated time regardless.
  EXPECT_NEAR(measure(100.0) / measure(50.0), 2.0, 0.01);
}

TEST(Wrappers, UcSetCounterRegisterDocument) {
  SimScheduler sched;

  SimNetwork<UcSet<int>::Message>::Config scfg;
  scfg.n_processes = 2;
  scfg.latency = LatencyModel::constant(5.0);
  SimNetwork<UcSet<int>::Message> snet(sched, scfg);
  UcSet<int> s0(0, snet), s1(1, snet);
  s0.insert(1);
  s1.insert(2);
  sched.run();
  EXPECT_EQ(s0.read(), (IntSet{1, 2}));
  EXPECT_TRUE(s1.contains(1));
  s0.remove(1);
  sched.run();
  EXPECT_FALSE(s1.contains(1));

  SimNetwork<UcCounter::Message>::Config ccfg;
  ccfg.n_processes = 2;
  ccfg.latency = LatencyModel::constant(5.0);
  SimNetwork<UcCounter::Message> cnet(sched, ccfg);
  UcCounter c0(0, cnet), c1(1, cnet);
  c0.increment();
  c1.add(10);
  c1.decrement();
  sched.run();
  EXPECT_EQ(c0.value(), 10);
  EXPECT_EQ(c1.value(), 10);

  SimNetwork<UcRegister<int>::Message>::Config rcfg;
  rcfg.n_processes = 2;
  rcfg.latency = LatencyModel::constant(5.0);
  SimNetwork<UcRegister<int>::Message> rnet(sched, rcfg);
  UcRegister<int> r0(0, rnet, -1), r1(1, rnet, -1);
  EXPECT_EQ(r0.read(), -1);
  r0.write(5);
  r1.write(9);
  sched.run();
  EXPECT_EQ(r0.read(), r1.read());

  SimNetwork<UcDocument::Message>::Config dcfg;
  dcfg.n_processes = 2;
  dcfg.latency = LatencyModel::constant(5.0);
  SimNetwork<UcDocument::Message> dnet(sched, dcfg);
  UcDocument d0(0, dnet), d1(1, dnet);
  d0.insert(0, "hello");
  sched.run();
  d1.insert(5, " world");
  sched.run();
  EXPECT_EQ(d0.text(), "hello world");
  EXPECT_EQ(d1.text(), "hello world");
}

}  // namespace
}  // namespace ucw
