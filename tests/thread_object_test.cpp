// ThreadUcObject under genuine concurrency: convergence, wait-freedom of
// the operation surface, and agreement with the DES semantics.
#include <gtest/gtest.h>

#include <thread>

#include "adt/all.hpp"
#include "core/thread_object.hpp"

namespace ucw {
namespace {

using S = SetAdt<int>;
using IntSet = std::set<int>;

TEST(ThreadUcObject, TwoThreadsConvergeOnSet) {
  ThreadNetwork<UpdateMessage<S>> net(2);
  IntSet final0, final1;
  std::thread t0([&] {
    ThreadUcObject<S> obj(S{}, 0, net);
    for (int i = 0; i < 500; ++i) {
      obj.update(i % 2 == 0 ? S::insert(i % 20) : S::remove((i - 1) % 20));
    }
    obj.drain_until(1000);
    final0 = obj.query(S::read());
    net.inbox(0).close();
  });
  std::thread t1([&] {
    ThreadUcObject<S> obj(S{}, 1, net);
    for (int i = 0; i < 500; ++i) {
      obj.update(i % 3 == 0 ? S::insert(i % 20) : S::remove(i % 20));
    }
    obj.drain_until(1000);
    final1 = obj.query(S::read());
    net.inbox(1).close();
  });
  t0.join();
  t1.join();
  EXPECT_EQ(final0, final1);
}

TEST(ThreadUcObject, CounterSumsExactlyUnderContention) {
  constexpr std::size_t kThreads = 4;
  constexpr int kOps = 2'000;
  ThreadNetwork<UpdateMessage<CounterAdt>> net(kThreads);
  std::vector<std::int64_t> results(kThreads, -1);
  std::vector<std::thread> threads;
  for (ProcessId p = 0; p < kThreads; ++p) {
    threads.emplace_back([&, p] {
      ThreadUcObject<CounterAdt> obj(CounterAdt{}, p, net);
      for (int i = 0; i < kOps; ++i) {
        obj.update(CounterAdt::add(1));
      }
      obj.drain_until(kThreads * kOps);
      results[p] = obj.query(CounterAdt::read());
      net.inbox(p).close();
    });
  }
  for (auto& t : threads) t.join();
  for (ProcessId p = 0; p < kThreads; ++p) {
    EXPECT_EQ(results[p], kThreads * kOps) << "replica " << p;
  }
}

TEST(ThreadUcObject, QueriesNeverBlockWhilePeersAreSilent) {
  // A replica whose peer never sends anything must still answer
  // instantly — wait-freedom means no receive dependency.
  ThreadNetwork<UpdateMessage<S>> net(2);
  ThreadUcObject<S> obj(S{}, 0, net);
  obj.update(S::insert(7));
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(obj.query(S::read()), IntSet{7});
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 1.0);
}

TEST(ThreadUcObject, StragglersReorderedByStampNotArrival) {
  // Deliver a peer's update with a *smaller* stamp after local ones:
  // the replica must arbitrate by stamp, like the DES version.
  ThreadNetwork<UpdateMessage<S>> net(2);
  ThreadUcObject<S> a(S{}, 0, net);
  a.update(S::insert(1));  // stamp (1,0)
  a.update(S::remove(2));  // stamp (2,0)
  // Peer's I(2) stamped (1,1): between (1,0) and (2,0).
  net.inbox(0).push({1, UpdateMessage<S>{Stamp{1, 1}, S::insert(2)}});
  // Arbitration: I(1) · I(2) · D(2) = {1}.
  EXPECT_EQ(a.query(S::read()), IntSet{1});
}

TEST(ThreadUcObject, ConvergesWithSnapshotPolicyToo) {
  ThreadNetwork<UpdateMessage<S>> net(2);
  typename ReplayReplica<S>::Config cfg{ReplayPolicy::Snapshot, 16};
  IntSet finals[2];
  std::thread t0([&] {
    ThreadUcObject<S> obj(S{}, 0, net, cfg);
    for (int i = 0; i < 300; ++i) obj.update(S::insert(i % 10));
    obj.drain_until(600);
    finals[0] = obj.query(S::read());
    net.inbox(0).close();
  });
  std::thread t1([&] {
    ThreadUcObject<S> obj(S{}, 1, net, cfg);
    for (int i = 0; i < 300; ++i) obj.update(S::remove(i % 10));
    obj.drain_until(600);
    finals[1] = obj.query(S::read());
    net.inbox(1).close();
  });
  t0.join();
  t1.join();
  EXPECT_EQ(finals[0], finals[1]);
}

}  // namespace
}  // namespace ucw
