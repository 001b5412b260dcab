// The wait-free read path: seqlock-published views and get().
//
// Four properties, bottom-up:
//
//  1. SeqlockView itself never serves a torn value: readers hammering a
//     view while a writer republishes must only ever see states that
//     were published whole, and must observe versions monotonically.
//     (Run under TSan in CI — the view is the one piece of the store
//     that is read under *full* concurrency, no quiesce barrier.)
//  2. Promotion: a key turns hot on its first ring query; from then on
//     get() answers from the view — asserted via the published_reads /
//     ring_reads counters, which is exactly the "no ring enqueue"
//     acceptance check (a published read never touches a ring, so the
//     ring op accounting cannot move).
//  3. get() through the store under concurrency: a producer keeps
//     inserting a monotone prefix into one hot key while readers get()
//     it — every read must be a whole prefix {0..k}, never a gappy or
//     partial set, and successive reads on one thread must be monotone
//     (the view only ever moves forward).
//  4. Freshness at quiescence: once producers stop and the store
//     drains, get() agrees with state_of() exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "adt/all.hpp"
#include "store/all.hpp"
#include "util/seqlock_view.hpp"

namespace ucw {
namespace {

using S = SetAdt<int>;
using TS = ThreadUcStore<S>;

TEST(SeqlockViewTest, UnpublishedReadsEmpty) {
  SeqlockView<int> view;
  EXPECT_FALSE(view.try_read().has_value());
  EXPECT_EQ(view.version(), 0u);
  view.publish(41);
  ASSERT_TRUE(view.try_read().has_value());
  EXPECT_EQ(*view.try_read(), 41);
  EXPECT_EQ(view.version(), 2u);  // publish #n leaves version at 2n
}

TEST(SeqlockViewTest, NoTornReadsUnderConcurrentPublish) {
  // The writer publishes vectors whose content is an internally
  // consistent pattern (length n, every element == n). A torn read —
  // bytes of two publications mixed — would break the pattern. Readers
  // also check version monotonicity across their own reads.
  SeqlockView<std::vector<std::uint64_t>> view;
  constexpr std::uint64_t kPublishes = 20'000;
  constexpr int kReaders = 3;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_version = 0;
      std::uint64_t last_len = 0;
      while (!done.load(std::memory_order_acquire)) {
        const std::uint64_t v0 = view.version();
        const auto got = view.try_read();
        if (!got.has_value()) continue;  // not yet published, or racing
        for (const std::uint64_t x : *got) {
          ASSERT_EQ(x, got->size()) << "torn read: mixed publications";
        }
        // Views only move forward: a reader can never see an older
        // state after a newer one, nor the version counter go back.
        ASSERT_GE(v0, last_version);
        ASSERT_GE(got->size(), last_len);
        last_version = v0;
        last_len = got->size();
      }
    });
  }
  for (std::uint64_t n = 1; n <= kPublishes; ++n) {
    view.publish(std::vector<std::uint64_t>(n, n));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(view.version(), 2 * kPublishes);
  ASSERT_TRUE(view.try_read().has_value());
  EXPECT_EQ(view.try_read()->size(), kPublishes);
}

TEST(ReadPathTest, HotKeyGetBypassesRings) {
  ThreadNetwork<TS::Envelope> net(1);
  StoreConfig cfg;
  cfg.workers = 2;
  cfg.batch_window = 64;  // nothing ships on its own
  TS store(S{}, 0, net, cfg);
  store.update("hot", S::insert(1));
  store.update("hot", S::insert(2));

  // Cold key: the first get() pays the ring round trip — and promotes.
  const auto first = store.get("hot", S::read());
  EXPECT_EQ(first, (std::set<int>{1, 2}));
  {
    const StoreStats s = store.stats();
    EXPECT_EQ(s.published_reads, 0u);
    EXPECT_EQ(s.ring_reads, 1u);
  }

  // Hot key: every subsequent get() answers from the published view,
  // touching no ring — the published_reads counter moves one-for-one
  // and the ring fallback counter stays frozen.
  constexpr std::uint64_t kReads = 100;
  for (std::uint64_t i = 0; i < kReads; ++i) {
    EXPECT_EQ(store.get("hot", S::read()), (std::set<int>{1, 2}));
  }
  {
    const StoreStats s = store.stats();
    EXPECT_EQ(s.published_reads, kReads);
    EXPECT_EQ(s.ring_reads, 1u);
    // The engine did real work only for the one promoting query.
    EXPECT_EQ(s.queries, 1u);
  }

  // The view tracks applies: a new update republishes, get() sees it
  // without ever leaving the published path.
  store.update("hot", S::insert(3));
  (void)store.query("hot", S::read());  // ring barrier: apply landed
  EXPECT_EQ(store.get("hot", S::read()), (std::set<int>{1, 2, 3}));
  EXPECT_EQ(store.stats().ring_reads, 1u);
  net.close_all();
}

TEST(ReadPathTest, PromotionIsVisibleInShardStats) {
  ThreadNetwork<TS::Envelope> net(1);
  StoreConfig cfg;
  cfg.workers = 2;
  cfg.shard_count = 4;
  TS store(S{}, 0, net, cfg);
  for (int i = 0; i < 8; ++i) {
    const std::string k = "k" + std::to_string(i);
    store.update(k, S::insert(i));
    (void)store.get(k, S::read());    // cold get: promotes
    (void)store.query(k, S::read());  // query never promotes
  }
  std::size_t published = 0;
  for (const ShardStats& s : store.shard_stats()) {
    published += s.published_keys;
  }
  EXPECT_EQ(published, 8u);
  // Promotion is get-driven: the 8 query() calls added no views, and
  // every get() after its key's promoting fallback stayed published.
  const StoreStats st = store.stats();
  EXPECT_EQ(st.ring_reads, 8u);
  net.close_all();
}

TEST(ReadPathTest, NoTornReadsThroughStoreUnderTsan) {
  // One producer inserts 0,1,2,… into a single hot key of a pooled
  // store while reader threads get() it continuously. Every read must
  // be a whole prefix {0..k} — arbitration for a single process is
  // insertion order, each published state is a prefix, and the seqlock
  // view forbids mixing two of them. Reader-side monotonicity comes
  // free from the view. This is the suite TSan gets its money's worth
  // on: get() runs with *no* quiesce barrier against the worker.
  constexpr int kUpdates = 2'000;
  constexpr int kReaders = 2;
  ThreadNetwork<TS::Envelope> net(1);
  StoreConfig cfg;
  cfg.workers = 2;
  cfg.batch_window = 8;
  TS store(S{}, 0, net, cfg);
  store.update("seq", S::insert(0));
  (void)store.get("seq", S::read());  // cold get: promotes
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::size_t last_size = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto got = store.get("seq", S::read());
        ASSERT_FALSE(got.empty());
        // Whole prefix: max element pins the size, no gaps possible.
        ASSERT_EQ(static_cast<std::size_t>(*got.rbegin()) + 1, got.size())
            << "torn or gappy read";
        ASSERT_GE(got.size(), last_size) << "view went backwards";
        last_size = got.size();
      }
    });
  }
  for (int i = 1; i < kUpdates; ++i) {
    store.update("seq", S::insert(i));
  }
  (void)store.flush();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  // Freshness at quiescence: drained, get() == state_of() == full set.
  store.drain_until(kUpdates);
  const auto final = store.get("seq", S::read());
  EXPECT_EQ(final.size(), static_cast<std::size_t>(kUpdates));
  EXPECT_EQ(final, store.state_of("seq"));
  net.close_all();
}

TEST(ReadPathTest, HotGetsAreZeroCopyAndSnapshotsAreImmutable) {
  // The acceptance check for the zero-copy read path: every hot-key
  // get() answers from the immutable shared snapshot without copying
  // the state (published_reads moves one-for-one with the reads), and
  // the snapshot a reader holds NEVER changes — later applies publish
  // new snapshots, they don't mutate pinned ones.
  ThreadNetwork<TS::Envelope> net(1);
  StoreConfig cfg;
  cfg.workers = 2;
  cfg.batch_window = 64;
  TS store(S{}, 0, net, cfg);
  store.update("hot", S::insert(1));
  store.update("hot", S::insert(2));
  (void)store.get("hot", S::read());  // cold get: ring read, promotes
  EXPECT_EQ(store.stats().published_reads, 0u);

  const auto snap = store.try_get_snapshot("hot");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(*snap, (std::set<int>{1, 2}));

  constexpr std::uint64_t kReads = 200;
  for (std::uint64_t i = 0; i < kReads; ++i) {
    EXPECT_EQ(store.get("hot", S::read()), (std::set<int>{1, 2}));
  }
  EXPECT_EQ(store.stats().published_reads, kReads);

  // A new apply republishes: get() sees the new state through a NEW
  // snapshot object, while the pinned one still holds the old version
  // byte for byte.
  store.update("hot", S::insert(3));
  (void)store.query("hot", S::read());  // ring barrier: apply landed
  EXPECT_EQ(store.get("hot", S::read()), (std::set<int>{1, 2, 3}));
  const auto snap2 = store.try_get_snapshot("hot");
  ASSERT_NE(snap2, nullptr);
  EXPECT_NE(snap2, snap) << "republish must swap snapshots, not mutate";
  EXPECT_EQ(*snap2, (std::set<int>{1, 2, 3}));
  EXPECT_EQ(*snap, (std::set<int>{1, 2}))
      << "a pinned snapshot changed under a reader";
  net.close_all();
}

TEST(ReadPathTest, PromotionRepublishIsLinearInLiveViews) {
  // Promoting N keys republishes the key→view registry as it grows.
  // A naive copy-per-promotion is quadratic (1+2+…+N ≈ N²/2 keys
  // copied — 524k for N=1024); the geometric schedule (copy on
  // doubling, catch-up on the flush tick) keeps the total linear.
  // The 6N bound leaves slack for flush-tick catch-up publishes while
  // sitting three orders of magnitude under quadratic.
  constexpr int kN = 1024;
  ThreadNetwork<TS::Envelope> net(1);
  StoreConfig cfg;
  cfg.workers = 2;
  cfg.shard_count = 4;
  cfg.batch_window = 8;
  TS store(S{}, 0, net, cfg);
  for (int i = 0; i < kN; ++i) {
    const std::string k = "k" + std::to_string(i);
    store.update(k, S::insert(i));
    (void)store.get(k, S::read());  // cold get: promotes
  }
  std::uint64_t copied = 0, publishes = 0, published = 0;
  for (const ShardStats& s : store.shard_stats()) {
    copied += s.view_registry_keys_copied;
    publishes += s.view_registry_publishes;
    published += s.published_keys;
  }
  EXPECT_EQ(published, static_cast<std::size_t>(kN));
  EXPECT_GT(publishes, 0u);
  EXPECT_LE(copied, 6u * kN)
      << "registry republish went superlinear (" << copied
      << " keys copied for " << kN << " promotions)";
  net.close_all();
}

TEST(ReadPathTest, UnpooledGetIsQuery) {
  // workers == 1: no rings, no views — get() is exactly the wait-free
  // local query, and the pooled counters stay zero.
  ThreadNetwork<TS::Envelope> net(1);
  TS store(S{}, 0, net, StoreConfig{});
  store.update("k", S::insert(7));
  EXPECT_EQ(store.get("k", S::read()), (std::set<int>{7}));
  const StoreStats s = store.stats();
  EXPECT_EQ(s.published_reads, 0u);
  EXPECT_EQ(s.ring_reads, 0u);
  EXPECT_EQ(s.queries, 1u);
  net.close_all();
}

}  // namespace
}  // namespace ucw
