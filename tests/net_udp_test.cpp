// UdpTransport over real localhost sockets: delivery, fragmentation,
// hostile datagrams, and — the point of the whole layer — a 3-node
// in-process cluster of ThreadUcStore-over-UDP converging under
// injected loss and reorder.
//
// All tests bind ephemeral ports (two-phase setup: bind everyone on
// port 0, exchange the learned ports via set_peers) so parallel ctest
// runs never collide. The loss test mirrors examples/cluster_node.cpp:
// real datagrams are really dropped, SeqCoverage detects the seq gaps,
// auto + rotating anti-entropy repairs them, and the stores' final
// per-key states must agree exactly. The rejoin tests run a crash-restart
// over the same sockets: a rebuilt node catches up through a bootstrap
// anti-entropy round while its peers keep writing.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adt/register.hpp"
#include "store/udp_store.hpp"
#include "test_seeds.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ucw {
namespace {

using Reg = RegisterAdt<std::int64_t>;
using Transport = UdpTransport<Reg>;
using Env = Transport::Envelope;

/// Binds `n` transports on ephemeral ports and exchanges the learned
/// addresses — the in-process analogue of a launcher handing out ports.
std::vector<std::unique_ptr<Transport>> make_cluster(
    std::size_t n, const std::vector<UdpTransportOptions>& opts) {
  std::vector<std::unique_ptr<Transport>> ts;
  std::vector<UdpEndpoint> blank(n);  // all port 0
  for (std::size_t p = 0; p < n; ++p) {
    ts.push_back(std::make_unique<Transport>(static_cast<ProcessId>(p),
                                             blank, opts[p]));
    EXPECT_TRUE(ts.back()->bound());
  }
  std::vector<UdpEndpoint> real(n);
  for (std::size_t p = 0; p < n; ++p) real[p].port = ts[p]->local_port();
  for (std::size_t p = 0; p < n; ++p) {
    std::vector<UdpEndpoint> table = real;
    table[p].port = ts[p]->local_port();
    ts[p]->set_peers(std::move(table));
  }
  return ts;
}

/// Polls `inbox` until an envelope arrives or ~2s elapse.
std::optional<Env> recv_one(Transport& t, ProcessId self) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline) {
    if (auto e = t.inbox(self).try_pop()) return e;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return std::nullopt;
}

TEST(UdpTransportTest, PointToPointAndBroadcastDeliver) {
  auto ts = make_cluster(3, std::vector<UdpTransportOptions>(3));

  BatchEnvelope<Reg, std::string> payload;
  payload.kind = EnvelopeKind::kBatch;
  payload.epoch = 1;
  payload.seq = 1;
  KeyedUpdate<Reg, std::string> ku;
  ku.key = "hello";
  ku.msg.stamp = Stamp{42, 0};
  ku.msg.update = Reg::write(1234);
  payload.entries.push_back(ku);

  ts[0]->send(0, 1, payload);
  const auto got = recv_one(*ts[1], 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->from, 0u);
  ASSERT_EQ(got->payload.entries.size(), 1u);
  EXPECT_EQ(got->payload.entries[0].key, "hello");
  EXPECT_EQ(got->payload.entries[0].msg.update.value, 1234);

  ts[2]->broadcast_others(2, payload);
  EXPECT_TRUE(recv_one(*ts[0], 0).has_value());
  EXPECT_TRUE(recv_one(*ts[1], 1).has_value());
  // The broadcaster must not hear its own broadcast.
  EXPECT_EQ(ts[2]->stats().envelopes_received, 0u);

  for (auto& t : ts) t->close_all();
}

TEST(UdpTransportTest, LargeSnapshotFragmentsAndReassembles) {
  std::vector<UdpTransportOptions> opts(2);
  opts[0].max_frame_payload = 512;  // force multi-fragment messages
  opts[1].max_frame_payload = 512;
  auto ts = make_cluster(2, opts);

  BatchEnvelope<Reg, std::string> payload;
  payload.kind = EnvelopeKind::kAntiEntropyDelta;
  auto snap = std::make_shared<ShardSnapshot<Reg, std::string>>();
  snap->shard_count = 1;
  snap->donor_clock = 9;
  for (int i = 0; i < 200; ++i) {  // ~20+ fragments at 512 B each
    KeySnapshot<Reg, std::string> k;
    k.key = "snapshot-key-" + std::to_string(i);
    k.base = i;
    k.floor = static_cast<LogicalTime>(i);
    k.suffix.push_back(SnapshotLogEntry<Reg>{
        Stamp{static_cast<LogicalTime>(i), 0}, Reg::write(i * 7)});
    snap->keys.push_back(std::move(k));
  }
  payload.snapshot = snap;

  ts[0]->send(0, 1, payload);
  const auto got = recv_one(*ts[1], 1);
  ASSERT_TRUE(got.has_value());
  ASSERT_NE(got->payload.snapshot, nullptr);
  ASSERT_EQ(got->payload.snapshot->keys.size(), 200u);
  EXPECT_EQ(got->payload.snapshot->keys[137].key, "snapshot-key-137");
  EXPECT_EQ(got->payload.snapshot->keys[137].suffix[0].update.value,
            137 * 7);
  const UdpTransportStats rs = ts[1]->stats();
  EXPECT_GE(rs.reassemblies_completed, 1u);
  EXPECT_GT(rs.datagrams_received, 1u);  // really went out in pieces

  for (auto& t : ts) t->close_all();
}

TEST(UdpTransportTest, HostileDatagramsAreCountedNotCrashed) {
  auto ts = make_cluster(2, std::vector<UdpTransportOptions>(2));

  // A raw attacker socket, not part of the cluster.
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(ts[1]->local_port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &to.sin_addr), 1);

  Rng rng(ucw::test::seed_or(5));
  // Garbage bytes: no magic, short frames, truncated headers.
  for (int i = 0; i < 64; ++i) {
    std::vector<std::uint8_t> junk(
        static_cast<std::size_t>(rng.uniform_int(0, 100)));
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    (void)::sendto(fd, junk.data(), junk.size(), 0,
                   reinterpret_cast<sockaddr*>(&to), sizeof(to));
  }
  // A well-framed datagram claiming a sender outside the peer table.
  {
    std::vector<std::uint8_t> payload = {1, 2, 3};
    std::vector<std::vector<std::uint8_t>> frames;
    wire::encode_frames(payload.data(), payload.size(), /*sender=*/7,
                        /*msg_id=*/1, &frames);
    (void)::sendto(fd, frames[0].data(), frames[0].size(), 0,
                   reinterpret_cast<sockaddr*>(&to), sizeof(to));
  }
  ::close(fd);

  // A legitimate envelope must still get through afterwards.
  BatchEnvelope<Reg, std::string> ok;
  ok.kind = EnvelopeKind::kBatch;
  ok.ack_clock = 3;
  ts[0]->send(0, 1, ok);
  ASSERT_TRUE(recv_one(*ts[1], 1).has_value());

  const UdpTransportStats s = ts[1]->stats();
  EXPECT_GE(s.frames_rejected, 1u);
  EXPECT_GE(s.bad_sender, 1u);
  EXPECT_EQ(s.envelopes_received, 1u);  // only the legitimate one queued

  for (auto& t : ts) t->close_all();
}

// ------------------------------------------- stores over lossy sockets

/// Drains a set of UDP-backed stores until their keyspace views agree
/// and stabilize, mirroring cluster_node's protocol: poll+flush drives
/// gap-triggered anti-entropy; rotating explicit rounds catch tail
/// losses (dropped stream suffixes leave no seq gap to detect).
template <typename Store>
bool drain_until_converged(std::vector<std::unique_ptr<Store>>& stores,
                           std::size_t keys, int max_iters) {
  const std::size_t n = stores.size();
  int stable = 0;
  std::vector<std::int64_t> last;
  for (int iter = 0; iter < max_iters; ++iter) {
    for (auto& s : stores) {
      (void)s->poll();
      (void)s->flush();
    }
    bool gapped = false;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = 0; q < n; ++q) {
        gapped = gapped || (q != p && stores[p]->stream_gapped(
                                          static_cast<ProcessId>(q)));
      }
    }
    if (iter % 20 == 19) {
      for (std::size_t p = 0; p < n; ++p) {
        std::size_t peer = (p + 1 + static_cast<std::size_t>(iter) / 20) % n;
        if (peer == p) peer = (p + 1) % n;
        (void)stores[p]->anti_entropy_round(static_cast<ProcessId>(peer),
                                            /*reciprocate=*/true);
      }
    }
    std::vector<std::int64_t> now;
    now.reserve(n * keys);
    bool agree = true;
    for (std::size_t k = 0; k < keys; ++k) {
      const std::string key = "k" + std::to_string(k);
      const std::int64_t v0 = stores[0]->state_of(key);
      now.push_back(v0);
      for (std::size_t p = 1; p < n; ++p) {
        const std::int64_t vp = stores[p]->state_of(key);
        now.push_back(vp);
        agree = agree && vp == v0;
      }
    }
    bool pending = false;
    for (auto& s : stores) pending = pending || s->pending() != 0;
    stable = (agree && !gapped && !pending && now == last) ? stable + 1 : 0;
    last = std::move(now);
    if (stable >= 5) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

struct LossRunOutcome {
  std::uint64_t drops = 0;
  std::uint64_t reorders = 0;
  std::uint64_t gaps = 0;
  std::uint64_t ae_completed = 0;
  std::uint64_t installed_or_skipped = 0;
  bool converged = false;
};

/// One full load+drain run of a 3-node UDP store cluster with the given
/// sender-side fault rates. Convergence requires gap-free streams, so a
/// run that really lost a datagram cannot finish without repairing it.
LossRunOutcome run_lossy_cluster(std::uint64_t seed, double drop,
                                 double reorder) {
  using Store = UdpUcStore<Reg>;
  constexpr std::size_t kN = 3;
  constexpr std::size_t kKeys = 12;
  constexpr std::size_t kOps = 90;

  std::vector<UdpTransportOptions> topts(kN);
  for (std::size_t p = 0; p < kN; ++p) {
    topts[p].drop = drop;
    topts[p].reorder = reorder;
    topts[p].fault_seed = splitmix64(seed ^ (0xFA110ULL + p));
  }
  auto nets = make_cluster(kN, topts);

  StoreConfig cfg;
  cfg.batch_window = 4;
  cfg.gc = true;
  cfg.auto_anti_entropy = true;
  std::vector<std::unique_ptr<Store>> stores;
  for (std::size_t p = 0; p < kN; ++p) {
    stores.push_back(std::make_unique<Store>(
        Reg{}, static_cast<ProcessId>(p), *nets[p], cfg));
  }

  // Seeded interleaved load: the frontends are driven single-threaded;
  // the *receiver threads* are the concurrent part.
  Rng rng(seed);
  for (std::size_t i = 0; i < kOps; ++i) {
    for (std::size_t p = 0; p < kN; ++p) {
      const std::string key = "k" + std::to_string(rng.uniform_int(
                                        0, static_cast<int>(kKeys) - 1));
      const std::int64_t value =
          static_cast<std::int64_t>(p + 1) * 1000000 +
          static_cast<std::int64_t>(i);
      (void)stores[p]->update(key, Reg::write(value));
    }
    if (i % 8 == 7) {
      for (auto& s : stores) (void)s->flush();
    }
  }
  for (auto& s : stores) (void)s->flush();

  LossRunOutcome out;
  out.converged = drain_until_converged(stores, kKeys, /*max_iters=*/4000);
  for (std::size_t p = 0; p < kN; ++p) {
    out.drops += nets[p]->stats().injected_drops;
    out.reorders += nets[p]->stats().injected_reorders;
    const StoreStats ss = stores[p]->stats();
    out.gaps += ss.stream_gaps_detected;
    out.ae_completed += ss.ae_rounds_completed;
    out.installed_or_skipped += ss.ae_entries_installed +
                               ss.ae_snapshots_installed +
                               ss.ae_entries_skipped_covered;
  }
  for (auto& n : nets) n->close_all();
  return out;
}

TEST(UdpStoreTest, ThreeNodesRepairRealLossViaAntiEntropy) {
  // Drop-only arm: every detected gap is a real lost datagram (no
  // reordering to transiently fake one), and UDP never retransmits —
  // so the only way the cluster can reach a gap-free converged state
  // is through anti-entropy. 10% drop over hundreds of datagrams makes
  // real mid-stream loss certain for the pinned seeds.
  const auto seeds = ucw::test::property_seeds({3, 17});
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE(ucw::test::seed_trace(seed));
    const LossRunOutcome out =
        run_lossy_cluster(seed, /*drop=*/0.10, /*reorder=*/0.0);
    ASSERT_TRUE(out.converged)
        << "stores did not converge under drop=0.10";
    EXPECT_GT(out.drops, 0u)
        << "fault injection never fired — test is vacuous";
    EXPECT_GT(out.gaps, 0u)
        << "10% loss but SeqCoverage never saw a gap";
    EXPECT_GT(out.ae_completed, 0u)
        << "gaps were repaired without anti-entropy?";
    EXPECT_GT(out.installed_or_skipped, 0u)
        << "anti-entropy completed but exchanged nothing";
  }
}

TEST(UdpStoreTest, ThreeNodesConvergeUnderLossAndReorder) {
  // Combined-faults arm: drops and adjacent-pair inversions together.
  // Reorder-induced gaps may self-heal on arrival, so only convergence
  // and non-vacuous injection are asserted here; the repair-path
  // assertions live in the drop-only arm above.
  const auto seeds = ucw::test::property_seeds({5, 23});
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE(ucw::test::seed_trace(seed));
    const LossRunOutcome out =
        run_lossy_cluster(seed, /*drop=*/0.05, /*reorder=*/0.05);
    ASSERT_TRUE(out.converged)
        << "stores did not converge under drop=0.05 reorder=0.05";
    EXPECT_GT(out.drops + out.reorders, 0u)
        << "fault injection never fired — test is vacuous";
  }
}

TEST(UdpStoreTest, CleanWireUsesNoRepair) {
  // No loss, in-order localhost delivery: the repair path must stay
  // idle. Unpooled, one owner thread writes. Pooled, two client threads
  // write at once, so both workers' batch flushes and the flush-time
  // ack heartbeat share node 0's (epoch, seq) stream; the stream must
  // still leave in seq order, or node 1 counts a gap that no loss
  // caused (and mutes the stream's acks until a repair round).
  using Store = UdpUcStore<Reg>;
  constexpr std::size_t kN = 2;
  constexpr int kRounds = 10;
  constexpr int kOpsPerClient = 2'000;
  constexpr int kKeys = 64;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    const std::size_t clients = workers;  // unpooled: one owner thread
    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " round=" + std::to_string(round));
      auto nets = make_cluster(kN, std::vector<UdpTransportOptions>(kN));
      StoreConfig cfg;
      cfg.batch_window = 1;  // ship every update immediately
      cfg.gc = true;         // flushes also send ack heartbeats
      cfg.workers = workers;
      std::vector<std::unique_ptr<Store>> stores;
      for (std::size_t p = 0; p < kN; ++p) {
        stores.push_back(std::make_unique<Store>(
            Reg{}, static_cast<ProcessId>(p), *nets[p], cfg));
      }
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          for (int i = 0; i < kOpsPerClient; ++i) {
            (void)stores[0]->update(
                "k" + std::to_string(i % kKeys),
                Reg::write(static_cast<std::int64_t>(c) * kOpsPerClient + i));
            if (i % 64 == 63) {
              (void)stores[0]->flush();
              // Paced bursts: stay well inside the peer's socket receive
              // buffer, so the kernel never drops (this is a clean wire).
              std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
          }
          (void)stores[0]->flush();
        });
      }
      for (auto& t : threads) t.join();
      const std::uint64_t total = clients * kOpsPerClient;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (stores[1]->applied_entries() < total &&
             std::chrono::steady_clock::now() < deadline) {
        (void)stores[1]->poll();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ASSERT_EQ(stores[1]->applied_entries(), total)
          << "datagrams sent " << nets[0]->stats().datagrams_sent
          << ", received " << nets[1]->stats().datagrams_received;
      for (int k = 0; k < kKeys; ++k) {
        const std::string key = "k" + std::to_string(k);
        EXPECT_EQ(stores[1]->state_of(key), stores[0]->state_of(key)) << key;
      }
      EXPECT_EQ(stores[1]->stats().stream_gaps_detected, 0u);
      for (auto& n : nets) n->close_all();
    }
  }
}

// ------------------------------------------ crash-restart over the wire

/// One rejoin run: three nodes write and drain, node 2's store and
/// transport are destroyed and rebuilt on the same port under a new
/// epoch, and node 2 catches up from node 0 while nodes 0 and 1 keep
/// writing. Asserts as it goes; `*drops` reports the injected losses.
void run_udp_rejoin(std::uint64_t seed, double drop, std::uint64_t* drops) {
  using Store = UdpUcStore<Reg>;
  constexpr std::size_t kN = 3;
  constexpr std::size_t kKeys = 12;

  std::vector<UdpTransportOptions> topts(kN);
  for (std::size_t p = 0; p < kN; ++p) {
    topts[p].drop = drop;
    topts[p].fault_seed = splitmix64(seed ^ (0x4E501ULL + p));
  }
  auto nets = make_cluster(kN, topts);

  StoreConfig cfg;
  cfg.batch_window = 4;
  cfg.gc = true;
  cfg.auto_anti_entropy = true;
  std::vector<std::unique_ptr<Store>> stores;
  for (std::size_t p = 0; p < kN; ++p) {
    stores.push_back(std::make_unique<Store>(
        Reg{}, static_cast<ProcessId>(p), *nets[p], cfg));
  }
  Rng rng(seed);
  std::int64_t tick = 0;
  const auto write = [&](std::size_t p) {
    const std::string key = "k" + std::to_string(rng.uniform_int(
                                      0, static_cast<int>(kKeys) - 1));
    (void)stores[p]->update(
        key, Reg::write(static_cast<std::int64_t>(p + 1) * 1000000 + ++tick));
  };
  for (int i = 0; i < 40; ++i) {
    for (std::size_t p = 0; p < kN; ++p) write(p);
    if (i % 8 == 7) {
      for (auto& s : stores) (void)s->flush();
    }
  }
  ASSERT_TRUE(drain_until_converged(stores, kKeys, /*max_iters=*/4000))
      << "no convergence before the restart";

  // Crash node 2 and bring it back on the same port, next incarnation.
  std::vector<UdpEndpoint> table(kN);
  for (std::size_t p = 0; p < kN; ++p) table[p].port = nets[p]->local_port();
  stores[2].reset();
  nets[2]->close_all();
  nets[2].reset();
  topts[2].epoch = 2;
  nets[2] = std::make_unique<Transport>(2, table, topts[2]);
  ASSERT_TRUE(nets[2]->bound()) << "port " << table[2].port << " taken";
  stores[2] = std::make_unique<Store>(Reg{}, 2, *nets[2], cfg);

  ASSERT_TRUE(stores[2]->request_sync(0));
  EXPECT_TRUE(stores[2]->bootstrapping());
  EXPECT_TRUE(stores[2]->bootstrap_open());
  // A fresh incarnation's clock would reuse pre-crash stamps.
  EXPECT_THROW((void)stores[2]->update("k0", Reg::write(-1)), contract_error);

  // Nodes 0 and 1 keep writing until the first install re-bases node
  // 2's clock, then node 2 writes too.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (stores[2]->bootstrapping() &&
         std::chrono::steady_clock::now() < deadline) {
    write(0);
    write(1);
    for (auto& s : stores) {
      (void)s->poll();
      (void)s->flush();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_FALSE(stores[2]->bootstrapping()) << "no install within 20 s";
  for (int i = 0; i < 30; ++i) {
    for (std::size_t p = 0; p < kN; ++p) write(p);
    for (auto& s : stores) {
      (void)s->poll();
      (void)s->flush();
    }
  }
  ASSERT_TRUE(drain_until_converged(stores, kKeys, /*max_iters=*/4000))
      << "rejoined node did not converge";
  EXPECT_FALSE(stores[2]->bootstrap_open());
  const StoreStats joiner = stores[2]->stats();
  EXPECT_GE(joiner.ae_rounds_completed, 1u);
  EXPECT_GT(joiner.ae_snapshots_installed, 0u);
  EXPECT_GT(stores[0]->stats().ae_rounds_served, 0u);
  for (auto& n : nets) {
    n->close_all();
    *drops += n->stats().injected_drops;
  }
}

TEST(UdpStoreTest, RestartedNodeRejoinsOverCleanWire) {
  const auto seeds = ucw::test::property_seeds({41});
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE(ucw::test::seed_trace(seed));
    std::uint64_t drops = 0;
    run_udp_rejoin(seed, /*drop=*/0.0, &drops);
    EXPECT_EQ(drops, 0u);
  }
}

TEST(UdpStoreTest, RestartedNodeRejoinsUnderLoss) {
  // 2% drop hits the bootstrap exchange too: a lost request or delta
  // stalls the round into a retry (possibly to node 1), and a lost live
  // envelope shows up as a gap the round must prove or re-request.
  const auto seeds = ucw::test::property_seeds({43, 47});
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE(ucw::test::seed_trace(seed));
    std::uint64_t drops = 0;
    run_udp_rejoin(seed, /*drop=*/0.02, &drops);
    EXPECT_GT(drops, 0u) << "fault injection never fired — test is vacuous";
  }
}

}  // namespace
}  // namespace ucw
