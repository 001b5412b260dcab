// E12 — Anti-entropy: heal-reconciliation cost vs partition duration.
//
// Sweeps how long a {0,1} / {2,3} split stays open on a fixed 500-key
// zipfian keyspace with both sides writing throughout, then heals and
// lets the anti-entropy machinery (heal-time representative pulls plus
// the flush-tick gap-triggered rounds) reconcile. Donors serve delta
// snapshots against the requesters' echoed markers. The headline
// columns: entries/bytes served by anti-entropy donors grow with the
// *divergence* (partition duration), and the "keys skipped" column is
// the wire traffic the dirty-sets saved over re-shipping every shard.
// Reconciliation cost is what a capacity planner needs to budget for a
// heal storm; the delta codec is what keeps it proportional to the
// split, not the store.
#include "bench_common.hpp"

#include <chrono>

#include "runtime/store_harness.hpp"
#include "store/all.hpp"

namespace {

using namespace ucw;
using S = SetAdt<int>;

struct SweepResult {
  StoreRunOutput<S> out;
  double wall_seconds = 0.0;
};

SweepResult run_point(SimTime split_duration) {
  StoreRunConfig cfg;
  cfg.n_processes = 4;
  cfg.seed = 19;
  cfg.fifo_links = true;
  cfg.n_keys = 500;
  cfg.skew = 0.99;
  cfg.ops_per_process = 1'500;
  cfg.update_ratio = 1.0;
  cfg.think_time = LatencyModel::exponential(100.0);
  cfg.store.batch_window = 8;
  cfg.store.gc = true;
  cfg.flush_period = 1'000.0;
  // Expected span ~150ms of virtual time; split opens at 20% and stays
  // open for the swept duration (both sides keep writing throughout).
  const SimTime split_at = 30'000.0;
  cfg.partitions = {
      PartitionPlan{split_at, {0, 0, 1, 1}},
      PartitionPlan{split_at + split_duration, {0, 0, 0, 0}},
  };
  const auto t0 = std::chrono::steady_clock::now();
  SweepResult r;
  r.out = run_store_simulation(S{}, cfg, [](Rng& rng) {
    WorkloadConfig w;
    w.value_range = 64;
    return random_set_update(rng, w);
  });
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

void print_tables() {
  print_banner(std::cout,
               "E12: heal reconciliation vs partition duration (4 procs, "
               "500-key zipf 0.99, window 8, flush tick 1ms, split at "
               "30ms)");
  TextTable t({"split (virtual ms)", "dropped msgs", "ae rounds",
               "ae entries out", "ae bytes out", "keys served",
               "keys skipped", "converged", "wall s"});
  SweepResult longest;
  for (const SimTime duration : {10'000.0, 40'000.0, 80'000.0}) {
    SweepResult r = run_point(duration);
    std::uint64_t rounds = 0, entries = 0, bytes = 0, served = 0,
                  skipped = 0;
    for (const auto& s : r.out.store_stats) {
      rounds += s.ae_rounds_completed;
      entries += s.ae_entries_served;
      bytes += s.ae_bytes_served;
      served += s.snapshot_keys_served;
      skipped += s.snapshot_keys_skipped_delta;
    }
    t.add(duration / 1'000.0, r.out.net.messages_dropped_partition, rounds,
          entries, bytes, served, skipped, r.out.converged ? "yes" : "NO",
          r.wall_seconds);
    longest = std::move(r);
  }
  t.print(std::cout);
  std::cout << "\nDonors ship only the keys whose logs advanced since each "
               "requester's last install ('keys skipped' never hit the "
               "wire), so the heal cost tracks the split duration rather "
               "than the size of the keyspace.\n\n";

  print_banner(std::cout, "E12b: observability report (longest split)");
  obs::print_observability(std::cout, longest.out.report);
}

// Microbench: donor-side cost of cutting one shard's snapshot at
// varying dirty fractions — the serve-side win of the dirty-set: a
// delta encode touches every key's mark but copies only the dirty ones.
void BM_EncodeDeltaSnapshot(benchmark::State& state) {
  constexpr std::size_t kKeys = 4'096;
  const auto dirty_pct = static_cast<std::size_t>(state.range(0));
  StoreConfig cfg;
  cfg.shard_count = 1;
  ReplayReplica<S>::Config rep_cfg;
  rep_cfg.absorb_below_floor = true;
  ShardEngine<S> engine(S{}, 0, 0, cfg, rep_cfg);
  LogicalTime clock = 0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    const std::string key = ZipfianKeys::key_name(k);
    for (int i = 0; i < 4; ++i) {
      (void)engine.apply_remote(
          1, key,
          UpdateMessage<S>{{++clock, 1}, S::insert(i)});
    }
  }
  // Baseline marker, then re-dirty the requested fraction.
  const std::uint64_t since = engine.dirty_marker();
  for (std::size_t k = 0; k < kKeys * dirty_pct / 100; ++k) {
    (void)engine.apply_remote(
        1, ZipfianKeys::key_name(k),
        UpdateMessage<S>{{++clock, 1}, S::insert(99)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.encode_snapshot(1, since));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKeys));
}
BENCHMARK(BM_EncodeDeltaSnapshot)->Arg(0)->Arg(5)->Arg(25)->Arg(100);

}  // namespace

UCW_BENCH_MAIN(print_tables)
