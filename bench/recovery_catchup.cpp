// E11 — Recovery: catch-up cost scales with live state, not history.
//
// Sweeps history length on a fixed 1000-key zipfian keyspace and, for
// each history, crashes a replica mid-run and rejoins it near the end.
// With store-level GC + snapshot shipping the rejoin transfers the
// per-key base states plus the *unstable suffix* (bounded by the
// stability-floor lag — a few flush ticks of traffic), so the
// "catch-up entries" column stays flat as history grows. The control
// (GC off) replays the donor's entire resident logs: its column grows
// linearly with history, exactly the O(history) rejoin the recovery
// subsystem exists to remove. The resident-log columns show the same
// asymmetry cluster-wide (bounded unstable window vs full history per
// replica).
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

SweepResult run_point(std::size_t ops_per_process, bool gc) {
  StoreRunConfig cfg;
  cfg.n_processes = 4;
  cfg.seed = 7;
  cfg.fifo_links = true;
  cfg.n_keys = 1000;
  cfg.skew = 0.99;
  cfg.ops_per_process = ops_per_process;
  cfg.update_ratio = 1.0;
  cfg.think_time = LatencyModel::exponential(100.0);
  cfg.store.batch_window = 8;
  cfg.store.gc = gc;
  cfg.flush_period = 1'000.0;
  // Crash at ~60% of the expected run, rejoin at ~80%: the joiner must
  // cover the full pre-crash history plus everything it slept through.
  const SimTime span = static_cast<SimTime>(ops_per_process) * 115.0;
  cfg.crashes = {CrashPlan{3, 0.6 * span}};
  cfg.restarts = {RestartPlan{3, 0.8 * span, /*resume_ops=*/40}};
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
               "E11: crash-restart catch-up vs history length (4 procs, "
               "1000-key zipf 0.99, window 8, flush tick 1ms)");
  TextTable t({"history (updates)", "mode", "catchup entries",
               "deltas in", "rounds", "resident log (alive)",
               "converged", "wall s"});
  SweepResult largest_gc;  // reused for E11b: the sweep already ran it
  for (std::size_t ops : {250u, 1'000u, 4'000u}) {
    for (const bool gc : {true, false}) {
      SweepResult r = run_point(ops, gc);
      const StoreStats& joiner = r.out.store_stats[3];
      t.add(r.out.total_updates, gc ? "gc+snapshot" : "full-replay",
            joiner.ae_entries_installed, joiner.ae_snapshots_installed,
            joiner.ae_rounds_started, r.out.log_entries_resident,
            r.out.converged ? "yes" : "NO", r.wall_seconds);
      if (gc) largest_gc = std::move(r);
    }
  }
  t.print(std::cout);
  std::cout << "\nWith GC on, catch-up ships per-key bases plus the "
               "unstable suffix (floor lag), so 'catchup entries' stays "
               "flat while history grows 16x; the full-replay control "
               "grows linearly. Resident logs show the same bound in "
               "steady state.\n\n";

  // The observability surface on the largest GC'd run from the sweep
  // above: one entry point renders every table the counters justify
  // (store, recovery activity, losses) instead of hand-picking.
  print_banner(std::cout, "E11b: observability report (largest gc run)");
  obs::print_observability(std::cout, largest_gc.out.report);
}

// Microbench: encoding one shard's snapshot (the donor-side cost of a
// repair round) at varying live-key counts.
void BM_EncodeShardSnapshot(benchmark::State& state) {
  const auto n_keys = static_cast<std::size_t>(state.range(0));
  ReplayReplica<S>::Config rep_cfg;
  rep_cfg.absorb_below_floor = true;
  StoreShard<S> shard(S{}, 0, rep_cfg);
  Rng rng(11);
  for (std::size_t k = 0; k < n_keys; ++k) {
    const std::string key = ZipfianKeys::key_name(k);
    for (int i = 0; i < 4; ++i) {
      shard.replica(key).apply(
          1, UpdateMessage<S>{{static_cast<LogicalTime>(4 * k + i + 1), 1},
                              S::insert(i)});
    }
    // Fold half of each key's entries so the snapshot ships base+suffix.
    (void)shard.replica(key).fold_to(4 * k + 2);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_shard_snapshot(shard, 0, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n_keys));
}
BENCHMARK(BM_EncodeShardSnapshot)->Arg(100)->Arg(1'000)->Arg(10'000);

// Microbench: the walk collect_garbage() pays whenever the stability
// floor advances — pushing a (here already-folded) floor through every
// live replica of the keyspace. The entries were folded in setup, so
// this prices the sweep itself, the recurring per-advance component;
// the no-advance tick is a cached floor comparison and costs nothing.
void BM_StoreGcSweep(benchmark::State& state) {
  const auto n_keys = static_cast<std::size_t>(state.range(0));
  SimScheduler scheduler;
  SimNetwork<SimUcStore<S>::Envelope>::Config net_cfg;
  net_cfg.n_processes = 2;
  net_cfg.latency = LatencyModel::constant(10.0);
  net_cfg.fifo_links = true;
  SimNetwork<SimUcStore<S>::Envelope> net(scheduler, net_cfg);
  StoreConfig cfg;
  cfg.gc = true;
  cfg.batch_window = 64;
  SimUcStore<S> store(S{}, 0, net, cfg);
  SimUcStore<S> peer(S{}, 1, net, cfg);
  for (std::size_t k = 0; k < n_keys; ++k) {
    store.update(ZipfianKeys::key_name(k), S::insert(static_cast<int>(k)));
  }
  (void)store.flush();
  scheduler.run();
  (void)peer.flush();  // ack heartbeat back to the updater
  scheduler.run();
  (void)store.flush();  // hears the ack; folds everything stable
  const LogicalTime floor = store.stats().stability_floor;
  for (auto _ : state) {
    std::size_t folded = 0;
    for (std::size_t i = 0; i < store.shard_count(); ++i) {
      store.shard(i).for_each([&](const std::string&, ReplayReplica<S>& r) {
        folded += r.fold_to(floor);
      });
    }
    benchmark::DoNotOptimize(folded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n_keys));
}
BENCHMARK(BM_StoreGcSweep)->Arg(100)->Arg(1'000)->Arg(10'000);

}  // namespace

UCW_BENCH_MAIN(print_tables)
