// E10 — UCStore throughput: what batching buys over one-broadcast-per-
// update on a multi-key workload.
//
// Sweeps key-count × batch-window × replica-count on a zipfian keyed
// set workload and reports, against the unbatched baseline (window 1):
// broadcasts per update, point-to-point messages per update, estimated
// wire bytes per update, mean batch occupancy, and wall-clock ops/sec
// of the whole simulated cluster. The acceptance bar for the subsystem
// is a ≥ 2x broadcast reduction at window ≥ 4 on the 1000-key workload;
// the table shows the measured factor explicitly.
//
// E10b — worker-pool scaling: the same store on the thread transport
// with its shard engines spread across a worker pool (`--workers=` to
// choose the sweep points, default 1,2,4,8). Each process's owner
// thread issues a zipfian counter workload through the pooled API while
// remote entries are delivered straight into the owning workers'
// inboxes; the table reports cluster ops/sec and the speedup over the
// 1-worker single-owner store.
// The speedup needs real cores: on a 1-core host the sweep degenerates
// to context-switch overhead (the table prints the detected core count
// so the numbers read honestly).
//
// E10c — multi-producer frontend scaling: workers fixed at 4, client
// threads per store swept (`--producers=`, default 1,2,4). The MPSC
// rings and the atomic clock admit concurrent producers with no lock
// on the update path; the table reports cluster ops/sec and the
// speedup over the 1-producer point (same real-cores caveat).
//
// E10d — read-path latency: one hot key, `get()` answered from its
// seqlock-published view versus `query()` riding the worker ring round
// trip, reported as a latency histogram (p50/p90/p99/max). The
// published read never enqueues on a ring and never parks behind a
// worker tick — the histogram is the wait-free-read claim in numbers.
// E10e — tracing overhead: the E10b 4-worker point run tracing-off and
// tracing-on (default 1-in-16 sampling); the table prints the measured
// overhead against the < 5% acceptance budget, and `--trace-out=` /
// `--metrics-out=` export the tracing run's Chrome trace and metrics
// snapshot (the artifacts the CI smoke step validates).
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <thread>

#include "runtime/store_harness.hpp"

namespace {

using namespace ucw;
using S = SetAdt<int>;

struct SweepResult {
  StoreRunOutput<S> out;
  double wall_seconds = 0.0;
};

SweepResult run_point(std::size_t n_keys, std::size_t window,
                      std::size_t replicas, std::size_t ops_per_process) {
  StoreRunConfig cfg;
  cfg.n_processes = replicas;
  cfg.seed = 42;
  cfg.n_keys = n_keys;
  cfg.skew = 0.99;
  cfg.ops_per_process = ops_per_process;
  cfg.update_ratio = 0.9;
  cfg.think_time = LatencyModel::exponential(200.0);
  cfg.store.batch_window = window;
  cfg.flush_period = 2'000.0;  // per-tick envelope for stragglers
  const auto t0 = std::chrono::steady_clock::now();
  SweepResult r;
  r.out = run_store_simulation(S{}, cfg, [&](Rng& rng) {
    WorkloadConfig w;
    w.value_range = 64;
    return random_set_update(rng, w);
  });
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return r;
}

void print_tables() {
  print_banner(std::cout,
               "E10: UCStore batching sweep (zipf 0.99, 90% updates, "
               "exp(1ms) latency, flush tick 2ms)");
  TextTable t({"keys", "replicas", "window", "bcast/op", "p2p msgs/op",
               "bytes/op (est)", "occupancy", "reduction vs w=1",
               "ops/sec (wall)", "converged"});
  for (std::size_t n_keys : {10u, 100u, 1000u}) {
    for (std::size_t replicas : {4u, 8u}) {
      double baseline_bcast_per_op = 0.0;
      for (std::size_t window : {1u, 4u, 16u, 64u}) {
        const std::size_t ops_per_process = n_keys >= 1000 ? 250 : 125;
        const SweepResult r =
            run_point(n_keys, window, replicas, ops_per_process);
        const auto& out = r.out;
        const double ops = static_cast<double>(out.total_updates);
        const double bcast_per_op =
            ops > 0 ? static_cast<double>(out.net.broadcasts) / ops : 0.0;
        if (window == 1) baseline_bcast_per_op = bcast_per_op;
        // Aggregate occupancy, not a mean of per-process ratios (which
        // would understate it when a process sent little or nothing).
        StoreStats total;
        for (const auto& ss : out.store_stats) {
          total.bytes_batched += ss.bytes_batched;
          total.entries_sent += ss.entries_sent;
          total.envelopes_sent += ss.envelopes_sent;
        }
        const std::uint64_t bytes = total.bytes_batched;
        const double occupancy = total.batch_occupancy();
        const double total_ops =
            static_cast<double>(out.total_updates + out.total_queries);
        t.add(n_keys, replicas, window, bcast_per_op,
              ops > 0 ? static_cast<double>(out.net.messages_sent) / ops
                      : 0.0,
              ops > 0 ? static_cast<double>(bytes) / ops : 0.0, occupancy,
              bcast_per_op > 0 ? baseline_bcast_per_op / bcast_per_op : 0.0,
              r.wall_seconds > 0 ? total_ops / r.wall_seconds : 0.0,
              out.converged ? "yes" : "NO");
      }
    }
  }
  t.print(std::cout);
  std::cout << "\nWindow w cuts broadcasts/op toward 1/w (the flush tick "
               "ships partial batches, so the measured factor is slightly "
               "below w at low op rates); p2p messages and frame bytes "
               "shrink by the same factor. Per-key arbitration stamps are "
               "assigned at update() time, so every window converges to "
               "the same per-key semantics.\n";
}

// E10b: one point of the worker-pool scaling sweep. Two processes on
// the thread transport, each with `workers` engine-owning workers; the
// two owner threads issue the keyed workload concurrently, then drain.
struct PoolPoint {
  std::uint64_t total_updates = 0;
  double wall_seconds = 0.0;
  bool converged = false;
};

PoolPoint run_pool_point(std::size_t workers, std::size_t ops_per_process,
                         std::size_t producers = 1, bool tracing = false,
                         const std::string& trace_out = {},
                         const std::string& metrics_out = {}) {
  using C = CounterAdt;
  using TC = ThreadUcStore<C>;
  constexpr std::size_t kProcs = 2;
  constexpr std::size_t kKeys = 512;
  ThreadNetwork<TC::Envelope> net(kProcs);
  StoreConfig cfg;
  cfg.workers = workers;
  cfg.batch_window = 32;
  cfg.shard_count = 16;
  std::vector<std::unique_ptr<obs::Tracer>> tracers;
  std::vector<std::unique_ptr<TC>> stores;
  for (ProcessId p = 0; p < kProcs; ++p) {
    StoreConfig sc = cfg;
    if (tracing) {
      tracers.push_back(std::make_unique<obs::Tracer>(
          static_cast<std::uint32_t>(p), /*tracks=*/workers + 1));
      sc.tracing = true;
      sc.tracer = tracers.back().get();
    }
    stores.push_back(std::make_unique<TC>(C{}, p, net, sc));
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> owners;
  for (ProcessId p = 0; p < kProcs; ++p) {
    // `producers` client threads split each process's ops — the
    // multi-producer frontend (MPSC rings + concurrent stamping).
    for (std::size_t c = 0; c < producers; ++c) {
      owners.emplace_back([&, p, c] {
        ZipfianKeys keyspace(kKeys, 0.99);
        Rng rng(40 + p * 31 + c);
        const std::size_t share =
            ops_per_process / producers +
            (c < ops_per_process % producers ? 1 : 0);
        for (std::size_t i = 0; i < share; ++i) {
          stores[p]->update(keyspace.sample(rng), C::add(1));
        }
        stores[p]->flush();
      });
    }
  }
  for (auto& t : owners) t.join();
  const std::uint64_t total = kProcs * ops_per_process;
  for (auto& s : stores) s->drain_until(total);
  PoolPoint r;
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  r.total_updates = total;
  r.converged = true;
  std::int64_t sum0 = 0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    const std::string key = ZipfianKeys::key_name(k);
    sum0 += stores[0]->state_of(key);
    if (stores[1]->state_of(key) != stores[0]->state_of(key)) {
      r.converged = false;
    }
  }
  if (sum0 != static_cast<std::int64_t>(total)) r.converged = false;
  if (tracing && (!trace_out.empty() || !metrics_out.empty())) {
    // Post-drain, post-timing: the artifact export never sits inside
    // the measured window.
    obs::Report report;
    for (const auto& s : stores) {
      report.processes.push_back(obs::make_process_report(*s));
    }
    if (!metrics_out.empty()) {
      std::ofstream f(metrics_out);
      obs::export_metrics_json(f, report);
    }
    if (!trace_out.empty()) {
      std::vector<const obs::Tracer*> views;
      for (const auto& t : tracers) views.push_back(t.get());
      std::ofstream f(trace_out);
      obs::write_chrome_trace(f, views);
    }
  }
  net.close_all();
  return r;
}

/// Returns false when any sweep point diverged, so the CI smoke step
/// actually fails on a pooled-convergence regression.
bool print_worker_pool_sweep(const std::vector<std::size_t>& worker_counts,
                             std::size_t ops_per_process) {
  print_banner(std::cout,
               "E10b: ThreadUcStore worker-pool scaling (2 processes, "
               "zipf 0.99 over 512 keys, window 32, counter adds)");
  std::cout << "hardware threads detected: "
            << std::thread::hardware_concurrency()
            << " (speedup needs >= workers real cores)\n";
  // The baseline is the sweep's first point (the default sweep starts
  // at 1 worker, so "vs first" is "vs the single-owner store" there).
  TextTable t({"workers", "threads/proc", "updates", "wall ms", "ops/sec",
               "speedup vs first", "converged"});
  double base_ops_per_sec = 0.0;
  bool all_converged = true;
  for (std::size_t w : worker_counts) {
    const PoolPoint r = run_pool_point(w, ops_per_process);
    all_converged = all_converged && r.converged;
    const double ops_per_sec =
        r.wall_seconds > 0
            ? static_cast<double>(r.total_updates) / r.wall_seconds
            : 0.0;
    if (base_ops_per_sec == 0.0) base_ops_per_sec = ops_per_sec;
    t.add(w, w == 1 ? 1 : w + 1, r.total_updates, r.wall_seconds * 1e3,
          ops_per_sec,
          base_ops_per_sec > 0 ? ops_per_sec / base_ops_per_sec : 0.0,
          r.converged ? "yes" : "NO");
  }
  t.print(std::cout);
  std::cout << "\nShards never coordinate (update consistency needs no "
               "cross-key arbitration), so engine ownership spreads "
               "across workers with no locks on the update path: client "
               "threads stamp from the atomic store clock and hand off "
               "over MPSC rings; each worker batches and broadcasts its "
               "own engines.\n";
  return all_converged;
}

/// E10c: client threads swept at a fixed 4-worker pool. Returns false
/// when any point diverged (CI smoke fails on it).
bool print_producer_sweep(const std::vector<std::size_t>& producer_counts,
                          std::size_t ops_per_process) {
  constexpr std::size_t kWorkers = 4;
  print_banner(std::cout,
               "E10c: ThreadUcStore multi-producer scaling (2 processes, "
               "4 workers each, zipf 0.99 over 512 keys, window 32, "
               "counter adds)");
  std::cout << "hardware threads detected: "
            << std::thread::hardware_concurrency()
            << " (speedup needs >= producers + workers real cores)\n";
  TextTable t({"producers", "threads/proc", "updates", "wall ms",
               "ops/sec", "speedup vs first", "converged"});
  double base_ops_per_sec = 0.0;
  bool all_converged = true;
  for (std::size_t c : producer_counts) {
    const PoolPoint r = run_pool_point(kWorkers, ops_per_process, c);
    all_converged = all_converged && r.converged;
    const double ops_per_sec =
        r.wall_seconds > 0
            ? static_cast<double>(r.total_updates) / r.wall_seconds
            : 0.0;
    if (base_ops_per_sec == 0.0) base_ops_per_sec = ops_per_sec;
    t.add(c, c + kWorkers, r.total_updates, r.wall_seconds * 1e3,
          ops_per_sec,
          base_ops_per_sec > 0 ? ops_per_sec / base_ops_per_sec : 0.0,
          r.converged ? "yes" : "NO");
  }
  t.print(std::cout);
  std::cout << "\nN client threads feed one store concurrently: stamps "
               "come off the shared atomic clock (fetch-add), updates "
               "race into the owning worker's MPSC ring, and per-key "
               "arbitration never notices — every point must converge "
               "to the same per-key sums.\n";
  return all_converged;
}

/// E10d: the read-path latency histogram — published-view get() versus
/// the ring round trip, one hot key, pooled store.
void print_read_latency_table(std::size_t samples) {
  using S2 = SetAdt<int>;
  using TSet = ThreadUcStore<S2>;
  print_banner(std::cout,
               "E10d: read-path latency, hot key (workers=2; published "
               "seqlock view vs worker-ring round trip)");
  ThreadNetwork<TSet::Envelope> net(1);
  StoreConfig cfg;
  cfg.workers = 2;
  cfg.batch_window = 64;
  TSet store(S2{}, 0, net, cfg);
  for (int i = 0; i < 64; ++i) store.update("hot", S2::insert(i));
  (void)store.get("hot", S2::read());  // cold get: the promoting trip
  bench::LatencySummary pub_ns, ring_ns;
  for (std::size_t i = 0; i < samples; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(store.get("hot", S2::read()));
    pub_ns.add(std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - t0)
                   .count());
  }
  for (std::size_t i = 0; i < samples; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(store.query("hot", S2::read()));
    ring_ns.add(std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
  }
  const StoreStats st = store.stats();
  TextTable t({"read path", "samples", "p50 ns", "p90 ns", "p99 ns",
               "max ns"});
  bench::add_latency_row(t, "published get()", pub_ns);
  bench::add_latency_row(t, "ring query()", ring_ns);
  t.print(std::cout);
  std::cout << "published reads: " << st.published_reads
            << ", get() ring fallbacks: " << st.ring_reads
            << " (the one cold get() that promoted the key)\n"
            << "\nA published read is a registry snapshot + seqlock "
               "state copy — it never enqueues on a ring, so its tail "
               "does not include a worker tick; the ring round trip "
               "pays enqueue + worker dequeue + wakeup.\n";
  net.close_all();
}

/// E10e: tracing overhead on the E10b hot path — the 4-worker pooled
/// point run tracing-off and tracing-on (default 1-in-16 sampling).
/// One discarded warmup then best-of-5 per arm, arms interleaved, so
/// frequency ramp and scheduler noise don't masquerade as overhead.
/// The tracing runs export `trace_out`/`metrics_out` when given (the
/// artifacts the CI smoke step feeds to tools/check_trace.py). Returns
/// false when any run diverged.
bool print_tracing_overhead(std::size_t ops_per_process,
                            const std::string& trace_out,
                            const std::string& metrics_out) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kReps = 5;
  print_banner(std::cout,
               "E10e: tracing overhead (E10b point, 2 processes x 4 "
               "workers, 1-in-16 span sampling; budget < 5%)");
  bool all_converged = true;
  double best_off = 0.0, best_on = 0.0;
  std::uint64_t updates = 0;
  (void)run_pool_point(kWorkers, ops_per_process);  // warmup, discarded
  for (int rep = 0; rep < kReps; ++rep) {
    const PoolPoint off = run_pool_point(kWorkers, ops_per_process);
    const PoolPoint on = run_pool_point(kWorkers, ops_per_process,
                                        /*producers=*/1, /*tracing=*/true,
                                        trace_out, metrics_out);
    all_converged = all_converged && off.converged && on.converged;
    updates = off.total_updates;
    if (best_off == 0.0 || off.wall_seconds < best_off) {
      best_off = off.wall_seconds;
    }
    if (best_on == 0.0 || on.wall_seconds < best_on) {
      best_on = on.wall_seconds;
    }
  }
  TextTable t({"tracing", "updates", "best wall ms", "ops/sec",
               "overhead", "converged"});
  const double off_ops = best_off > 0 ? updates / best_off : 0.0;
  const double on_ops = best_on > 0 ? updates / best_on : 0.0;
  t.add("off", updates, best_off * 1e3, off_ops, "-",
        all_converged ? "yes" : "NO");
  const double overhead =
      best_off > 0 ? (best_on - best_off) / best_off * 100.0 : 0.0;
  t.add("on (1/16)", updates, best_on * 1e3, on_ops,
        std::to_string(overhead).substr(0, 5) + "%",
        all_converged ? "yes" : "NO");
  t.print(std::cout);
  std::cout << "\nA disabled hook is one branch on a null obs pointer; "
               "enabled, a sampled-out op pays one relaxed mask test and "
               "a sampled op one clock read + ring slot write. The "
               "overhead column is measured on this host, against the "
               "< 5% acceptance budget.\n";
  if (!trace_out.empty()) {
    std::cout << "chrome trace written to " << trace_out << "\n";
  }
  if (!metrics_out.empty()) {
    std::cout << "metrics snapshot written to " << metrics_out << "\n";
  }
  return all_converged;
}

// Microbench: the local cost of a keyed update (stamp, self-apply,
// buffer) at varying live-key counts — the store's wait-free hot path.
void BM_StoreUpdate(benchmark::State& state) {
  const auto n_keys = static_cast<std::size_t>(state.range(0));
  SimScheduler scheduler;
  SimNetwork<SimUcStore<S>::Envelope>::Config cfg;
  cfg.n_processes = 2;
  cfg.latency = LatencyModel::constant(10.0);
  SimNetwork<SimUcStore<S>::Envelope> net(scheduler, cfg);
  StoreConfig store_cfg;
  store_cfg.batch_window = 64;
  SimUcStore<S> store(S{}, 0, net, store_cfg);
  SimUcStore<S> peer(S{}, 1, net, store_cfg);
  ZipfianKeys keyspace(n_keys, 0.99);
  Rng rng(7);
  int v = 0;
  for (auto _ : state) {
    store.update(keyspace.sample(rng), S::insert(v++ % 64));
    if (scheduler.pending() > 4096) scheduler.run();
  }
  scheduler.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(std::to_string(store.keys_live()) + " keys live");
}
BENCHMARK(BM_StoreUpdate)->Arg(16)->Arg(1024)->Arg(65536)->Unit(
    benchmark::kMicrosecond);

// Microbench: zipfian sampling itself (binary search over the CDF).
void BM_ZipfSample(benchmark::State& state) {
  const auto n_keys = static_cast<std::size_t>(state.range(0));
  ZipfianKeys keyspace(n_keys, 0.99);
  Rng rng(7);
  std::size_t sink = 0;
  for (auto _ : state) {
    sink += keyspace.sample_index(rng);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ZipfSample)->Arg(1024)->Arg(1'000'000);

}  // namespace

/// Lenient "a,b,c" list parse shared by --workers= / --producers=:
/// digits and commas only; empty result falls back to `fallback`.
std::vector<std::size_t> parse_count_list(
    const std::string& s, const std::vector<std::size_t>& fallback) {
  std::vector<std::size_t> out;
  std::size_t v = 0;
  for (const char c : s) {
    if (c == ',') {
      if (v > 0) out.push_back(v);
      v = 0;
    } else if (c >= '0' && c <= '9') {
      v = v * 10 + static_cast<std::size_t>(c - '0');
    }
  }
  if (v > 0) out.push_back(v);
  return out.empty() ? fallback : out;
}

// Custom main (instead of UCW_BENCH_MAIN): `--workers=a,b,c` picks the
// E10b pool sweep points, `--producers=a,b,c` the E10c client-thread
// sweep points, and `--workers-ops=N` the per-process op count both
// sweeps use; `--trace-out=`/`--metrics-out=` export the E10e tracing
// run's artifacts. All are stripped before google-benchmark sees the
// arguments. Bare `--workers` / `--producers` run the default sweeps
// explicitly.
int main(int argc, char** argv) {
  const std::vector<std::size_t> default_workers = {1, 2, 4, 8};
  const std::vector<std::size_t> default_producers = {1, 2, 4};
  std::vector<std::size_t> worker_counts = default_workers;
  std::vector<std::size_t> producer_counts = default_producers;
  std::size_t pool_ops = 30'000;
  std::string trace_out, metrics_out;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workers" || arg == "--producers") continue;
    if (arg.rfind("--workers=", 0) == 0) {
      worker_counts = parse_count_list(arg.substr(10), default_workers);
      continue;
    }
    if (arg.rfind("--producers=", 0) == 0) {
      producer_counts =
          parse_count_list(arg.substr(12), default_producers);
      continue;
    }
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
      continue;
    }
    if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(14);
      continue;
    }
    if (arg.rfind("--workers-ops=", 0) == 0) {
      // Lenient like the lists: digits only, malformed input keeps the
      // default instead of throwing out of main.
      std::size_t v = 0;
      for (const char c : arg.substr(14)) {
        if (c < '0' || c > '9') {
          v = 0;
          break;
        }
        v = v * 10 + static_cast<std::size_t>(c - '0');
      }
      if (v > 0) pool_ops = v;
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  print_tables();
  bool converged = print_worker_pool_sweep(worker_counts, pool_ops);
  converged = print_producer_sweep(producer_counts, pool_ops) && converged;
  print_read_latency_table(/*samples=*/20'000);
  converged =
      print_tracing_overhead(pool_ops, trace_out, metrics_out) && converged;
  int pargc = static_cast<int>(passthrough.size());
  ::benchmark::Initialize(&pargc, passthrough.data());
  if (::benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return converged ? 0 : 1;
}
