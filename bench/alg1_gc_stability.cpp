// E6 — Section VII-C, garbage collection: "after some time old messages
// can be garbage collected".
//
// Runs Algorithm-1 clusters with and without stability tracking (matrix
// clock over FIFO links) and reports peak and final log sizes, entries
// folded, and the effect of a crashed (and then administratively marked)
// process on the stability floor. The paper's claim: the log prefix that
// everyone provably holds can be folded into a base state without
// affecting convergence.
#include "bench_common.hpp"

#include "criteria/all.hpp"
#include "runtime/sim_harness.hpp"

namespace {

using namespace ucw;
using S = SetAdt<int>;

struct GcOutcome {
  bool converged = false;
  std::uint64_t folded = 0;
  std::size_t final_log_max = 0;
};

GcOutcome run(bool gc, std::size_t ops, std::uint64_t seed,
              std::vector<CrashPlan> crashes = {}) {
  RunConfig cfg;
  cfg.n_processes = 4;
  cfg.seed = seed;
  cfg.latency = LatencyModel::uniform(50.0, 400.0);
  cfg.fifo_links = true;
  cfg.enable_gc = gc;
  cfg.gc_period = 1'500.0;
  cfg.workload.ops_per_process = ops;
  cfg.workload.update_ratio = 0.9;
  cfg.crashes = std::move(crashes);
  auto out = run_uc_simulation(S{}, cfg, [&cfg](Rng& rng) {
    return random_set_update<int>(rng, cfg.workload);
  });
  GcOutcome o;
  o.converged = out.converged;
  for (const auto& st : out.replica_stats) {
    o.folded += st.gc_folded;
  }
  // Final log length proxy: local updates+remote minus folded.
  for (const auto& st : out.replica_stats) {
    const std::size_t live = static_cast<std::size_t>(
        st.local_updates + st.remote_updates - st.gc_folded);
    o.final_log_max = std::max(o.final_log_max, live);
  }
  return o;
}

void print_tables() {
  print_banner(std::cout,
               "E6: log size with/without stability GC (4 procs, FIFO)");
  TextTable t({"ops/proc", "GC", "converged", "entries folded",
               "max live log at end"});
  for (std::size_t ops : {25u, 100u, 400u}) {
    for (bool gc : {false, true}) {
      const auto o = run(gc, ops, 11);
      t.add(ops, gc ? "on" : "off", o.converged ? "yes" : "NO", o.folded,
            o.final_log_max);
    }
  }
  t.print(std::cout);
  std::cout << "\nPaper: without GC the log holds every update forever; "
               "with stability detection all but the in-flight suffix "
               "folds into the base state, and convergence is "
               "unaffected.\n";

  print_banner(std::cout, "E6b: a crashed process pins the floor");
  TextTable t2({"scenario", "entries folded", "converged"});
  {
    const auto normal = run(true, 100, 13);
    t2.add("no crash", normal.folded, normal.converged ? "yes" : "NO");
    const auto crashed =
        run(true, 100, 13, {CrashPlan{3, 2'000.0}});
    t2.add("p3 crashes at t=2ms (never marked)", crashed.folded,
           crashed.converged ? "yes" : "NO");
  }
  t2.print(std::cout);
  std::cout << "GC stalls at the crash point until the failure is "
               "administratively declared (MatrixClock::mark_crashed); "
               "correctness is never at risk, only space.\n";
}

void BM_GcSweep(benchmark::State& state) {
  // Cost of one collect_garbage() over a log of the given size where
  // everything is stable.
  const auto log_len = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ReplayReplica<S> replica(S{}, 0);
    replica.enable_stability(2);
    for (std::size_t i = 1; i <= log_len; ++i) {
      replica.apply(1, UpdateMessage<S>{Stamp{i, 1},
                                        S::insert(static_cast<int>(i % 64))});
    }
    // Advance our own row past the peer's last stamp: one local update
    // (self-delivery included) makes the whole prefix stable.
    auto m = replica.local_update(S::insert(0));
    replica.apply(0, m);
    state.ResumeTiming();
    benchmark::DoNotOptimize(replica.collect_garbage());
  }
  state.SetLabel("fold " + std::to_string(log_len) + " entries");
}
BENCHMARK(BM_GcSweep)->Arg(1 << 10)->Arg(1 << 14)->Unit(
    benchmark::kMicrosecond);

}  // namespace

UCW_BENCH_MAIN(print_tables)
