// E2 — Figure 2 / Proposition 1: pipelined convergence is impossible
// wait-free.
//
// Three artifacts:
//  1. the checker classification of the literal Figure 2 history
//     (PC yes, EC no);
//  2. a live DES replay of the Figure 2 scenario on the FIFO apply-on-
//     delivery baseline: both replicas end in *different* stable states,
//     exactly the ω-reads of the figure — while the same schedule on the
//     Algorithm-1 set converges;
//  3. divergence frequency under random workloads: how often pipelined
//     replicas fail to converge while UC replicas always do.
// The microbenchmarks compare per-delivery cost of the two designs (the
// price Algorithm 1 pays for convergence).
#include "bench_common.hpp"

#include "baselines/pipelined.hpp"
#include "criteria/all.hpp"
#include "history/figures.hpp"

namespace {

using namespace ucw;
using S = SetAdt<int>;

void print_tables() {
  print_banner(std::cout, "E2a: Figure 2 classification");
  {
    const auto h = figure_2();
    std::cout << h.to_string();
    TextTable t({"criterion", "verdict", "paper"});
    const auto row = check_all_criteria(h);
    t.add("PC", to_string(row.pc.verdict), "yes");
    t.add("EC", to_string(row.ec.verdict), "no");
    t.add("UC", to_string(row.uc.verdict), "no");
    t.print(std::cout);
  }

  print_banner(std::cout,
               "E2b: live replay of the Figure 2 schedule (stable reads)");
  {
    TextTable t({"implementation", "p0 reads", "p1 reads", "converged"});
    for (SetImplKind kind :
         {SetImplKind::Pipelined, SetImplKind::UcSet, SetImplKind::OrSet}) {
      SimScheduler scheduler;
      auto cluster = SetCluster::make(kind, scheduler, 2, 1,
                                      LatencyModel::constant(1'000.0),
                                      /*fifo=*/true);
      cluster->node(0).insert(1);
      cluster->node(0).insert(3);
      cluster->node(1).insert(2);
      cluster->node(1).remove(3);
      scheduler.run();
      t.add(to_string(kind), format_value(cluster->node(0).read()),
            format_value(cluster->node(1).read()),
            cluster->converged() ? "yes" : "NO");
    }
    t.print(std::cout);
    std::cout << "Paper: pipelined replicas stabilize on {1,2} vs {1,2,3} "
                 "(Fig. 2's ω-reads); Algorithm 1 converges.\n";
  }

  print_banner(std::cout,
               "E2c: divergence frequency, random workloads (100 seeds)");
  {
    TextTable t({"implementation", "diverged runs", "of"});
    for (SetImplKind kind : {SetImplKind::Pipelined, SetImplKind::UcSet}) {
      int diverged = 0;
      const int runs = 100;
      for (int seed = 0; seed < runs; ++seed) {
        SimScheduler scheduler;
        auto cluster = SetCluster::make(
            kind, scheduler, 3, static_cast<std::uint64_t>(seed) + 1,
            LatencyModel::exponential(900.0), /*fifo=*/true);
        bench::drive_set_cluster(*cluster, scheduler,
                                 static_cast<std::uint64_t>(seed) + 1, 45,
                                 /*value_range=*/5);
        if (!cluster->converged()) ++diverged;
      }
      t.add(to_string(kind), diverged, runs);
    }
    t.print(std::cout);
    std::cout << "Paper (Prop. 1): apply-on-delivery cannot be both "
                 "pipelined consistent and convergent; Algorithm 1 must "
                 "show 0 diverged runs.\n";
  }
}

void BM_PipelinedDelivery(benchmark::State& state) {
  PipelinedReplica<S> replica(S{}, 0);
  Rng rng(1);
  for (auto _ : state) {
    const int v = static_cast<int>(rng.uniform_int(0, 63));
    replica.apply(1, {rng.chance(0.6) ? S::insert(v) : S::remove(v)});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelinedDelivery);

void BM_UcReplicaDelivery(benchmark::State& state) {
  ReplayReplica<S> replica(S{}, 0, {ReplayPolicy::CachedPrefix, 64});
  Rng rng(1);
  LogicalTime clock = 0;
  for (auto _ : state) {
    const int v = static_cast<int>(rng.uniform_int(0, 63));
    replica.apply(
        1, UpdateMessage<S>{Stamp{++clock, 1},
                            rng.chance(0.6) ? S::insert(v) : S::remove(v)});
    benchmark::DoNotOptimize(replica.query(S::read()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_UcReplicaDelivery);

}  // namespace

UCW_BENCH_MAIN(print_tables)
