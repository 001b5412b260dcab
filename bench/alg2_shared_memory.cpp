// E7 — Algorithm 2: update-consistent shared memory with constant-time
// operations and bounded memory.
//
// Contrasts Algorithm 2 (per-register last-writer-wins cells) with the
// generic Algorithm 1 run on the same MemoryAdt (full log, replay):
// identical converged semantics, asymptotically different costs. The
// paper: "This implementation only needs constant computation time for
// both the reads and the writes, and the complexity in memory only grows
// logarithmically with time and the number of participants."
#include "bench_common.hpp"

#include "core/all.hpp"

namespace {

using namespace ucw;
using Mem = MemoryAdt<std::string, int>;

void print_tables() {
  print_banner(std::cout,
               "E7: Algorithm 2 vs Algorithm 1 on the shared memory "
               "(2 procs, 8 registers)");
  TextTable t({"writes issued", "impl", "resident entries",
               "transitions total", "converged"});
  for (std::size_t writes : {100u, 1'000u, 10'000u}) {
    // Algorithm 2.
    {
      SimScheduler scheduler;
      SimNetwork<MemWriteMessage<std::string, int>>::Config cfg;
      cfg.n_processes = 2;
      cfg.latency = LatencyModel::exponential(200.0);
      cfg.seed = 3;
      SimNetwork<MemWriteMessage<std::string, int>> net(scheduler, cfg);
      SimUcMemory<std::string, int> a(0, 0, net), b(1, 0, net);
      Rng rng(3);
      for (std::size_t i = 0; i < writes; ++i) {
        auto& m = rng.chance(0.5) ? a : b;
        m.write("r" + std::to_string(rng.uniform_int(0, 7)),
                static_cast<int>(i));
        scheduler.run_until(scheduler.now() + 20.0);
      }
      scheduler.run();
      bool conv = true;
      for (int r = 0; r < 8; ++r) {
        conv &= a.read("r" + std::to_string(r)) ==
                b.read("r" + std::to_string(r));
      }
      t.add(writes, "Algorithm 2", a.replica().cell_count(),
            a.replica().stats().applied, conv ? "yes" : "NO");
    }
    // Algorithm 1 on MemoryAdt.
    {
      SimScheduler scheduler;
      SimNetwork<UpdateMessage<Mem>>::Config cfg;
      cfg.n_processes = 2;
      cfg.latency = LatencyModel::exponential(200.0);
      cfg.seed = 3;
      SimNetwork<UpdateMessage<Mem>> net(scheduler, cfg);
      SimUcObject<Mem> a(Mem{}, 0, net), b(Mem{}, 1, net);
      Rng rng(3);
      for (std::size_t i = 0; i < writes; ++i) {
        auto& m = rng.chance(0.5) ? a : b;
        m.update(Mem::write("r" + std::to_string(rng.uniform_int(0, 7)),
                            static_cast<int>(i)));
        scheduler.run_until(scheduler.now() + 20.0);
      }
      scheduler.run();
      bool conv = true;
      for (int r = 0; r < 8; ++r) {
        conv &= a.query(Mem::read("r" + std::to_string(r))) ==
                b.query(Mem::read("r" + std::to_string(r)));
      }
      t.add(writes, "Algorithm 1 (full log)", a.replica().log().size(),
            a.replica().stats().transitions, conv ? "yes" : "NO");
    }
  }
  t.print(std::cout);
  std::cout << "\nPaper: Algorithm 2 keeps one (stamp, value) cell per "
               "register — resident state bounded by |X| = 8 — while the "
               "generic construction's log grows with every write. Both "
               "converge to the same last-writer-wins memory.\n";
}

void BM_Alg2Write(benchmark::State& state) {
  MemoryReplica<std::string, int> replica(0, 0);
  Rng rng(1);
  int i = 0;
  for (auto _ : state) {
    auto m = replica.local_write("r" + std::to_string(rng.uniform_int(0, 63)),
                                 i++);
    replica.apply(m);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Alg2Write);

void BM_Alg2Read(benchmark::State& state) {
  MemoryReplica<std::string, int> replica(0, 0);
  for (int i = 0; i < 64; ++i) {
    auto m = replica.local_write("r" + std::to_string(i), i);
    replica.apply(m);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(replica.read("r13"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Alg2Read);

void BM_Alg1MemoryQuery(benchmark::State& state) {
  // The same read through the generic construction, log length as arg.
  const auto log_len = static_cast<std::size_t>(state.range(0));
  ReplayReplica<Mem> replica(Mem{}, 0, {ReplayPolicy::NaiveReplay, 64});
  Rng rng(1);
  for (std::size_t i = 1; i <= log_len; ++i) {
    replica.apply(
        1, UpdateMessage<Mem>{
               Stamp{i, 1},
               Mem::write("r" + std::to_string(rng.uniform_int(0, 63)),
                          static_cast<int>(i))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(replica.query(Mem::read("r13")));
  }
  state.SetLabel("naive replay over " + std::to_string(log_len));
}
BENCHMARK(BM_Alg1MemoryQuery)->Arg(1 << 8)->Arg(1 << 12)->Unit(
    benchmark::kMicrosecond);

}  // namespace

UCW_BENCH_MAIN(print_tables)
