// E4 — Section VII-C, query complexity: "this algorithm re-executes all
// past updates each time a new query is issued. In an effective
// implementation, a process can keep intermediate states [...]
// re-computed only if very late messages arrive."
//
// Two regimes over growing logs L:
//   in-order  — all messages arrive in stamp order (the steady state);
//   stragglers — a fraction of messages lands far back in the log.
// Policies: NaiveReplay (literal Algorithm 1, O(L) per query),
// CachedPrefix (O(1) amortized in-order, full replay after a straggler),
// Snapshot(K) (straggler cost bounded by K + distance).
//
// The table reports ADT transitions per query (the paper's unit of
// work); the microbenchmarks report wall-clock per query.
#include "bench_common.hpp"

#include <set>

#include "core/replica.hpp"

namespace {

using namespace ucw;
using S = SetAdt<int>;

/// Feeds `log_len` updates (optionally with stragglers) into a replica
/// and issues one query per update; returns transitions per query.
///
/// A straggler lands a bounded distance behind the log tail (a "very
/// late message" delayed by a few hundred stamps, not an archaeological
/// one) — the regime Section VII-C's intermediate-state remark targets.
double transitions_per_query(ReplayPolicy policy, std::size_t log_len,
                             double straggler_ratio, std::size_t snap_k) {
  ReplayReplica<S> replica(S{}, 0, {policy, snap_k});
  Rng rng(7);
  LogicalTime front = 1'000'000;  // in-order stream stamps, step 10
  std::set<LogicalTime> used;
  for (std::size_t i = 0; i < log_len; ++i) {
    Stamp stamp;
    if (i > 60 && rng.chance(straggler_ratio)) {
      LogicalTime clk;
      do {
        clk = front - 10 * static_cast<LogicalTime>(
                               rng.uniform_int(5, 50)) + 1;
      } while (!used.insert(clk).second);
      stamp = Stamp{clk, 2};
    } else {
      stamp = Stamp{front += 10, 1};
    }
    const int v = static_cast<int>(rng.uniform_int(0, 31));
    replica.apply(stamp.pid, UpdateMessage<S>{
                                 stamp,
                                 rng.chance(0.6) ? S::insert(v)
                                                 : S::remove(v)});
    benchmark::DoNotOptimize(replica.query(S::read()));
  }
  return static_cast<double>(replica.stats().transitions) /
         static_cast<double>(replica.stats().queries);
}

void print_tables() {
  print_banner(std::cout,
               "E4: transitions per query vs log length (query after "
               "every arrival)");
  TextTable t({"log length", "regime", "naive-replay", "cached-prefix",
               "snapshot(K=64)"});
  for (std::size_t len : {256u, 1024u, 4096u}) {
    for (double stragglers : {0.0, 0.05}) {
      t.add(len, stragglers == 0.0 ? "in-order" : "5% stragglers",
            transitions_per_query(ReplayPolicy::NaiveReplay, len,
                                  stragglers, 64),
            transitions_per_query(ReplayPolicy::CachedPrefix, len,
                                  stragglers, 64),
            transitions_per_query(ReplayPolicy::Snapshot, len, stragglers,
                                  64));
    }
  }
  t.print(std::cout);
  std::cout << "\nPaper: the literal algorithm replays the whole log per "
               "query (cost grows ~L/2 here since queries interleave "
               "arrivals); intermediate states make in-order queries O(1) "
               "and snapshots bound straggler damage.\n";

  print_banner(std::cout, "E4b: snapshot interval ablation (4096 updates, "
                          "5% stragglers)");
  TextTable t2({"K", "transitions/query"});
  for (std::size_t k : {8u, 32u, 128u, 512u}) {
    t2.add(k, transitions_per_query(ReplayPolicy::Snapshot, 4096, 0.05, k));
  }
  t2.print(std::cout);
}

void BM_QueryAfterAppend(benchmark::State& state) {
  const auto policy = static_cast<ReplayPolicy>(state.range(0));
  const auto log_len = static_cast<std::size_t>(state.range(1));
  ReplayReplica<S> replica(S{}, 0, {policy, 64});
  for (std::size_t i = 0; i < log_len; ++i) {
    replica.apply(1, UpdateMessage<S>{
                         Stamp{i + 1, 1},
                         S::insert(static_cast<int>(i % 64))});
  }
  (void)replica.query(S::read());  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(replica.query(S::read()));
  }
  state.SetLabel(to_string(policy) + " L=" + std::to_string(log_len));
}
BENCHMARK(BM_QueryAfterAppend)
    ->ArgsProduct({{0, 1, 2}, {1 << 8, 1 << 12, 1 << 14}})
    ->Unit(benchmark::kMicrosecond);

void BM_StragglerRecovery(benchmark::State& state) {
  // Cost of one straggler landing mid-log followed by a query.
  const auto policy = static_cast<ReplayPolicy>(state.range(0));
  const std::size_t log_len = 4096;
  for (auto _ : state) {
    state.PauseTiming();
    ReplayReplica<S> replica(S{}, 0, {policy, 64});
    for (std::size_t i = 0; i < log_len; ++i) {
      replica.apply(1, UpdateMessage<S>{Stamp{10 * (i + 1), 1},
                                        S::insert(static_cast<int>(i % 64))});
    }
    (void)replica.query(S::read());
    state.ResumeTiming();
    replica.apply(2, UpdateMessage<S>{Stamp{10 * (log_len / 2) + 1, 2},
                                      S::insert(4096)});
    benchmark::DoNotOptimize(replica.query(S::read()));
  }
  state.SetLabel(to_string(policy) + " straggler@mid, L=4096");
}
BENCHMARK(BM_StragglerRecovery)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

UCW_BENCH_MAIN(print_tables)
