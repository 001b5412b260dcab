// A replicated key-value store on the UCStore, surviving crashes and a
// network partition.
//
//   $ ./distributed_kv_store [--replicas=5 (min 5)] [--seed=3] [--window=4]
//
// Each key is an independent update-consistent register (Algorithm 1
// applied per key; last-writer-wins falls out of the (clock, pid)
// arbitration order). The UCStore hosts the whole keyspace behind one
// endpoint per process and coalesces updates into batch envelopes — one
// broadcast carries many keyed writes. This example runs a 5-replica
// store, partitions it Dynamo-style (both sides keep accepting writes —
// no quorum, no unavailability), heals the partition, crashes a
// replica, *restarts* it — the rejoin catches up from a snapshot of
// compacted base states plus the unstable log suffix instead of
// replaying history — and shows every replica (including the rejoined
// one) converges to the same last-writer-wins state, plus what batching
// saved on the wire and what the recovery subsystem did.
//
// `--trace-out=kv.json` captures the whole scenario as a Chrome trace
// (open in chrome://tracing or Perfetto: one process track per replica,
// with the partition cut/heal, the crash-era drops, and the rejoin's
// bootstrap anti-entropy round on replica 1's own timeline).
// `--metrics-out=kv-m.json`
// writes the metrics snapshot, where every silent loss shows up as an
// explicit dropped_* counter.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>

#include "adt/register.hpp"
#include "net/scheduler.hpp"
#include "obs/report.hpp"
#include "obs/trace_export.hpp"
#include "store/uc_store.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace ucw;
  using Reg = RegisterAdt<std::string>;
  using Store = SimUcStore<Reg>;
  const Flags flags = Flags::parse(argc, argv);
  // The scenario scripts writes on replicas 0-4 and partitions {0,1}
  // against the rest, so it needs at least 5 processes.
  const std::size_t n = std::max<std::int64_t>(
      5, flags.get_int("replicas", 5));
  const std::uint64_t seed = flags.get_int("seed", 3);
  const std::size_t window = std::max<std::int64_t>(
      1, flags.get_int("window", 4));
  const std::string trace_out = flags.get("trace-out", "");
  const std::string metrics_out = flags.get("metrics-out", "");

  SimScheduler scheduler;
  SimNetwork<Store::Envelope>::Config cfg;
  cfg.n_processes = n;
  cfg.latency = LatencyModel::exponential(800.0);
  cfg.fifo_links = true;  // stability tracking + catch-up need FIFO
  cfg.seed = seed;
  SimNetwork<Store::Envelope> net(scheduler, cfg);

  // Tracers outlive the stores (replica 1 is rebuilt on restart but
  // keeps appending to its own track), on the virtual-time clock.
  const bool obs_on = !trace_out.empty() || !metrics_out.empty();
  std::vector<std::unique_ptr<obs::Tracer>> tracers;
  if (obs_on) {
    std::vector<obs::Tracer*> raw(n, nullptr);
    for (ProcessId p = 0; p < n; ++p) {
      tracers.push_back(std::make_unique<obs::Tracer>(
          static_cast<std::uint32_t>(p), /*tracks=*/1,
          /*ring_capacity_pow2=*/std::size_t{1} << 14,
          +[](void* s) { return static_cast<SimScheduler*>(s)->now(); },
          &scheduler));
      raw[p] = tracers.back().get();
    }
    net.set_tracers(std::move(raw));
  }

  StoreConfig store_cfg;
  store_cfg.batch_window = window;
  store_cfg.shard_count = 8;
  store_cfg.gc = true;  // store-level log compaction on every flush
  auto config_for = [&](ProcessId p) {
    StoreConfig sc = store_cfg;
    if (obs_on) {
      sc.tracing = true;
      sc.tracer = tracers[p].get();
      // A handful of scripted writes: sample nothing out, so every
      // update's stamp/apply appears in the captured trace.
      sc.trace_sample_every = 1;
    }
    return sc;
  };
  std::vector<std::unique_ptr<Store>> store;
  for (ProcessId p = 0; p < n; ++p) {
    store.push_back(
        std::make_unique<Store>(Reg{"<unset>"}, p, net, config_for(p)));
  }
  // Ship whatever is buffered on every store, then drain the network.
  auto sync = [&] {
    for (auto& s : store) (void)s->flush();
    scheduler.run();
  };
  auto read = [&](ProcessId p, const std::string& key) {
    return store[p]->query(key, Reg::read());
  };

  std::cout << "== update-consistent KV store over UCStore, " << n
            << " replicas, batch window " << window << " ==\n\n";

  // Bulk load: eight catalog keys from one replica coalesce into two
  // full envelopes (window 4) instead of eight separate broadcasts.
  for (int i = 0; i < 8; ++i) {
    store[0]->update("catalog/item" + std::to_string(i),
                     Reg::write("sku-" + std::to_string(1000 + i)));
  }
  sync();
  std::cout << "bulk load: 8 keyed writes shipped in "
            << store[0]->stats().envelopes_sent << " envelopes\n\n";

  store[0]->update("user:42/name", Reg::write("Ada"));
  store[1]->update("user:42/plan", Reg::write("free"));
  sync();
  std::cout << "after initial writes: name=" << read(2, "user:42/name")
            << " plan=" << read(2, "user:42/plan") << "\n\n";

  // Partition {0,1} | {2,3,4} for 50 ms; both sides keep writing — the
  // store stays available on both sides of the split.
  std::vector<std::size_t> groups(n, 0);
  for (ProcessId p = 2; p < n; ++p) groups[p] = 1;
  net.partition(groups, scheduler.now() + 50'000.0);

  store[0]->update("user:42/plan", Reg::write("pro"));  // side A upgrades
  store[2]->update("user:42/plan",
                   Reg::write("enterprise"));  // side B upgrades harder
  store[3]->update("user:42/quota", Reg::write("100GB"));
  for (auto& s : store) (void)s->flush();

  scheduler.run_until(scheduler.now() + 10'000.0);
  std::cout << "during the partition (split brain, both available):\n"
            << "  side A reads plan=" << read(0, "user:42/plan")
            << "\n  side B reads plan=" << read(2, "user:42/plan")
            << "\n\n";

  sync();  // heal + drain

  std::cout << "after healing, every replica agrees:\n";
  for (ProcessId p = 0; p < n; ++p) {
    std::cout << "  replica " << p << ": plan=" << read(p, "user:42/plan")
              << " quota=" << read(p, "user:42/quota") << '\n';
  }
  std::cout << "(the winner is the write with the largest (clock, pid) "
               "stamp — deterministic, no coordination)\n\n";

  // Crash a replica; the rest never notice operationally.
  net.crash(1);
  store[4]->update("user:42/name", Reg::write("Ada Lovelace"));
  sync();

  bool agree = true;
  for (ProcessId p = 0; p < n; ++p) {
    if (p == 1) continue;
    agree &= read(p, "user:42/name") == "Ada Lovelace";
  }
  std::cout << "replica 1 crashed; survivors converged on name="
            << read(0, "user:42/name") << (agree ? "" : "  (DIVERGED — BUG)")
            << '\n';

  // ... and comes back. The rejoin ships per-key compacted bases plus
  // the unstable log suffix from a live donor (O(live state), not
  // O(history)), then resumes live delivery.
  sync();  // drain the old incarnation's traffic (failure detection)
  net.restart(1);
  store[1] = std::make_unique<Store>(Reg{"<unset>"}, 1, net, config_for(1));
  (void)store[1]->request_sync(0);
  sync();
  sync();  // one more tick: acks flow, the bootstrap round completes
  const StoreStats& rejoined = store[1]->stats();
  std::cout << "replica 1 restarted: " << rejoined.ae_snapshots_installed
            << " shard deltas, " << rejoined.ae_entries_installed
            << " suffix entries transferred; reads name="
            << read(1, "user:42/name") << " plan="
            << read(1, "user:42/plan") << '\n';
  agree &= read(1, "user:42/name") == "Ada Lovelace";

  std::cout << "keys live per replica: " << store[0]->keys_live()
            << " (lazily materialized; bounded by keys touched, not "
               "writes)\n\n";
  // One call renders every table the run's counters justify: store,
  // recovery, anti-entropy, convergence lag, and the loss summary.
  obs::Report report;
  for (const auto& s : store) {
    report.processes.push_back(obs::make_process_report(*s));
  }
  report.net = net.stats();
  obs::print_observability(std::cout, report);

  if (!trace_out.empty()) {
    std::vector<const obs::Tracer*> views;
    for (const auto& t : tracers) views.push_back(t.get());
    std::ofstream f(trace_out);
    obs::write_chrome_trace(f, views);
    std::cout << "\nchrome trace written to " << trace_out
              << " (open in chrome://tracing)\n";
  }
  if (!metrics_out.empty()) {
    std::ofstream f(metrics_out);
    obs::export_metrics_json(f, report);
    std::cout << "metrics snapshot written to " << metrics_out << '\n';
  }
  return agree ? 0 : 1;
}
