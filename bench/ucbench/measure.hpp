// Measurement primitives for ucbench: a log-linear latency histogram,
// and the span recorder behind the traced run.
//
// Spans are recorded only at two boundaries, both from the benchmark's
// own files: generator -> store (the calls the load generator makes into
// ThreadUcStore) and store -> transport (TimedTransport's forwarding of
// broadcast_others/send). Each thread keeps a stack of open spans, so a
// child's duration is charged to its parent and a span's *self* time is
// its duration minus the time its children cover. Per-kind statistics
// are accumulated for every span; the span records themselves go into a
// preallocated buffer for one operation in kKeepEvery (keyed by the
// operation id, so a kept operation keeps all of its spans) and are
// written as Chrome trace JSON when the run ends.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace ucbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Histogram of durations in ns. Samples are binned in ticks of kTickNs
/// (rounded to the nearest tick): exact below 64 ticks, then 64
/// sub-buckets per power of two (bucket width <= 1/64 of its value).
/// A percentile interpolates linearly across the bucket that holds the
/// requested rank, each bucket spanning half a tick either side of its
/// values — so a clock that only advances in whole ticks (10 ns steps on
/// the reference VM) still yields percentiles that move continuously
/// with the distribution instead of jumping a whole tick. Single-
/// threaded; merge per-thread instances.
class Histogram {
 public:
  static constexpr std::uint64_t kTickNs = 10;

  void add(std::uint64_t ns) {
    ++counts_[index((ns + kTickNs / 2) / kTickNs)];
    ++n_;
  }

  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }

  /// q in [0, 100], in ns; 0 when empty.
  [[nodiscard]] double percentile(double q) const {
    if (n_ == 0) return 0.0;
    const double rank =
        std::clamp(q / 100.0, 0.0, 1.0) * static_cast<double>(n_);
    double cum = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (cum + c >= rank) {
        const double ticks = lower(i) - 0.5 + width(i) * (rank - cum) / c;
        return std::max(0.0, ticks) * static_cast<double>(kTickNs);
      }
      cum += c;
    }
    return lower(kBuckets - 1) * static_cast<double>(kTickNs);
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - std::countl_zero(v);  // >= kSubBits
    const std::uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>(e - kSubBits + 1) * kSub + sub;
  }
  static double lower(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const int e = static_cast<int>(i / kSub) + kSubBits - 1;
    const std::uint64_t sub = i % kSub;
    return static_cast<double>((kSub + sub) << (e - kSubBits));
  }
  static double width(std::size_t i) {
    if (i < kSub) return 1.0;
    const int e = static_cast<int>(i / kSub) + kSubBits - 1;
    return static_cast<double>(std::uint64_t{1} << (e - kSubBits));
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
};

enum class SpanKind : std::uint8_t {
  kUpdate,
  kGet,
  kPoll,
  kFlush,
  kAntiEntropy,
  kBroadcast,
  kSend,
  /// The decorator's own re-encode for the byte ledger: a span of its
  /// own so that neither the store's self time nor the transport's
  /// send time is charged for the measurement.
  kAccount,
};
inline constexpr std::size_t kSpanKinds = 8;
inline constexpr std::array<const char*, kSpanKinds> kSpanNames = {
    "store.update",    "store.get",
    "store.poll",      "store.flush",
    "store.anti_entropy_round", "net.udp.broadcast_others",
    "net.udp.send",    "bench.wire_ledger"};

struct SpanKindStats {
  Histogram self_ns;
  Histogram dur_ns;
  std::uint64_t busy_ns = 0;
  /// Kind-specific work count (poll: envelopes the call returned).
  std::uint64_t work = 0;

  void merge(const SpanKindStats& o) {
    self_ns.merge(o.self_ns);
    dur_ns.merge(o.dur_ns);
    busy_ns += o.busy_ns;
    work += o.work;
  }
};

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = a generator operation's root span
  std::uint64_t op = 0;      ///< root span id, shared by the whole operation
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint16_t kind = 0;
  std::uint16_t node = 0;
  std::uint16_t thread = 0;
};

class SpanTracer {
 public:
  static constexpr std::uint64_t kKeepEvery = 64;

  explicit SpanTracer(std::size_t capacity) : buf_(capacity) {}
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }
  /// Switch only while no thread is inside a traced call (the
  /// generator toggles at quiescent segment boundaries).
  void set_on(bool on) { on_.store(on, std::memory_order_seq_cst); }

  struct Frame {
    std::uint64_t id;
    std::uint64_t op;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    SpanKind kind;
    std::uint16_t node;
  };
  struct ThreadState {
    std::uint16_t index = 0;
    std::vector<Frame> stack;
    std::array<SpanKindStats, kSpanKinds> stats{};
  };

  /// The calling thread's state, registered on first use. One tracer
  /// per process: the thread-local cache does not tell tracers apart.
  ThreadState& local() {
    thread_local ThreadState* tl = nullptr;
    if (tl == nullptr) {
      std::lock_guard lock(threads_mutex_);
      threads_.push_back(std::make_unique<ThreadState>());
      tl = threads_.back().get();
      tl->index = static_cast<std::uint16_t>(threads_.size() - 1);
      tl->stack.reserve(8);
    }
    return *tl;
  }

  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void keep(const SpanRecord& r) {
    const std::size_t i = used_.fetch_add(1, std::memory_order_relaxed);
    if (i < buf_.size()) {
      buf_[i] = r;
    } else {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Per-kind statistics merged over every thread. Call once the run
  /// has stopped.
  [[nodiscard]] std::array<SpanKindStats, kSpanKinds> merged() const {
    std::array<SpanKindStats, kSpanKinds> out{};
    std::lock_guard lock(threads_mutex_);
    for (const auto& t : threads_) {
      for (std::size_t k = 0; k < kSpanKinds; ++k) out[k].merge(t->stats[k]);
    }
    return out;
  }

  [[nodiscard]] std::size_t kept() const {
    return std::min(used_.load(std::memory_order_relaxed), buf_.size());
  }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Chrome trace_event JSON ("X" complete events, one pid per node,
  /// one tid per recording thread). Call once the run has stopped.
  void write_chrome(std::ostream& os) const {
    const std::size_t n = kept();
    std::uint64_t t0 = UINT64_MAX;
    for (std::size_t i = 0; i < n; ++i) t0 = std::min(t0, buf_[i].start_ns);
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    for (std::size_t i = 0; i < n; ++i) {
      const SpanRecord& r = buf_[i];
      if (i > 0) os << ",\n";
      os << "{\"name\":\"" << kSpanNames[r.kind] << "\",\"ph\":\"X\",\"ts\":"
         << static_cast<double>(r.start_ns - t0) / 1000.0
         << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1000.0
         << ",\"pid\":" << r.node << ",\"tid\":" << r.thread
         << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
         << ",\"op\":" << r.op << "}}";
    }
    os << "]}\n";
  }

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::vector<SpanRecord> buf_;
  std::atomic<std::size_t> used_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex threads_mutex_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

/// RAII span: a no-op unless the tracer is on at construction.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer& tracer, SpanKind kind, std::uint16_t node)
      : tracer_(tracer.on() ? &tracer : nullptr) {
    if (tracer_ == nullptr) return;
    SpanTracer::ThreadState& ts = tracer_->local();
    const std::uint64_t id = tracer_->next_id();
    parent_ = ts.stack.empty() ? 0 : ts.stack.back().id;
    const std::uint64_t op = ts.stack.empty() ? id : ts.stack.back().op;
    ts.stack.push_back({id, op, now_ns(), 0, kind, node});
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    const std::uint64_t end = now_ns();
    SpanTracer::ThreadState& ts = tracer_->local();
    const SpanTracer::Frame f = ts.stack.back();
    ts.stack.pop_back();
    const std::uint64_t dur = end - f.start_ns;
    if (!ts.stack.empty()) ts.stack.back().child_ns += dur;
    SpanKindStats& st = ts.stats[static_cast<std::size_t>(f.kind)];
    st.self_ns.add(dur > f.child_ns ? dur - f.child_ns : 0);
    st.dur_ns.add(dur);
    st.busy_ns += dur;
    st.work += work_;
    if (f.op % SpanTracer::kKeepEvery == 0) {
      tracer_->keep({f.id, parent_, f.op, f.start_ns, end,
                     static_cast<std::uint16_t>(f.kind), f.node, ts.index});
    }
  }

  /// Adds to the span kind's work counter (e.g. envelopes polled).
  void add_work(std::uint64_t n) { work_ += n; }

 private:
  SpanTracer* tracer_;
  std::uint64_t parent_ = 0;
  std::uint64_t work_ = 0;
};

}  // namespace ucbench
