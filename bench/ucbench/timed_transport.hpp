// TimedTransport: the benchmark's forwarding decorator around the UDP
// transport.
//
// It forwards exactly the surface StoreCore's concept detection probes
// on UdpTransport — size, epoch, broadcast_others, send and inbox — so
// a store over TimedTransport<UdpTransport> lights up the same features
// (catch-up, anti-entropy, pollable inbox) and nothing else. While the
// span tracer is on, every send is
//   * timed as a store -> transport span (child of the generator call that
//     caused it, when one is open on this thread), and
//   * charged to the WireLedger: the envelope is encoded once more, off
//     the send span, to learn its exact payload length, which gives the
//     bytes it puts on the wire per kind (payload + one 24-byte frame
//     header per fragment, times the destinations it is sent to).
// On a clean wire the ledger's bytes therefore sum exactly to the
// transport's own bytes_sent, which ucbench checks.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "measure.hpp"
#include "net/wire.hpp"
#include "store/envelope.hpp"

namespace ucbench {

enum class WireKind : std::uint8_t { kFrameHdr, kBatch, kAck, kAe, kSync };
inline constexpr std::size_t kWireKinds = 5;
inline constexpr std::array<const char*, kWireKinds> kWireKindNames = {
    "frame_hdr", "batch", "ack", "ae", "sync"};

/// Byte and message accounting shared by every node's decorator.
class WireLedger {
 public:
  static constexpr std::size_t kMaxSamples = 4096;
  static constexpr std::uint64_t kSampleEvery = 8;

  WireLedger() = default;
  WireLedger(const WireLedger&) = delete;
  WireLedger& operator=(const WireLedger&) = delete;

  /// One envelope handed to the transport for `copies` destinations.
  void charge(WireKind kind, std::size_t payload_bytes, std::size_t frames,
              std::size_t copies, std::size_t entries) {
    const auto k = static_cast<std::size_t>(kind);
    bytes_[k].fetch_add(payload_bytes * copies, std::memory_order_relaxed);
    bytes_[static_cast<std::size_t>(WireKind::kFrameHdr)].fetch_add(
        frames * ucw::wire::kFrameHeaderBytes * copies,
        std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
    destinations_.fetch_add(copies, std::memory_order_relaxed);
    if (kind == WireKind::kBatch) {
      batch_entries_.fetch_add(entries, std::memory_order_relaxed);
      batch_payload_.fetch_add(payload_bytes, std::memory_order_relaxed);
    }
  }

  /// Keeps a copy of every kSampleEvery-th batch payload (bounded), for
  /// the codec timings taken after the run.
  void maybe_sample(const std::vector<std::uint8_t>& payload) {
    if (sample_tick_.fetch_add(1, std::memory_order_relaxed) % kSampleEvery)
      return;
    std::lock_guard lock(mutex_);
    if (samples_.size() < kMaxSamples) samples_.push_back(payload);
  }

  /// Anti-entropy round timing: request sent by `requester` to `donor`
  /// (round token `round`) until the donor sends the round's last
  /// per-shard delta back.
  void ae_request(ucw::ProcessId requester, ucw::ProcessId donor,
                  std::uint64_t round, std::uint64_t t) {
    std::lock_guard lock(mutex_);
    ae_open_[{requester, donor, round}] = {t, 0};
  }
  void ae_delta(ucw::ProcessId donor, ucw::ProcessId requester,
                std::uint64_t round, std::uint64_t t, std::size_t shards) {
    std::lock_guard lock(mutex_);
    const auto it = ae_open_.find({requester, donor, round});
    if (it == ae_open_.end()) return;
    if (++it->second.deltas < shards) return;
    ae_round_ns_.add(t - it->second.start);
    ae_open_.erase(it);
  }

  [[nodiscard]] std::uint64_t bytes(WireKind k) const {
    return bytes_[static_cast<std::size_t>(k)].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_bytes() const {
    std::uint64_t n = 0;
    for (const auto& b : bytes_) n += b.load(std::memory_order_relaxed);
    return n;
  }
  [[nodiscard]] std::uint64_t calls() const { return calls_.load(); }
  [[nodiscard]] std::uint64_t destinations() const {
    return destinations_.load();
  }
  [[nodiscard]] std::uint64_t batch_entries() const {
    return batch_entries_.load();
  }
  [[nodiscard]] std::uint64_t batch_payload_bytes() const {
    return batch_payload_.load();
  }
  /// Call once the run has stopped.
  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& samples() const {
    return samples_;
  }
  [[nodiscard]] const Histogram& ae_round_ns() const { return ae_round_ns_; }

 private:
  struct OpenRound {
    std::uint64_t start = 0;
    std::size_t deltas = 0;
  };

  std::array<std::atomic<std::uint64_t>, kWireKinds> bytes_{};
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> destinations_{0};
  std::atomic<std::uint64_t> batch_entries_{0};
  std::atomic<std::uint64_t> batch_payload_{0};
  std::atomic<std::uint64_t> sample_tick_{0};
  std::mutex mutex_;  // guards samples_, ae_open_, ae_round_ns_
  std::vector<std::vector<std::uint8_t>> samples_;
  std::map<std::tuple<ucw::ProcessId, ucw::ProcessId, std::uint64_t>,
           OpenRound>
      ae_open_;
  Histogram ae_round_ns_;
};

template <typename Inner>
class TimedTransport {
 public:
  using Payload = typename Inner::Payload;

  TimedTransport(Inner& inner, ucw::ProcessId pid, std::size_t shard_count,
                 SpanTracer& tracer, WireLedger& ledger)
      : inner_(inner),
        pid_(pid),
        shard_count_(shard_count),
        tracer_(tracer),
        ledger_(ledger) {}
  TimedTransport(const TimedTransport&) = delete;
  TimedTransport& operator=(const TimedTransport&) = delete;

  [[nodiscard]] std::size_t size() const { return inner_.size(); }
  [[nodiscard]] std::uint64_t epoch(ucw::ProcessId p) const {
    return inner_.epoch(p);
  }
  [[nodiscard]] auto& inbox(ucw::ProcessId p) { return inner_.inbox(p); }

  void broadcast_others(ucw::ProcessId from, const Payload& payload) {
    if (!tracer_.on()) return inner_.broadcast_others(from, payload);
    account(payload, inner_.size() - 1, from);  // `to` unused: no AE kind
    ScopedSpan span(tracer_, SpanKind::kBroadcast, pid_);
    inner_.broadcast_others(from, payload);
  }

  void send(ucw::ProcessId from, ucw::ProcessId to, const Payload& payload) {
    if (!tracer_.on()) return inner_.send(from, to, payload);
    account(payload, 1, to);
    ScopedSpan span(tracer_, SpanKind::kSend, pid_);
    inner_.send(from, to, payload);
  }

 private:
  /// Charges one envelope to the ledger. `to` is the destination of a
  /// point-to-point send; it keys the anti-entropy round timing.
  void account(const Payload& p, std::size_t copies, ucw::ProcessId to) {
    ScopedSpan span(tracer_, SpanKind::kAccount, pid_);
    thread_local std::vector<std::uint8_t> buf;
    buf.clear();
    ucw::wire::encode_envelope(p, &buf);
    const std::size_t max = ucw::wire::kDefaultMaxFramePayload;
    const std::size_t frames =
        buf.empty() ? 1 : (buf.size() + max - 1) / max;
    WireKind kind = WireKind::kBatch;
    switch (p.kind) {
      case ucw::EnvelopeKind::kBatch:
        kind = p.entries.empty() ? WireKind::kAck : WireKind::kBatch;
        break;
      case ucw::EnvelopeKind::kAntiEntropyRequest:
        kind = WireKind::kAe;
        ledger_.ae_request(pid_, to, p.seq, now_ns());
        break;
      case ucw::EnvelopeKind::kAntiEntropyDelta:
        kind = WireKind::kAe;
        ledger_.ae_delta(pid_, to, p.seq, now_ns(), shard_count_);
        break;
      case ucw::EnvelopeKind::kSyncRequest:
      case ucw::EnvelopeKind::kShardSnapshot:
        kind = WireKind::kSync;
        break;
    }
    ledger_.charge(kind, buf.size(), frames, copies, p.entries.size());
    if (kind == WireKind::kBatch) ledger_.maybe_sample(buf);
  }

  Inner& inner_;
  ucw::ProcessId pid_;
  std::size_t shard_count_;
  SpanTracer& tracer_;
  WireLedger& ledger_;
};

}  // namespace ucbench
