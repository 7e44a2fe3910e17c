// Runtime observability: always-on counters and event-latency tracing.
//
// The paper's evaluation (section 6 / experiment E7) quantifies what the
// debugging machinery costs; this layer is what makes that measurable from
// the inside rather than by wall-clock deltas.  One MetricsRegistry per
// runtime substrate accumulates:
//
//   * per-channel traffic counters — messages and bytes, sent and
//     delivered, with marker and control-plane traffic split out from
//     application traffic (one slot per MessageKind);
//   * per-channel send-blocked time (TCP: time spent inside the socket
//     write) and peak backlog (sim: in-flight messages; TCP: bytes
//     buffered awaiting frame parse);
//   * per-process peak inbox depth (threaded runtime);
//   * latency spans for the rare control-plane events the experiments
//     care about: halt-wave start -> all halted, snapshot-wave start ->
//     all recorded, breakpoint-predicate hit -> debugger notified, and
//     arm command sent -> shim armed.
//
// Hot-path discipline: counter updates are single relaxed-atomic
// increments into slots that only one thread ever writes (each channel's
// send slots are written by the source process's thread, its delivery
// slots by the destination's thread, each process's queue gauge by its
// own thread), so the accumulation is thread-local by construction —
// relaxed ordering is enough and the cache line never bounces between
// writers.  No allocation, no locks.  Span bookkeeping (a keyed map of
// open spans) takes a mutex, but spans only cover control-plane events
// that occur a handful of times per run.
//
// snapshot() is the cold path: it sums the slots into a MetricsSnapshot
// that serializes to a stable JSON schema ("ddbg.metrics.v1") so bench
// output stays comparable across revisions.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"

namespace ddbg::obs {

// Mirrors MessageKind (net/message.hpp) value-for-value; kept as a plain
// index here so the obs layer does not depend on the network headers.
inline constexpr std::size_t kNumTrafficClasses = 5;
inline constexpr const char* kTrafficClassNames[kNumTrafficClasses] = {
    "app", "halt_marker", "snapshot_marker", "predicate_marker", "control"};

// Mirrors the non-kNone FaultKind values (net/fault_plan.hpp) index-for-
// index; like the traffic classes, kept as plain indices so obs stays free
// of network headers (net/transport_hooks.hpp pins the correspondence).
inline constexpr std::size_t kNumFaultKinds = 6;
inline constexpr const char* kFaultKindNames[kNumFaultKinds] = {
    "drop", "duplicate", "reorder", "delay", "partition", "reset"};

// The traced control-plane latencies.
enum class Span : std::uint8_t {
  kHaltWave = 0,        // halt initiated -> every process reported halted
  kSnapshotWave = 1,    // recording initiated -> every process reported
  kBreakpointNotify = 2,  // predicate hit at a shim -> debugger recorded it
  kArm = 3,             // arm command sent -> shim armed the watch
};
inline constexpr std::size_t kNumSpans = 4;
inline constexpr const char* kSpanNames[kNumSpans] = {
    "halt_wave", "snapshot_wave", "breakpoint_notify", "arm"};

// A monotonically increasing count; relaxed because every slot has a
// single writer (see the header comment) and readers only ever snapshot.
class Counter {
 public:
  void add(std::uint64_t n) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }
  [[nodiscard]] std::uint64_t get() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// A high-water-mark gauge (peak queue depth / backlog).
class MaxGauge {
 public:
  void observe(std::uint64_t v) noexcept {
    std::uint64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t get() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// count/total/min/max of a latency distribution, in nanoseconds.
class LatencyStat {
 public:
  void record(std::int64_t ns) noexcept {
    if (ns < 0) ns = 0;
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                        std::memory_order_relaxed);
    std::uint64_t v = static_cast<std::uint64_t>(ns);
    std::uint64_t cur = min_ns_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_ns_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = max_ns_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_ns_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    return total_ns_.load(std::memory_order_relaxed);
  }
  // 0 when empty (the sentinel is never exposed).
  [[nodiscard]] std::uint64_t min_ns() const noexcept {
    return count() == 0 ? 0 : min_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max_ns() const noexcept {
    return max_ns_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> min_ns_{~0ULL};
  std::atomic<std::uint64_t> max_ns_{0};
};

// Static description of one channel, captured at registry construction so
// snapshots can attribute per-channel counts to processes without a
// dependency on the Topology type.
struct ChannelMeta {
  std::uint32_t source = 0;
  std::uint32_t destination = 0;
  bool is_control = false;
};

// ---------------------------------------------------------------------------
// Snapshot: plain data + stable JSON rendering (the cold path).
// ---------------------------------------------------------------------------

struct LatencySnapshot {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
};

struct ChannelSnapshot {
  std::uint32_t id = 0;
  std::uint32_t source = 0;
  std::uint32_t destination = 0;
  bool is_control = false;
  std::uint64_t sent[kNumTrafficClasses] = {};
  std::uint64_t delivered[kNumTrafficClasses] = {};
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t send_blocked_ns = 0;
  std::uint64_t max_backlog = 0;

  [[nodiscard]] std::uint64_t messages_sent() const;
  [[nodiscard]] std::uint64_t messages_delivered() const;
};

struct ProcessSnapshotCounters {
  std::uint32_t id = 0;
  std::uint64_t sent[kNumTrafficClasses] = {};
  std::uint64_t delivered[kNumTrafficClasses] = {};
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t max_queue_depth = 0;
};

struct TotalsSnapshot {
  std::uint64_t sent[kNumTrafficClasses] = {};
  std::uint64_t delivered[kNumTrafficClasses] = {};
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
};

// Message-pipeline mechanics: batching on the delivery and socket-write
// paths, which the per-channel traffic counters cannot see.
struct TransportSnapshot {
  // Retired: no substrate pools encode buffers any more (wire sizes are
  // computed, TCP frames are encoded in place), so both read 0 everywhere.
  // Kept in the v1 schema for existing readers of pool hit ratios.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t deliver_batches = 0;        // handler-dispatch batches
  std::uint64_t deliver_batch_messages = 0; // messages across those batches
  std::uint64_t max_deliver_batch = 0;
  std::uint64_t write_batches = 0;        // sends that completed frames
  std::uint64_t write_batch_frames = 0;   // frames those sends completed
  std::uint64_t max_write_batch = 0;
  // Epoll reactor mechanics (TCP runtime).  All zero on the sim/threads
  // substrates, which have no reactor.
  std::uint64_t epoll_wakeups = 0;  // epoll_wait returns across all workers
  std::uint64_t frames_per_wakeup_max = 0;  // most frames parsed per wakeup
  std::uint64_t eagain_deferrals = 0;  // send EAGAIN/partial -> EPOLLOUT
  std::uint64_t mux_channels_per_socket = 0;  // widest channel->socket fan-in
  // Fault injection + reliability layer.  All zero when no FaultPlan is
  // active (the fault-off path never touches them).
  std::uint64_t faults_injected[kNumFaultKinds] = {};
  std::uint64_t retransmits = 0;      // frames re-sent after an RTO expiry
  std::uint64_t dup_suppressed = 0;   // arrivals discarded as duplicates
  std::uint64_t reconnects = 0;       // TCP channels re-dialed after a reset
  std::uint64_t resync_replayed = 0;  // unacked frames replayed on reconnect
  std::uint64_t channel_down = 0;     // sends that hit a closed/failed peer
};

// Debugger-tier counters (hierarchical debugger; see with_debugger_tree).
// All zero under a flat debugger or no debugger at all.
struct TierSnapshot {
  std::uint64_t tree_fanout = 0;       // widest tier node observed (gauge)
  std::uint64_t acks_aggregated = 0;   // combined subtree reports sent up
  std::uint64_t markers_suppressed = 0;  // redundant wave markers not sent
};

// Control-socket debugger sessions (session_server.hpp).  All zero when no
// SessionServer is attached to the run.
struct SessionSnapshot {
  std::uint64_t opened = 0;        // client sockets adopted
  std::uint64_t closed = 0;        // sessions fully torn down
  std::uint64_t active_peak = 0;   // most concurrently live sessions (gauge)
  std::uint64_t requests = 0;      // protocol requests handled
  std::uint64_t request_errors = 0;  // requests answered with an error status
  // Disconnect-mid-halt outcomes: halt handed to a surviving session vs.
  // released by resuming the computation (last session out).
  std::uint64_t halts_handed_off = 0;
  std::uint64_t halts_released = 0;
};

// Record/replay bookkeeping (src/replay).  The *_logged counters count
// records appended while recording; the *_replayed counters count records
// re-executed by a ReplayDriver.  A registry only ever sees one side: the
// recorded run logs, the replaying simulation replays.  All zero when no
// recorder/driver is attached.
struct ReplaySnapshot {
  std::uint64_t records_logged = 0;  // sum of the five *_logged counters
  std::uint64_t deliveries_logged = 0;
  std::uint64_t timer_sets_logged = 0;
  std::uint64_t timer_fires_logged = 0;
  std::uint64_t cuts_logged = 0;
  std::uint64_t annotations_logged = 0;
  std::uint64_t log_bytes = 0;  // encoded log size at save (gauge)
  std::uint64_t deliveries_replayed = 0;
  std::uint64_t timers_replayed = 0;
  std::uint64_t cuts_replayed = 0;
  std::uint64_t divergences = 0;  // payload-hash mismatches during replay
};

struct MetricsSnapshot {
  std::string runtime;  // "sim" | "threads" | "tcp"
  std::int64_t elapsed_ns = 0;
  TotalsSnapshot totals;
  TransportSnapshot transport;
  TierSnapshot tier;
  SessionSnapshot session;
  ReplaySnapshot replay;
  std::vector<ProcessSnapshotCounters> processes;
  // Sparse: only channels with any recorded activity appear (an idle
  // channel contributes nothing to totals, so the cross-sums still hold).
  std::vector<ChannelSnapshot> channels;
  LatencySnapshot spans[kNumSpans];

  // Stable schema "ddbg.metrics.v1": fixed key order, integers only, no
  // floats — byte-identical for identical runs.
  [[nodiscard]] std::string to_json() const;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

class MetricsRegistry {
 public:
  // `runtime_label` names the substrate in snapshots ("sim", "threads",
  // "tcp"); `channels[i]` describes ChannelId(i).
  MetricsRegistry(std::string runtime_label, std::size_t num_processes,
                  std::vector<ChannelMeta> channels);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // ---- hot path (single relaxed increments; no allocation) ----
  void on_send(std::uint32_t channel, std::uint8_t traffic_class,
               std::size_t wire_bytes) noexcept {
    ChannelCells& c = channels_[channel];
    c.sent[traffic_class].inc();
    c.bytes_sent.add(wire_bytes);
  }
  void on_deliver(std::uint32_t channel, std::uint8_t traffic_class,
                  std::size_t wire_bytes) noexcept {
    ChannelCells& c = channels_[channel];
    c.delivered[traffic_class].inc();
    c.bytes_delivered.add(wire_bytes);
  }
  void observe_backlog(std::uint32_t channel, std::uint64_t depth) noexcept {
    channels_[channel].max_backlog.observe(depth);
  }
  void add_send_blocked(std::uint32_t channel, std::int64_t ns) noexcept {
    if (ns > 0) {
      channels_[channel].send_blocked_ns.add(static_cast<std::uint64_t>(ns));
    }
  }
  void observe_queue_depth(std::uint32_t process,
                           std::uint64_t depth) noexcept {
    process_queue_depth_[process].observe(depth);
  }
  // Transport-mechanics counters.  Unlike the per-channel cells these are
  // shared across worker threads, so the relaxed atomic add is contended —
  // still correct, and these fire at most once per batch/send.
  void on_deliver_batch(std::size_t messages) noexcept {
    transport_.deliver_batches.inc();
    transport_.deliver_batch_messages.add(messages);
    transport_.max_deliver_batch.observe(messages);
  }
  void on_write_batch(std::size_t frames) noexcept {
    transport_.write_batches.inc();
    transport_.write_batch_frames.add(frames);
    transport_.max_write_batch.observe(frames);
  }
  // Epoll reactor counters (TCP runtime only).
  void on_epoll_wakeup() noexcept { transport_.epoll_wakeups.inc(); }
  void observe_frames_per_wakeup(std::size_t frames) noexcept {
    transport_.frames_per_wakeup_max.observe(frames);
  }
  void on_eagain_deferral() noexcept { transport_.eagain_deferrals.inc(); }
  void observe_mux_channels(std::uint64_t channels) noexcept {
    transport_.mux_channels_per_socket.observe(channels);
  }
  // Fault/reliability counters.  `kind_index` is fault_index(FaultKind),
  // i.e. the slot in kFaultKindNames.
  void on_fault(std::size_t kind_index) noexcept {
    transport_.faults_injected[kind_index].inc();
  }
  void on_retransmit() noexcept { transport_.retransmits.inc(); }
  void on_dup_suppressed() noexcept { transport_.dup_suppressed.inc(); }
  void on_reconnect() noexcept { transport_.reconnects.inc(); }
  void on_resync_replayed(std::size_t frames) noexcept {
    transport_.resync_replayed.add(frames);
  }
  void on_channel_down() noexcept { transport_.channel_down.inc(); }
  // Debugger-tier counters.  Fired by aggregators / the wave engines, so a
  // given slot has one writer per tier process — same relaxed discipline.
  void observe_tree_fanout(std::uint64_t children) noexcept {
    tier_.tree_fanout.observe(children);
  }
  void on_ack_aggregated() noexcept { tier_.acks_aggregated.inc(); }
  void on_marker_suppressed() noexcept { tier_.markers_suppressed.inc(); }
  // Debugger-session counters (session_server.hpp).  Fired from session
  // service threads; contended but rare (once per request at most).
  void on_session_opened() noexcept { session_.opened.inc(); }
  void on_session_closed() noexcept { session_.closed.inc(); }
  void observe_active_sessions(std::uint64_t active) noexcept {
    session_.active_peak.observe(active);
  }
  void on_session_request(bool ok) noexcept {
    session_.requests.inc();
    if (!ok) session_.request_errors.inc();
  }
  void on_halt_handed_off() noexcept { session_.halts_handed_off.inc(); }
  void on_halt_released_on_disconnect() noexcept {
    session_.halts_released.inc();
  }
  // Record/replay counters (src/replay).  Recording fires from process and
  // reactor threads under the recorder's mutex; replay fires from the
  // single-threaded driver loop.
  void on_replay_delivery_logged() noexcept {
    replay_.deliveries_logged.inc();
  }
  void on_replay_timer_set_logged() noexcept {
    replay_.timer_sets_logged.inc();
  }
  void on_replay_timer_fire_logged() noexcept {
    replay_.timer_fires_logged.inc();
  }
  void on_replay_cut_logged() noexcept { replay_.cuts_logged.inc(); }
  void on_replay_annotation_logged() noexcept {
    replay_.annotations_logged.inc();
  }
  void on_replay_log_bytes(std::uint64_t bytes) noexcept {
    replay_.log_bytes.observe(bytes);
  }
  void on_replay_delivery_replayed() noexcept {
    replay_.deliveries_replayed.inc();
  }
  void on_replay_timer_replayed() noexcept { replay_.timers_replayed.inc(); }
  void on_replay_cut_replayed() noexcept { replay_.cuts_replayed.inc(); }
  void on_replay_divergence() noexcept { replay_.divergences.inc(); }

  // ---- latency spans (rare control-plane events; mutex-guarded) ----
  // Opens a span unless one with the same key is already open (the
  // earliest begin wins).  Keys are caller-chosen, e.g. a wave id or
  // (breakpoint id, process id) packed into 64 bits.
  void span_begin(Span span, std::uint64_t key, TimePoint now);
  // Closes the span and records its latency; a span_end with no matching
  // begin is a no-op (e.g. a stage re-arm the debugger never initiated).
  void span_end(Span span, std::uint64_t key, TimePoint now);
  [[nodiscard]] const LatencyStat& span_stat(Span span) const {
    return span_stats_[static_cast<std::size_t>(span)];
  }

  // ---- cold path ----
  [[nodiscard]] std::size_t num_processes() const {
    return process_queue_depth_.size();
  }
  [[nodiscard]] std::size_t num_channels() const { return channels_.size(); }
  [[nodiscard]] TotalsSnapshot totals() const;
  [[nodiscard]] MetricsSnapshot snapshot(TimePoint now = {}) const;

  // Packs a (breakpoint/wave, process) pair into a span key.
  [[nodiscard]] static std::uint64_t key(std::uint64_t a, std::uint32_t b) {
    return (a << 32) | b;
  }

 private:
  // Two cache lines per channel, one per writer, so neither the source's
  // nor the destination's relaxed increments contend with the other end or
  // with other channels' traffic.  Who writes each slot, per substrate:
  //   * sent[], bytes_sent: the source process's thread (threads, TCP) or
  //     the single simulator thread, at send time;
  //   * send_blocked_ns: the TCP source's writer, inside the socket write;
  //   * delivered[], bytes_delivered: the destination process's thread, or
  //     the simulator thread, at delivery;
  //   * max_backlog: the TCP destination's frame parser (bytes buffered
  //     awaiting parse), or the simulator thread at send time (in-flight
  //     messages; one thread, so its line never bounces).
  struct alignas(64) ChannelCells {
    // Source-written line.
    Counter sent[kNumTrafficClasses];
    Counter bytes_sent;
    Counter send_blocked_ns;
    // Destination-written line.
    alignas(64) Counter delivered[kNumTrafficClasses];
    Counter bytes_delivered;
    MaxGauge max_backlog;
  };
  static_assert(offsetof(ChannelCells, send_blocked_ns) + sizeof(Counter) <=
                64);
  static_assert(offsetof(ChannelCells, delivered) == 64);
  static_assert(sizeof(ChannelCells) == 128);

  struct TierCells {
    MaxGauge tree_fanout;
    Counter acks_aggregated;
    Counter markers_suppressed;
  };

  struct SessionCells {
    Counter opened;
    Counter closed;
    MaxGauge active_peak;
    Counter requests;
    Counter request_errors;
    Counter halts_handed_off;
    Counter halts_released;
  };

  struct ReplayCells {
    Counter deliveries_logged;
    Counter timer_sets_logged;
    Counter timer_fires_logged;
    Counter cuts_logged;
    Counter annotations_logged;
    MaxGauge log_bytes;
    Counter deliveries_replayed;
    Counter timers_replayed;
    Counter cuts_replayed;
    Counter divergences;
  };

  struct TransportCells {
    Counter deliver_batches;
    Counter deliver_batch_messages;
    MaxGauge max_deliver_batch;
    Counter write_batches;
    Counter write_batch_frames;
    MaxGauge max_write_batch;
    Counter epoll_wakeups;
    MaxGauge frames_per_wakeup_max;
    Counter eagain_deferrals;
    MaxGauge mux_channels_per_socket;
    Counter faults_injected[kNumFaultKinds];
    Counter retransmits;
    Counter dup_suppressed;
    Counter reconnects;
    Counter resync_replayed;
    Counter channel_down;
  };

  std::string runtime_label_;
  std::vector<ChannelMeta> meta_;
  std::vector<ChannelCells> channels_;
  std::vector<MaxGauge> process_queue_depth_;
  TransportCells transport_;
  TierCells tier_;
  SessionCells session_;
  ReplayCells replay_;

  LatencyStat span_stats_[kNumSpans];
  std::mutex span_mutex_;
  std::unordered_map<std::uint64_t, std::int64_t> open_spans_[kNumSpans];
};

}  // namespace ddbg::obs
