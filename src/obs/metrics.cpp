#include "obs/metrics.hpp"

#include <utility>

namespace ddbg::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

void append_latency(std::string& out, const char* name,
                    const LatencySnapshot& l) {
  out += '"';
  out += name;
  out += "\":{\"count\":";
  append_u64(out, l.count);
  out += ",\"total_ns\":";
  append_u64(out, l.total_ns);
  out += ",\"min_ns\":";
  append_u64(out, l.min_ns);
  out += ",\"max_ns\":";
  append_u64(out, l.max_ns);
  out += '}';
}

void append_class_counts(std::string& out, const char* name,
                         const std::uint64_t (&counts)[kNumTrafficClasses]) {
  out += '"';
  out += name;
  out += "\":{";
  for (std::size_t i = 0; i < kNumTrafficClasses; ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += kTrafficClassNames[i];
    out += "\":";
    append_u64(out, counts[i]);
  }
  out += '}';
}

}  // namespace

std::uint64_t ChannelSnapshot::messages_sent() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : sent) total += n;
  return total;
}

std::uint64_t ChannelSnapshot::messages_delivered() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : delivered) total += n;
  return total;
}

MetricsRegistry::MetricsRegistry(std::string runtime_label,
                                 std::size_t num_processes,
                                 std::vector<ChannelMeta> channels)
    : runtime_label_(std::move(runtime_label)),
      meta_(std::move(channels)),
      channels_(meta_.size()),
      process_queue_depth_(num_processes) {}

void MetricsRegistry::span_begin(Span span, std::uint64_t key, TimePoint now) {
  std::lock_guard<std::mutex> guard{span_mutex_};
  // Keep the earliest begin for a key: begin attempts from several threads
  // of a threaded runtime (e.g. a halt wave observed by several processes)
  // must resolve to the same span start regardless of arrival order.
  auto& open = open_spans_[static_cast<std::size_t>(span)];
  auto [it, inserted] = open.try_emplace(key, now.ns);
  if (!inserted && now.ns < it->second) it->second = now.ns;
}

void MetricsRegistry::span_end(Span span, std::uint64_t key, TimePoint now) {
  std::int64_t started = 0;
  {
    std::lock_guard<std::mutex> guard{span_mutex_};
    auto& open = open_spans_[static_cast<std::size_t>(span)];
    auto it = open.find(key);
    if (it == open.end()) return;
    started = it->second;
    open.erase(it);
  }
  span_stats_[static_cast<std::size_t>(span)].record(now.ns - started);
}

TotalsSnapshot MetricsRegistry::totals() const {
  TotalsSnapshot t;
  for (const ChannelCells& c : channels_) {
    for (std::size_t k = 0; k < kNumTrafficClasses; ++k) {
      t.sent[k] += c.sent[k].get();
      t.delivered[k] += c.delivered[k].get();
    }
    t.bytes_sent += c.bytes_sent.get();
    t.bytes_delivered += c.bytes_delivered.get();
  }
  for (std::size_t k = 0; k < kNumTrafficClasses; ++k) {
    t.messages_sent += t.sent[k];
    t.messages_delivered += t.delivered[k];
  }
  return t;
}

MetricsSnapshot MetricsRegistry::snapshot(TimePoint now) const {
  MetricsSnapshot snap;
  snap.runtime = runtime_label_;
  snap.elapsed_ns = now.ns;

  snap.transport.deliver_batches = transport_.deliver_batches.get();
  snap.transport.deliver_batch_messages =
      transport_.deliver_batch_messages.get();
  snap.transport.max_deliver_batch = transport_.max_deliver_batch.get();
  snap.transport.write_batches = transport_.write_batches.get();
  snap.transport.write_batch_frames = transport_.write_batch_frames.get();
  snap.transport.max_write_batch = transport_.max_write_batch.get();
  snap.transport.epoll_wakeups = transport_.epoll_wakeups.get();
  snap.transport.frames_per_wakeup_max =
      transport_.frames_per_wakeup_max.get();
  snap.transport.eagain_deferrals = transport_.eagain_deferrals.get();
  snap.transport.mux_channels_per_socket =
      transport_.mux_channels_per_socket.get();
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    snap.transport.faults_injected[k] = transport_.faults_injected[k].get();
  }
  snap.transport.retransmits = transport_.retransmits.get();
  snap.transport.dup_suppressed = transport_.dup_suppressed.get();
  snap.transport.reconnects = transport_.reconnects.get();
  snap.transport.resync_replayed = transport_.resync_replayed.get();
  snap.transport.channel_down = transport_.channel_down.get();

  snap.tier.tree_fanout = tier_.tree_fanout.get();
  snap.tier.acks_aggregated = tier_.acks_aggregated.get();
  snap.tier.markers_suppressed = tier_.markers_suppressed.get();

  snap.session.opened = session_.opened.get();
  snap.session.closed = session_.closed.get();
  snap.session.active_peak = session_.active_peak.get();
  snap.session.requests = session_.requests.get();
  snap.session.request_errors = session_.request_errors.get();
  snap.session.halts_handed_off = session_.halts_handed_off.get();
  snap.session.halts_released = session_.halts_released.get();

  snap.replay.deliveries_logged = replay_.deliveries_logged.get();
  snap.replay.timer_sets_logged = replay_.timer_sets_logged.get();
  snap.replay.timer_fires_logged = replay_.timer_fires_logged.get();
  snap.replay.cuts_logged = replay_.cuts_logged.get();
  snap.replay.annotations_logged = replay_.annotations_logged.get();
  snap.replay.records_logged =
      snap.replay.deliveries_logged + snap.replay.timer_sets_logged +
      snap.replay.timer_fires_logged + snap.replay.cuts_logged +
      snap.replay.annotations_logged;
  snap.replay.log_bytes = replay_.log_bytes.get();
  snap.replay.deliveries_replayed = replay_.deliveries_replayed.get();
  snap.replay.timers_replayed = replay_.timers_replayed.get();
  snap.replay.cuts_replayed = replay_.cuts_replayed.get();
  snap.replay.divergences = replay_.divergences.get();

  snap.processes.resize(process_queue_depth_.size());
  for (std::size_t i = 0; i < snap.processes.size(); ++i) {
    snap.processes[i].id = static_cast<std::uint32_t>(i);
    snap.processes[i].max_queue_depth = process_queue_depth_[i].get();
  }

  // Channels are materialized sparsely: every cell still feeds the totals
  // and the per-process attribution, but only channels with some activity
  // get an entry (a complete graph at N=1024 has ~1M channels, nearly all
  // idle in any one run).
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const ChannelCells& cells = channels_[i];
    ChannelSnapshot ch;
    ch.id = static_cast<std::uint32_t>(i);
    ch.source = meta_[i].source;
    ch.destination = meta_[i].destination;
    ch.is_control = meta_[i].is_control;
    for (std::size_t k = 0; k < kNumTrafficClasses; ++k) {
      ch.sent[k] = cells.sent[k].get();
      ch.delivered[k] = cells.delivered[k].get();
    }
    ch.bytes_sent = cells.bytes_sent.get();
    ch.bytes_delivered = cells.bytes_delivered.get();
    ch.send_blocked_ns = cells.send_blocked_ns.get();
    ch.max_backlog = cells.max_backlog.get();

    // Attribute channel traffic to its endpoint processes.
    if (ch.source < snap.processes.size()) {
      ProcessSnapshotCounters& p = snap.processes[ch.source];
      for (std::size_t k = 0; k < kNumTrafficClasses; ++k) {
        p.sent[k] += ch.sent[k];
      }
      p.bytes_sent += ch.bytes_sent;
    }
    if (ch.destination < snap.processes.size()) {
      ProcessSnapshotCounters& p = snap.processes[ch.destination];
      for (std::size_t k = 0; k < kNumTrafficClasses; ++k) {
        p.delivered[k] += ch.delivered[k];
      }
      p.bytes_delivered += ch.bytes_delivered;
    }

    for (std::size_t k = 0; k < kNumTrafficClasses; ++k) {
      snap.totals.sent[k] += ch.sent[k];
      snap.totals.delivered[k] += ch.delivered[k];
    }
    snap.totals.bytes_sent += ch.bytes_sent;
    snap.totals.bytes_delivered += ch.bytes_delivered;

    const bool active = ch.messages_sent() != 0 ||
                        ch.messages_delivered() != 0 || ch.bytes_sent != 0 ||
                        ch.bytes_delivered != 0 || ch.send_blocked_ns != 0 ||
                        ch.max_backlog != 0;
    if (active) snap.channels.push_back(ch);
  }
  for (std::size_t k = 0; k < kNumTrafficClasses; ++k) {
    snap.totals.messages_sent += snap.totals.sent[k];
    snap.totals.messages_delivered += snap.totals.delivered[k];
  }

  for (std::size_t s = 0; s < kNumSpans; ++s) {
    const LatencyStat& stat = span_stats_[s];
    snap.spans[s] = LatencySnapshot{stat.count(), stat.total_ns(),
                                    stat.min_ns(), stat.max_ns()};
  }
  return snap;
}

std::string MetricsSnapshot::to_json() const {
  std::string out;
  out.reserve(512 + channels.size() * 256 + processes.size() * 160);

  out += "{\"schema\":\"ddbg.metrics.v1\",\"runtime\":\"";
  out += runtime;  // labels are fixed identifiers; no escaping needed
  out += "\",\"elapsed_ns\":";
  out += std::to_string(elapsed_ns);

  out += ",\"totals\":{\"messages_sent\":";
  append_u64(out, totals.messages_sent);
  out += ",\"messages_delivered\":";
  append_u64(out, totals.messages_delivered);
  out += ",\"bytes_sent\":";
  append_u64(out, totals.bytes_sent);
  out += ",\"bytes_delivered\":";
  append_u64(out, totals.bytes_delivered);
  out += ',';
  append_class_counts(out, "sent", totals.sent);
  out += ',';
  append_class_counts(out, "delivered", totals.delivered);
  out += '}';

  out += ",\"transport\":{\"pool_hits\":";
  append_u64(out, transport.pool_hits);
  out += ",\"pool_misses\":";
  append_u64(out, transport.pool_misses);
  out += ",\"deliver_batches\":";
  append_u64(out, transport.deliver_batches);
  out += ",\"deliver_batch_messages\":";
  append_u64(out, transport.deliver_batch_messages);
  out += ",\"max_deliver_batch\":";
  append_u64(out, transport.max_deliver_batch);
  out += ",\"write_batches\":";
  append_u64(out, transport.write_batches);
  out += ",\"write_batch_frames\":";
  append_u64(out, transport.write_batch_frames);
  out += ",\"max_write_batch\":";
  append_u64(out, transport.max_write_batch);
  out += ",\"epoll_wakeups\":";
  append_u64(out, transport.epoll_wakeups);
  out += ",\"frames_per_wakeup_max\":";
  append_u64(out, transport.frames_per_wakeup_max);
  out += ",\"eagain_deferrals\":";
  append_u64(out, transport.eagain_deferrals);
  out += ",\"mux_channels_per_socket\":";
  append_u64(out, transport.mux_channels_per_socket);
  out += ",\"faults_injected\":{";
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    if (k != 0) out += ',';
    out += '"';
    out += kFaultKindNames[k];
    out += "\":";
    append_u64(out, transport.faults_injected[k]);
  }
  out += "},\"retransmits\":";
  append_u64(out, transport.retransmits);
  out += ",\"dup_suppressed\":";
  append_u64(out, transport.dup_suppressed);
  out += ",\"reconnects\":";
  append_u64(out, transport.reconnects);
  out += ",\"resync_replayed\":";
  append_u64(out, transport.resync_replayed);
  out += ",\"channel_down\":";
  append_u64(out, transport.channel_down);
  out += '}';

  out += ",\"tier\":{\"tree_fanout\":";
  append_u64(out, tier.tree_fanout);
  out += ",\"acks_aggregated\":";
  append_u64(out, tier.acks_aggregated);
  out += ",\"markers_suppressed\":";
  append_u64(out, tier.markers_suppressed);
  out += '}';

  out += ",\"session\":{\"opened\":";
  append_u64(out, session.opened);
  out += ",\"closed\":";
  append_u64(out, session.closed);
  out += ",\"active_peak\":";
  append_u64(out, session.active_peak);
  out += ",\"requests\":";
  append_u64(out, session.requests);
  out += ",\"request_errors\":";
  append_u64(out, session.request_errors);
  out += ",\"halts_handed_off\":";
  append_u64(out, session.halts_handed_off);
  out += ",\"halts_released\":";
  append_u64(out, session.halts_released);
  out += '}';

  out += ",\"replay\":{\"records_logged\":";
  append_u64(out, replay.records_logged);
  out += ",\"deliveries_logged\":";
  append_u64(out, replay.deliveries_logged);
  out += ",\"timer_sets_logged\":";
  append_u64(out, replay.timer_sets_logged);
  out += ",\"timer_fires_logged\":";
  append_u64(out, replay.timer_fires_logged);
  out += ",\"cuts_logged\":";
  append_u64(out, replay.cuts_logged);
  out += ",\"annotations_logged\":";
  append_u64(out, replay.annotations_logged);
  out += ",\"log_bytes\":";
  append_u64(out, replay.log_bytes);
  out += ",\"deliveries_replayed\":";
  append_u64(out, replay.deliveries_replayed);
  out += ",\"timers_replayed\":";
  append_u64(out, replay.timers_replayed);
  out += ",\"cuts_replayed\":";
  append_u64(out, replay.cuts_replayed);
  out += ",\"divergences\":";
  append_u64(out, replay.divergences);
  out += '}';

  out += ",\"processes\":[";
  for (std::size_t i = 0; i < processes.size(); ++i) {
    const ProcessSnapshotCounters& p = processes[i];
    if (i != 0) out += ',';
    out += "{\"id\":";
    append_u64(out, p.id);
    out += ",\"bytes_sent\":";
    append_u64(out, p.bytes_sent);
    out += ",\"bytes_delivered\":";
    append_u64(out, p.bytes_delivered);
    out += ",\"max_queue_depth\":";
    append_u64(out, p.max_queue_depth);
    out += ',';
    append_class_counts(out, "sent", p.sent);
    out += ',';
    append_class_counts(out, "delivered", p.delivered);
    out += '}';
  }
  out += ']';

  out += ",\"channels\":[";
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const ChannelSnapshot& ch = channels[i];
    if (i != 0) out += ',';
    out += "{\"id\":";
    append_u64(out, ch.id);
    out += ",\"source\":";
    append_u64(out, ch.source);
    out += ",\"destination\":";
    append_u64(out, ch.destination);
    out += ",\"control\":";
    out += ch.is_control ? "true" : "false";
    out += ",\"bytes_sent\":";
    append_u64(out, ch.bytes_sent);
    out += ",\"bytes_delivered\":";
    append_u64(out, ch.bytes_delivered);
    out += ",\"send_blocked_ns\":";
    append_u64(out, ch.send_blocked_ns);
    out += ",\"max_backlog\":";
    append_u64(out, ch.max_backlog);
    out += ',';
    append_class_counts(out, "sent", ch.sent);
    out += ',';
    append_class_counts(out, "delivered", ch.delivered);
    out += '}';
  }
  out += ']';

  out += ",\"latencies\":{";
  for (std::size_t s = 0; s < kNumSpans; ++s) {
    if (s != 0) out += ',';
    append_latency(out, kSpanNames[s], spans[s]);
  }
  out += "}}";
  return out;
}

}  // namespace ddbg::obs
