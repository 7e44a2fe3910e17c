#include "net/reliable_link.hpp"

#include "common/logging.hpp"
#include "net/replay_hooks.hpp"
#include "obs/metrics.hpp"

namespace ddbg {

namespace {
// Scratch for retry checks and arriving frames.  Neither use re-enters the
// link on the same thread (ports only emit), so one buffer per thread
// serves every link that thread drives.
thread_local std::vector<std::uint64_t> t_due;
thread_local std::vector<ReliableReceiver::Delivery> t_released;
}  // namespace

ReliableLink::ReliableLink(std::span<const ChannelId> out,
                           std::span<const ChannelId> in,
                           const FaultPlan& plan, ReliableConfig config,
                           obs::MetricsRegistry& metrics, ReplaySink* replay)
    : plan_(&plan),
      metrics_(&metrics),
      replay_(replay),
      redial_(config.rto_initial) {
  out_.reserve(out.size());
  for (const ChannelId channel : out) {
    out_.push_back(Out{ReliableSender(config), 0, channel});
  }
  in_.reserve(in.size());
  for (const ChannelId channel : in) {
    in_.push_back(In{ReliableReceiver(), 0, channel});
  }
}

void ReliableLink::send(Port& port, std::size_t slot, Message&& message,
                        std::uint64_t meta, TimePoint now) {
  const std::uint64_t seq = out_[slot].sender.stage(std::move(message), meta,
                                                    now);
  transmit(port, slot, seq, now);
  arm(port, slot, now);
}

void ReliableLink::on_ack(std::size_t slot, std::uint64_t cum_ack) {
  out_[slot].sender.ack(cum_ack);
}

void ReliableLink::on_retry(Port& port, std::size_t slot, TimePoint now) {
  out_[slot].retry_armed = false;
  retransmit_due(port, slot, now);
}

void ReliableLink::resync(Port& port, std::size_t slot, TimePoint now) {
  Out& out = out_[slot];
  out.reconnect_pending = false;
  metrics_->on_reconnect();
  annotate(kReplayAnnotationReconnect, out.channel, 0);
  const std::size_t replayed = out.sender.mark_all_due(now);
  metrics_->on_resync_replayed(replayed);
  annotate(kReplayAnnotationResync, out.channel, replayed);
  retransmit_due(port, slot, now);
}

void ReliableLink::transmit(Port& port, std::size_t slot, std::uint64_t seq,
                            TimePoint now) {
  Out& out = out_[slot];
  const ReliableSender::Staged* staged = out.sender.peek(seq);
  if (staged == nullptr) return;  // acked while a retry was queued
  const ChannelId channel = out.channel;
  const std::uint64_t attempt = out.attempts++;
  const FaultDecision fault = plan_->decide(channel, attempt);
  if (fault.kind != FaultKind::kNone) {
    metrics_->on_fault(fault_index(fault.kind));
    annotate(static_cast<std::uint8_t>(fault_index(fault.kind)), channel,
             attempt);
  }
  switch (fault.kind) {
    case FaultKind::kDrop:
    case FaultKind::kPartition:
      return;  // the frame vanishes; the retransmit timer recovers
    case FaultKind::kReset:
      // The frame is lost with the connection.  One resync per outage
      // replays the whole unacked window once the channel is back.
      metrics_->on_channel_down();
      if (out.reconnect_pending) return;
      out.reconnect_pending = true;
      port.lose_connection(slot, channel, now + redial_);
      return;
    case FaultKind::kDuplicate:
      port.transmit_data(slot, channel, seq, *staged, attempt, Duration{0},
                         true);
      port.transmit_data(slot, channel, seq, *staged, attempt, Duration{0},
                         false);
      return;
    case FaultKind::kReorder:
    case FaultKind::kDelay:
    case FaultKind::kNone:
      port.transmit_data(slot, channel, seq, *staged, attempt,
                         fault.extra_delay, false);
      return;
  }
}

void ReliableLink::retransmit_due(Port& port, std::size_t slot,
                                  TimePoint now) {
  std::vector<std::uint64_t>& due = t_due;
  out_[slot].sender.due(now, due);
  for (const std::uint64_t seq : due) {
    metrics_->on_retransmit();
    transmit(port, slot, seq, now);
  }
  arm(port, slot, now);
}

void ReliableLink::arm(Port& port, std::size_t slot, TimePoint now) {
  Out& out = out_[slot];
  if (out.retry_armed) return;  // the armed check re-arms when it fires
  const auto deadline = out.sender.next_deadline();
  if (!deadline.has_value()) return;
  out.retry_armed = true;
  port.arm_retry(slot, out.channel, *deadline < now ? now : *deadline);
}

void ReliableLink::receive(Port& port, std::size_t slot, std::uint64_t seq,
                           Message&& message, std::uint64_t meta) {
  In& in = in_[slot];
  std::vector<ReliableReceiver::Delivery>& released = t_released;
  released.clear();
  const auto accept =
      in.receiver.on_frame(seq, std::move(message), meta, released);
  if (accept == ReliableReceiver::Accept::kDuplicate) {
    metrics_->on_dup_suppressed();
  }
  for (auto& delivery : released) {
    port.deliver(slot, in.channel, std::move(delivery.message),
                 delivery.meta);
  }
}

void ReliableLink::receive_in_place(Port& port, std::size_t slot,
                                    std::uint64_t seq) {
  if (!in_[slot].receiver.wants(seq)) {
    metrics_->on_dup_suppressed();
    return;
  }
  ReliableSender::Staged* staged = out_[slot].sender.peek(seq);
  DDBG_ASSERT(staged != nullptr, "a wanted frame left its sender's window");
  receive(port, slot, seq, std::move(staged->message), staged->meta);
}

void ReliableLink::acknowledge(Port& port, std::size_t slot) {
  In& in = in_[slot];
  const ChannelId channel = in.channel;
  const std::uint64_t attempt = in.ack_attempts++;
  const FaultDecision fault = plan_->decide_ack(channel, attempt);
  if (fault.kind != FaultKind::kNone) {
    metrics_->on_fault(fault_index(fault.kind));
    annotate(static_cast<std::uint8_t>(fault_index(fault.kind)), channel,
             attempt);
  }
  // A dropped ack costs nothing: acks are cumulative, so the next one
  // carries its news.
  if (fault.kind == FaultKind::kDrop) return;
  port.transmit_ack(slot, channel, in.receiver.cum_ack(), attempt,
                    fault.extra_delay);
}

void ReliableLink::annotate(std::uint8_t kind, ChannelId channel,
                            std::uint64_t detail) {
  if (replay_ != nullptr) replay_->record_annotation(kind, channel, detail);
}

}  // namespace ddbg
