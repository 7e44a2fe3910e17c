#include "core/marker_wave.hpp"

#include "obs/metrics.hpp"

namespace ddbg {

MarkerWave::MarkerWave(ProcessId self, const Topology* topology,
                       bool suppress_control_echo)
    : self_(self),
      topology_(topology),
      suppress_control_echo_(suppress_control_echo) {
  DDBG_ASSERT(topology_ != nullptr, "MarkerWave needs a topology");
  const auto in = topology_->in_channels(self_);
  in_.reserve(in.size());
  for (const ChannelId c : in) in_.push_back(InChannel{c});
}

void MarkerWave::begin(ProcessContext& ctx, std::uint64_t id,
                       bool from_control) {
  DDBG_ASSERT(id > id_, "waves are numbered upward");
  id_ = id;
  active_ = true;
  from_control_ = from_control;
  pending_ = in_.size();
  snapshot_.captured_at = ctx.now();
  snapshot_.in_channels.clear();
}

void MarkerWave::send_markers(ProcessContext& ctx,
                              const Message& marker) const {
  for (const ChannelId c : topology_->out_channels(self_)) {
    if (suppress_control_echo_ && from_control_ &&
        topology_->channel(c).is_control) {
      if (obs::MetricsRegistry* m = ctx.metrics()) m->on_marker_suppressed();
      continue;
    }
    ctx.send(c, marker);
  }
}

MarkerWave::InChannel* MarkerWave::find(ChannelId in) {
  if (in.value() >= topology_->num_channels()) return nullptr;
  const std::uint32_t slot = topology_->in_slot(in);
  return slot < in_.size() && in_[slot].id == in ? &in_[slot] : nullptr;
}

bool MarkerWave::close(ChannelId in) {
  InChannel* channel = find(in);
  if (channel == nullptr || channel->closed_in == id_) return false;
  channel->closed_in = id_;
  return --pending_ == 0;
}

void MarkerWave::record(ChannelId in, const Bytes& payload) {
  if (!active_) return;
  InChannel* channel = find(in);
  if (channel == nullptr || channel->closed_in == id_ ||
      topology_->channel(in).is_control) {
    return;
  }
  std::vector<ChannelState>& states = snapshot_.in_channels;
  if (channel->state >= states.size() ||
      states[channel->state].channel != in) {
    channel->state = static_cast<std::uint32_t>(states.size());
    states.push_back(ChannelState{in, {}});
  }
  states[channel->state].messages.push_back(payload);
}

}  // namespace ddbg
