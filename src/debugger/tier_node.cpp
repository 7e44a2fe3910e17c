#include "debugger/tier_node.hpp"

#include <tuple>
#include <utility>

#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace ddbg {

void TierNode::bind(ProcessContext& ctx) {
  topology_ = &ctx.topology();
  self_ = ctx.self();
  parent_ = topology_->tier_parent(self_);
  if (parent_.valid()) up_channel_ = topology_->control_from(self_);
  const auto children = topology_->tier_children(self_);
  children_.assign(children.begin(), children.end());
  std::tie(user_lo_, user_hi_) = topology_->tier_user_range(self_);
  if (obs::MetricsRegistry* m = ctx.metrics()) {
    m->observe_tree_fanout(children_.size());
  }
}

void TierNode::on_message(ProcessContext& ctx, ChannelId in,
                          Message message) {
  switch (message.kind) {
    case MessageKind::kHaltMarker: {
      DDBG_ASSERT(message.halt.has_value(), "halt marker without data");
      const HaltMarkerData& data = *message.halt;
      join(ctx, topology_->channel(in).source, Wave::kHalt,
           data.halt_id.value(), data.halt_path);
      return;
    }
    case MessageKind::kSnapshotMarker: {
      DDBG_ASSERT(message.snapshot.has_value(), "snapshot marker w/o data");
      join(ctx, topology_->channel(in).source, Wave::kSnapshot,
           message.snapshot->snapshot_id, {});
      return;
    }
    case MessageKind::kControl: {
      auto command = Command::decode(message.payload);
      if (!command.ok()) {
        DDBG_ERROR() << describe_state() << " " << to_string(self_)
                     << ": bad control message: "
                     << command.error().to_string();
        return;
      }
      if (const char* why = fault(in, command.value())) {
        DDBG_WARN() << describe_state() << " " << to_string(self_)
                    << ": dropped " << to_string(command.value().kind)
                    << " from " << to_string(topology_->channel(in).source)
                    << ": " << why;
        return;
      }
      switch (command.value().kind) {
        case CommandKind::kHaltReport:
          collect(ctx, Wave::kHalt, command.value());
          return;
        case CommandKind::kSnapshotReport:
          collect(ctx, Wave::kSnapshot, command.value());
          return;
        default:
          handle_command(ctx, in, message, std::move(command).value());
          return;
      }
    }
    default:
      DDBG_WARN() << describe_state() << " " << to_string(self_)
                  << ": unexpected " << to_string(message.kind);
  }
}

bool TierNode::adopt(ProcessContext& ctx, Wave kind, std::uint64_t id) {
  WaveTable& waves = table(kind);
  if (id <= waves.last_id) return false;
  waves.last_id = id;
  waves.entries.try_emplace(id).first->second.started_at = ctx.now();
  return true;
}

void TierNode::join(ProcessContext& ctx, ProcessId origin, Wave kind,
                    std::uint64_t id, std::span<const ProcessId> path) {
  if (!adopt(ctx, kind, id)) return;
  Message marker;
  if (kind == Wave::kHalt) {
    std::vector<ProcessId> halt_path(path.begin(), path.end());
    halt_path.push_back(self_);
    marker = Message::halt_marker(HaltId(id), std::move(halt_path));
  } else {
    marker = Message::snapshot_marker(id);
  }
  obs::MetricsRegistry* m = ctx.metrics();
  if (parent_.valid()) {
    // Upward, unless the wave just came down from the parent: the parent
    // demonstrably knows the wave already, so the echo is pure duplicate.
    if (origin == parent_) {
      if (m) m->on_marker_suppressed();
    } else {
      ctx.send(up_channel_, marker);
    }
  }
  std::uint64_t sent = 0;
  for (const ProcessId child : children_) {
    // A child aggregator that sent us this wave already flooded its own
    // subtree; re-sending would bounce the marker once per tier edge.  A
    // *user* child always gets the marker even if it originated the wave —
    // it needs one on its control in-channel to close that channel's
    // recorded state (Lemma 2.2).
    if (child == origin && topology_->is_aggregator(child)) {
      if (m) m->on_marker_suppressed();
      continue;
    }
    ctx.send(topology_->control_to(child), marker);
    ++sent;
  }
  markers_forwarded_ += sent;
}

void TierNode::collect(ProcessContext& ctx, Wave kind,
                       const Command& report) {
  WaveTable& waves = table(kind);
  const auto it = waves.entries.find(report.wave_id);
  const char* why = nullptr;
  if (it == waves.entries.end()) {
    why = "not open here";  // never adopted, or shipped already
  } else if (it->second.encoded != nullptr) {
    why = "complete";  // final: a session may hold its S_h already
  } else if (!it->second.fragment.fits(report.records.size())) {
    why = "past 4 GiB";
  }
  if (why != nullptr) {
    DDBG_WARN() << describe_state() << " " << to_string(self_)
                << ": dropped " << to_string(report.kind) << " for wave "
                << report.wave_id << " from " << to_string(report.reporter)
                << ": " << why;
    return;
  }
  WaveEntry& entry = it->second;
  const std::size_t users = user_hi_ - user_lo_;
  for (std::size_t i = 0; i < report.reports.size(); ++i) {
    entry.fragment.put(users, report.reports[i].process.value() - user_lo_,
                       report.record(i));
  }
  if (!entry.fragment.full()) return;
  on_full(ctx, kind, it->first, entry);
  if (entry.encoded == nullptr) waves.entries.erase(it);
}

void TierNode::send_down(ProcessContext& ctx, ProcessId target,
                         Bytes encoded) {
  if (!target.valid()) {
    // Every child but the last gets a copy; the last gets the original.
    for (std::size_t i = 0; i < children_.size(); ++i) {
      const bool last = i + 1 == children_.size();
      ctx.send(topology_->control_to(children_[i]),
               Message::control(last ? std::move(encoded) : encoded));
    }
    return;
  }
  for (const ProcessId child : children_) {
    const auto [lo, hi] = topology_->tier_user_range(child);
    if (target.value() >= lo && target.value() < hi) {
      ctx.send(topology_->control_to(child),
               Message::control(std::move(encoded)));
      return;
    }
  }
  DDBG_WARN() << describe_state() << " " << to_string(self_)
              << ": no child covers " << to_string(target);
}

void TierNode::Fragment::put(std::size_t users, std::size_t slot,
                             std::span<const std::uint8_t> record) {
  DDBG_ASSERT(!record.empty() && fits(record.size()),
              "a record is non-empty and the arena keeps 32-bit offsets");
  if (slots_.empty()) slots_.resize(users);
  Slot& s = slots_[slot];
  if (s.size == 0) ++filled_;
  s = Slot{static_cast<std::uint32_t>(arena_.size()),
           static_cast<std::uint32_t>(record.size())};
  arena_.insert(arena_.end(), record.begin(), record.end());
}

void TierNode::Fragment::splice_into(Command& report,
                                     std::uint32_t user_lo) const {
  report.records.reserve(report.records.size() + arena_.size());
  report.reports.reserve(report.reports.size() + filled_);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot s = slots_[i];
    if (s.size == 0) continue;
    report.add_report(ProcessId(user_lo + static_cast<std::uint32_t>(i)),
                      std::span(arena_).subspan(s.offset, s.size));
  }
}

Bytes TierNode::Fragment::encode_snapshots() const {
  std::size_t size = varint_size(filled_);
  for (const Slot s : slots_) size += s.size;
  Bytes out;
  out.reserve(size);
  ByteWriter writer(out);
  writer.varint(filled_);
  for (const Slot s : slots_) {
    writer.raw(std::span(arena_).subspan(s.offset, s.size));
  }
  return out;
}

bool TierNode::covers(ChannelId in, ProcessId p) const {
  const auto [lo, hi] =
      topology_->tier_user_range(topology_->channel(in).source);
  return p.value() >= lo && p.value() < hi;
}

const char* TierNode::fault(ChannelId in, const Command& command) const {
  const bool from_parent =
      parent_.valid() && topology_->channel(in).source == parent_;
  if (is_downward(command.kind)) {
    return from_parent ? nullptr : "downward command from a child";
  }
  if (from_parent) return "upward command from the parent";
  switch (command.kind) {
    case CommandKind::kHaltReport:
    case CommandKind::kSnapshotReport:
      // An aggregator reports under its own name; its snapshots are checked.
      if (command.reports.empty()) return "report without a snapshot";
      break;
    case CommandKind::kStateReport:
      if (command.reports.size() != 1) return "not exactly one snapshot";
      [[fallthrough]];
    default:
      if (!covers(in, command.reporter)) return "reporter outside the subtree";
  }
  for (const SnapshotRecord& record : command.reports) {
    if (!covers(in, record.process)) return "snapshot outside the subtree";
  }
  if (command.kind == CommandKind::kRouteMarker &&
      command.target.value() >= topology_->num_user_processes()) {
    return "route to a nonexistent user";
  }
  return nullptr;
}

}  // namespace ddbg
