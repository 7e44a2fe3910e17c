#include "core/global_state.hpp"

#include <algorithm>
#include <sstream>

#include "common/result.hpp"

namespace ddbg {

void ProcessSnapshot::encode(ByteWriter& writer) const {
  writer.varint(process.value());
  writer.bytes(state);
  writer.str(description);
  writer.varint(in_channels.size());
  for (const ChannelState& cs : in_channels) {
    writer.varint(cs.channel.value());
    writer.varint(cs.messages.size());
    for (const Bytes& payload : cs.messages) writer.bytes(payload);
  }
  writer.varint(halt_path.size());
  for (const ProcessId p : halt_path) writer.varint(p.value());
  vclock.encode(writer);
  writer.i64(captured_at.ns);
}

Result<ProcessSnapshot> ProcessSnapshot::decode(ByteReader& reader) {
  ProcessSnapshot snap;
  auto process = reader.varint();
  if (!process.ok()) return process.error();
  snap.process = ProcessId(static_cast<std::uint32_t>(process.value()));

  auto state = reader.bytes();
  if (!state.ok()) return state.error();
  snap.state = std::move(state).value();

  auto description = reader.str();
  if (!description.ok()) return description.error();
  snap.description = std::move(description).value();

  auto num_channels = reader.count();
  if (!num_channels.ok()) return num_channels.error();
  snap.in_channels.reserve(num_channels.value());
  for (std::uint64_t i = 0; i < num_channels.value(); ++i) {
    ChannelState cs;
    auto channel = reader.varint();
    if (!channel.ok()) return channel.error();
    cs.channel = ChannelId(static_cast<std::uint32_t>(channel.value()));
    auto num_messages = reader.count();
    if (!num_messages.ok()) return num_messages.error();
    cs.messages.reserve(num_messages.value());
    for (std::uint64_t j = 0; j < num_messages.value(); ++j) {
      auto payload = reader.bytes();
      if (!payload.ok()) return payload.error();
      cs.messages.push_back(std::move(payload).value());
    }
    snap.in_channels.push_back(std::move(cs));
  }

  auto path_len = reader.count();
  if (!path_len.ok()) return path_len.error();
  snap.halt_path.reserve(path_len.value());
  for (std::uint64_t i = 0; i < path_len.value(); ++i) {
    auto p = reader.varint();
    if (!p.ok()) return p.error();
    snap.halt_path.push_back(ProcessId(static_cast<std::uint32_t>(p.value())));
  }

  auto vclock = VectorClock::decode(reader);
  if (!vclock.ok()) return vclock.error();
  snap.vclock = std::move(vclock).value();

  auto captured = reader.i64();
  if (!captured.ok()) return captured.error();
  snap.captured_at = TimePoint{captured.value()};
  return snap;
}

Result<ProcessId> ProcessSnapshot::scan(ByteReader& reader) {
  // Field for field what decode() reads, with the same checks.
  auto process = reader.varint();
  if (!process.ok()) return process.error();
  for (int field = 0; field < 2; ++field) {  // state, description
    auto data = reader.view();
    if (!data.ok()) return data.error();
  }
  auto num_channels = reader.count();
  if (!num_channels.ok()) return num_channels.error();
  for (std::uint64_t i = 0; i < num_channels.value(); ++i) {
    auto channel = reader.varint();
    if (!channel.ok()) return channel.error();
    auto num_messages = reader.count();
    if (!num_messages.ok()) return num_messages.error();
    for (std::uint64_t j = 0; j < num_messages.value(); ++j) {
      auto payload = reader.view();
      if (!payload.ok()) return payload.error();
    }
  }
  // The halt path and the vector clock are both a count of varints.
  for (int field = 0; field < 2; ++field) {
    auto n = reader.count();
    if (!n.ok()) return n.error();
    for (std::uint64_t i = 0; i < n.value(); ++i) {
      auto v = reader.varint();
      if (!v.ok()) return v.error();
    }
  }
  auto captured = reader.i64();
  if (!captured.ok()) return captured.error();
  return ProcessId(static_cast<std::uint32_t>(process.value()));
}

void GlobalState::add(ProcessSnapshot&& snapshot) {
  const ProcessId p = snapshot.process;
  snapshots_[p] = std::move(snapshot);
}

const ProcessSnapshot& GlobalState::at(ProcessId p) const {
  auto it = snapshots_.find(p);
  DDBG_ASSERT(it != snapshots_.end(), "no snapshot for process");
  return it->second;
}

bool GlobalState::equivalent(const GlobalState& other) const {
  return !first_difference(other).has_value();
}

std::optional<std::string> GlobalState::first_difference(
    const GlobalState& other) const {
  if (snapshots_.size() != other.snapshots_.size()) {
    return "different process counts: " + std::to_string(snapshots_.size()) +
           " vs " + std::to_string(other.snapshots_.size());
  }
  for (const auto& [p, mine] : snapshots_) {
    auto it = other.snapshots_.find(p);
    if (it == other.snapshots_.end()) {
      return "process " + to_string(p) + " missing from other state";
    }
    const ProcessSnapshot& theirs = it->second;
    if (mine.state != theirs.state) {
      return "process " + to_string(p) + " state bytes differ (" +
             mine.description + " vs " + theirs.description + ")";
    }
    // Compare channel states by channel id; order within the vector is
    // normalized by sorting copies, and empty entries are dropped first so a
    // sparse recording (only non-empty channels) compares equal to a dense
    // one that materialized every incoming channel.
    auto sorted = [](const std::vector<ChannelState>& channels) {
      std::vector<ChannelState> kept;
      kept.reserve(channels.size());
      for (const ChannelState& cs : channels) {
        if (!cs.messages.empty()) kept.push_back(cs);
      }
      std::sort(kept.begin(), kept.end(),
                [](const ChannelState& a, const ChannelState& b) {
                  return a.channel < b.channel;
                });
      return kept;
    };
    const auto mine_sorted = sorted(mine.in_channels);
    const auto theirs_sorted = sorted(theirs.in_channels);
    if (mine_sorted.size() != theirs_sorted.size()) {
      return "process " + to_string(p) + " channel-state counts differ";
    }
    for (std::size_t i = 0; i < mine_sorted.size(); ++i) {
      if (!(mine_sorted[i] == theirs_sorted[i])) {
        return "process " + to_string(p) + " channel " +
               to_string(mine_sorted[i].channel) + " contents differ (" +
               std::to_string(mine_sorted[i].messages.size()) + " vs " +
               std::to_string(theirs_sorted[i].messages.size()) +
               " messages)";
      }
    }
  }
  return std::nullopt;
}

std::size_t GlobalState::total_channel_messages() const {
  std::size_t total = 0;
  for (const auto& [p, snap] : snapshots_) {
    for (const ChannelState& cs : snap.in_channels) {
      total += cs.messages.size();
    }
  }
  return total;
}

Bytes GlobalState::encode_snapshots() const {
  ByteWriter writer;
  writer.varint(snapshots_.size());
  for (const auto& [process, snapshot] : snapshots_) {
    snapshot.encode(writer);
  }
  return std::move(writer).take();
}

Result<GlobalState> GlobalState::decode_snapshots(
    HaltId id, std::span<const std::uint8_t> data) {
  ByteReader reader(data);
  GlobalState state(id);
  auto count = reader.count();
  if (!count.ok()) return count.error();
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    auto snapshot = ProcessSnapshot::decode(reader);
    if (!snapshot.ok()) return snapshot.error();
    state.add(std::move(snapshot).value());
  }
  if (reader.remaining() != 0) {
    return Error(ErrorCode::kParseError,
                 "trailing bytes after encoded global state");
  }
  return state;
}

std::string GlobalState::describe() const {
  std::ostringstream out;
  out << "global state (wave " << id_.value() << "), " << snapshots_.size()
      << " processes, " << total_channel_messages()
      << " in-flight messages\n";
  for (const auto& [p, snap] : snapshots_) {
    out << "  " << to_string(p) << ": " << snap.description;
    if (!snap.halt_path.empty()) {
      out << "  halt-path=[";
      for (std::size_t i = 0; i < snap.halt_path.size(); ++i) {
        if (i != 0) out << ',';
        out << to_string(snap.halt_path[i]);
      }
      out << ']';
    }
    std::size_t pending = 0;
    for (const ChannelState& cs : snap.in_channels) {
      pending += cs.messages.size();
    }
    if (pending != 0) out << "  (+" << pending << " pending)";
    out << '\n';
  }
  return out.str();
}

}  // namespace ddbg
