// The marker machinery shared by Chandy & Lamport's recording algorithm
// (section 2.1) and the Halting Algorithm (section 2.2).  Lemma 2.1 says the
// Halting Algorithm is C&L recording plus "halt"; MarkerWave is the
// recording part, once.  HaltingEngine adds the halt on top of it, and the
// debug shim drives a second MarkerWave directly for monitor-only
// recordings.
//
//   Marker-Sending Rule for p: after p captures its state, send one marker
//   on every outgoing channel before any further message.
//   Marker-Receiving Rule for q, marker of wave `id` on channel c:
//     id newer than q's wave: start wave id (capture state, send markers);
//                             c was empty;
//     id of q's wave:         c's state is complete;
//     older id:               ignore.
//
// The state of channel c is the application messages that arrive on c
// after the wave started and before c's marker (Lemma 2.2).  Channel states
// are sparse: a slot appears on the first recorded payload, in
// first-recorded order, so an idle channel costs nothing.
//
// Completion is a countdown of in-channels still open.  Each in-channel is
// stamped with the wave that closed it, so a second marker of the same wave
// on the same channel is a no-op.  The per-channel table is built once,
// sized by in-degree and indexed by the topology's in-slot, and starting a
// wave does no per-channel work.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "common/logging.hpp"
#include "core/global_state.hpp"
#include "net/process.hpp"

namespace ddbg {

class MarkerWave {
 public:
  // `suppress_control_echo`: when a wave was learned from a control channel
  // (i.e. from the debugger tier), do not echo its marker back onto control
  // out-channels — the tier already knows the wave.  Markers on application
  // channels are never suppressed: the out-channel p->q is q's in-channel,
  // and q needs that marker to close its channel state (Lemma 2.2).  Set to
  // false to reproduce the original flood behaviour for equivalence tests.
  MarkerWave(ProcessId self, const Topology* topology,
             bool suppress_control_echo);

  // The latest wave seen here; 0 before the first.
  [[nodiscard]] std::uint64_t id() const { return id_; }
  // Between begin() and end(): markers of this wave close channels and
  // application messages are recorded.
  [[nodiscard]] bool active() const { return active_; }
  // Every in-channel's marker of the active wave has arrived.
  [[nodiscard]] bool complete() const { return active_ && pending_ == 0; }

  // Start wave `id` (newer than id()).  The caller has put the captured
  // process state into snapshot(); begin stamps the capture time and clears
  // the channel states.
  void begin(ProcessContext& ctx, std::uint64_t id, bool from_control);
  void end() { active_ = false; }

  // Marker-Sending Rule: send `marker` on every outgoing channel except the
  // control echoes suppression skips (each counted as markers_suppressed).
  void send_markers(ProcessContext& ctx, const Message& marker) const;

  // Marker-Receiving Rule for a marker of wave `id` on `in`.  A newer id
  // calls `start(from_control)`, which must begin() that wave and send its
  // markers; `in` then closes empty.  The current id closes `in`.  An older
  // id, or the current one after end(), is ignored.  Returns true iff this
  // marker completed the wave.
  template <typename Start>
  bool on_marker(ChannelId in, std::uint64_t id, Start&& start) {
    if (id > id_) {
      start(topology_->channel(in).is_control);
      DDBG_ASSERT(active_ && id_ == id, "a newer marker must begin its wave");
    } else if (!active_ || id != id_) {
      return false;
    }
    return close(in);
  }

  // Record `payload` as in flight on `in` if `in` is an application channel
  // still open in the active wave.
  void record(ChannelId in, const Bytes& payload);

  // The contribution under assembly: process state from the caller, channel
  // states from record().
  [[nodiscard]] ProcessSnapshot& snapshot() { return snapshot_; }
  [[nodiscard]] const ProcessSnapshot& snapshot() const { return snapshot_; }

 private:
  struct InChannel {
    ChannelId id;
    // Index into snapshot_.in_channels; valid only while that entry names
    // this channel, so clearing the channel states invalidates every index.
    std::uint32_t state = 0;
    std::uint64_t closed_in = 0;  // wave whose marker closed it; 0: none
  };
  // The entry for `in`, or null when `in` is not one of this process's
  // in-channels.  Membership is checked against the entry's own id, so a
  // lookup reads only the topology's slot array and the entry itself.
  [[nodiscard]] InChannel* find(ChannelId in);
  bool close(ChannelId in);

  ProcessId self_;
  const Topology* topology_;
  bool suppress_control_echo_;

  std::vector<InChannel> in_;  // by in-slot
  std::uint64_t id_ = 0;
  bool active_ = false;
  bool from_control_ = false;
  std::size_t pending_ = 0;  // in-channels still open in the active wave
  ProcessSnapshot snapshot_;
};

}  // namespace ddbg
