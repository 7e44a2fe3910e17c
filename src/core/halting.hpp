// The Halting Algorithm (section 2.2 of the paper), per-process engine.
//
//   Marker-Sending Rule for a process p:
//     Increment last_halt_id; Halt Routine(p)
//   Marker-Receiving Rule for a process q, on a halt marker along c:
//     if halt_id > last_halt_id: update last_halt_id; Halt Routine(q)
//     else ignore
//   Halt Routine(x):
//     for each outgoing channel c: send halt marker (halt_id=last_halt_id);
//     Halt.
//
// Section 2.2.4's extension is included: each process appends its name to
// the marker's halt_path before forwarding, so a received marker describes
// which processes already halted.
//
// Lemma 2.1: this is C&L recording plus "halt".  The wave ids, marker rules
// and channel-state recording live in MarkerWave; this engine adds the halt
// itself.  A practical debugger also needs to know *when the halted global
// state is complete* and how to *resume*.  Both fall out of Lemma 2.2:
// after q halts, the in-flight contents of an incoming channel are exactly
// the messages that arrive before that channel's halt marker.  The engine
// therefore buffers post-halt arrivals, lets the wave record each channel's
// state until its marker, reports completion once every incoming channel is
// closed, and on resume replays the buffered messages in arrival order
// (they were "in the channel").
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "core/global_state.hpp"
#include "core/marker_wave.hpp"
#include "net/process.hpp"

namespace ddbg {

class HaltingEngine {
 public:
  struct Callbacks {
    // Capture the application state at the instant of halting (Lemma 2.1:
    // this is the state the C&L algorithm would have recorded).
    std::function<ProcessSnapshot()> capture_state;
    // The process just halted (before channel states are complete).
    std::function<void(HaltId, const std::vector<ProcessId>& halt_path)>
        on_halt;
    // All incoming channels delivered their markers: the local contribution
    // to S_h is complete.
    std::function<void(const ProcessSnapshot&)> on_complete;
  };

  // `suppress_control_echo`: see MarkerWave.
  HaltingEngine(ProcessId self, const Topology* topology, Callbacks callbacks,
                bool suppress_control_echo = true);

  // A process is halted exactly while its halt wave is active.
  [[nodiscard]] bool halted() const { return wave_.active(); }
  [[nodiscard]] std::uint64_t last_halt_id() const { return wave_.id(); }
  [[nodiscard]] bool complete() const { return wave_.complete(); }

  // Spontaneous halting (Marker-Sending Rule).  No-op if already halted.
  void initiate(ProcessContext& ctx);

  // Marker-Receiving Rule.  `path` is the marker's accumulated halt path.
  void on_halt_marker(ProcessContext& ctx, ChannelId in,
                      const HaltMarkerData& data);

  // Offer a non-control, non-halt-marker message that arrived while this
  // process may be halted.  Returns true if the engine consumed (moved and
  // buffered) it; false, leaving `message` untouched, if the process is
  // running and the message should be handled normally.
  [[nodiscard]] bool intercept_message(ChannelId in, Message&& message);

  // Same for timer firings: buffered while halted, replayed on resume.
  [[nodiscard]] bool intercept_timer(TimerId timer);

  struct ResumeData {
    // Buffered (channel, message) pairs in arrival order.  Includes the
    // pending channel-state messages and anything that arrived after a
    // channel's marker (e.g. a halt marker for a *later* wave).
    std::vector<std::pair<ChannelId, Message>> messages;
    std::vector<TimerId> timers;
  };

  // Leave the halted state.  The caller (debug shim) must re-dispatch the
  // returned messages through its normal receive path, in order.
  [[nodiscard]] ResumeData resume();

  // Read access for the debugger/tests while halted.
  [[nodiscard]] const ProcessSnapshot& snapshot() const;

 private:
  // Halt Routine for wave `id`: halt — or, already halted, adopt the newer
  // wave in place — then forward the markers, appending self_ to `path`
  // (section 2.2.4).
  void halt_routine(ProcessContext& ctx, std::uint64_t id, bool from_control,
                    const std::vector<ProcessId>& path);
  void report_complete();

  ProcessId self_;
  Callbacks callbacks_;
  MarkerWave wave_;

  std::vector<std::pair<ChannelId, Message>> buffered_;
  std::vector<TimerId> buffered_timers_;
};

}  // namespace ddbg
