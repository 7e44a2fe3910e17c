// DebugShim: the per-process debugging agent.
//
// The shim wraps a user Process and interposes on everything that crosses
// the process boundary:
//
//   * outgoing application messages are stamped with Lamport/vector clocks
//     and generate kMessageSent events;
//   * incoming traffic is dispatched by kind — halt markers to the
//     HaltingEngine, snapshot markers to the recording MarkerWave, predicate
//     markers to the LinkedPredicateDetector, control commands to the
//     command handler, and application messages to the user process;
//   * DebugApi calls from the user code generate the remaining local
//     events.
//
// Every local event is offered to the LP detector and to an optional trace
// sink (analysis).  Detector effects (forwarding predicate markers,
// initiating halting) are deferred to the end of the current handler so a
// halting process's halt markers are the *last* messages it sends — the
// property Lemma 2.2's channel-state argument rests on.
//
// While halted the shim consumes only control traffic; application-era
// messages are buffered by the halting engine as channel state and replayed
// (re-dispatched through the same paths) on resume.
//
// The engines are constructed in on_start, bound to the topology owned by
// the running Simulation/Runtime (the one ctx.topology() returns), so the
// shim never holds a pointer into caller-owned temporaries.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "clock/lamport.hpp"
#include "clock/vector_clock.hpp"
#include "common/ids.hpp"
#include "core/commands.hpp"
#include "core/debug_api.hpp"
#include "core/halting.hpp"
#include "core/lp_detector.hpp"
#include "core/marker_wave.hpp"
#include "net/process.hpp"
#include "net/replay_hooks.hpp"

namespace ddbg {

class DebugShim final : public Process, public DebugApi {
 public:
  struct Options {
    // Stamp vector clocks on outgoing application messages (instrumentation
    // used by the analysis layer; off measures the lean configuration).
    bool stamp_vector_clocks = true;
    // Always route predicate markers through the debugger process instead
    // of using direct application channels when they exist.  Ablation knob
    // for the routing design decision (see DESIGN.md / bench_ablation).
    bool route_markers_via_debugger = false;
    // Skip the redundant halt/snapshot marker echo back onto control
    // out-channels when the wave was learned *from* a control channel (the
    // debugger tier demonstrably knows it already).  Markers on application
    // channels are never suppressed — they close the receiver's channel
    // state (Lemma 2.2).  Off reproduces the plain flood for equivalence
    // testing.
    bool suppress_redundant_markers = true;
    // Invoked for every local event (analysis trace).
    std::function<void(const LocalEvent&)> trace_sink;
    // Invoked when this process halts / resumes (tests, experiments).
    std::function<void(HaltId)> on_halted;
    std::function<void(HaltId)> on_resumed;
    // Invoked (on this process's thread) whenever a breakpoint watch is
    // armed here — via an arm command or a forwarded predicate marker.  On
    // the threaded runtimes it may fire concurrently from different process
    // threads; tests use it to synchronize with asynchronous arming instead
    // of sleeping.
    std::function<void(ProcessId, BreakpointId)> on_armed;
    // Completed local contributions, also delivered locally (used by tests
    // and by topologies without a debugger process).
    std::function<void(ProcessId, std::uint64_t wave, const ProcessSnapshot&)>
        local_halt_report;
    std::function<void(ProcessId, std::uint64_t wave, const ProcessSnapshot&)>
        local_snapshot_report;
    // Record mode (src/replay): when set, the shim records every input its
    // user process is a function of — each application delivery (channel +
    // per-channel ordinal + payload hash, at the moment it reaches the user
    // handler), each timer creation (with the substrate's TimerId) and each
    // timer firing.  Null keeps the record-off paths byte-identical.
    ReplaySink* replay_record = nullptr;
    // Replay gate mode (ReplayDriver): application deliveries are held in a
    // FIFO gate until the driver releases them in logged order via
    // replay_release(); timers never reach the substrate and fire only via
    // replay_fire_timer().  At halt entry the gate drains into the halting
    // engine so the backlog is recorded as channel state — exactly the
    // messages the original cut had in its channels.
    bool replay_gate = false;
  };

  DebugShim(ProcessId self, ProcessPtr user, Options options);
  DebugShim(ProcessId self, ProcessPtr user);
  ~DebugShim() override;

  // ---- Process ----
  void on_start(ProcessContext& ctx) override;
  void on_message(ProcessContext& ctx, ChannelId in, Message message) override;
  void on_timer(ProcessContext& ctx, TimerId timer) override;
  [[nodiscard]] Bytes snapshot_state() const override {
    return user_->snapshot_state();
  }
  [[nodiscard]] std::string describe_state() const override {
    return user_->describe_state();
  }
  bool restore_state(const Bytes& state) override {
    return user_->restore_state(state);
  }

  // ---- DebugApi (called by the user process mid-handler) ----
  void event(std::string_view name, std::int64_t value) override;
  void enter_procedure(std::string_view name) override;
  void set_var(std::string_view name, std::int64_t value) override;
  using DebugApi::event;

  // ---- introspection (tests / debugger queries) ----
  [[nodiscard]] bool halted() const {
    return halting_.has_value() && halting_->halted();
  }
  [[nodiscard]] const HaltingEngine& halting() const { return *halting_; }
  [[nodiscard]] Process& user() { return *user_; }
  [[nodiscard]] std::int64_t var(const std::string& name) const;
  [[nodiscard]] std::size_t armed_watches() const {
    return detector_.num_watches();
  }

  // Programmatic halting initiation (a spontaneous decision to halt); used
  // by tests and by the basic-model experiments without a debugger.
  void initiate_halt(ProcessContext& ctx);
  // Programmatic C&L recording initiation.
  void initiate_snapshot(ProcessContext& ctx);

  // ---- replay gate (ReplayDriver; requires Options::replay_gate) ----
  // Gated (arrived, not yet released) application messages on `in`.
  [[nodiscard]] std::size_t replay_gate_depth(ChannelId in) const;
  [[nodiscard]] std::size_t replay_gate_total() const { return gate_.size(); }
  // Seed the TimerIds the recorded run's substrate returned, indexed by
  // creation ordinal, so replayed set_timer calls hand back the same ids.
  void replay_preload_timer_ids(std::vector<TimerId> ids);
  // Release the next gated message on `in` to the user process.  `ordinal`
  // and `expected_hash` come from the log's Deliver record; a mismatch
  // counts a divergence (the message is still delivered — replay keeps
  // going so the divergence report covers the whole run).  Returns false
  // if nothing is gated on `in`.
  bool replay_release(ProcessContext& ctx, ChannelId in, std::uint64_t ordinal,
                      std::uint64_t expected_hash);
  // Fire the timer created as this process's `ordinal`-th.  Returns false
  // (and counts a divergence) if no such timer exists or it was cancelled.
  bool replay_fire_timer(ProcessContext& ctx, std::uint64_t ordinal);

 private:
  class ShimContext;

  // Pending detector effects, flushed at end of handler.
  struct PendingForward {
    ProcessId target;
    BreakpointId bp;
    LinkedPredicate rest;
    std::uint32_t stage_index;
    bool monitor;
  };
  struct PendingNotify {
    BreakpointId bp;
    std::uint32_t term_index;
  };
  struct PendingTrigger {
    BreakpointId bp;
    std::string description;
    bool monitor;
  };

  void dispatch(ProcessContext& ctx, ChannelId in, Message message);
  void handle_control(ProcessContext& ctx, const Command& command);
  void emit_event(LocalEvent event);
  void flush_pending(ProcessContext& ctx);
  void send_to_debugger(ProcessContext& ctx, const Command& command);
  [[nodiscard]] ProcessSnapshot capture_state() const;
  void do_resume(ProcessContext& ctx, std::uint64_t wave);
  // C&L recording (section 2.1) on the shared marker-wave core: the process
  // keeps running, so the core is all there is to it.
  void start_recording(ProcessContext& ctx, std::uint64_t id,
                       bool from_control);
  void finish_recording(ProcessContext& ctx);
  // A breakpoint watch was armed here: close its arm-latency span and tell
  // Options::on_armed.
  void note_armed(ProcessContext& ctx, BreakpointId bp);
  [[nodiscard]] std::uint64_t next_message_id();
  void bind(ProcessContext& ctx);
  // set_timer/cancel_timer interposition (recording + replay gating).
  TimerId interpose_set_timer(ProcessContext& outer, Duration delay);
  void interpose_cancel_timer(ProcessContext& outer, TimerId timer);
  // Records the firing (record mode) and runs the user timer handler.
  void fire_user_timer(TimerId timer);
  // Drains the replay gate into the halting engine at halt entry.
  void maybe_flush_gate();

  ProcessId self_;
  const Topology* topology_ = nullptr;  // bound in on_start
  ProcessPtr user_;
  Options options_;

  std::optional<HaltingEngine> halting_;
  std::optional<MarkerWave> recording_;
  LinkedPredicateDetector detector_;
  std::unique_ptr<ShimContext> shim_ctx_;

  LamportClock lamport_;
  VectorClock vclock_;
  std::uint64_t local_seq_ = 0;
  std::uint64_t send_counter_ = 0;
  std::unordered_map<std::string, std::int64_t> vars_;

  // Valid while inside a handler; used by DebugApi calls and deferred work.
  ProcessContext* current_ctx_ = nullptr;

  std::vector<PendingForward> pending_forwards_;
  std::vector<PendingNotify> pending_notifies_;
  std::vector<PendingTrigger> pending_triggers_;

  // ---- record/replay state ----
  // Per-channel count of application messages handed to the user handler;
  // the next delivery's ordinal in both record and replay modes.  Indexed
  // by in-slot, sized in on_start.
  std::vector<std::uint64_t> delivery_ordinals_;
  // Replay gate: arrived-but-unreleased application messages, in global
  // arrival order (per-channel FIFO is a consequence).
  std::deque<std::pair<ChannelId, Message>> gate_;
  bool gate_release_in_progress_ = false;
  std::uint64_t timers_created_ = 0;
  // Record mode: live substrate TimerId -> creation ordinal (erased on
  // fire/cancel so only pending timers stay mapped).
  std::unordered_map<std::uint32_t, std::uint64_t> timer_ordinal_by_id_;
  // Replay mode: creation ordinal -> TimerId handed back to the user
  // (scripted from the log, synthetic past the script's end).
  std::vector<TimerId> timer_script_;
  std::vector<TimerId> created_timers_;
  std::unordered_set<std::uint64_t> cancelled_timer_ordinals_;
};

// Convenience: wrap each user process in a shim.  The debugger process slot
// (topology.debugger_id(), if any) is not covered; append it separately.
[[nodiscard]] std::vector<ProcessPtr> wrap_in_shims(
    const Topology& topology, std::vector<ProcessPtr> users,
    DebugShim::Options options);
[[nodiscard]] std::vector<ProcessPtr> wrap_in_shims(
    const Topology& topology, std::vector<ProcessPtr> users);

}  // namespace ddbg
