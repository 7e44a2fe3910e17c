// The debugger process `d` of the extended model (section 2.2.3, figure 3).
//
// d is an ordinary process of the computation as far as the marker rules
// are concerned — it receives and forwards halt/snapshot markers on its
// control channels, which is precisely what makes every topology strongly
// connected and lets a halting wave reach processes the application graph
// cannot (figure 2's producer, an infrequently-communicating process) — but
// it "never really halts": it only propagates, collects reports and serves
// the interactive session.
//
// d is the root TierNode: wave adoption, marker forwarding, routing by
// target and report merging are the tier's, shared with the aggregators.
// Under Topology::with_debugger_tree() its direct children are aggregators
// and a report may carry a whole subtree's snapshots; with a flat
// with_debugger() topology the children are exactly the user processes.
// On top of the tier node, d keeps the session state: waves, breakpoints,
// hits, state reports, spans and the replay sink.
//
// In the extended model d only collects the halted processes' states and
// hands them to the session (section 2.2.3), so it keeps S_h the way it
// arrives: encoded.  A wave assembles in the tier node's wave table and
// stays there, once complete, as one exact-size encode_snapshots() buffer
// that never changes again.  A WaveInfo is a view decoded from that buffer
// on demand.
//
// All mutable state is guarded by a mutex so an interactive session thread
// (or a test) can read results while the debugger's own thread handles
// messages.  Mutating entry points that send messages must run in process
// context (posted closures or message handlers).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "core/commands.hpp"
#include "core/global_state.hpp"
#include "core/predicate.hpp"
#include "debugger/tier_node.hpp"
#include "net/replay_hooks.hpp"

namespace ddbg {

class DebuggerProcess final : public TierNode {
 public:
  struct BreakpointHit {
    BreakpointId breakpoint;
    ProcessId process;
    std::string description;
    TimePoint when{};
  };

  // One wave as the session sees it, built on demand from d's stored
  // bytes: the observers copy a pointer under the lock and decode outside
  // it.
  struct WaveInfo {
    std::uint64_t id = 0;
    bool complete = false;
    TimePoint started_at{};
    TimePoint completed_at{};
    GlobalState state;
    // Section 2.2.4 halt-order information: for every process, the marker
    // path it halted on (empty for spontaneous initiators).
    std::map<ProcessId, std::vector<ProcessId>> halt_paths;
    // `state` in encode_snapshots() form; for a complete wave, the buffer
    // d stores.
    std::shared_ptr<const Bytes> encoded;
  };

  DebuggerProcess() = default;

  // Record every completed halt wave's assembled S_h into a replay log
  // (src/replay).  Called before the run starts; null disables recording.
  void set_replay_sink(ReplaySink* sink) { replay_sink_ = sink; }

  // ---- Process ----
  void on_start(ProcessContext& ctx) override;
  [[nodiscard]] std::string describe_state() const override {
    return "debugger";
  }

  // ---- commands (must run in process context, e.g. via post()) ----
  // Register a breakpoint and arm it on the involved processes.  Returns
  // the new breakpoint id, or an invalid id for a spec that names a
  // nonexistent process, is empty or expands past kMaxDepth stages.
  BreakpointId set_breakpoint(ProcessContext& ctx, const BreakpointSpec& spec);
  // Disarm everywhere.
  void clear_breakpoint(ProcessContext& ctx, BreakpointId bp);
  // Start a halting wave from the debugger (the interactive "stop now").
  std::uint64_t initiate_halt(ProcessContext& ctx) {
    return initiate(ctx, Wave::kHalt);
  }
  // Start a C&L recording wave from the debugger.
  std::uint64_t initiate_snapshot(ProcessContext& ctx) {
    return initiate(ctx, Wave::kSnapshot);
  }
  // Resume the current halting wave.
  void resume_all(ProcessContext& ctx);
  // Ask one process for a state report (answer arrives asynchronously; see
  // state_report()).
  void query_state(ProcessContext& ctx, ProcessId target);

  // ---- thread-safe observers ----
  [[nodiscard]] std::uint64_t last_halt_id() const {
    return last_id(Wave::kHalt);
  }
  [[nodiscard]] bool halt_complete(std::uint64_t wave) const {
    return complete(Wave::kHalt, wave);
  }
  [[nodiscard]] std::optional<WaveInfo> halt_wave(std::uint64_t wave) const {
    return view(Wave::kHalt, wave);
  }
  [[nodiscard]] std::optional<WaveInfo> latest_halt_wave() const {
    return view(Wave::kHalt, last_halt_id());
  }
  // The highest halt wave whose S_h is complete (0 before the first): one
  // atomic load, cheap enough to poll after every simulated event.
  [[nodiscard]] std::uint64_t last_complete_halt_id() const {
    return last_complete_halt_.load(std::memory_order_acquire);
  }
  // That wave, read under one lock with its completion.
  [[nodiscard]] std::optional<WaveInfo> last_complete_halt_wave() const {
    return view(Wave::kHalt, last_complete_halt_id());
  }
  // Highest wave id that has been resumed (see resume_all).
  [[nodiscard]] std::uint64_t resumed_through() const;

  [[nodiscard]] std::uint64_t last_snapshot_id() const {
    return last_id(Wave::kSnapshot);
  }
  [[nodiscard]] bool snapshot_complete(std::uint64_t wave) const {
    return complete(Wave::kSnapshot, wave);
  }
  [[nodiscard]] std::optional<WaveInfo> snapshot_wave(
      std::uint64_t wave) const {
    return view(Wave::kSnapshot, wave);
  }
  // Bytes d keeps for a completed halt wave (0 for any other): the
  // capacity of its stored S_h buffer.
  [[nodiscard]] std::size_t stored_halt_bytes(std::uint64_t wave) const;

  [[nodiscard]] std::vector<BreakpointHit> hits() const;
  // Occurrences of one breakpoint (monitor-mode chains accumulate these).
  [[nodiscard]] std::size_t hit_count(BreakpointId bp) const;
  [[nodiscard]] std::optional<ProcessSnapshot> state_report(
      ProcessId process) const;

  // The direct tier children (users in flat mode) whose subtrees have not
  // all reported into a halt (or snapshot) wave, with their user ranges,
  // and for an aggregator child the users the root's slot index lacks:
  // "waiting on 1 of 4 children: p19 [12,16) (missing p12, p13, p14,
  // p15)".  An aggregator reports only a full fragment, so that is its
  // whole range until it does.  Lists at most 8 children, and at most 8
  // users of each.
  [[nodiscard]] std::string describe_pending(bool halt,
                                             std::uint64_t wave) const;

 private:
  // The table overrides: each takes mutex_ around the tier node's own.
  bool adopt(ProcessContext& ctx, Wave kind, std::uint64_t id) override;
  void collect(ProcessContext& ctx, Wave kind,
               const Command& report) override;
  // Store the wave's bytes: it covers every user process.  Caller holds
  // mutex_.
  void on_full(ProcessContext& ctx, Wave kind, std::uint64_t id,
               WaveEntry& entry) override;
  void handle_command(ProcessContext& ctx, ChannelId in, Message& message,
                      Command command) override;
  std::uint64_t initiate(ProcessContext& ctx, Wave kind);
  // Kind-indexed observers behind the public ones; each takes mutex_.
  [[nodiscard]] std::uint64_t last_id(Wave kind) const;
  [[nodiscard]] bool complete(Wave kind, std::uint64_t id) const;
  [[nodiscard]] std::optional<WaveInfo> view(Wave kind,
                                             std::uint64_t id) const;
  // Send the arm commands for a breakpoint (initial arming and monitor-mode
  // re-arming).
  void arm_spec(ProcessContext& ctx, BreakpointId bp,
                const BreakpointSpec& spec);
  // Send a command to user `target`, or to every user for an invalid one.
  void send_control(ProcessContext& ctx, ProcessId target, Command command);

  ReplaySink* replay_sink_ = nullptr;

  // Guards the session state below and the tier node's wave table.
  mutable std::mutex mutex_;
  // Highest wave id that has been resumed (see resume_all).
  std::uint64_t resumed_through_ = 0;
  // Written under mutex_, read without it.
  std::atomic<std::uint64_t> last_complete_halt_{0};

  BreakpointId::rep_type next_breakpoint_ = 1;
  std::map<BreakpointId, BreakpointSpec> breakpoints_;
  // Unordered-CP gathering: satisfied term indices per breakpoint.
  std::map<BreakpointId, std::set<std::uint32_t>> satisfied_terms_;
  std::vector<BreakpointHit> hits_;
  std::map<ProcessId, ProcessSnapshot> state_reports_;
};

}  // namespace ddbg
