#include "debugger/debugger_process.hpp"

#include <utility>

#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace ddbg {

namespace {

// Arm spans are keyed by (breakpoint, target process): span_begin here when
// the arm command leaves the debugger, span_end in the target's shim when
// the watch is installed.
std::uint64_t arm_span_key(BreakpointId bp, ProcessId target) {
  return obs::MetricsRegistry::key(bp.value(), target.value());
}

}  // namespace

void DebuggerProcess::on_start(ProcessContext& ctx) {
  topology_ = &ctx.topology();
  self_ = ctx.self();
  DDBG_ASSERT(topology_->has_debugger() && topology_->is_debugger(self_),
              "DebuggerProcess must occupy the topology's debugger slot");
  const auto children = topology_->tier_children(self_);
  children_.assign(children.begin(), children.end());
  if (auto* m = ctx.metrics()) m->observe_tree_fanout(children_.size());
}

void DebuggerProcess::on_message(ProcessContext& ctx, ChannelId in,
                                 Message message) {
  switch (message.kind) {
    case MessageKind::kHaltMarker:
      DDBG_ASSERT(message.halt.has_value(), "halt marker without data");
      handle_halt_marker(ctx, in, *message.halt);
      return;
    case MessageKind::kSnapshotMarker:
      DDBG_ASSERT(message.snapshot.has_value(), "snapshot marker w/o data");
      handle_snapshot_marker(ctx, in, *message.snapshot);
      return;
    case MessageKind::kControl: {
      auto command = Command::decode(message.payload);
      if (!command.ok()) {
        DDBG_ERROR() << "debugger: bad control message: "
                     << command.error().to_string();
        return;
      }
      handle_command(ctx, std::move(command).value());
      return;
    }
    default:
      DDBG_WARN() << "debugger: unexpected " << to_string(message.kind);
  }
}

ProcessId DebuggerProcess::route_child(ProcessId target) const {
  for (const ProcessId child : children_) {
    const auto [lo, hi] = topology_->tier_user_range(child);
    if (target.value() >= lo && target.value() < hi) return child;
  }
  DDBG_ASSERT(false, "control target outside every tier child's subtree");
  return ProcessId();
}

void DebuggerProcess::send_control(ProcessContext& ctx, ProcessId target,
                                   const Command& command) {
  const ProcessId child = route_child(target);
  if (child == target) {
    // Flat mode, or a user directly under the root: one hop.
    ctx.send(topology_->control_to(target),
             Message::control(command.encode()));
    return;
  }
  // Tree mode: wrap in a unicast envelope; the aggregators route it down to
  // the leaf that owns `target`.
  ctx.send(topology_->control_to(child),
           Message::control(
               Command::tier_unicast(target, command.encode()).encode()));
}

void DebuggerProcess::broadcast_control(ProcessContext& ctx,
                                        const Command& command) {
  const Bytes encoded = command.encode();
  Bytes envelope;  // built lazily: flat topologies never need it
  for (const ProcessId child : children_) {
    if (topology_->is_aggregator(child)) {
      if (envelope.empty()) {
        envelope = Command::tier_broadcast(encoded).encode();
      }
      ctx.send(topology_->control_to(child), Message::control(envelope));
    } else {
      ctx.send(topology_->control_to(child), Message::control(encoded));
    }
  }
}

DebuggerProcess::WaveInfo& DebuggerProcess::wave_entry(
    std::map<std::uint64_t, WaveInfo>& waves, std::uint64_t id,
    ProcessContext& ctx) {
  auto [it, inserted] = waves.try_emplace(id);
  if (inserted) {
    it->second.id = id;
    it->second.started_at = ctx.now();
    it->second.state = GlobalState(HaltId(id));
    if (auto* m = ctx.metrics()) {
      m->span_begin(&waves == &halt_waves_ ? obs::Span::kHaltWave
                                           : obs::Span::kSnapshotWave,
                    id, ctx.now());
    }
  }
  return it->second;
}

void DebuggerProcess::forward_wave(ProcessContext& ctx, ProcessId origin,
                                   const Message& marker) {
  std::size_t sent = 0;
  for (const ProcessId child : children_) {
    // An aggregator child that relayed this wave up already flooded its own
    // subtree; echoing it back would only bounce.  A *user* child always
    // gets the marker, even the originator — it needs one on its control
    // in-channel to close that channel's recorded state (Lemma 2.2).
    if (child == origin && topology_->is_aggregator(child)) {
      if (auto* m = ctx.metrics()) m->on_marker_suppressed();
      continue;
    }
    ctx.send(topology_->control_to(child), marker);
    ++sent;
  }
  std::lock_guard<std::mutex> guard{mutex_};
  markers_forwarded_ += sent;
}

void DebuggerProcess::handle_halt_marker(ProcessContext& ctx, ChannelId in,
                                         const HaltMarkerData& data) {
  // All mutating entry points run on the debugger's own thread; mutex_ only
  // shields the state observer threads read.  Never hold it across
  // ctx.send — on the TCP runtime that is a potentially-blocking socket
  // write, and an observer poll loop would stall behind it.
  bool adopted = false;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (data.halt_id.value() > last_halt_id_) {
      // New wave: adopt it and run the forwarding half of the Halt Routine
      // — but never halt (section 2.2.3: "the debugger process d never
      // really halts").  Forwarding down every tier edge is what reaches
      // the processes the application topology cannot.
      last_halt_id_ = data.halt_id.value();
      wave_entry(halt_waves_, last_halt_id_, ctx);
      adopted = true;
    }
  }
  if (adopted) {
    std::vector<ProcessId> path = data.halt_path;
    path.push_back(self_);
    forward_wave(ctx, topology_->channel(in).source,
                 Message::halt_marker(data.halt_id, path));
  }
  // Markers of the current or older waves need no action here; the
  // per-process halt paths are collected from the halt reports.
}

void DebuggerProcess::handle_snapshot_marker(ProcessContext& ctx, ChannelId in,
                                             const SnapshotMarkerData& data) {
  bool adopted = false;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (data.snapshot_id > last_snapshot_id_) {
      last_snapshot_id_ = data.snapshot_id;
      wave_entry(snapshot_waves_, last_snapshot_id_, ctx);
      adopted = true;
    }
  }
  if (adopted) {
    forward_wave(ctx, topology_->channel(in).source,
                 Message::snapshot_marker(data.snapshot_id));
  }
}

void DebuggerProcess::check_wave_complete(ProcessContext& ctx, WaveInfo& wave,
                                          bool halt) {
  if (wave.complete || wave.state.size() != topology_->num_user_processes()) {
    return;
  }
  wave.complete = true;
  wave.completed_at = ctx.now();
  if (auto* m = ctx.metrics()) {
    m->span_end(halt ? obs::Span::kHaltWave : obs::Span::kSnapshotWave,
                wave.id, ctx.now());
  }
  if (halt) {
    DDBG_INFO() << "debugger: halt wave " << wave.id << " complete at "
                << to_string(wave.completed_at);
    // Record the assembled S_h: the replay log's ground truth for "the
    // consistent cut this run actually took" (Theorem-2 comparison target).
    if (replay_sink_ != nullptr) {
      replay_sink_->record_halt_cut(wave.id, wave.state.encode_snapshots());
    }
  }
}

void DebuggerProcess::handle_command(ProcessContext& ctx, Command command) {
  switch (command.kind) {
    case CommandKind::kHaltReport: {
      std::lock_guard<std::mutex> guard{mutex_};
      WaveInfo& wave = wave_entry(halt_waves_, command.wave_id, ctx);
      DDBG_ASSERT(command.report.has_value(), "halt report without snapshot");
      wave.halt_paths[command.reporter] = command.report->halt_path;
      wave.state.add(std::move(*command.report));
      check_wave_complete(ctx, wave, /*halt=*/true);
      return;
    }
    case CommandKind::kAggregatedHaltReport: {
      // Convergecast: a child aggregator's merged subtree arrives as one
      // report; every snapshot moves straight into the assembling S_h.
      std::lock_guard<std::mutex> guard{mutex_};
      WaveInfo& wave = wave_entry(halt_waves_, command.wave_id, ctx);
      for (ProcessSnapshot& snapshot : command.reports) {
        wave.halt_paths[snapshot.process] = snapshot.halt_path;
        wave.state.add(std::move(snapshot));
      }
      check_wave_complete(ctx, wave, /*halt=*/true);
      return;
    }
    case CommandKind::kSnapshotReport: {
      std::lock_guard<std::mutex> guard{mutex_};
      WaveInfo& wave = wave_entry(snapshot_waves_, command.wave_id, ctx);
      DDBG_ASSERT(command.report.has_value(),
                  "snapshot report without snapshot");
      wave.state.add(std::move(*command.report));
      check_wave_complete(ctx, wave, /*halt=*/false);
      return;
    }
    case CommandKind::kAggregatedSnapshotReport: {
      std::lock_guard<std::mutex> guard{mutex_};
      WaveInfo& wave = wave_entry(snapshot_waves_, command.wave_id, ctx);
      for (ProcessSnapshot& snapshot : command.reports) {
        wave.state.add(std::move(snapshot));
      }
      check_wave_complete(ctx, wave, /*halt=*/false);
      return;
    }
    case CommandKind::kBreakpointHit: {
      if (auto* m = ctx.metrics()) {
        m->span_end(obs::Span::kBreakpointNotify,
                    arm_span_key(command.breakpoint, command.reporter),
                    ctx.now());
      }
      bool rearm = false;
      BreakpointSpec spec;
      {
        std::lock_guard<std::mutex> guard{mutex_};
        hits_.push_back(BreakpointHit{command.breakpoint, command.reporter,
                                      command.text, ctx.now()});
        auto it = breakpoints_.find(command.breakpoint);
        if (it != breakpoints_.end() &&
            it->second.action == BreakpointAction::kMonitor) {
          // EDL-style abstract event (section 4): record the occurrence and
          // re-arm the chain so the recognizer keeps running.
          rearm = true;
          spec = it->second;
        }
      }
      if (rearm) arm_spec(ctx, command.breakpoint, spec);
      return;
    }
    case CommandKind::kNotifySatisfied: {
      bool all_satisfied = false;
      bool monitor = false;
      {
        std::lock_guard<std::mutex> guard{mutex_};
        auto spec = breakpoints_.find(command.breakpoint);
        if (spec == breakpoints_.end()) return;  // fired already or cleared
        monitor = spec->second.action == BreakpointAction::kMonitor;
        auto& satisfied = satisfied_terms_[command.breakpoint];
        satisfied.insert(command.stage_index);
        all_satisfied =
            satisfied.size() == spec->second.conjunctive.terms.size();
        if (all_satisfied) {
          hits_.push_back(BreakpointHit{
              command.breakpoint, command.reporter,
              "unordered conjunction gathered at debugger", ctx.now()});
          if (monitor) {
            // Abstract event: reset the gather; the notify watches persist.
            satisfied_terms_[command.breakpoint].clear();
          } else {
            // One-shot: drop the breakpoint so the notifications still in
            // flight cannot re-trigger a second wave on top of this one.
            breakpoints_.erase(spec);
            satisfied_terms_.erase(command.breakpoint);
          }
        }
      }
      // The unordered-CP interpretation: once every term has been reported
      // satisfied, halt.  The gather is inherently late — experiment E8
      // measures by how much.
      if (all_satisfied && !monitor) {
        broadcast_control(ctx, Command::disarm(command.breakpoint));
        initiate_halt(ctx);
      }
      return;
    }
    case CommandKind::kRouteMarker: {
      // Predicate-marker routing for process pairs with no direct channel.
      if (auto* m = ctx.metrics()) {
        m->span_begin(obs::Span::kArm,
                      arm_span_key(command.breakpoint, command.target),
                      ctx.now());
      }
      send_control(ctx, command.target,
                   Command::arm_predicate(command.breakpoint,
                                          command.predicate,
                                          command.stage_index,
                                          command.monitor));
      return;
    }
    case CommandKind::kStateReport: {
      std::lock_guard<std::mutex> guard{mutex_};
      DDBG_ASSERT(command.report.has_value(), "state report without snapshot");
      state_reports_[command.reporter] = *command.report;
      return;
    }
    default:
      DDBG_WARN() << "debugger: unexpected command "
                  << to_string(command.kind);
  }
}

namespace {

// Every process a spec names must exist as a user process; otherwise the
// arm commands would target nonexistent control channels.  A linked spec
// must also expand to at most LinkedPredicate::kMaxDepth stages (specs
// built in code skip the parser's check).
bool spec_targets_valid(const BreakpointSpec& spec,
                        std::uint32_t num_user_processes) {
  auto all_valid = [num_user_processes](const std::vector<ProcessId>& ids) {
    for (const ProcessId p : ids) {
      if (p.value() >= num_user_processes) return false;
    }
    return true;
  };
  if (spec.kind == BreakpointSpec::Kind::kLinked) {
    if (spec.linked.empty() ||
        spec.linked.depth() > LinkedPredicate::kMaxDepth) {
      return false;
    }
    for (const auto& stage : spec.linked.stages) {
      if (stage.dp.alternatives.empty()) return false;
      if (!all_valid(stage.dp.involved_processes())) return false;
    }
    return true;
  }
  return !spec.conjunctive.terms.empty() &&
         all_valid(spec.conjunctive.involved_processes());
}

}  // namespace

BreakpointId DebuggerProcess::set_breakpoint(ProcessContext& ctx,
                                             const BreakpointSpec& spec) {
  if (!spec_targets_valid(spec, topology_->num_user_processes())) {
    DDBG_WARN() << "debugger: breakpoint names a process outside the "
                   "topology, is empty or is too deep: "
                << spec.describe();
    return BreakpointId();  // invalid
  }
  BreakpointId bp;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    bp = BreakpointId(next_breakpoint_++);
    breakpoints_[bp] = spec;
  }
  arm_spec(ctx, bp, spec);
  return bp;
}

void DebuggerProcess::arm_spec(ProcessContext& ctx, BreakpointId bp,
                               const BreakpointSpec& spec) {
  const bool monitor = spec.action == BreakpointAction::kMonitor;
  auto trace_arm = [&](ProcessId target) {
    if (auto* m = ctx.metrics()) {
      m->span_begin(obs::Span::kArm, arm_span_key(bp, target), ctx.now());
    }
  };
  if (spec.kind == BreakpointSpec::Kind::kLinked) {
    // The Predicate-Marker-Sending Rule: ship the LP to every process
    // involved in the first DP.
    const LinkedPredicate lp = spec.linked.expanded();
    const Bytes encoded = lp.encode_to_bytes();
    for (const ProcessId p : lp.first().involved_processes()) {
      trace_arm(p);
      send_control(ctx, p, Command::arm_predicate(bp, encoded, 0, monitor));
    }
    return;
  }
  if (spec.mode == ConjunctionMode::kOrdered) {
    // Ordered interpretation: every permutation chain is armed; whichever
    // interleaving the execution produces, some chain walks it.
    auto chains = spec.conjunctive.compile_ordered();
    if (!chains.ok()) {
      DDBG_ERROR() << "debugger: " << chains.error().to_string();
      return;
    }
    for (const LinkedPredicate& lp : chains.value()) {
      const Bytes encoded = lp.encode_to_bytes();
      for (const ProcessId p : lp.first().involved_processes()) {
        trace_arm(p);
        send_control(ctx, p, Command::arm_predicate(bp, encoded, 0, monitor));
      }
    }
    return;
  }
  // Unordered interpretation: persistent notify watches, gathered here.
  for (std::uint32_t i = 0; i < spec.conjunctive.terms.size(); ++i) {
    const SimplePredicate& sp = spec.conjunctive.terms[i];
    ByteWriter writer;
    sp.encode(writer);
    trace_arm(sp.process);
    send_control(ctx, sp.process,
                 Command::arm_notify(bp, std::move(writer).take(), i));
  }
}

void DebuggerProcess::clear_breakpoint(ProcessContext& ctx, BreakpointId bp) {
  {
    std::lock_guard<std::mutex> guard{mutex_};
    breakpoints_.erase(bp);
    satisfied_terms_.erase(bp);
  }
  broadcast_control(ctx, Command::disarm(bp));
}

std::uint64_t DebuggerProcess::initiate_halt(ProcessContext& ctx) {
  std::uint64_t wave = 0;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    wave = ++last_halt_id_;
    wave_entry(halt_waves_, wave, ctx);
    markers_forwarded_ += children_.size();
  }
  for (const ProcessId child : children_) {
    ctx.send(topology_->control_to(child),
             Message::halt_marker(HaltId(wave), {self_}));
  }
  return wave;
}

std::uint64_t DebuggerProcess::initiate_snapshot(ProcessContext& ctx) {
  std::uint64_t wave = 0;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    wave = ++last_snapshot_id_;
    wave_entry(snapshot_waves_, wave, ctx);
    markers_forwarded_ += children_.size();
  }
  for (const ProcessId child : children_) {
    ctx.send(topology_->control_to(child), Message::snapshot_marker(wave));
  }
  return wave;
}

void DebuggerProcess::resume_all(ProcessContext& ctx) {
  std::uint64_t wave = 0;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    wave = last_halt_id_;
    // Waves up to here are over: latest_halt_complete() now refers to the
    // *next* wave, so a session can wait for a fresh halt after resuming.
    resumed_through_ = wave;
  }
  if (wave == 0) return;
  broadcast_control(ctx, Command::resume(wave));
}

void DebuggerProcess::query_state(ProcessContext& ctx, ProcessId target) {
  {
    // Drop any previous report so a waiter sees only the fresh answer.
    std::lock_guard<std::mutex> guard{mutex_};
    state_reports_.erase(target);
  }
  send_control(ctx, target, Command::query_state());
}

std::uint64_t DebuggerProcess::last_halt_id() const {
  std::lock_guard<std::mutex> guard{mutex_};
  return last_halt_id_;
}

bool DebuggerProcess::halt_complete(std::uint64_t wave) const {
  std::lock_guard<std::mutex> guard{mutex_};
  auto it = halt_waves_.find(wave);
  return it != halt_waves_.end() && it->second.complete;
}

bool DebuggerProcess::latest_halt_complete() const {
  std::lock_guard<std::mutex> guard{mutex_};
  if (last_halt_id_ == 0 || last_halt_id_ <= resumed_through_) return false;
  auto it = halt_waves_.find(last_halt_id_);
  return it != halt_waves_.end() && it->second.complete;
}

std::optional<DebuggerProcess::WaveInfo> DebuggerProcess::halt_wave(
    std::uint64_t wave) const {
  std::lock_guard<std::mutex> guard{mutex_};
  auto it = halt_waves_.find(wave);
  if (it == halt_waves_.end()) return std::nullopt;
  return it->second;
}

std::optional<DebuggerProcess::WaveInfo> DebuggerProcess::latest_halt_wave()
    const {
  std::lock_guard<std::mutex> guard{mutex_};
  if (last_halt_id_ == 0) return std::nullopt;
  auto it = halt_waves_.find(last_halt_id_);
  if (it == halt_waves_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t DebuggerProcess::last_snapshot_id() const {
  std::lock_guard<std::mutex> guard{mutex_};
  return last_snapshot_id_;
}

bool DebuggerProcess::snapshot_complete(std::uint64_t wave) const {
  std::lock_guard<std::mutex> guard{mutex_};
  auto it = snapshot_waves_.find(wave);
  return it != snapshot_waves_.end() && it->second.complete;
}

std::optional<DebuggerProcess::WaveInfo> DebuggerProcess::snapshot_wave(
    std::uint64_t wave) const {
  std::lock_guard<std::mutex> guard{mutex_};
  auto it = snapshot_waves_.find(wave);
  if (it == snapshot_waves_.end()) return std::nullopt;
  return it->second;
}

std::vector<DebuggerProcess::BreakpointHit> DebuggerProcess::hits() const {
  std::lock_guard<std::mutex> guard{mutex_};
  return hits_;
}

std::size_t DebuggerProcess::hit_count(BreakpointId bp) const {
  std::lock_guard<std::mutex> guard{mutex_};
  std::size_t count = 0;
  for (const BreakpointHit& hit : hits_) {
    if (hit.breakpoint == bp) ++count;
  }
  return count;
}

std::optional<ProcessSnapshot> DebuggerProcess::state_report(
    ProcessId process) const {
  std::lock_guard<std::mutex> guard{mutex_};
  auto it = state_reports_.find(process);
  if (it == state_reports_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t DebuggerProcess::markers_forwarded() const {
  std::lock_guard<std::mutex> guard{mutex_};
  return markers_forwarded_;
}

}  // namespace ddbg
