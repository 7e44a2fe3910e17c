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
  DDBG_ASSERT(ctx.topology().has_debugger() &&
                  ctx.topology().is_debugger(ctx.self()),
              "DebuggerProcess must occupy the topology's debugger slot");
  bind(ctx);
}

void DebuggerProcess::send_control(ProcessContext& ctx, ProcessId target,
                                   Command command) {
  command.target = target;
  send_down(ctx, target, command.encode());
}

namespace {

obs::Span wave_span(bool halt) {
  return halt ? obs::Span::kHaltWave : obs::Span::kSnapshotWave;
}

}  // namespace

// All mutating entry points run on the debugger's own thread; mutex_ only
// shields the state observer threads read.  The tier node sends after these
// return: never hold mutex_ across ctx.send — on the TCP runtime that is a
// potentially-blocking socket write, and an observer poll loop would stall
// behind it.
bool DebuggerProcess::adopt(ProcessContext& ctx, Wave kind, std::uint64_t id) {
  std::lock_guard<std::mutex> guard{mutex_};
  if (!TierNode::adopt(ctx, kind, id)) return false;
  if (auto* m = ctx.metrics()) {
    m->span_begin(wave_span(kind == Wave::kHalt), id, ctx.now());
  }
  return true;
}

void DebuggerProcess::collect(ProcessContext& ctx, Wave kind,
                              const Command& report) {
  std::lock_guard<std::mutex> guard{mutex_};
  TierNode::collect(ctx, kind, report);
}

void DebuggerProcess::on_full(ProcessContext& ctx, Wave kind,
                              std::uint64_t id, WaveEntry& entry) {
  entry.encoded =
      std::make_shared<const Bytes>(entry.fragment.encode_snapshots());
  entry.fragment = Fragment();
  entry.completed_at = ctx.now();
  if (auto* m = ctx.metrics()) {
    m->span_end(wave_span(kind == Wave::kHalt), id, ctx.now());
  }
  if (kind != Wave::kHalt) return;
  if (id > last_complete_halt_.load()) {
    last_complete_halt_.store(id, std::memory_order_release);
  }
  DDBG_INFO() << "debugger: halt wave " << id << " complete at "
              << to_string(entry.completed_at);
  // Record the assembled S_h: the replay log's ground truth for "the
  // consistent cut this run actually took" (Theorem-2 comparison target).
  if (replay_sink_ != nullptr) {
    replay_sink_->record_halt_cut(id, *entry.encoded);
  }
}

void DebuggerProcess::handle_command(ProcessContext& ctx, ChannelId in,
                                     Message& /*message*/, Command command) {
  switch (command.kind) {
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
        const auto& terms = spec->second.conjunctive.terms;
        if (command.stage_index >= terms.size() ||
            !covers(in, terms[command.stage_index].process)) {
          DDBG_WARN() << "debugger: dropped notify for term "
                      << command.stage_index << " of breakpoint "
                      << command.breakpoint.value() << " from "
                      << to_string(command.reporter);
          return;
        }
        monitor = spec->second.action == BreakpointAction::kMonitor;
        auto& satisfied = satisfied_terms_[command.breakpoint];
        satisfied.insert(command.stage_index);
        all_satisfied = satisfied.size() == terms.size();
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
        send_control(ctx, ProcessId(), Command::disarm(command.breakpoint));
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
      ProcessSnapshot snapshot = command.snapshot(0);
      std::lock_guard<std::mutex> guard{mutex_};
      state_reports_[snapshot.process] = std::move(snapshot);
      return;
    }
    default:  // TierNode collects reports and drops downward kinds
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
  send_control(ctx, ProcessId(), Command::disarm(bp));
}

std::uint64_t DebuggerProcess::initiate(ProcessContext& ctx, Wave kind) {
  // Only this thread writes the table, so it reads it without mutex_.
  const std::uint64_t id = table(kind).last_id + 1;
  join(ctx, self_, kind, id, {});
  return id;
}

void DebuggerProcess::resume_all(ProcessContext& ctx) {
  std::uint64_t wave = 0;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    wave = table(Wave::kHalt).last_id;
    // Waves up to here are over: a session's wait_for_halt() now waits for
    // the *next* wave, so it can wait for a fresh halt after resuming.
    resumed_through_ = wave;
  }
  if (wave == 0) return;
  send_control(ctx, ProcessId(), Command::resume(wave));
}

void DebuggerProcess::query_state(ProcessContext& ctx, ProcessId target) {
  {
    // Drop any previous report so a waiter sees only the fresh answer.
    std::lock_guard<std::mutex> guard{mutex_};
    state_reports_.erase(target);
  }
  send_control(ctx, target, Command::query_state());
}

std::uint64_t DebuggerProcess::last_id(Wave kind) const {
  std::lock_guard<std::mutex> guard{mutex_};
  return table(kind).last_id;
}

bool DebuggerProcess::complete(Wave kind, std::uint64_t id) const {
  std::lock_guard<std::mutex> guard{mutex_};
  const WaveEntry* wave = find(kind, id);
  return wave != nullptr && wave->encoded != nullptr;
}

std::optional<DebuggerProcess::WaveInfo> DebuggerProcess::view(
    Wave kind, std::uint64_t id) const {
  WaveInfo info;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    const WaveEntry* wave = find(kind, id);
    if (wave == nullptr) return std::nullopt;
    info.id = id;
    info.complete = wave->encoded != nullptr;
    info.started_at = wave->started_at;
    info.completed_at = wave->completed_at;
    // An assembling wave is copied out as its records so far.
    info.encoded = info.complete ? wave->encoded
                                 : std::make_shared<const Bytes>(
                                       wave->fragment.encode_snapshots());
  }
  auto state = GlobalState::decode_snapshots(HaltId(id), *info.encoded);
  DDBG_ASSERT(state.ok(), "stored records were scanned on arrival");
  info.state = std::move(state).value();
  if (kind == Wave::kHalt) {
    for (const auto& [p, snapshot] : info.state.snapshots()) {
      info.halt_paths.emplace_hint(info.halt_paths.end(), p,
                                   snapshot.halt_path);
    }
  }
  return info;
}

std::size_t DebuggerProcess::stored_halt_bytes(std::uint64_t wave) const {
  std::lock_guard<std::mutex> guard{mutex_};
  const WaveEntry* entry = find(Wave::kHalt, wave);
  return entry != nullptr && entry->encoded != nullptr
             ? entry->encoded->capacity()
             : 0;
}

std::uint64_t DebuggerProcess::resumed_through() const {
  std::lock_guard<std::mutex> guard{mutex_};
  return resumed_through_;
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

std::string DebuggerProcess::describe_pending(bool halt,
                                              std::uint64_t wave) const {
  constexpr std::size_t kMaxListed = 8;
  std::lock_guard<std::mutex> guard{mutex_};
  const WaveEntry* record = find(halt ? Wave::kHalt : Wave::kSnapshot, wave);
  auto reported = [&](std::uint32_t user) {
    return record != nullptr && (record->encoded != nullptr ||
                                 record->fragment.has(user - user_lo_));
  };
  std::size_t pending = 0;
  std::string listed;
  for (const ProcessId child : children_) {
    const auto [lo, hi] = topology_->tier_user_range(child);
    std::size_t missing = 0;
    std::string users;
    for (std::uint32_t user = lo; user < hi; ++user) {
      if (reported(user)) continue;
      if (++missing <= kMaxListed) {
        users += (missing == 1 ? " (missing " : ", ") +
                 to_string(ProcessId(user));
      }
    }
    if (missing == 0 || ++pending > kMaxListed) continue;
    listed += (pending == 1 ? ": " : ", ") + to_string(child) + " [" +
              std::to_string(lo) + "," + std::to_string(hi) + ")";
    // A user child is its own missing user.
    if (topology_->is_aggregator(child)) {
      if (missing > kMaxListed) {
        users += ", +" + std::to_string(missing - kMaxListed) + " more";
      }
      listed += users + ")";
    }
  }
  return "waiting on " + std::to_string(pending) + " of " +
         std::to_string(children_.size()) + " children" + listed;
}

}  // namespace ddbg
