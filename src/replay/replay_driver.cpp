#include "replay/replay_driver.hpp"

#include <sstream>
#include <utility>

#include "core/global_state.hpp"
#include "sim/latency_model.hpp"

namespace ddbg {

namespace {

// Replay latency: any positive constant works (release order is scripted by
// the log, not by arrival timing), and a constant keeps per-channel FIFO —
// the property the gate's channel-state argument needs.
constexpr Duration kReplayLatency = Duration::millis(1);

}  // namespace

ReplayDriver::ReplayDriver(ReplayLog log, const Topology& user_topology,
                           std::vector<ProcessPtr> users)
    : ReplayDriver(std::move(log), user_topology, std::move(users),
                   Options()) {}

ReplayDriver::ReplayDriver(ReplayLog log, const Topology& user_topology,
                           std::vector<ProcessPtr> users, Options options)
    : log_(std::move(log)), options_(std::move(options)) {
  num_users_ = log_.header.num_user_processes;

  HarnessConfig config;
  config.seed = log_.header.seed;
  config.debugger_fanout = log_.header.debugger_fanout;
  config.latency = std::make_unique<ConstantLatency>(kReplayLatency);
  config.shim_options = std::move(options_.shim_options);
  config.shim_options.replay_gate = true;
  config.shim_options.replay_record = nullptr;  // a replay never re-records
  harness_ = std::make_unique<SimDebugHarness>(user_topology,
                                               std::move(users),
                                               std::move(config));

  // Hand every shim the TimerIds the recorded substrate returned, indexed
  // by creation ordinal.  This must happen before the first event runs:
  // workloads create their first timers in on_start, which the simulator
  // has queued but not yet executed.
  std::vector<std::vector<TimerId>> scripts(num_users_);
  for (const ReplayRecord& record : log_.records) {
    if (record.kind == ReplayRecordKind::kTimerSet &&
        record.process < num_users_) {
      scripts[record.process].emplace_back(record.timer);
    }
  }
  for (std::uint32_t p = 0; p < num_users_; ++p) {
    harness_->shim(ProcessId(p)).replay_preload_timer_ids(
        std::move(scripts[p]));
  }
}

bool ReplayDriver::pump(const std::function<bool()>& condition) {
  if (condition()) return true;
  Simulation& sim = harness_->sim();
  return sim.run_until_condition(condition,
                                 sim.now() + options_.step_timeout);
}

bool ReplayDriver::replay_deliver(const ReplayRecord& record, Report& report) {
  Simulation& sim = harness_->sim();
  const ProcessId target(record.process);
  const ChannelId channel(record.channel);
  DebugShim& shim = harness_->shim(target);

  // The message this record releases was sent by an earlier record's
  // handler (log order respects causality), so it is either in the gate
  // already or in flight one constant latency away.
  if (!pump([&] { return shim.replay_gate_depth(channel) > 0; })) {
    std::ostringstream out;
    out << "deliver p" << record.process << " ch" << record.channel << " #"
        << record.ordinal << ": no message reached the gate";
    report.error = out.str();
    sim.metrics().on_replay_divergence();
    return false;
  }

  bool done = false;
  bool released = false;
  sim.post(target, [&](ProcessContext& ctx, Process&) {
    released = shim.replay_release(ctx, channel, record.ordinal, record.hash);
    done = true;
  });
  if (!pump([&] { return done; }) || !released) {
    std::ostringstream out;
    out << "deliver p" << record.process << " ch" << record.channel << " #"
        << record.ordinal << ": release did not run";
    report.error = out.str();
    sim.metrics().on_replay_divergence();
    return false;
  }
  ++report.deliveries;
  return true;
}

bool ReplayDriver::replay_timer_fire(const ReplayRecord& record,
                                     Report& report) {
  Simulation& sim = harness_->sim();
  const ProcessId target(record.process);
  DebugShim& shim = harness_->shim(target);

  bool done = false;
  bool fired = false;
  sim.post(target, [&](ProcessContext& ctx, Process&) {
    fired = shim.replay_fire_timer(ctx, record.ordinal);
    done = true;
  });
  if (!pump([&] { return done; })) {
    std::ostringstream out;
    out << "timer p" << record.process << " #" << record.ordinal
        << ": fire did not run";
    report.error = out.str();
    sim.metrics().on_replay_divergence();
    return false;
  }
  // A missing/cancelled timer was counted as a divergence by the shim;
  // keep replaying — later records may still be consumable.
  ++report.timer_fires;
  return true;
}

bool ReplayDriver::replay_halt_cut(const ReplayRecord& record, Report& report,
                                   std::uint64_t cut_index) {
  Simulation& sim = harness_->sim();
  DebuggerSession& session = harness_->session();

  // Every input the original run consumed before this cut has been
  // released; drive a fresh halt wave and the markers will freeze each
  // process at the same point in its input sequence, with the gate backlog
  // becoming the recorded channel state.
  session.halt();
  auto wave = session.wait_for_halt(options_.halt_timeout);
  if (!wave.has_value()) {
    std::ostringstream out;
    out << "cut #" << cut_index << " (recorded wave " << record.wave
        << "): replayed halt wave never completed";
    report.error = out.str();
    sim.metrics().on_replay_divergence();
    return false;
  }
  ++report.cuts;
  sim.metrics().on_replay_cut_replayed();

  auto recorded = GlobalState::decode_snapshots(HaltId(record.wave),
                                                record.state);
  if (!recorded.ok()) {
    std::ostringstream out;
    out << "cut #" << cut_index << ": recorded S_h undecodable: "
        << recorded.error().message();
    report.error = out.str();
    return false;
  }
  if (wave->state.equivalent(recorded.value())) {
    ++report.cuts_matched;
  } else {
    auto diff = wave->state.first_difference(recorded.value());
    std::ostringstream out;
    out << "cut #" << cut_index << ": "
        << (diff.has_value() ? *diff : std::string("states differ"));
    report.cut_diffs.push_back(out.str());
    sim.metrics().on_replay_divergence();
  }

  if (options_.stop_after_cut != 0 && cut_index == options_.stop_after_cut) {
    report.halted_at_cut = true;  // leave the system halted here
    return false;
  }
  session.resume(options_.halt_timeout);
  // The resume commands are still in flight on the control channels.  A
  // post-cut timer fire posted to a process that is still halted would be
  // deferred by its halting engine, and the next record could then name a
  // timer that deferred handler has not created yet.
  const bool resumed = pump([&] {
    for (std::uint32_t p = 0; p < num_users_; ++p) {
      if (harness_->shim(ProcessId(p)).halted()) return false;
    }
    return true;
  });
  if (!resumed) {
    std::ostringstream out;
    out << "cut #" << cut_index << ": processes did not resume";
    report.error = out.str();
    sim.metrics().on_replay_divergence();
    return false;
  }
  return true;
}

ReplayDriver::Report ReplayDriver::run() {
  Report report;
  DDBG_ASSERT(!ran_, "ReplayDriver::run called twice");
  ran_ = true;

  std::uint64_t cut_index = 0;
  for (const ReplayRecord& record : log_.records) {
    bool proceed = true;
    switch (record.kind) {
      case ReplayRecordKind::kDeliver:
        proceed = replay_deliver(record, report);
        break;
      case ReplayRecordKind::kTimerSet:
        ++report.timer_sets;  // consumed via the preloaded id script
        break;
      case ReplayRecordKind::kTimerFire:
        proceed = replay_timer_fire(record, report);
        break;
      case ReplayRecordKind::kHaltCut:
        proceed = replay_halt_cut(record, report, ++cut_index);
        break;
      case ReplayRecordKind::kAnnotation:
        ++report.annotations;  // provenance only; replay runs fault-free
        break;
    }
    if (!proceed) break;
  }

  // Let trailing sends settle into the gates (bounded: gated messages
  // never run user handlers, so no new work is generated) — unless we are
  // parked at a cut, where the frozen state is the point.
  if (!report.halted_at_cut && report.ok()) {
    harness_->sim().run_until_quiescent();
  }

  for (std::uint32_t p = 0; p < num_users_; ++p) {
    report.final_states.push_back(
        harness_->shim(ProcessId(p)).describe_state());
  }
  const auto snapshot = harness_->sim().metrics().snapshot();
  report.divergences = snapshot.replay.divergences;
  report.metrics_json = snapshot.to_json();
  return report;
}

std::string ReplayDriver::Report::describe() const {
  std::ostringstream out;
  out << "replayed: deliveries=" << deliveries << " timer_sets=" << timer_sets
      << " timer_fires=" << timer_fires << " cuts=" << cuts
      << " annotations=" << annotations << "\n";
  out << "cuts_matched=" << cuts_matched << "/" << cuts
      << " divergences=" << divergences << "\n";
  for (const std::string& diff : cut_diffs) out << "cut_diff: " << diff << "\n";
  if (halted_at_cut) out << "halted_at_cut\n";
  if (!error.empty()) out << "error: " << error << "\n";
  for (std::size_t p = 0; p < final_states.size(); ++p) {
    out << "p" << p << ": " << final_states[p] << "\n";
  }
  return out.str();
}

}  // namespace ddbg
