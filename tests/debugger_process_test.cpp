// Unit tests for the DebuggerProcess itself, driven with a fake context:
// marker forwarding, wave bookkeeping, report collection, breakpoint
// arming, route-marker forwarding, the resume watermark, the pending-child
// description of a stuck wave and the dropping of hostile control input.
#include <gtest/gtest.h>

#include "debugger/debugger_process.hpp"
#include "tests/test_util.hpp"

namespace ddbg {
namespace {

using testing::FakeContext;

struct Fixture {
  Topology topology = Topology::ring(2).with_debugger();  // p0, p1, d=p2
  FakeContext ctx{ProcessId(2), &topology};
  DebuggerProcess debugger;

  Fixture() { debugger.on_start(ctx); }

  [[nodiscard]] ChannelId from(ProcessId p) const {
    return topology.control_from(p);
  }

  ProcessSnapshot snapshot_for(ProcessId p) {
    ProcessSnapshot snapshot;
    snapshot.process = p;
    snapshot.state = Bytes{static_cast<std::uint8_t>(p.value())};
    return snapshot;
  }

  void deliver_command(ProcessId reporter, const Command& command) {
    debugger.on_message(ctx, from(reporter),
                        Message::control(command.encode()));
  }
};

TEST(DebuggerProcess, InitiateHaltBroadcastsMarkers) {
  Fixture fx;
  const std::uint64_t wave = fx.debugger.initiate_halt(fx.ctx);
  EXPECT_EQ(wave, 1u);
  const auto markers = fx.ctx.halt_markers();
  ASSERT_EQ(markers.size(), 2u);  // one per user process
  for (const auto& [channel, data] : markers) {
    EXPECT_EQ(data.halt_id, HaltId(1));
    ASSERT_EQ(data.halt_path.size(), 1u);
    EXPECT_EQ(data.halt_path[0], ProcessId(2));  // d's own name
    EXPECT_TRUE(fx.topology.channel(channel).is_control);
  }
  EXPECT_EQ(fx.debugger.markers_forwarded(), 2u);
}

TEST(DebuggerProcess, IncomingMarkerAdoptedAndForwarded) {
  Fixture fx;
  fx.debugger.on_message(
      fx.ctx, fx.from(ProcessId(0)),
      Message::halt_marker(HaltId(5), {ProcessId(0)}));
  EXPECT_EQ(fx.debugger.last_halt_id(), 5u);
  const auto markers = fx.ctx.halt_markers();
  ASSERT_EQ(markers.size(), 2u);
  // Path extended with d's name.
  EXPECT_EQ(markers[0].second.halt_path.size(), 2u);
  EXPECT_EQ(markers[0].second.halt_path[1], ProcessId(2));
  // Duplicate marker of the same wave: no re-forwarding.
  fx.debugger.on_message(fx.ctx, fx.from(ProcessId(1)),
                         Message::halt_marker(HaltId(5), {ProcessId(1)}));
  EXPECT_EQ(fx.ctx.halt_markers().size(), 2u);
}

TEST(DebuggerProcess, CollectsHaltReportsIntoWave) {
  Fixture fx;
  fx.debugger.initiate_halt(fx.ctx);
  EXPECT_EQ(fx.debugger.last_complete_halt_id(), 0u);

  fx.deliver_command(ProcessId(0), Command::halt_report(
                                       ProcessId(0), 1,
                                       {fx.snapshot_for(ProcessId(0))}));
  EXPECT_EQ(fx.debugger.last_complete_halt_id(), 0u);
  fx.deliver_command(ProcessId(1), Command::halt_report(
                                       ProcessId(1), 1,
                                       {fx.snapshot_for(ProcessId(1))}));
  EXPECT_EQ(fx.debugger.last_complete_halt_id(), 1u);
  auto wave = fx.debugger.last_complete_halt_wave();
  ASSERT_TRUE(wave.has_value());
  EXPECT_EQ(wave->state.size(), 2u);
  EXPECT_TRUE(wave->state.has(ProcessId(0)));
  EXPECT_TRUE(wave->state.has(ProcessId(1)));
}

// A completed S_h is final: wait_for_halt may already have handed it to a
// session, so a report that arrives after completion is dropped.
TEST(DebuggerProcess, LateReportLeavesCompletedWaveUnchanged) {
  Fixture fx;
  fx.debugger.initiate_halt(fx.ctx);
  for (const ProcessId p : {ProcessId(0), ProcessId(1)}) {
    ProcessSnapshot snapshot = fx.snapshot_for(p);
    snapshot.halt_path = {ProcessId(2)};
    fx.deliver_command(p, Command::halt_report(p, 1, snapshot));
  }
  const auto before = fx.debugger.last_complete_halt_wave();
  ASSERT_TRUE(before.has_value());
  ASSERT_TRUE(before->complete);
  ProcessSnapshot late = fx.snapshot_for(ProcessId(1));
  late.state = Bytes{0xee, 0xee};
  late.halt_path = {ProcessId(0), ProcessId(2)};
  fx.deliver_command(ProcessId(1), Command::halt_report(ProcessId(1), 1, late));
  const auto after = fx.debugger.halt_wave(1);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after->encoded, *before->encoded);
  EXPECT_EQ(after->state.encode_snapshots(), before->state.encode_snapshots());
  EXPECT_EQ(after->state.at(ProcessId(1)).state, Bytes{1});
  EXPECT_EQ(after->halt_paths, before->halt_paths);
  EXPECT_EQ(after->completed_at, before->completed_at);
}

TEST(DebuggerProcess, ResumeWatermarkHidesOldWave) {
  Fixture fx;
  fx.debugger.initiate_halt(fx.ctx);
  fx.deliver_command(ProcessId(0), Command::halt_report(
                                       ProcessId(0), 1,
                                       {fx.snapshot_for(ProcessId(0))}));
  fx.deliver_command(ProcessId(1), Command::halt_report(
                                       ProcessId(1), 1,
                                       {fx.snapshot_for(ProcessId(1))}));
  ASSERT_EQ(fx.debugger.last_complete_halt_id(), 1u);
  EXPECT_EQ(fx.debugger.resumed_through(), 0u);
  fx.debugger.resume_all(fx.ctx);
  // A session's next wait_for_halt() now waits for a wave above 1.
  EXPECT_EQ(fx.debugger.resumed_through(), 1u);
  // The historical wave stays queryable.
  EXPECT_TRUE(fx.debugger.halt_complete(1));
}

// A report names a wave the debugger started or adopted, or it is stale
// or hostile: it must not open a wave.
TEST(DebuggerProcess, ReportsForUnknownWavesOpenNoWave) {
  Fixture fx;
  for (std::uint64_t wave = 1000; wave < 1100; ++wave) {
    fx.deliver_command(ProcessId(0),
                       Command::halt_report(ProcessId(0), wave,
                                            {fx.snapshot_for(ProcessId(0))}));
    fx.deliver_command(
        ProcessId(0), Command::snapshot_report(
                          ProcessId(0), wave, {fx.snapshot_for(ProcessId(0))}));
  }
  EXPECT_EQ(fx.debugger.last_halt_id(), 0u);
  EXPECT_EQ(fx.debugger.last_snapshot_id(), 0u);
  for (std::uint64_t wave = 1000; wave < 1100; ++wave) {
    EXPECT_FALSE(fx.debugger.halt_wave(wave).has_value());
    EXPECT_FALSE(fx.debugger.snapshot_wave(wave).has_value());
  }
  // The debugger's own next wave still assembles normally.
  EXPECT_EQ(fx.debugger.initiate_halt(fx.ctx), 1u);
  for (const ProcessId p : {ProcessId(0), ProcessId(1)}) {
    fx.deliver_command(p, Command::halt_report(p, 1, {fx.snapshot_for(p)}));
  }
  EXPECT_TRUE(fx.debugger.halt_complete(1));
  EXPECT_EQ(fx.debugger.last_complete_halt_id(), 1u);
}

TEST(DebuggerProcess, ResumeBroadcastsResumeCommands) {
  Fixture fx;
  fx.debugger.initiate_halt(fx.ctx);
  fx.ctx.sent.clear();
  fx.debugger.resume_all(fx.ctx);
  std::size_t resumes = 0;
  for (const auto& [channel, message] : fx.ctx.sent) {
    ASSERT_EQ(message.kind, MessageKind::kControl);
    auto command = Command::decode(message.payload);
    ASSERT_TRUE(command.ok());
    EXPECT_EQ(command.value().kind, CommandKind::kResume);
    EXPECT_EQ(command.value().wave_id, 1u);
    ++resumes;
  }
  EXPECT_EQ(resumes, 2u);
}

TEST(DebuggerProcess, ResumeWithNoWaveIsNoop) {
  Fixture fx;
  fx.debugger.resume_all(fx.ctx);
  EXPECT_TRUE(fx.ctx.sent.empty());
}

TEST(DebuggerProcess, SetLinkedBreakpointArmsFirstStageProcesses) {
  Fixture fx;
  BreakpointSpec spec;
  spec.kind = BreakpointSpec::Kind::kLinked;
  DisjunctivePredicate dp;
  dp.alternatives.push_back(SimplePredicate::user_event(ProcessId(0), "a"));
  dp.alternatives.push_back(SimplePredicate::user_event(ProcessId(1), "b"));
  DisjunctivePredicate dp2;
  dp2.alternatives.push_back(SimplePredicate::user_event(ProcessId(1), "c"));
  spec.linked = LinkedPredicate::chain({dp, dp2});

  const BreakpointId bp = fx.debugger.set_breakpoint(fx.ctx, spec);
  EXPECT_TRUE(bp.valid());
  // Both p0 and p1 are involved in the first DP: two arm commands.
  std::size_t arms = 0;
  for (const auto& [channel, message] : fx.ctx.sent) {
    auto command = Command::decode(message.payload);
    ASSERT_TRUE(command.ok());
    if (command.value().kind == CommandKind::kArmPredicate) {
      EXPECT_EQ(command.value().breakpoint, bp);
      auto lp = LinkedPredicate::decode_from_bytes(command.value().predicate);
      ASSERT_TRUE(lp.ok());
      EXPECT_EQ(lp.value().depth(), 2u);
      ++arms;
    }
  }
  EXPECT_EQ(arms, 2u);
}

TEST(DebuggerProcess, OverDeepLinkedSpecIsRejected) {
  // A spec built in code skips the parser's depth check; set_breakpoint
  // must still refuse one that expands past kMaxDepth stages, before any
  // arm command is built.
  Fixture fx;
  BreakpointSpec spec;
  spec.kind = BreakpointSpec::Kind::kLinked;
  DisjunctivePredicate dp;
  dp.alternatives.push_back(SimplePredicate::message_received(ProcessId(0)));
  spec.linked = LinkedPredicate::single(dp);
  spec.linked.stages[0].repeat = LinkedPredicate::kMaxDepth + 1;
  EXPECT_FALSE(fx.debugger.set_breakpoint(fx.ctx, spec).valid());
  EXPECT_TRUE(fx.ctx.sent.empty());
  // Exactly at the cap is fine.
  spec.linked.stages[0].repeat = LinkedPredicate::kMaxDepth;
  EXPECT_TRUE(fx.debugger.set_breakpoint(fx.ctx, spec).valid());
}

TEST(DebuggerProcess, OrderedConjunctionArmsAllPermutations) {
  Fixture fx;
  BreakpointSpec spec;
  spec.kind = BreakpointSpec::Kind::kConjunctive;
  spec.conjunctive.terms.push_back(
      SimplePredicate::user_event(ProcessId(0), "a"));
  spec.conjunctive.terms.push_back(
      SimplePredicate::user_event(ProcessId(1), "b"));
  fx.debugger.set_breakpoint(fx.ctx, spec);
  // 2 permutations x 1 first-stage process each.
  std::size_t arms = 0;
  for (const auto& [channel, message] : fx.ctx.sent) {
    auto command = Command::decode(message.payload);
    if (command.ok() &&
        command.value().kind == CommandKind::kArmPredicate) {
      ++arms;
    }
  }
  EXPECT_EQ(arms, 2u);
}

TEST(DebuggerProcess, RouteMarkerForwardedToTarget) {
  Fixture fx;
  LinkedPredicate lp;
  DisjunctivePredicate dp;
  dp.alternatives.push_back(SimplePredicate::user_event(ProcessId(1), "x"));
  lp = LinkedPredicate::single(dp);
  fx.deliver_command(
      ProcessId(0),
      Command::route_marker(ProcessId(0), ProcessId(1), BreakpointId(9),
                            lp.encode_to_bytes(), 1, true));
  ASSERT_EQ(fx.ctx.sent.size(), 1u);
  const auto& [channel, message] = fx.ctx.sent[0];
  EXPECT_EQ(channel, fx.topology.control_to(ProcessId(1)));
  auto command = Command::decode(message.payload);
  ASSERT_TRUE(command.ok());
  EXPECT_EQ(command.value().kind, CommandKind::kArmPredicate);
  EXPECT_EQ(command.value().breakpoint, BreakpointId(9));
  EXPECT_EQ(command.value().stage_index, 1u);
  EXPECT_TRUE(command.value().monitor);
}

TEST(DebuggerProcess, HitsAndHitCounts) {
  Fixture fx;
  fx.deliver_command(ProcessId(0), Command::breakpoint_hit(
                                       ProcessId(0), BreakpointId(3), "a"));
  fx.deliver_command(ProcessId(1), Command::breakpoint_hit(
                                       ProcessId(1), BreakpointId(3), "b"));
  fx.deliver_command(ProcessId(1), Command::breakpoint_hit(
                                       ProcessId(1), BreakpointId(4), "c"));
  EXPECT_EQ(fx.debugger.hits().size(), 3u);
  EXPECT_EQ(fx.debugger.hit_count(BreakpointId(3)), 2u);
  EXPECT_EQ(fx.debugger.hit_count(BreakpointId(4)), 1u);
  EXPECT_EQ(fx.debugger.hit_count(BreakpointId(5)), 0u);
}

TEST(DebuggerProcess, StateReportsStored) {
  Fixture fx;
  EXPECT_FALSE(fx.debugger.state_report(ProcessId(0)).has_value());
  fx.deliver_command(ProcessId(0), Command::state_report(
                                       ProcessId(0),
                                       fx.snapshot_for(ProcessId(0))));
  auto report = fx.debugger.state_report(ProcessId(0));
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->state, Bytes{0});
}

TEST(DebuggerProcess, SnapshotWaveCollection) {
  Fixture fx;
  const std::uint64_t wave = fx.debugger.initiate_snapshot(fx.ctx);
  EXPECT_EQ(wave, 1u);
  std::size_t markers = 0;
  for (const auto& [channel, message] : fx.ctx.sent) {
    if (message.kind == MessageKind::kSnapshotMarker) ++markers;
  }
  EXPECT_EQ(markers, 2u);
  EXPECT_FALSE(fx.debugger.snapshot_complete(1));
  fx.deliver_command(ProcessId(0), Command::snapshot_report(
                                       ProcessId(0), 1,
                                       {fx.snapshot_for(ProcessId(0))}));
  fx.deliver_command(ProcessId(1), Command::snapshot_report(
                                       ProcessId(1), 1,
                                       {fx.snapshot_for(ProcessId(1))}));
  EXPECT_TRUE(fx.debugger.snapshot_complete(1));
}

TEST(DebuggerProcess, MalformedControlMessageIgnored) {
  Fixture fx;
  fx.debugger.on_message(fx.ctx, fx.from(ProcessId(0)),
                         Message::control(Bytes{0xff, 0x00}));
  EXPECT_EQ(fx.debugger.last_halt_id(), 0u);  // nothing changed, no crash
}

TEST(DebuggerProcess, PendingNamesTheChildrenNotYetReported) {
  Fixture fx;
  fx.debugger.initiate_halt(fx.ctx);
  EXPECT_EQ(fx.debugger.describe_pending(true, 1),
            "waiting on 2 of 2 children: p0 [0,1), p1 [1,2)");
  fx.deliver_command(ProcessId(0), Command::halt_report(
                                       ProcessId(0), 1,
                                       {fx.snapshot_for(ProcessId(0))}));
  EXPECT_EQ(fx.debugger.describe_pending(true, 1),
            "waiting on 1 of 2 children: p1 [1,2)");
  fx.deliver_command(ProcessId(1), Command::halt_report(
                                       ProcessId(1), 1,
                                       {fx.snapshot_for(ProcessId(1))}));
  EXPECT_EQ(fx.debugger.describe_pending(true, 1),
            "waiting on 0 of 2 children");
  // A snapshot wave is tracked on its own.
  fx.debugger.initiate_snapshot(fx.ctx);
  fx.deliver_command(ProcessId(1), Command::snapshot_report(
                                       ProcessId(1), 1,
                                       {fx.snapshot_for(ProcessId(1))}));
  EXPECT_EQ(fx.debugger.describe_pending(false, 1),
            "waiting on 1 of 2 children: p0 [0,1)");
}

TEST(DebuggerProcess, PendingListsAtMostEightChildren) {
  Topology topology = Topology::ring(10).with_debugger();
  FakeContext ctx{topology.debugger_id(), &topology};
  DebuggerProcess debugger;
  debugger.on_start(ctx);
  debugger.initiate_halt(ctx);
  EXPECT_EQ(debugger.describe_pending(true, 1),
            "waiting on 10 of 10 children: p0 [0,1), p1 [1,2), p2 [2,3), "
            "p3 [3,4), p4 [4,5), p5 [5,6), p6 [6,7), p7 [7,8)");
}

// ---- hostile control input: logged and dropped, never trusted ----

TEST(DebuggerProcess, RouteMarkerToNonexistentUserDropped) {
  Fixture fx;
  fx.deliver_command(ProcessId(0),
                     Command::route_marker(ProcessId(0), ProcessId(99),
                                           BreakpointId(9), Bytes{1}, 1));
  EXPECT_TRUE(fx.ctx.sent.empty());
}

TEST(DebuggerProcess, HaltReportWithoutSnapshotDropped) {
  Fixture fx;
  fx.debugger.initiate_halt(fx.ctx);
  fx.deliver_command(ProcessId(0), testing::report_of(CommandKind::kHaltReport,
                                                     ProcessId(0), 1, {}));
  auto wave = fx.debugger.halt_wave(1);
  ASSERT_TRUE(wave.has_value());
  EXPECT_EQ(wave->state.size(), 0u);
  EXPECT_FALSE(wave->complete);
}

TEST(DebuggerProcess, StateReportWithoutSnapshotDropped) {
  Fixture fx;
  fx.deliver_command(ProcessId(0), testing::report_of(CommandKind::kStateReport,
                                                     ProcessId(0), 0, {}));
  EXPECT_FALSE(fx.debugger.state_report(ProcessId(0)).has_value());
  // Two snapshots in one state report are as bad as none.
  Command two =
      Command::state_report(ProcessId(0), fx.snapshot_for(ProcessId(0)));
  two.add_report(fx.snapshot_for(ProcessId(0)));
  fx.deliver_command(ProcessId(0), two);
  EXPECT_FALSE(fx.debugger.state_report(ProcessId(0)).has_value());
}

TEST(DebuggerProcess, ReportForAUserOutsideTheSenderIsDropped) {
  // p0's channel can only speak for p0: a snapshot of "p99" (or of p1) on
  // it must not fill the wave, or S_h would complete without p1.
  Fixture fx;
  fx.debugger.initiate_halt(fx.ctx);
  fx.deliver_command(ProcessId(0), Command::halt_report(
                                       ProcessId(0), 1,
                                       {fx.snapshot_for(ProcessId(0))}));
  fx.deliver_command(ProcessId(0), Command::halt_report(
                                       ProcessId(0), 1,
                                       {fx.snapshot_for(ProcessId(99))}));
  fx.deliver_command(ProcessId(0), Command::halt_report(
                                       ProcessId(0), 1,
                                       {fx.snapshot_for(ProcessId(1))}));
  EXPECT_FALSE(fx.debugger.halt_complete(1));
  fx.deliver_command(ProcessId(1), Command::halt_report(
                                       ProcessId(1), 1,
                                       {fx.snapshot_for(ProcessId(1))}));
  auto wave = fx.debugger.halt_wave(1);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(wave->complete);
  EXPECT_EQ(wave->state.size(), 2u);
  EXPECT_TRUE(wave->state.has(ProcessId(1)));
  EXPECT_FALSE(wave->state.has(ProcessId(99)));
}

TEST(DebuggerProcess, HitOrStateFromAnotherUsersChannelDropped) {
  Fixture fx;
  fx.deliver_command(ProcessId(0), Command::breakpoint_hit(
                                       ProcessId(1), BreakpointId(3), "a"));
  fx.deliver_command(ProcessId(0), Command::state_report(
                                       ProcessId(1),
                                       fx.snapshot_for(ProcessId(1))));
  EXPECT_TRUE(fx.debugger.hits().empty());
  EXPECT_FALSE(fx.debugger.state_report(ProcessId(1)).has_value());
}

TEST(DebuggerProcess, DownwardCommandFromAChildDropped) {
  Fixture fx;
  fx.deliver_command(ProcessId(0), Command::resume(1));
  fx.deliver_command(ProcessId(0), Command::query_state());
  EXPECT_TRUE(fx.ctx.sent.empty());
}

TEST(DebuggerProcess, NotifyTermOutOfRangeDropped) {
  Fixture fx;
  BreakpointSpec spec;
  spec.kind = BreakpointSpec::Kind::kConjunctive;
  spec.mode = ConjunctionMode::kUnordered;
  spec.conjunctive.terms.push_back(
      SimplePredicate::user_event(ProcessId(0), "a"));
  spec.conjunctive.terms.push_back(
      SimplePredicate::user_event(ProcessId(1), "b"));
  const BreakpointId bp = fx.debugger.set_breakpoint(fx.ctx, spec);
  ASSERT_TRUE(bp.valid());
  fx.deliver_command(ProcessId(0),
                     Command::notify_satisfied(ProcessId(0), bp, 5));
  fx.deliver_command(ProcessId(0),
                     Command::notify_satisfied(ProcessId(0), bp, 7));
  // Term 1 is p1's: p0's channel cannot satisfy it.
  fx.deliver_command(ProcessId(0),
                     Command::notify_satisfied(ProcessId(0), bp, 1));
  EXPECT_TRUE(fx.debugger.hits().empty());
  EXPECT_EQ(fx.debugger.last_halt_id(), 0u);
  // The two real terms still gather into a hit and a halt wave.
  fx.deliver_command(ProcessId(0),
                     Command::notify_satisfied(ProcessId(0), bp, 0));
  fx.deliver_command(ProcessId(1),
                     Command::notify_satisfied(ProcessId(1), bp, 1));
  EXPECT_EQ(fx.debugger.hits().size(), 1u);
  EXPECT_EQ(fx.debugger.last_halt_id(), 1u);
}

}  // namespace
}  // namespace ddbg
