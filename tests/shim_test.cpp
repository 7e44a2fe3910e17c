// Unit/integration tests of the DebugShim itself: event generation, clock
// stamping, variable tracking, control handling and report plumbing.
#include <gtest/gtest.h>

#include "analysis/consistency.hpp"
#include "analysis/trace.hpp"
#include "core/debug_shim.hpp"
#include "core/predicate_parser.hpp"
#include "debugger/harness.hpp"
#include "sim/simulation.hpp"
#include "tests/test_util.hpp"
#include "workload/behaviors.hpp"

namespace ddbg {
namespace {

// A small instrumented process exercising the whole DebugApi.
class Instrumented final : public Debuggable {
 public:
  void on_start(ProcessContext& ctx) override {
    debug().enter_procedure("on_start");
    debug().set_var("x", 1);
    debug().event("ready");
    if (!ctx.topology().out_channels(ctx.self()).empty()) {
      for (const ChannelId c : ctx.topology().out_channels(ctx.self())) {
        if (!ctx.topology().channel(c).is_control) {
          ctx.send(c, Message::application(Bytes{42}));
        }
      }
    }
  }
  void on_message(ProcessContext&, ChannelId, Message message) override {
    debug().set_var("x", static_cast<std::int64_t>(message.payload.size()));
    debug().event("got_message");
  }

  [[nodiscard]] Bytes snapshot_state() const override { return Bytes{7}; }
  [[nodiscard]] std::string describe_state() const override { return "inst"; }
};

Topology pair_topology() {
  Topology t(2);
  t.add_channel(ProcessId(0), ProcessId(1));
  return t;
}

TEST(DebugShim, EmitsLifecycleAndApiEvents) {
  Trace trace;
  DebugShim::Options options;
  options.trace_sink = trace.sink();
  Topology topology = pair_topology();
  std::vector<ProcessPtr> users;
  users.push_back(std::make_unique<Instrumented>());
  users.push_back(std::make_unique<Instrumented>());
  Simulation sim(topology, wrap_in_shims(topology, std::move(users), options));
  sim.run_until_quiescent();

  const auto events = trace.events();
  auto count = [&](ProcessId p, LocalEventKind kind) {
    std::size_t n = 0;
    for (const LocalEvent& event : events) {
      if (event.process == p && event.kind == kind) ++n;
    }
    return n;
  };
  EXPECT_EQ(count(ProcessId(0), LocalEventKind::kProcessStarted), 1u);
  EXPECT_EQ(count(ProcessId(0), LocalEventKind::kProcedureEntered), 1u);
  EXPECT_EQ(count(ProcessId(0), LocalEventKind::kUserEvent), 1u);
  EXPECT_EQ(count(ProcessId(0), LocalEventKind::kStateChange), 1u);
  EXPECT_EQ(count(ProcessId(0), LocalEventKind::kMessageSent), 1u);
  EXPECT_EQ(count(ProcessId(0), LocalEventKind::kChannelCreated), 1u);
  EXPECT_EQ(count(ProcessId(1), LocalEventKind::kMessageReceived), 1u);
  // p1 never sends (no outgoing app channel).
  EXPECT_EQ(count(ProcessId(1), LocalEventKind::kMessageSent), 0u);
}

TEST(DebugShim, EventsHaveMonotonicLocalSeqAndLamport) {
  Trace trace;
  DebugShim::Options options;
  options.trace_sink = trace.sink();
  Topology topology = pair_topology();
  std::vector<ProcessPtr> users;
  users.push_back(std::make_unique<Instrumented>());
  users.push_back(std::make_unique<Instrumented>());
  Simulation sim(topology, wrap_in_shims(topology, std::move(users), options));
  sim.run_until_quiescent();

  std::map<ProcessId, std::uint64_t> last_seq;
  std::map<ProcessId, std::uint64_t> last_lamport;
  for (const LocalEvent& event : trace.events()) {
    if (last_seq.contains(event.process)) {
      EXPECT_GT(event.local_seq, last_seq[event.process]);
      EXPECT_GT(event.lamport, last_lamport[event.process]);
    }
    last_seq[event.process] = event.local_seq;
    last_lamport[event.process] = event.lamport;
  }
}

TEST(DebugShim, ReceiveLamportExceedsSendLamport) {
  Trace trace;
  DebugShim::Options options;
  options.trace_sink = trace.sink();
  Topology topology = pair_topology();
  std::vector<ProcessPtr> users;
  users.push_back(std::make_unique<Instrumented>());
  users.push_back(std::make_unique<Instrumented>());
  Simulation sim(topology, wrap_in_shims(topology, std::move(users), options));
  sim.run_until_quiescent();

  std::map<std::uint64_t, std::uint64_t> send_lamport;
  for (const LocalEvent& event : trace.events()) {
    if (event.kind == LocalEventKind::kMessageSent) {
      send_lamport[event.message_id] = event.lamport;
    }
  }
  bool checked = false;
  for (const LocalEvent& event : trace.events()) {
    if (event.kind == LocalEventKind::kMessageReceived) {
      ASSERT_TRUE(send_lamport.contains(event.message_id));
      EXPECT_GT(event.lamport, send_lamport[event.message_id]);
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(DebugShim, VectorClockStampingCanBeDisabled) {
  Trace trace;
  DebugShim::Options options;
  options.trace_sink = trace.sink();
  options.stamp_vector_clocks = false;
  Topology topology = pair_topology();
  std::vector<ProcessPtr> users;
  users.push_back(std::make_unique<Instrumented>());
  users.push_back(std::make_unique<Instrumented>());

  std::uint64_t bytes_without = 0;
  {
    Simulation sim(topology,
                   wrap_in_shims(topology, std::move(users), options));
    sim.run_until_quiescent();
    bytes_without = sim.metrics().totals().bytes_sent;
  }
  // With stamping on, the app message carries the clock -> more bytes.
  std::vector<ProcessPtr> users2;
  users2.push_back(std::make_unique<Instrumented>());
  users2.push_back(std::make_unique<Instrumented>());
  DebugShim::Options options2;
  options2.stamp_vector_clocks = true;
  Simulation sim2(topology, wrap_in_shims(topology, std::move(users2),
                                          options2));
  sim2.run_until_quiescent();
  EXPECT_GT(sim2.metrics().totals().bytes_sent, bytes_without);
}

TEST(DebugShim, VarTableTracksLatestValue) {
  Topology topology = pair_topology();
  std::vector<ProcessPtr> users;
  users.push_back(std::make_unique<Instrumented>());
  users.push_back(std::make_unique<Instrumented>());
  Simulation sim(topology, wrap_in_shims(topology, std::move(users)));
  sim.run_until_quiescent();
  auto& shim0 = dynamic_cast<DebugShim&>(sim.process(ProcessId(0)));
  auto& shim1 = dynamic_cast<DebugShim&>(sim.process(ProcessId(1)));
  EXPECT_EQ(shim0.var("x"), 1);
  EXPECT_EQ(shim1.var("x"), 1);  // payload size of the received message
  EXPECT_EQ(shim0.var("missing"), 0);
}

TEST(DebugShim, SnapshotDelegatesToUser) {
  Topology topology = pair_topology();
  std::vector<ProcessPtr> users;
  users.push_back(std::make_unique<Instrumented>());
  users.push_back(std::make_unique<Instrumented>());
  Simulation sim(topology, wrap_in_shims(topology, std::move(users)));
  sim.run_until_quiescent();
  auto& shim = dynamic_cast<DebugShim&>(sim.process(ProcessId(0)));
  EXPECT_EQ(shim.snapshot_state(), Bytes{7});
  EXPECT_EQ(shim.describe_state(), "inst");
}

TEST(DebugShim, StopSelfEmitsTerminatedEvent) {
  class Stopper final : public Debuggable {
   public:
    void on_start(ProcessContext& ctx) override { ctx.stop_self(); }
    void on_message(ProcessContext&, ChannelId, Message) override {}
  };
  Trace trace;
  DebugShim::Options options;
  options.trace_sink = trace.sink();
  Topology topology(1);
  std::vector<ProcessPtr> users;
  users.push_back(std::make_unique<Stopper>());
  Simulation sim(topology, wrap_in_shims(topology, std::move(users), options));
  sim.run_until_quiescent();
  bool terminated = false;
  for (const LocalEvent& event : trace.events()) {
    if (event.kind == LocalEventKind::kProcessTerminated) terminated = true;
  }
  EXPECT_TRUE(terminated);
}

TEST(DebugShim, UninstrumentedRunHasNoDebugApiEffects) {
  // A Debuggable process without a shim: debug() calls are no-ops.
  Topology topology = pair_topology();
  testing::FakeContext ctx(ProcessId(1), &topology);
  Instrumented bare;
  bare.on_message(ctx, ChannelId(0), Message::application(Bytes{1, 2, 3}));
  SUCCEED();  // no crash: the null DebugApi swallowed the calls
}

TEST(DebugShim, HaltsViaBreakpointOnUserEvent) {
  TokenRingConfig ring_config;
  ring_config.rounds = 100;
  SimDebugHarness harness(Topology::ring(3), make_token_ring(3, ring_config));
  ASSERT_TRUE(harness.session().set_breakpoint("p0:enter(forward_token)").ok());
  auto wave = harness.session().wait_for_halt(Duration::seconds(30));
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(harness.shim(ProcessId(0)).halted());
}

// A started shim on p0 of a two-way pair with a debugger, fed raw wire
// input the way a buggy debugger or a hostile neighbour could send it.
// Armed as sent, each input below would trip a detector assertion and
// abort the process; the shim must log and drop it, arm nothing, and keep
// running.
struct HostileInput {
  Topology topology = [] {
    Topology t(2);
    t.add_channel(ProcessId(0), ProcessId(1));
    t.add_channel(ProcessId(1), ProcessId(0));
    return t.with_debugger();
  }();
  testing::FakeContext ctx{ProcessId(0), &topology};
  DebugShim shim{ProcessId(0), std::make_unique<Instrumented>()};
  const ChannelId app_in = *topology.channel_between(ProcessId(1),
                                                     ProcessId(0));

  HostileInput() { shim.on_start(ctx); }

  void command(const Command& command) {
    shim.on_message(ctx, topology.control_to(ProcessId(0)),
                    Message::control(command.encode()));
  }
  // An application message: fires p0:recv.
  void app_message() {
    shim.on_message(ctx, app_in, Message::application(Bytes{1}));
  }
};

LinkedPredicate lp_of(const char* text) {
  return parse_linked_predicate(text).value();
}

TEST(DebugShim, ArmWithEmptyLinkedPredicateIsDropped) {
  HostileInput in;
  in.command(Command::arm_predicate(BreakpointId(1),
                                    LinkedPredicate{}.encode_to_bytes(), 0));
  EXPECT_EQ(in.shim.armed_watches(), 0u);
  in.app_message();
}

TEST(DebugShim, ArmWhoseFirstStageIsElsewhereIsDropped) {
  HostileInput in;
  in.command(Command::arm_predicate(
      BreakpointId(1), lp_of("p1:recv -> p0:recv").encode_to_bytes(), 0));
  EXPECT_EQ(in.shim.armed_watches(), 0u);
  in.app_message();
}

TEST(DebugShim, ArmWithUnexpandedRepeatIsDropped) {
  // Armed as sent, (p0:recv)^2 would abort in rest() on the first
  // receive.
  HostileInput in;
  in.command(Command::arm_predicate(
      BreakpointId(1), lp_of("(p0:recv)^2").encode_to_bytes(), 0));
  EXPECT_EQ(in.shim.armed_watches(), 0u);
  in.app_message();
  EXPECT_FALSE(in.shim.halted());
}

TEST(DebugShim, EmptyPredicateMarkerFromNeighbourIsDropped) {
  HostileInput in;
  in.shim.on_message(in.ctx, in.app_in,
                     Message::predicate_marker(
                         BreakpointId(1), LinkedPredicate{}.encode_to_bytes(),
                         0));
  EXPECT_EQ(in.shim.armed_watches(), 0u);
  in.app_message();
}

TEST(DebugShim, ArmNotifyForAnotherProcessIsDropped) {
  HostileInput in;
  ByteWriter sp;
  SimplePredicate::message_received(ProcessId(1)).encode(sp);
  in.command(Command::arm_notify(BreakpointId(1), std::move(sp).take(), 0));
  EXPECT_EQ(in.shim.armed_watches(), 0u);
  in.app_message();
}

TEST(DebugShim, CommandTargetedAtAnotherUserIsDropped) {
  HostileInput in;
  Command arm = Command::arm_predicate(
      BreakpointId(1), lp_of("p0:recv").encode_to_bytes(), 0);
  arm.target = ProcessId(1);
  in.command(arm);
  EXPECT_EQ(in.shim.armed_watches(), 0u);
  arm.target = ProcessId(0);
  in.command(arm);
  EXPECT_EQ(in.shim.armed_watches(), 1u);
}

TEST(DebugShim, ArmedWatchCountTracksDisarm) {
  GossipConfig gossip;
  SimDebugHarness harness(Topology::ring(3), make_gossip(3, gossip));
  auto bp = harness.session().set_breakpoint("p0:event(never)");
  ASSERT_TRUE(bp.ok());
  harness.sim().run_for(Duration::millis(20));
  EXPECT_EQ(harness.shim(ProcessId(0)).armed_watches(), 1u);
  harness.session().clear_breakpoint(bp.value());
  harness.sim().run_for(Duration::millis(20));
  EXPECT_EQ(harness.shim(ProcessId(0)).armed_watches(), 0u);
}

// Lazy local events: with no trace sink and no armed watch the shim builds
// no LocalEvent, but still advances local_seq and both clocks on every
// event.  A run without a sink must therefore hit a breakpoint armed
// mid-run at the same (lamport, local_seq) and halt in the same S_h as a
// traced run of the same seed.
struct LazyRun {
  std::size_t watches_before_arming = 0;
  std::string hit;
  Bytes encoded_cut;
  bool consistent = false;
};

LazyRun run_bank_until_breakpoint(const char* breakpoint, bool traced) {
  Trace trace;
  HarnessConfig config;
  config.seed = 5;
  if (traced) config.shim_options.trace_sink = trace.sink();
  // Transfers call enter_procedure and set_var, deposits event and set_var.
  SimDebugHarness harness(Topology::complete(4), make_bank(4, BankConfig{}),
                          std::move(config));
  harness.sim().run_for(Duration::millis(40));

  LazyRun run;
  for (std::uint32_t p = 0; p < 4; ++p) {
    run.watches_before_arming += harness.shim(ProcessId(p)).armed_watches();
  }
  EXPECT_TRUE(harness.session().set_breakpoint(breakpoint).ok());
  const auto wave = harness.session().wait_for_halt(Duration::seconds(30));
  EXPECT_TRUE(wave.has_value());
  if (!wave.has_value()) return run;
  const auto hits = harness.session().hits();
  EXPECT_EQ(hits.size(), 1u);
  if (!hits.empty()) run.hit = hits.front().description;
  run.encoded_cut = *wave->encoded;
  run.consistent = consistent_cut(wave->state);
  return run;
}

void expect_untraced_run_matches_traced(const char* breakpoint) {
  const LazyRun traced = run_bank_until_breakpoint(breakpoint, true);
  const LazyRun lazy = run_bank_until_breakpoint(breakpoint, false);
  // Nothing read the untraced run's events before the breakpoint.
  EXPECT_EQ(lazy.watches_before_arming, 0u);
  EXPECT_FALSE(traced.hit.empty());
  EXPECT_EQ(lazy.hit, traced.hit);
  EXPECT_FALSE(traced.encoded_cut.empty());
  EXPECT_EQ(lazy.encoded_cut, traced.encoded_cut);
  EXPECT_TRUE(traced.consistent);
  EXPECT_TRUE(lazy.consistent);
}

TEST(LazyEvents, RecvBreakpointMatchesTracedRun) {
  expect_untraced_run_matches_traced("p1:recv");
}

TEST(LazyEvents, UserEventBreakpointMatchesTracedRun) {
  expect_untraced_run_matches_traced("p2:event(deposit)");
}

// The same on threads: the consumer check runs on every worker's send and
// receive path, and a breakpoint armed after a stretch of untraced,
// unwatched flood traffic still fires and halts in a consistent cut.
TEST(LazyEvents, RuntimeBreakpointAfterIdleFloodHaltsConsistently) {
  GossipConfig gossip;
  gossip.send_interval = Duration::micros(50);
  RuntimeDebugHarness harness(Topology::ring(4), make_gossip(4, gossip));
  harness.start();
  const auto& p0 =
      dynamic_cast<const GossipProcess&>(harness.shim(ProcessId(0)).user());
  ASSERT_TRUE(Runtime::wait_until([&] { return p0.sent() >= 200; },
                                  Duration::seconds(30)));
  ASSERT_TRUE(harness.session().set_breakpoint("p1:recv").ok());
  const auto wave = harness.session().wait_for_halt(Duration::seconds(30));
  ASSERT_TRUE(wave.has_value());
  EXPECT_EQ(wave->state.size(), 4u);
  EXPECT_TRUE(consistent_cut(wave->state));
  EXPECT_TRUE(harness.shim(ProcessId(1)).halted());
  ASSERT_EQ(harness.session().hits().size(), 1u);
  EXPECT_EQ(harness.session().hits().front().process, ProcessId(1));
  harness.shutdown();
}

}  // namespace
}  // namespace ddbg
