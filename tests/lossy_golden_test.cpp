// Golden pins for the simulator under a fault plan.
//
// MetricsGolden (obs_test.cpp) pins a fault-free ring.  These pin the lossy
// path: the §2.1 reliability layer under drop, duplicate, reorder, delay and
// reset faults, a fanout-4 debugger tier, a halt, a breakpoint halt and a
// resume.  Any change to what the simulator schedules (event order, fault
// streams, retransmit timing, ack timing) changes these hashes, as does any
// change to where run_until_quiescent and run_until_condition leave the
// virtual clock when they stop.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/event.hpp"
#include "debugger/harness.hpp"
#include "net/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "workload/behaviors.hpp"

namespace ddbg {
namespace {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a(const Bytes& bytes) {
  return fnv1a(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                bytes.size()));
}

FaultSpec mixed_faults() {
  FaultSpec spec;
  spec.drop = 0.08;
  spec.duplicate = 0.05;
  spec.reorder = 0.05;
  spec.delay = 0.05;
  spec.reset = 0.01;
  return spec;
}

// tree(16,2) users under a fanout-4 tier, gossiping 30 messages each over a
// lossy transport: a halt, a resume, a breakpoint halt, a resume, then
// quiescence.
TEST(LossyGolden, FanoutFourTierHaltBreakpointResumeIsPinned) {
  std::ostringstream trace;
  HarnessConfig config;
  config.seed = 3;
  config.debugger_fanout = 4;
  config.faults = std::make_shared<FaultPlan>(mixed_faults(), 3);
  config.shim_options.trace_sink = [&trace](const LocalEvent& event) {
    trace << event.describe() << "\n";
  };
  GossipConfig gossip;
  gossip.max_sends = 30;
  SimDebugHarness harness(Topology::tree(16, 2), make_gossip(16, gossip),
                          std::move(config));
  Simulation& sim = harness.sim();
  DebuggerSession& session = harness.session();

  sim.run_for(Duration::millis(15));
  session.halt();
  const auto halted = session.wait_for_halt(Duration::seconds(5));
  ASSERT_TRUE(halted.has_value());
  ASSERT_TRUE(halted->complete);
  session.resume();

  ASSERT_TRUE(session.set_breakpoint("p11:sent>=25").ok());
  const auto hit = session.wait_for_halt(Duration::seconds(5));
  ASSERT_TRUE(hit.has_value());
  ASSERT_TRUE(hit->complete);
  session.resume();

  const bool quiesced = sim.run_until_quiescent();
  const std::string json = sim.metrics().snapshot(sim.now()).to_json();
  const Bytes halt_sh = halted->state.encode_snapshots();
  const Bytes bp_sh = hit->state.encode_snapshots();

  EXPECT_EQ(halted->id, 1u);
  EXPECT_EQ(hit->id, 2u);
  EXPECT_TRUE(quiesced);
  EXPECT_EQ(sim.now().ns, 409086938);
  EXPECT_EQ(halt_sh.size(), 2296u);
  EXPECT_EQ(fnv1a(halt_sh), 6464077757075888357ULL);
  EXPECT_EQ(bp_sh.size(), 2942u);
  EXPECT_EQ(fnv1a(bp_sh), 6912986264659478759ULL);
  EXPECT_EQ(json.size(), 28208u);
  EXPECT_EQ(fnv1a(json), 16583573471757741837ULL);
  EXPECT_EQ(trace.str().size(), 73671u);
  EXPECT_EQ(fnv1a(trace.str()), 12872260251822947314ULL);
}

// A two-process token ring whose acks and frames are often delayed well
// past the first retransmit, so many runs end on an ack or have one pending
// at the cut-off.
std::unique_ptr<Simulation> ack_heavy_ring(
    TimePoint max_time = TimePoint{Duration::seconds(3600).ns}) {
  FaultSpec spec;
  spec.drop = 0.2;
  spec.duplicate = 0.2;
  spec.delay = 0.4;
  spec.extra_delay = Duration::millis(40);
  TokenRingConfig ring;
  ring.rounds = 3;
  SimulationConfig config;
  config.seed = 11;
  config.max_time = max_time;
  config.faults = std::make_shared<FaultPlan>(spec, 11);
  return std::make_unique<Simulation>(
      Topology::ring(2), make_token_ring(2, ring), std::move(config));
}

// Where the clock stops: every (return value, now()) pair of
// run_until_quiescent across a sweep of max_time, and of a never-true
// run_until_condition across a sweep of deadlines.
TEST(LossyGolden, QuiescenceAndDeadlineClockArePinned) {
  const auto unbounded = ack_heavy_ring();
  EXPECT_TRUE(unbounded->run_until_quiescent());
  EXPECT_EQ(unbounded->now().ns, 348746127);

  std::ostringstream quiescent;
  std::ostringstream deadline;
  std::size_t cut_short = 0;
  for (std::int64_t us = 0; us <= 400'000; us += 500) {
    const TimePoint at{Duration::micros(us).ns};
    const auto capped = ack_heavy_ring(at);
    const bool done = capped->run_until_quiescent();
    cut_short += done ? 0 : 1;
    quiescent << done << ' ' << capped->now().ns << '\n';

    const auto waiting = ack_heavy_ring();
    const bool held = waiting->run_until_condition([] { return false; }, at);
    deadline << held << ' ' << waiting->now().ns << '\n';
  }
  EXPECT_EQ(cut_short, 698u);
  EXPECT_EQ(fnv1a(quiescent.str()), 8377219640727046114ULL);
  EXPECT_EQ(fnv1a(deadline.str()), 15722895716560008851ULL);
}

// A one-token ring whose every frame and ack is delayed far past the
// retransmit timeout, so the run ends on acks that arrive after the last
// retry check.  Sweeps max_time across the run's tail.
TEST(LossyGolden, RunEndingOnAnAckIsPinned) {
  const auto ring = [](TimePoint max_time) {
    FaultSpec spec;
    spec.delay = 1.0;
    spec.extra_delay = Duration::millis(100);
    TokenRingConfig token;
    token.rounds = 1;
    SimulationConfig config;
    config.seed = 5;
    config.max_time = max_time;
    config.faults = std::make_shared<FaultPlan>(spec, 5);
    return std::make_unique<Simulation>(
        Topology::ring(2), make_token_ring(2, token), std::move(config));
  };
  const auto unbounded = ring(TimePoint{Duration::seconds(3600).ns});
  EXPECT_TRUE(unbounded->run_until_quiescent());
  EXPECT_EQ(unbounded->now().ns, 486801547);
  std::ostringstream sweep;
  for (std::int64_t ms = 0; ms <= 1200; ms += 2) {
    const auto capped = ring(TimePoint{Duration::millis(ms).ns});
    const bool done = capped->run_until_quiescent();
    sweep << done << ' ' << capped->now().ns << '\n';
  }
  EXPECT_EQ(fnv1a(sweep.str()), 3758155520913809ULL);
}

// With constant latency, a frame's ack lands at the very instant its first
// retransmit check fires.  The check was queued first, so it runs first
// and retransmits; the ack arrives after it.
TEST(LossyGolden, AckTiedWithARetryLandsAfterIt) {
  TokenRingConfig token;
  token.rounds = 2;
  SimulationConfig config;
  config.latency = constant_latency(Duration::millis(5));
  config.faults = std::make_shared<FaultPlan>(FaultSpec{}, 1);
  config.reliable.rto_initial = Duration::millis(10);
  Simulation sim(Topology::ring(2), make_token_ring(2, token),
                 std::move(config));
  EXPECT_TRUE(sim.run_until_quiescent());
  const obs::TransportSnapshot t = sim.metrics().snapshot(sim.now()).transport;
  EXPECT_EQ(t.retransmits, 2u);
  EXPECT_EQ(t.dup_suppressed, 2u);
  EXPECT_EQ(sim.now().ns, 37000000);
}

}  // namespace
}  // namespace ddbg
