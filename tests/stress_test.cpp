// Stress and adversarial scenarios: simultaneous initiators everywhere,
// rapid halt/resume cycling, breakpoint storms, zero-latency channels,
// large topologies.  Everything must stay consistent.
#include <gtest/gtest.h>

#include "analysis/consistency.hpp"
#include "core/debug_shim.hpp"
#include "debugger/harness.hpp"
#include "workload/behaviors.hpp"

namespace ddbg {
namespace {

constexpr Duration kWait = Duration::seconds(120);

HarnessConfig seeded(std::uint64_t seed) {
  HarnessConfig config;
  config.seed = seed;
  return config;
}

TEST(Stress, EveryProcessInitiatesSimultaneously) {
  // All processes spontaneously halt at the same virtual instant — the
  // paper's "halting can be initiated spontaneously by more than one
  // process".  One wave, one id, consistent state.
  for (std::uint64_t seed = 61; seed <= 63; ++seed) {
    GossipConfig gossip;
    SimDebugHarness harness(Topology::complete(5), make_gossip(5, gossip),
                            seeded(seed));
    harness.sim().run_for(Duration::millis(20));
    for (std::uint32_t i = 0; i < 5; ++i) {
      harness.sim().post(ProcessId(i), [](ProcessContext& ctx,
                                          Process& process) {
        dynamic_cast<DebugShim&>(process).initiate_halt(ctx);
      });
    }
    auto wave = harness.session().wait_for_halt(kWait);
    ASSERT_TRUE(wave.has_value()) << "seed " << seed;
    EXPECT_EQ(wave->id, 1u);
    EXPECT_TRUE(consistent_cut(wave->state)) << "seed " << seed;
    for (std::uint32_t i = 0; i < 5; ++i) {
      EXPECT_EQ(harness.shim(ProcessId(i)).halting().last_halt_id(), 1u);
      // Everyone initiated: every halt path is empty.
      EXPECT_TRUE(wave->halt_paths.at(ProcessId(i)).empty());
    }
  }
}

TEST(Stress, RapidHaltResumeCycling) {
  GossipConfig gossip;
  SimDebugHarness harness(Topology::ring(4), make_gossip(4, gossip),
                          seeded(64));
  for (std::uint64_t wave_id = 1; wave_id <= 10; ++wave_id) {
    harness.sim().run_for(Duration::millis(3));  // barely any run time
    harness.session().halt();
    const bool complete = harness.sim().run_until_condition(
        [&] { return harness.debugger().halt_complete(wave_id); },
        harness.sim().now() + kWait);
    ASSERT_TRUE(complete) << "wave " << wave_id;
    auto wave = harness.debugger().halt_wave(wave_id);
    ASSERT_TRUE(wave.has_value());
    EXPECT_TRUE(consistent_cut(wave->state)) << "wave " << wave_id;
    harness.session().resume();
  }
  // After all that, the system still makes progress.
  const auto& p0 =
      dynamic_cast<GossipProcess&>(harness.shim(ProcessId(0)).user());
  const std::uint64_t before = p0.sent();
  harness.sim().run_for(Duration::millis(50));
  EXPECT_GT(p0.sent(), before);
}

TEST(Stress, BreakpointStorm) {
  // Many breakpoints race; the first trigger wins and the wave stays
  // consistent; every hit that was reported refers to a real breakpoint.
  TokenRingConfig ring_config;
  ring_config.rounds = 200;
  SimDebugHarness harness(Topology::ring(4), make_token_ring(4, ring_config),
                          seeded(65));
  std::vector<BreakpointId> ids;
  for (std::uint32_t p = 0; p < 4; ++p) {
    for (const char* counter : {"sent", "recv"}) {
      std::string expr = prefixed_id('p', p);
      expr += ':';
      expr += counter;
      auto bp = harness.session().set_breakpoint(expr);
      ASSERT_TRUE(bp.ok());
      ids.push_back(bp.value());
    }
  }
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(consistent_cut(wave->state));
  ASSERT_GE(harness.session().hits().size(), 1u);
  for (const auto& hit : harness.session().hits()) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), hit.breakpoint), ids.end());
  }
}

TEST(Stress, MonitorAndHaltBreakpointsCoexist) {
  TokenRingConfig ring_config;
  ring_config.rounds = 100;
  SimDebugHarness harness(Topology::ring(3), make_token_ring(3, ring_config),
                          seeded(66));
  auto monitor = harness.session().set_breakpoint(
      "p0:event(token) [monitor]");
  ASSERT_TRUE(monitor.ok());
  auto halter = harness.session().set_breakpoint("(p1:event(token))^4");
  ASSERT_TRUE(halter.ok());
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  // The monitor recorded several abstract events before the halt.
  EXPECT_GE(harness.debugger().hit_count(monitor.value()), 2u);
  EXPECT_EQ(harness.debugger().hit_count(halter.value()), 1u);
  const auto& p1 = dynamic_cast<TokenRingProcess&>(
      harness.shim(ProcessId(1)).user());
  EXPECT_EQ(p1.tokens_seen(), 4u);
}

TEST(Stress, ZeroLatencyChannels) {
  // Degenerate timing: all delays zero; ordering falls back to the event
  // queue's deterministic sequence numbers.  All invariants must hold.
  BankConfig bank;
  HarnessConfig config;
  config.seed = 67;
  config.latency = constant_latency(Duration::nanos(0));
  SimDebugHarness harness(Topology::complete(3), make_bank(3, bank),
                          std::move(config));
  harness.sim().run_for(Duration::millis(30));
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(consistent_cut(wave->state));
  auto total = BankProcess::total_money(wave->state);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total.value(), 3 * bank.initial_balance);
}

TEST(Stress, LargeRandomTopology) {
  const std::uint32_t n = 96;
  Rng topo_rng(68);
  const Topology topology =
      Topology::random_strongly_connected(n, 3 * n, topo_rng);
  GossipConfig gossip;
  SimDebugHarness harness(topology, make_gossip(n, gossip), seeded(68));
  const std::size_t channels_with_control =
      harness.topology().num_channels();
  harness.sim().run_for(Duration::millis(20));
  const std::uint64_t markers_before =
      sent_count(harness.sim().metrics().totals(), MessageKind::kHaltMarker);
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_EQ(wave->state.size(), n);
  EXPECT_TRUE(consistent_cut(wave->state));
  EXPECT_LE(sent_count(harness.sim().metrics().totals(),
                       MessageKind::kHaltMarker) -
                markers_before,
            channels_with_control);
}

TEST(Stress, HaltDuringSnapshotWave) {
  // A halting wave racing a recording wave: both must complete, the
  // recording possibly only after resume (the halted processes finish it
  // when they run again).
  GossipConfig gossip;
  SimDebugHarness harness(Topology::ring(4), make_gossip(4, gossip),
                          seeded(69));
  harness.sim().run_for(Duration::millis(20));
  // Start a recording and immediately halt.
  harness.sim().post(harness.debugger_id(),
                     [&](ProcessContext& ctx, Process&) {
                       harness.debugger().initiate_snapshot(ctx);
                       harness.debugger().initiate_halt(ctx);
                     });
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(consistent_cut(wave->state));
  // Resume; the recording wave finishes.
  harness.session().resume();
  const bool snapshot_done = harness.sim().run_until_condition(
      [&] { return harness.debugger().snapshot_complete(1); },
      harness.sim().now() + kWait);
  EXPECT_TRUE(snapshot_done);
  auto snapshot = harness.debugger().snapshot_wave(1);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_TRUE(consistent_cut(snapshot->state));
}

}  // namespace
}  // namespace ddbg
