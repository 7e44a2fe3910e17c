// Unit tests for the comparison baselines: central-hub rerouting and the
// naive out-of-band halt.
#include <gtest/gtest.h>

#include "analysis/consistency.hpp"
#include "baselines/central_hub.hpp"
#include "baselines/naive_halt.hpp"
#include "sim/simulation.hpp"
#include "workload/behaviors.hpp"

namespace ddbg {
namespace {

TEST(CentralHub, TopologyHasHubChannels) {
  const HubTopology info = make_hub_topology(Topology::ring(3));
  EXPECT_EQ(info.topology.num_processes(), 4u);
  EXPECT_EQ(info.hub, ProcessId(3));
  EXPECT_EQ(info.to_hub.size(), 3u);
  EXPECT_EQ(info.from_hub.size(), 3u);
  // ring channels + 2 hub channels per process
  EXPECT_EQ(info.topology.num_channels(), 3u + 6u);
  EXPECT_EQ(info.user_topology.num_channels(), 3u);
}

TEST(CentralHub, MessagesFlowThroughHub) {
  const HubTopology info = make_hub_topology(Topology::ring(3));
  TokenRingConfig ring_config;
  ring_config.rounds = 4;
  Simulation sim(info.topology,
                 wrap_for_hub(info, make_token_ring(3, ring_config)));
  EXPECT_TRUE(sim.run_until_quiescent());
  // The application behaves identically: all processes saw 4 tokens.
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_NE(sim.process(ProcessId(i)).describe_state().find(
                  "tokens_seen=4"),
              std::string::npos)
        << "p" << i;
  }
  const auto& hub = dynamic_cast<HubRouterProcess&>(sim.process(info.hub));
  EXPECT_EQ(hub.forwarded(), 12u);  // every token hop crossed the hub
  // Exactly double the wire messages of the direct run.
  EXPECT_EQ(sim.metrics().totals().messages_sent, 24u);
}

TEST(CentralHub, DoublesMessageCountVsDirect) {
  GossipConfig gossip;
  gossip.max_sends = 10;

  std::uint64_t direct_messages = 0;
  {
    Simulation sim(Topology::ring(4), make_gossip(4, gossip));
    sim.run_until_quiescent();
    direct_messages = sim.metrics().totals().messages_sent;
  }
  const HubTopology info = make_hub_topology(Topology::ring(4));
  Simulation sim(info.topology, wrap_for_hub(info, make_gossip(4, gossip)));
  sim.run_until_quiescent();
  EXPECT_EQ(sim.metrics().totals().messages_sent, 2 * direct_messages);
}

TEST(CentralHub, UserSeesOriginalTopology) {
  const HubTopology info = make_hub_topology(Topology::ring(3));
  auto seen = std::make_shared<std::vector<std::size_t>>();
  class TopologyChecker final : public Process {
   public:
    explicit TopologyChecker(std::shared_ptr<std::vector<std::size_t>> out)
        : out_(std::move(out)) {}
    void on_start(ProcessContext& ctx) override {
      out_->push_back(ctx.topology().num_channels());
    }
    void on_message(ProcessContext&, ChannelId, Message) override {}

   private:
    std::shared_ptr<std::vector<std::size_t>> out_;
  };
  std::vector<ProcessPtr> users;
  for (int i = 0; i < 3; ++i) {
    users.push_back(std::make_unique<TopologyChecker>(seen));
  }
  Simulation sim(info.topology, wrap_for_hub(info, std::move(users)));
  sim.run_until_quiescent();
  // Each user saw the original 3-channel ring, not the 9-channel hub graph.
  ASSERT_EQ(seen->size(), 3u);
  for (const std::size_t channels : *seen) EXPECT_EQ(channels, 3u);
}

TEST(NaiveHalt, FreezeStopsExecutionAndDropsArrivals) {
  Topology topology(2);
  topology.add_channel(ProcessId(0), ProcessId(1));
  topology.add_channel(ProcessId(1), ProcessId(0));

  GossipConfig gossip;
  std::vector<ProcessPtr> shims = wrap_in_naive_shims(
      topology, make_gossip(2, gossip), NaiveHaltShim::Options{});
  Simulation sim(topology, std::move(shims));
  sim.run_for(Duration::millis(20));

  sim.post(ProcessId(1), [](ProcessContext& ctx, Process& process) {
    dynamic_cast<NaiveHaltShim&>(process).halt_now(ctx);
  });
  sim.run_for(Duration::millis(1));
  auto& frozen = dynamic_cast<NaiveHaltShim&>(sim.process(ProcessId(1)));
  ASSERT_TRUE(frozen.halted());
  const std::string state_at_halt = frozen.snapshot().description;

  // p0 keeps sending into the frozen process: arrivals are dropped.
  sim.run_for(Duration::millis(30));
  EXPECT_GT(frozen.dropped_messages(), 0u);
  EXPECT_EQ(frozen.describe_state(), state_at_halt);  // truly frozen
}

TEST(NaiveHalt, SnapshotCapturesClockAndState) {
  Topology topology(2);
  topology.add_channel(ProcessId(0), ProcessId(1));
  topology.add_channel(ProcessId(1), ProcessId(0));
  Trace trace;
  NaiveHaltShim::Options options;
  options.trace_sink = trace.sink();
  GossipConfig gossip;
  std::vector<ProcessPtr> shims =
      wrap_in_naive_shims(topology, make_gossip(2, gossip), options);
  Simulation sim(topology, std::move(shims));
  sim.run_for(Duration::millis(20));
  for (std::uint32_t i = 0; i < 2; ++i) {
    sim.post(ProcessId(i), [](ProcessContext& ctx, Process& process) {
      dynamic_cast<NaiveHaltShim&>(process).halt_now(ctx);
    });
  }
  sim.run_for(Duration::millis(1));

  GlobalState state{HaltId(1)};
  for (std::uint32_t i = 0; i < 2; ++i) {
    state.add(
        dynamic_cast<NaiveHaltShim&>(sim.process(ProcessId(i))).snapshot());
  }
  // Simultaneous real-time freeze: the cut of process states is consistent…
  EXPECT_TRUE(consistent_cut(state));
  // …but nothing was recorded for the channels.
  EXPECT_EQ(state.total_channel_messages(), 0u);
  EXPECT_GT(trace.size(), 0u);
}

TEST(NaiveHalt, HaltNowIsIdempotent) {
  Topology topology(2);
  topology.add_channel(ProcessId(0), ProcessId(1));
  GossipConfig gossip;
  std::vector<ProcessPtr> shims = wrap_in_naive_shims(
      topology, make_gossip(2, gossip), NaiveHaltShim::Options{});
  Simulation sim(topology, std::move(shims));
  sim.run_for(Duration::millis(5));
  for (int repeat = 0; repeat < 2; ++repeat) {
    sim.post(ProcessId(0), [](ProcessContext& ctx, Process& process) {
      dynamic_cast<NaiveHaltShim&>(process).halt_now(ctx);
    });
  }
  sim.run_for(Duration::millis(1));
  EXPECT_TRUE(
      dynamic_cast<NaiveHaltShim&>(sim.process(ProcessId(0))).halted());
}

}  // namespace
}  // namespace ddbg
