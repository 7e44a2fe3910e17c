// Unit tests for the application workloads on the simulator.
#include <gtest/gtest.h>

#include "sim/simulation.hpp"
#include "workload/behaviors.hpp"
#include "workload/lazy.hpp"

namespace ddbg {
namespace {

TEST(TokenRing, CompletesConfiguredRounds) {
  TokenRingConfig config;
  config.rounds = 5;
  Simulation sim(Topology::ring(4), make_token_ring(4, config));
  EXPECT_TRUE(sim.run_until_quiescent());
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto& process =
        dynamic_cast<TokenRingProcess&>(sim.process(ProcessId(i)));
    EXPECT_EQ(process.tokens_seen(), 5u) << "p" << i;
  }
  // 5 rounds x 4 hops = 20 token messages.
  EXPECT_EQ(sent_count(sim.metrics().totals(), MessageKind::kApplication), 20u);
}

TEST(TokenRing, SnapshotStateReflectsProgress) {
  TokenRingConfig config;
  config.rounds = 2;
  Simulation sim(Topology::ring(3), make_token_ring(3, config));
  sim.run_until_quiescent();
  const auto& process =
      dynamic_cast<TokenRingProcess&>(sim.process(ProcessId(1)));
  const Bytes state = process.snapshot_state();
  ByteReader reader(state);
  EXPECT_EQ(reader.u32().value(), 2u);  // tokens_seen
  EXPECT_NE(process.describe_state().find("tokens_seen=2"),
            std::string::npos);
}

TEST(Pipeline, AllItemsFlowToConsumer) {
  PipelineConfig config;
  config.items = 25;
  Simulation sim(Topology::pipeline(4), make_pipeline(4, config));
  EXPECT_TRUE(sim.run_until_quiescent());
  const auto& consumer =
      dynamic_cast<PipelineProcess&>(sim.process(ProcessId(3)));
  EXPECT_EQ(consumer.items_seen(), 25u);
  // Checksum preserved along the chain: sum 1..25.
  const auto& producer =
      dynamic_cast<PipelineProcess&>(sim.process(ProcessId(0)));
  EXPECT_EQ(producer.snapshot_state(), consumer.snapshot_state());
}

TEST(Pipeline, UnboundedProducerKeepsGoing) {
  PipelineConfig config;
  config.items = 0;
  Simulation sim(Topology::pipeline(2), make_pipeline(2, config));
  sim.run_for(Duration::millis(50));
  const auto& producer =
      dynamic_cast<PipelineProcess&>(sim.process(ProcessId(0)));
  EXPECT_GT(producer.items_seen(), 10u);
}

TEST(Gossip, MaxSendsRespected) {
  GossipConfig config;
  config.max_sends = 7;
  Simulation sim(Topology::ring(3), make_gossip(3, config));
  EXPECT_TRUE(sim.run_until_quiescent());
  std::uint64_t total_sent = 0;
  std::uint64_t total_received = 0;
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto& process =
        dynamic_cast<GossipProcess&>(sim.process(ProcessId(i)));
    EXPECT_EQ(process.sent(), 7u);
    total_sent += process.sent();
    total_received += process.received();
  }
  EXPECT_EQ(total_sent, total_received);
}

TEST(Gossip, PayloadSizeHonored) {
  GossipConfig config;
  config.max_sends = 1;
  config.payload_bytes = 64;
  Simulation sim(Topology::ring(2), make_gossip(2, config));
  sim.run_until_quiescent();
  EXPECT_GE(sim.metrics().totals().bytes_sent, 2u * 64u);
}

TEST(Bank, ConservationAtQuiescence) {
  BankConfig config;
  config.max_transfers = 20;
  Simulation sim(Topology::complete(4), make_bank(4, config));
  EXPECT_TRUE(sim.run_until_quiescent());
  std::int64_t total = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    total += dynamic_cast<BankProcess&>(sim.process(ProcessId(i))).balance();
  }
  EXPECT_EQ(total, 4 * config.initial_balance);
}

TEST(Bank, NeverOverdraws) {
  BankConfig config;
  config.max_transfers = 50;
  config.max_transfer = 500;
  Simulation sim(Topology::complete(3), make_bank(3, config));
  sim.run_until_quiescent();
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_GE(dynamic_cast<BankProcess&>(sim.process(ProcessId(i))).balance(),
              0);
  }
}

TEST(Bank, DecodeHelpers) {
  BankConfig config;
  BankProcess bank(config);
  auto balance = BankProcess::decode_balance(bank.snapshot_state());
  ASSERT_TRUE(balance.ok());
  EXPECT_EQ(balance.value(), config.initial_balance);
  EXPECT_FALSE(BankProcess::decode_balance(Bytes{1}).ok());
  EXPECT_FALSE(BankProcess::decode_transfer(Bytes{}).ok());
}

TEST(Bank, TotalMoneyCountsChannels) {
  GlobalState state{HaltId(1)};
  BankConfig config;
  ProcessSnapshot s0;
  s0.process = ProcessId(0);
  s0.state = BankProcess(config).snapshot_state();  // 1000
  ByteWriter transfer;
  transfer.u64(250);
  s0.in_channels.push_back(
      ChannelState{ChannelId(0), {std::move(transfer).take()}});
  state.add(s0);
  auto total = BankProcess::total_money(state);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total.value(), 1250);
}

TEST(Lazy, DefersAppTrafficUntilPoll) {
  // p0 bursts 5 messages; p1 is lazy with a 50ms poll.
  class Burst final : public Process {
   public:
    void on_start(ProcessContext& ctx) override {
      for (int i = 0; i < 5; ++i) {
        ctx.send(ctx.topology().out_channels(ctx.self())[0],
                 Message::application(Bytes{static_cast<std::uint8_t>(i)}));
      }
    }
    void on_message(ProcessContext&, ChannelId, Message) override {}
  };
  class Sink final : public Process {
   public:
    void on_message(ProcessContext&, ChannelId, Message) override {
      ++received;
    }
    int received = 0;
  };

  Topology topology(2);
  topology.add_channel(ProcessId(0), ProcessId(1));
  std::vector<ProcessPtr> processes;
  processes.push_back(std::make_unique<Burst>());
  auto sink = std::make_unique<Sink>();
  Sink* sink_ptr = sink.get();
  processes.push_back(
      std::make_unique<LazyProcess>(std::move(sink), Duration::millis(50)));
  Simulation sim(std::move(topology), std::move(processes));

  sim.run_until(TimePoint{Duration::millis(30).ns});
  EXPECT_EQ(sink_ptr->received, 0);  // delivered but stashed
  auto& lazy = dynamic_cast<LazyProcess&>(sim.process(ProcessId(1)));
  EXPECT_EQ(lazy.stashed(), 5u);
  sim.run_until(TimePoint{Duration::millis(60).ns});
  EXPECT_EQ(sink_ptr->received, 5);
  EXPECT_EQ(lazy.stashed(), 0u);
}

TEST(Lazy, InnerTimersStillWork) {
  class Ticker final : public Process {
   public:
    void on_start(ProcessContext& ctx) override {
      ctx.set_timer(Duration::millis(3));
    }
    void on_timer(ProcessContext&, TimerId) override { ++ticks; }
    void on_message(ProcessContext&, ChannelId, Message) override {}
    int ticks = 0;
  };
  Topology topology(1);
  std::vector<ProcessPtr> processes;
  auto ticker = std::make_unique<Ticker>();
  Ticker* ticker_ptr = ticker.get();
  processes.push_back(
      std::make_unique<LazyProcess>(std::move(ticker), Duration::millis(100)));
  Simulation sim(std::move(topology), std::move(processes));
  sim.run_until(TimePoint{Duration::millis(10).ns});
  EXPECT_EQ(ticker_ptr->ticks, 1);  // inner timer, not the poll timer
}

}  // namespace
}  // namespace ddbg
