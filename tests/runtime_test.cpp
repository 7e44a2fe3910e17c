// Integration tests on the multithreaded runtime: real concurrency, real
// races between handlers — the algorithms must still produce consistent
// halted states.
//
// No wall-clock sleeps: every test synchronizes on observable state
// (atomic workload counters, armed-watch counts, wave completion) so it
// passes deterministically under load, `ctest -j` and TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "analysis/consistency.hpp"
#include "debugger/harness.hpp"
#include "workload/behaviors.hpp"

namespace ddbg {
namespace {

constexpr Duration kWait = Duration::seconds(15);

class Counter final : public Process {
 public:
  void on_message(ProcessContext&, ChannelId, Message) override {
    received.fetch_add(1);
  }
  std::atomic<int> received{0};
};

class StartBurst final : public Process {
 public:
  explicit StartBurst(int count) : count_(count) {}
  void on_start(ProcessContext& ctx) override {
    for (int i = 0; i < count_; ++i) {
      for (const ChannelId c : ctx.topology().out_channels(ctx.self())) {
        ctx.send(c, Message::application(Bytes{static_cast<std::uint8_t>(i)}));
      }
    }
  }
  void on_message(ProcessContext&, ChannelId, Message) override {}

 private:
  int count_;
};

TEST(Runtime, DeliversMessagesAcrossThreads) {
  Topology topology(2);
  topology.add_channel(ProcessId(0), ProcessId(1));
  std::vector<ProcessPtr> processes;
  processes.push_back(std::make_unique<StartBurst>(100));
  auto counter = std::make_unique<Counter>();
  Counter* counter_ptr = counter.get();
  processes.push_back(std::move(counter));

  Runtime runtime(std::move(topology), std::move(processes));
  runtime.start();
  EXPECT_TRUE(Runtime::wait_until(
      [&] { return counter_ptr->received.load() == 100; }, kWait));
  runtime.shutdown();
  EXPECT_EQ(runtime.metrics().totals().messages_sent, 100u);
}

TEST(Runtime, TimersFire) {
  class Ticker final : public Process {
   public:
    void on_start(ProcessContext& ctx) override {
      ctx.set_timer(Duration::millis(1));
    }
    void on_timer(ProcessContext& ctx, TimerId) override {
      if (ticks.fetch_add(1) + 1 < 5) ctx.set_timer(Duration::millis(1));
    }
    void on_message(ProcessContext&, ChannelId, Message) override {}
    std::atomic<int> ticks{0};
  };
  Topology topology(1);
  std::vector<ProcessPtr> processes;
  auto ticker = std::make_unique<Ticker>();
  Ticker* ticker_ptr = ticker.get();
  processes.push_back(std::move(ticker));
  Runtime runtime(std::move(topology), std::move(processes));
  runtime.start();
  EXPECT_TRUE(Runtime::wait_until(
      [&] { return ticker_ptr->ticks.load() >= 5; }, kWait));
  runtime.shutdown();
}

TEST(Runtime, PostAndCall) {
  Topology topology(1);
  std::vector<ProcessPtr> processes;
  processes.push_back(std::make_unique<Counter>());
  Runtime runtime(std::move(topology), std::move(processes));
  runtime.start();
  std::atomic<bool> ran{false};
  EXPECT_TRUE(runtime.call(
      ProcessId(0),
      [&](ProcessContext& ctx, Process&) {
        EXPECT_EQ(ctx.self(), ProcessId(0));
        ran = true;
      },
      kWait));
  EXPECT_TRUE(ran.load());
  runtime.shutdown();
}

TEST(Runtime, CancelledTimerDoesNotFire) {
  // A worker fires timers in deadline order, so a sentinel timer with a
  // deadline *after* the cancelled one proves the cancelled timer's window
  // has fully passed — no wall-clock sleep needed.
  class CancelTicker final : public Process {
   public:
    void on_start(ProcessContext& ctx) override {
      const TimerId cancelled = ctx.set_timer(Duration::millis(10));
      ctx.cancel_timer(cancelled);
      ctx.set_timer(Duration::millis(1));  // first tick
    }
    void on_timer(ProcessContext& ctx, TimerId) override {
      if (ticks.fetch_add(1) + 1 == 1) {
        // Sentinel: lands at ~21ms, past the cancelled timer's 10ms
        // deadline.  If cancellation were broken, the cancelled timer
        // would fire between the two ticks.
        ctx.set_timer(Duration::millis(20));
      }
    }
    void on_message(ProcessContext&, ChannelId, Message) override {}
    std::atomic<int> ticks{0};
  };
  Topology topology(1);
  std::vector<ProcessPtr> processes;
  auto ticker = std::make_unique<CancelTicker>();
  CancelTicker* ticker_ptr = ticker.get();
  processes.push_back(std::move(ticker));
  Runtime runtime(std::move(topology), std::move(processes));
  runtime.start();
  EXPECT_TRUE(
      Runtime::wait_until([&] { return ticker_ptr->ticks.load() >= 2; }, kWait));
  runtime.shutdown();
  EXPECT_EQ(ticker_ptr->ticks.load(), 2);
}

// Regression: timer ids came from a static counter shared by every
// runtime instance in the process, so a second runtime started at
// whatever the first left off (non-deterministic ids, eventual wrap).
// Ids must restart at 1 per instance.
TEST(Runtime, TimerIdsRestartPerRuntimeInstance) {
  class FirstTimerIdRecorder final : public Process {
   public:
    void on_start(ProcessContext& ctx) override {
      first_id.store(ctx.set_timer(Duration::millis(1)).value());
    }
    void on_message(ProcessContext&, ChannelId, Message) override {}
    void on_timer(ProcessContext&, TimerId) override { fired.store(true); }
    std::atomic<std::uint32_t> first_id{0};
    std::atomic<bool> fired{false};
  };
  for (int instance = 0; instance < 2; ++instance) {
    Topology topology(1);
    std::vector<ProcessPtr> processes;
    auto recorder = std::make_unique<FirstTimerIdRecorder>();
    FirstTimerIdRecorder* recorder_ptr = recorder.get();
    processes.push_back(std::move(recorder));
    Runtime runtime(std::move(topology), std::move(processes));
    runtime.start();
    ASSERT_TRUE(Runtime::wait_until(
        [&] { return recorder_ptr->fired.load(); }, kWait));
    runtime.shutdown();
    EXPECT_EQ(recorder_ptr->first_id.load(), 1u)
        << "instance " << instance;
  }
}

TEST(Runtime, ShutdownIsIdempotentAndSafe) {
  Topology topology(2);
  topology.add_channel(ProcessId(0), ProcessId(1));
  std::vector<ProcessPtr> processes;
  processes.push_back(std::make_unique<StartBurst>(10));
  processes.push_back(std::make_unique<Counter>());
  Runtime runtime(std::move(topology), std::move(processes));
  runtime.start();
  runtime.shutdown();
  runtime.shutdown();
}

// ---- Full debugger stack on real threads ----

// Deterministic warm-up: wait until a process demonstrably sent traffic
// instead of sleeping and hoping the scheduler ran it.
const GossipProcess& gossip_at(RuntimeDebugHarness& harness, std::uint32_t p) {
  return dynamic_cast<const GossipProcess&>(harness.shim(ProcessId(p)).user());
}

TEST(RuntimeDebugger, HaltGossipConsistently) {
  GossipConfig gossip;
  gossip.send_interval = Duration::micros(200);
  RuntimeDebugHarness harness(Topology::ring(4), make_gossip(4, gossip));
  harness.start();
  ASSERT_TRUE(Runtime::wait_until(
      [&] { return gossip_at(harness, 0).sent() >= 5; }, kWait));
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_EQ(wave->state.size(), 4u);
  EXPECT_TRUE(consistent_cut(wave->state));
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(harness.shim(ProcessId(i)).halted());
  }
  harness.shutdown();
}

TEST(RuntimeDebugger, BankConservationUnderRealRaces) {
  BankConfig bank;
  bank.transfer_interval = Duration::micros(300);
  RuntimeDebugHarness harness(Topology::complete(4), make_bank(4, bank));
  harness.start();
  // Halt only after real money is in motion.
  ASSERT_TRUE(Runtime::wait_until(
      [&] {
        return dynamic_cast<const BankProcess&>(
                   harness.shim(ProcessId(0)).user())
                   .transfers_made() >= 3;
      },
      kWait));
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  auto total = BankProcess::total_money(wave->state);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total.value(), 4 * bank.initial_balance);
  harness.shutdown();
}

TEST(RuntimeDebugger, BreakpointFiresOnThreads) {
  TokenRingConfig ring_config;
  ring_config.rounds = 1000;
  ring_config.hop_delay = Duration::micros(200);
  // Hold the token until the breakpoint is armed on p1: arming travels as
  // an asynchronous control message, and a free-running ring would race it
  // past the first two hops.
  ring_config.start_gate = std::make_shared<std::atomic<bool>>(false);
  RuntimeDebugHarness harness(Topology::ring(3),
                              make_token_ring(3, ring_config));
  harness.start();
  auto bp = harness.session().set_breakpoint("(p1:event(token))^2");
  ASSERT_TRUE(bp.ok());
  ASSERT_TRUE(harness.wait_for_armed(1, kWait));
  ring_config.start_gate->store(true, std::memory_order_release);
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  const auto& p1 = dynamic_cast<TokenRingProcess&>(
      harness.shim(ProcessId(1)).user());
  EXPECT_EQ(p1.tokens_seen(), 2u);
  harness.shutdown();
}

TEST(RuntimeDebugger, HaltResumeCycles) {
  GossipConfig gossip;
  gossip.send_interval = Duration::micros(300);
  RuntimeDebugHarness harness(Topology::ring(3), make_gossip(3, gossip));
  harness.start();
  for (std::uint64_t wave_id = 1; wave_id <= 3; ++wave_id) {
    // The system must demonstrably make progress between waves.
    const std::uint64_t sent_before = gossip_at(harness, 0).sent();
    ASSERT_TRUE(Runtime::wait_until(
        [&] { return gossip_at(harness, 0).sent() > sent_before + 2; },
        kWait));
    harness.session().halt();
    const bool complete = Runtime::wait_until(
        [&] { return harness.debugger().halt_complete(wave_id); }, kWait);
    ASSERT_TRUE(complete) << "wave " << wave_id;
    auto wave = harness.debugger().halt_wave(wave_id);
    ASSERT_TRUE(wave.has_value());
    EXPECT_TRUE(consistent_cut(wave->state)) << "wave " << wave_id;
    harness.session().resume();
  }
  harness.shutdown();
}

TEST(RuntimeDebugger, SnapshotWhileRunning) {
  GossipConfig gossip;
  gossip.send_interval = Duration::micros(200);
  RuntimeDebugHarness harness(Topology::ring(3), make_gossip(3, gossip));
  harness.start();
  ASSERT_TRUE(Runtime::wait_until(
      [&] { return gossip_at(harness, 0).sent() >= 2; }, kWait));
  auto snapshot = harness.session().take_snapshot(kWait);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->state.size(), 3u);
  EXPECT_TRUE(consistent_cut(snapshot->state));
  EXPECT_FALSE(harness.shim(ProcessId(0)).halted());
  harness.shutdown();
}

TEST(RuntimeDebugger, InspectProcess) {
  GossipConfig gossip;
  RuntimeDebugHarness harness(Topology::ring(3), make_gossip(3, gossip));
  harness.start();
  auto report = harness.session().inspect(ProcessId(2), kWait);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->process, ProcessId(2));
  harness.shutdown();
}

}  // namespace
}  // namespace ddbg
