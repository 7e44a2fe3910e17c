// Tests for the deterministic discrete-event simulator: delivery, FIFO
// order under random latencies, timers, determinism, injection.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "net/fault_plan.hpp"
#include "sim/simulation.hpp"
#include "workload/behaviors.hpp"

namespace ddbg {
namespace {

// Records everything it receives; can echo.
class Recorder final : public Process {
 public:
  void on_message(ProcessContext& ctx, ChannelId in, Message message) override {
    received.emplace_back(in, message);
    receive_times.push_back(ctx.now());
  }
  std::vector<std::pair<ChannelId, Message>> received;
  std::vector<TimePoint> receive_times;
};

// Sends `count` numbered messages on every outgoing channel at start.
class Burster final : public Process {
 public:
  explicit Burster(int count) : count_(count) {}
  void on_start(ProcessContext& ctx) override {
    for (int i = 0; i < count_; ++i) {
      for (const ChannelId c : ctx.topology().out_channels(ctx.self())) {
        ByteWriter writer;
        writer.u32(static_cast<std::uint32_t>(i));
        ctx.send(c, Message::application(std::move(writer).take()));
      }
    }
  }
  void on_message(ProcessContext&, ChannelId, Message) override {}

 private:
  int count_;
};

// Fires a timer chain: schedules the next timer until `count` firings.
class TimerChain final : public Process {
 public:
  TimerChain(Duration interval, int count)
      : interval_(interval), count_(count) {}
  void on_start(ProcessContext& ctx) override {
    if (count_ > 0) ctx.set_timer(interval_);
  }
  void on_timer(ProcessContext& ctx, TimerId) override {
    fire_times.push_back(ctx.now());
    if (static_cast<int>(fire_times.size()) < count_) {
      ctx.set_timer(interval_);
    }
  }
  void on_message(ProcessContext&, ChannelId, Message) override {}
  std::vector<TimePoint> fire_times;

 private:
  Duration interval_;
  int count_;
};

Topology two_process_line() {
  Topology t(2);
  t.add_channel(ProcessId(0), ProcessId(1));
  return t;
}

TEST(Simulation, DeliversMessages) {
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<Burster>(3));
  procs.push_back(std::make_unique<Recorder>());
  Simulation sim(two_process_line(), std::move(procs));
  EXPECT_TRUE(sim.run_until_quiescent());
  auto& recorder = dynamic_cast<Recorder&>(sim.process(ProcessId(1)));
  EXPECT_EQ(recorder.received.size(), 3u);
  EXPECT_EQ(sim.metrics().totals().messages_sent, 3u);
  EXPECT_EQ(sim.metrics().totals().messages_delivered, 3u);
  EXPECT_EQ(sent_count(sim.metrics().totals(), MessageKind::kApplication), 3u);
}

TEST(Simulation, FifoUnderRandomLatency) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::vector<ProcessPtr> procs;
    procs.push_back(std::make_unique<Burster>(50));
    procs.push_back(std::make_unique<Recorder>());
    SimulationConfig config;
    config.seed = seed;
    config.latency = uniform_latency(Duration::micros(1), Duration::millis(20));
    Simulation sim(two_process_line(), std::move(procs), std::move(config));
    EXPECT_TRUE(sim.run_until_quiescent());
    auto& recorder = dynamic_cast<Recorder&>(sim.process(ProcessId(1)));
    ASSERT_EQ(recorder.received.size(), 50u);
    for (std::size_t i = 0; i < recorder.received.size(); ++i) {
      ByteReader reader(recorder.received[i].second.payload);
      EXPECT_EQ(reader.u32().value(), i) << "seed " << seed;
    }
  }
}

TEST(Simulation, MessageIdsAssignedAndUnique) {
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<Burster>(5));
  procs.push_back(std::make_unique<Recorder>());
  Simulation sim(two_process_line(), std::move(procs));
  sim.run_until_quiescent();
  auto& recorder = dynamic_cast<Recorder&>(sim.process(ProcessId(1)));
  std::set<std::uint64_t> ids;
  for (auto& [channel, message] : recorder.received) {
    EXPECT_NE(message.message_id, 0u);
    ids.insert(message.message_id);
  }
  EXPECT_EQ(ids.size(), 5u);
}

TEST(Simulation, TimersFireInOrder) {
  Topology t(1);
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<TimerChain>(Duration::millis(5), 4));
  Simulation sim(std::move(t), std::move(procs));
  EXPECT_TRUE(sim.run_until_quiescent());
  auto& chain = dynamic_cast<TimerChain&>(sim.process(ProcessId(0)));
  ASSERT_EQ(chain.fire_times.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(chain.fire_times[i].ns, (static_cast<int>(i) + 1) * 5'000'000);
  }
}

TEST(Simulation, CancelledTimerDoesNotFire) {
  class Canceller final : public Process {
   public:
    void on_start(ProcessContext& ctx) override {
      const TimerId t = ctx.set_timer(Duration::millis(1));
      ctx.cancel_timer(t);
      ctx.set_timer(Duration::millis(2));
    }
    void on_timer(ProcessContext&, TimerId) override { ++fired; }
    void on_message(ProcessContext&, ChannelId, Message) override {}
    int fired = 0;
  };
  Topology t(1);
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<Canceller>());
  Simulation sim(std::move(t), std::move(procs));
  sim.run_until_quiescent();
  EXPECT_EQ(dynamic_cast<Canceller&>(sim.process(ProcessId(0))).fired, 1);
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    std::vector<ProcessPtr> procs;
    procs.push_back(std::make_unique<Burster>(20));
    procs.push_back(std::make_unique<Recorder>());
    SimulationConfig config;
    config.seed = seed;
    config.latency = uniform_latency(Duration::micros(10), Duration::millis(3));
    Simulation sim(two_process_line(), std::move(procs), std::move(config));
    sim.run_until_quiescent();
    auto& recorder = dynamic_cast<Recorder&>(sim.process(ProcessId(1)));
    return recorder.receive_times;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(Simulation, RunUntilStopsAtTime) {
  Topology t(1);
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<TimerChain>(Duration::millis(10), 100));
  Simulation sim(std::move(t), std::move(procs));
  sim.run_until(TimePoint{Duration::millis(35).ns});
  auto& chain = dynamic_cast<TimerChain&>(sim.process(ProcessId(0)));
  EXPECT_EQ(chain.fire_times.size(), 3u);
  EXPECT_EQ(sim.now().ns, Duration::millis(35).ns);
}

TEST(Simulation, InFlightAccounting) {
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<Burster>(4));
  procs.push_back(std::make_unique<Recorder>());
  SimulationConfig config;
  config.latency = constant_latency(Duration::millis(10));
  Simulation sim(two_process_line(), std::move(procs), std::move(config));
  sim.run_until(TimePoint{Duration::millis(1).ns});
  EXPECT_EQ(sim.total_in_flight(), 4u);
  sim.run_until_quiescent();
  EXPECT_EQ(sim.total_in_flight(), 0u);
}

TEST(Simulation, ScheduleCallRunsAtTime) {
  Topology t(1);
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<Recorder>());
  Simulation sim(std::move(t), std::move(procs));
  bool ran = false;
  sim.schedule_call(TimePoint{Duration::millis(7).ns}, [&] { ran = true; });
  sim.run_until(TimePoint{Duration::millis(6).ns});
  EXPECT_FALSE(ran);
  sim.run_until(TimePoint{Duration::millis(8).ns});
  EXPECT_TRUE(ran);
}

TEST(Simulation, PostRunsInProcessContext) {
  Topology t = two_process_line();
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<Burster>(0));
  procs.push_back(std::make_unique<Recorder>());
  Simulation sim(std::move(t), std::move(procs));
  sim.run_until_quiescent();
  ProcessId seen;
  sim.post(ProcessId(1), [&](ProcessContext& ctx, Process& process) {
    seen = ctx.self();
    EXPECT_NE(dynamic_cast<Recorder*>(&process), nullptr);
  });
  sim.run_until_quiescent();
  EXPECT_EQ(seen, ProcessId(1));
}

// Queued calls and closures live in the engine's slab until they run; a
// run one must not keep its captures alive.
TEST(Simulation, ScheduledCallReleasesCapturesOnceRun) {
  Topology t(1);
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<Recorder>());
  Simulation sim(std::move(t), std::move(procs));
  auto token = std::make_shared<int>(7);
  sim.schedule_call(TimePoint{Duration::millis(3).ns},
                    [token] { EXPECT_EQ(*token, 7); });
  EXPECT_EQ(token.use_count(), 2);
  sim.run_until_quiescent();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulation, PostedClosureReleasesCapturesOnceRun) {
  Simulation sim(two_process_line(), [] {
    std::vector<ProcessPtr> procs;
    procs.push_back(std::make_unique<Burster>(0));
    procs.push_back(std::make_unique<Recorder>());
    return procs;
  }());
  sim.run_until_quiescent();
  auto token = std::make_shared<int>(7);
  sim.post(ProcessId(1), [token](ProcessContext&, Process&) {
    EXPECT_EQ(*token, 7);
  });
  // A closure that queues another call while it runs: the slab may grow
  // under it, and both captures are still released.
  sim.post(ProcessId(0), [&sim, token](ProcessContext&, Process&) {
    sim.schedule_call(sim.now(), [token] {});
  });
  EXPECT_EQ(token.use_count(), 3);
  sim.run_until_quiescent();
  EXPECT_EQ(token.use_count(), 1);
}

// Every message parked for delivery is delivered exactly once, on every
// engine and with or without the reliability layer underneath.
TEST(Simulation, GossipDrainsEveryChannel) {
  struct Case {
    std::uint32_t workers;
    bool faults;
  };
  for (const Case c : {Case{1, false}, Case{1, true}, Case{3, false},
                       Case{3, true}}) {
    GossipConfig gossip;
    gossip.max_sends = 40;
    SimulationConfig config;
    config.seed = 9;
    config.workers = c.workers;
    if (c.faults) {
      FaultSpec spec;
      spec.drop = 0.2;
      spec.duplicate = 0.2;
      spec.reorder = 0.1;
      spec.reset = 0.02;
      config.faults = std::make_shared<FaultPlan>(spec, 3);
    }
    Simulation sim(Topology::complete(6), make_gossip(6, gossip),
                   std::move(config));
    ASSERT_TRUE(sim.run_until_quiescent());
    EXPECT_EQ(sim.total_in_flight(), 0u)
        << "workers=" << c.workers << " faults=" << c.faults;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    for (std::uint32_t p = 0; p < 6; ++p) {
      const auto& g = dynamic_cast<GossipProcess&>(sim.process(ProcessId(p)));
      sent += g.sent();
      received += g.received();
    }
    EXPECT_EQ(sent, 6u * 40u);
    EXPECT_EQ(received, sent);
  }
}

TEST(Simulation, RunUntilConditionStopsEarly) {
  Topology t(1);
  std::vector<ProcessPtr> procs;
  auto chain = std::make_unique<TimerChain>(Duration::millis(1), 100);
  TimerChain* chain_ptr = chain.get();
  procs.push_back(std::move(chain));
  Simulation sim(std::move(t), std::move(procs));
  const bool met = sim.run_until_condition(
      [&] { return chain_ptr->fire_times.size() >= 5; },
      TimePoint{Duration::seconds(1).ns});
  EXPECT_TRUE(met);
  EXPECT_EQ(chain_ptr->fire_times.size(), 5u);
}

TEST(Simulation, ExponentialLatencyClampsPathologicalTail) {
  // A mean near the int64 ceiling makes nearly every exponential draw
  // overflow Duration's nanosecond clock; the sample must clamp to the
  // documented cap instead of hitting double->int64 UB.
  const Duration min_delay = Duration::micros(1);
  ExponentialLatency model(
      Duration{std::numeric_limits<std::int64_t>::max() / 2}, min_delay);
  Rng rng(31);
  bool clamped = false;
  for (int i = 0; i < 200; ++i) {
    const Duration d = model.sample(ChannelId(0), rng);
    EXPECT_GE(d.ns, min_delay.ns);
    EXPECT_LE(d.ns, min_delay.ns + ExponentialLatency::kMaxExtraDelay.ns);
    if (d.ns == min_delay.ns + ExponentialLatency::kMaxExtraDelay.ns) {
      clamped = true;
    }
  }
  EXPECT_TRUE(clamped);  // the cap demonstrably engaged
}

TEST(Simulation, ExponentialLatencyStillFifo) {
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<Burster>(30));
  procs.push_back(std::make_unique<Recorder>());
  SimulationConfig config;
  config.latency = exponential_latency(Duration::millis(5), Duration::micros(100));
  Simulation sim(two_process_line(), std::move(procs), std::move(config));
  sim.run_until_quiescent();
  auto& recorder = dynamic_cast<Recorder&>(sim.process(ProcessId(1)));
  ASSERT_EQ(recorder.received.size(), 30u);
  for (std::size_t i = 1; i < recorder.receive_times.size(); ++i) {
    EXPECT_LE(recorder.receive_times[i - 1], recorder.receive_times[i]);
  }
}

}  // namespace
}  // namespace ddbg
