// Move-once pins: a simulated message travels from sender to receiver by
// moves only, and a halt wave's markers share one body.
//
// - A lossy hop that is dropped, retransmitted and duplicated hands the
//   receiver the sender's own payload buffer, and costs no allocation per
//   transmission attempt: frames carry only their seq, and a wanted
//   arrival moves the message out of the sender's window.
// - Sending a halt marker on n-1 out-channels allocates the same as on a
//   handful: every copy shares one immutable HaltMarkerData.
// - A message that arrives while its receiver is halted is buffered by
//   move, so resume hands the user handler the sender's own buffer.
// - With no trace sink and no armed watch, the shim builds no local event:
//   a hop allocates only its payload and its wire vector clock, and a
//   DebugApi call allocates nothing.
// - A Message fits in 120 bytes, and the simulator's event heap pops in
//   exact (when, seq) order.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/debug_shim.hpp"
#include "core/halting.hpp"
#include "core/marker_wave.hpp"
#include "debugger/harness.hpp"
#include "net/fault_plan.hpp"
#include "sim/event_heap.hpp"
#include "sim/simulation.hpp"
#include "tests/test_util.hpp"

std::size_t allocation_count();  // tests/alloc_counter.cpp

namespace ddbg {
namespace {

// Every simulated hop moves a Message several times; marker payloads live
// behind shared bodies so the struct stays small.
static_assert(sizeof(Message) <= 120);

constexpr std::size_t kHops = 2;
constexpr Duration kHopInterval = Duration::seconds(1);

// Sends its outbox on c0, one message per second, and remembers each
// payload's buffer address.
class Sender final : public Process {
 public:
  Sender() {
    for (std::uint32_t i = 0; i < kHops; ++i) {
      outbox_.push_back(
          Message::application(Bytes(64, static_cast<std::uint8_t>(i))));
      buffers.push_back(outbox_.back().payload.data());
    }
  }
  void on_start(ProcessContext& ctx) override {
    ctx.set_timer(Duration::millis(1));
  }
  void on_message(ProcessContext&, ChannelId, Message) override {}
  void on_timer(ProcessContext& ctx, TimerId) override {
    ctx.send(ChannelId(0), std::move(outbox_[next_++]));
    if (next_ < outbox_.size()) ctx.set_timer(kHopInterval);
  }

  std::vector<const std::uint8_t*> buffers;

 private:
  std::vector<Message> outbox_;
  std::size_t next_ = 0;
};

class Receiver final : public Process {
 public:
  Receiver() { buffers.reserve(kHops); }
  void on_message(ProcessContext&, ChannelId, Message message) override {
    buffers.push_back(message.payload.data());
  }

  std::vector<const std::uint8_t*> buffers;
};

// Every attempt on c0 is duplicated, except those in [from, from + 1),
// which a partition drops.
FaultSpec drop_then_duplicate(std::uint64_t from) {
  FaultSpec spec;
  spec.duplicate = 1.0;
  spec.partition_from = from;
  spec.partition_until = from + 1;
  return spec;
}

TEST(MoveOnce, LossyHopDeliversTheSendersBufferWithoutAllocating) {
  auto plan = std::make_shared<FaultPlan>(FaultSpec{}, 1);
  plan->set_channel(ChannelId(0), drop_then_duplicate(0));
  std::vector<ProcessPtr> processes;
  processes.push_back(std::make_unique<Sender>());
  processes.push_back(std::make_unique<Receiver>());
  const Sender& sender = static_cast<const Sender&>(*processes[0]);
  const Receiver& receiver = static_cast<const Receiver&>(*processes[1]);
  SimulationConfig config;
  config.latency = constant_latency(Duration::millis(1));
  config.faults = plan;
  Simulation sim(Topology::ring(2), std::move(processes), std::move(config));

  // The first hop warms every buffer the path reuses.
  sim.run_until(TimePoint{Duration::millis(500).ns});
  ASSERT_EQ(receiver.buffers.size(), 1u);
  // The second hop meets the same faults: attempt 2 is dropped, its
  // retransmission is duplicated.
  plan->set_channel(ChannelId(0), drop_then_duplicate(2));
  const std::size_t before = allocation_count();
  sim.run_until(TimePoint{Duration::millis(1500).ns});
  const std::size_t allocations = allocation_count() - before;

  ASSERT_EQ(receiver.buffers.size(), kHops);
  EXPECT_EQ(receiver.buffers, sender.buffers);
  EXPECT_EQ(allocations, 0u);
  const obs::TransportSnapshot t = sim.metrics().snapshot(sim.now()).transport;
  EXPECT_EQ(t.faults_injected[fault_index(FaultKind::kPartition)], 2u);
  EXPECT_EQ(t.faults_injected[fault_index(FaultKind::kDuplicate)], 2u);
  EXPECT_EQ(t.retransmits, 2u);
  EXPECT_EQ(t.dup_suppressed, 2u);
}

// Allocations made by sending one halt marker on every out-channel of p0 in
// complete(n), and whether every copy shares the first one's body.
struct FanOut {
  std::size_t allocations = 0;
  bool shared = true;
};

FanOut marker_fan_out(std::uint32_t n) {
  const Topology topology = Topology::complete(n);
  testing::FakeContext ctx(ProcessId(0), &topology);
  ctx.sent.reserve(n);
  MarkerWave wave(ProcessId(0), &topology, /*suppress_control_echo=*/true);
  wave.begin(ctx, 1, /*from_control=*/false);
  const std::size_t before = allocation_count();
  wave.send_markers(ctx, Message::halt_marker(HaltId(1), {ProcessId(0)}));
  FanOut out;
  out.allocations = allocation_count() - before;
  EXPECT_EQ(ctx.sent.size(), n - 1);
  for (const auto& [channel, marker] : ctx.sent) {
    out.shared = out.shared && &*marker.halt == &*ctx.sent.front().second.halt;
  }
  return out;
}

TEST(MoveOnce, HaltMarkerFanOutSharesOneBody) {
  const FanOut small = marker_fan_out(4);
  const FanOut large = marker_fan_out(64);
  EXPECT_TRUE(small.shared);
  EXPECT_TRUE(large.shared);
  // The marker's body and path, built once; not one per out-channel.
  EXPECT_LE(large.allocations, 2u);
  EXPECT_EQ(large.allocations, small.allocations);
}

// The same through the Halting Algorithm: a process's halt sends n-1
// markers for the cost of one.
TEST(MoveOnce, HaltRoutineAllocatesTheSameForAnyOutDegree) {
  const auto halt_allocations = [](std::uint32_t n) {
    const Topology topology = Topology::complete(n);
    testing::FakeContext ctx(ProcessId(0), &topology);
    ctx.sent.reserve(n);
    HaltingEngine::Callbacks callbacks;
    callbacks.capture_state = [] { return ProcessSnapshot{}; };
    HaltingEngine engine(ProcessId(0), &topology, std::move(callbacks));
    const std::size_t before = allocation_count();
    engine.initiate(ctx);
    const std::size_t allocations = allocation_count() - before;
    EXPECT_TRUE(engine.halted());
    EXPECT_EQ(ctx.sent.size(), n - 1);
    return allocations;
  };
  EXPECT_EQ(halt_allocations(64), halt_allocations(4));
}

// Channel 0 (p0 -> p1 in ring(2)) is slow and every other channel fast,
// so a message sent on it is still in flight when a halt command reaches
// its receiver.
class SlowFirstChannel final : public LatencyModel {
 public:
  Duration sample(ChannelId channel, Rng&) override {
    return channel == ChannelId(0) ? Duration::millis(20)
                                   : Duration::millis(1);
  }
};

TEST(MoveOnce, MessageBufferedWhileHaltedKeepsTheSendersBuffer) {
  std::vector<ProcessPtr> users;
  users.push_back(std::make_unique<Sender>());
  users.push_back(std::make_unique<Receiver>());
  HarnessConfig config;
  config.latency = std::make_unique<SlowFirstChannel>();
  SimDebugHarness harness(Topology::ring(2), std::move(users),
                          std::move(config));
  const ChannelSpec& slow = harness.topology().channel(ChannelId(0));
  ASSERT_EQ(slow.source, ProcessId(0));
  ASSERT_EQ(slow.destination, ProcessId(1));
  const auto& sender =
      static_cast<const Sender&>(harness.shim(ProcessId(0)).user());
  const auto& receiver =
      static_cast<const Receiver&>(harness.shim(ProcessId(1)).user());

  // p0 sends at 1 ms; the message lands at 21 ms, after p1 has halted.
  harness.sim().run_until(TimePoint{Duration::millis(2).ns});
  harness.session().halt();
  const auto wave = harness.session().wait_for_halt(Duration::seconds(5));
  ASSERT_TRUE(wave.has_value());
  EXPECT_EQ(wave->state.total_channel_messages(), 1u);
  EXPECT_TRUE(receiver.buffers.empty());

  harness.session().resume();
  harness.sim().run_for(Duration::millis(100));
  ASSERT_EQ(receiver.buffers.size(), 1u);
  EXPECT_EQ(receiver.buffers.front(), sender.buffers.front());
}

// Sends a fresh 64-byte payload on c0 once a millisecond.
class Ticker final : public Process {
 public:
  void on_start(ProcessContext& ctx) override {
    ctx.set_timer(Duration::millis(1));
  }
  void on_message(ProcessContext&, ChannelId, Message) override {}
  void on_timer(ProcessContext& ctx, TimerId) override {
    ctx.send(ChannelId(0), Message::application(Bytes(64, 1)));
    ctx.set_timer(Duration::millis(1));
  }
};

class Counter final : public Process {
 public:
  void on_message(ProcessContext&, ChannelId, Message) override {
    ++received;
  }

  std::uint64_t received = 0;
};

// Between waves nothing reads a local event, so the shims build none: a
// hop with vector clocks on allocates the sender's payload and the clock
// copy stamped on the wire, and not a clock copy per send or receive event.
TEST(MoveOnce, UnwatchedShimHopAllocatesOnlyPayloadAndWireClock) {
  const Topology topology = Topology::ring(2);
  std::vector<ProcessPtr> users;
  users.push_back(std::make_unique<Ticker>());
  users.push_back(std::make_unique<Counter>());
  const DebugShim::Options options;
  ASSERT_TRUE(options.stamp_vector_clocks);
  std::vector<ProcessPtr> shims =
      wrap_in_shims(topology, std::move(users), options);
  const auto& counter = static_cast<const Counter&>(
      static_cast<DebugShim&>(*shims[1]).user());
  SimulationConfig config;
  config.latency = constant_latency(Duration::micros(100));
  Simulation sim(topology, std::move(shims), std::move(config));

  // The first hops size every clock and warm every buffer the path reuses.
  sim.run_until(TimePoint{Duration::millis(10).ns});
  const std::uint64_t received = counter.received;
  const std::size_t before = allocation_count();
  sim.run_until(TimePoint{Duration::millis(20).ns});
  const std::size_t allocations = allocation_count() - before;
  const std::uint64_t hops = counter.received - received;

  ASSERT_EQ(hops, 10u);
  EXPECT_EQ(allocations, 2 * hops);
}

// DebugApi calls with no trace sink and no armed watch allocate nothing,
// vector clocks on.
TEST(MoveOnce, UnwatchedDebugApiCallsAllocateNothing) {
  const Topology topology = Topology::ring(2);
  testing::FakeContext ctx(ProcessId(0), &topology);
  DebugShim shim(ProcessId(0), std::make_unique<Counter>());
  shim.on_start(ctx);
  DebugApi& api = shim;
  api.set_var("x", 0);  // the variable's table entry
  const auto allocations_of = [](const auto& call) {
    const std::size_t before = allocation_count();
    call();
    return allocation_count() - before;
  };
  EXPECT_EQ(allocations_of([&] { api.event("tick", 1); }), 0u);
  EXPECT_EQ(allocations_of([&] { api.enter_procedure("step"); }), 0u);
  EXPECT_EQ(allocations_of([&] { api.set_var("x", 1); }), 0u);
  EXPECT_EQ(shim.var("x"), 1);
}

struct HeapKey {
  TimePoint when;
  std::uint64_t seq = 0;
};

// Interleaved pushes and pops with only eight distinct times, so most
// comparisons are ties broken by seq; seqs are pushed in random order.
// Every pop must return the (when, seq) minimum of what is queued.
TEST(MoveOnce, EventHeapPopsInWhenSeqOrder) {
  Rng rng(23);
  constexpr std::size_t kEvents = 20000;
  std::vector<std::uint64_t> seqs(kEvents);
  std::iota(seqs.begin(), seqs.end(), 0);
  for (std::size_t i = kEvents - 1; i > 0; --i) {
    std::swap(seqs[i], seqs[rng.next_below(i + 1)]);
  }
  EventHeap<HeapKey> heap;
  std::set<std::pair<std::int64_t, std::uint64_t>> reference;
  std::size_t pushed = 0;
  std::size_t popped = 0;
  const auto pop_and_check = [&] {
    const HeapKey key = heap.pop();
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(std::make_pair(key.when.ns, key.seq), *reference.begin());
    reference.erase(reference.begin());
    ++popped;
  };
  while (pushed < kEvents) {
    if (!heap.empty() && rng.next_below(3) == 0) {
      pop_and_check();
      continue;
    }
    const HeapKey key{
        TimePoint{static_cast<std::int64_t>(rng.next_below(8))},
        seqs[pushed++]};
    heap.push(key);
    reference.emplace(key.when.ns, key.seq);
  }
  while (!heap.empty()) pop_and_check();
  EXPECT_EQ(popped, kEvents);
  EXPECT_TRUE(reference.empty());
}

}  // namespace
}  // namespace ddbg
