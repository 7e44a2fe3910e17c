// Integration tests for the TCP loopback runtime: the same processes,
// shims, halting algorithm and debugger running over real sockets.
//
// No wall-clock sleeps: tests synchronize on observable state (atomic
// workload counters, armed-watch hooks, wave completion) so they pass
// deterministically under load, `ctest -j` and TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>

#include "analysis/consistency.hpp"
#include "core/debug_shim.hpp"
#include "debugger/debugger_process.hpp"
#include "debugger/harness.hpp"  // TcpHost session adapter
#include "debugger/session.hpp"
#include "runtime/tcp_runtime.hpp"
#include "workload/behaviors.hpp"

namespace ddbg {
namespace {

constexpr Duration kWait = Duration::seconds(20);

class Counter final : public Process {
 public:
  void on_message(ProcessContext&, ChannelId, Message message) override {
    last_payload = message.payload;
    received.fetch_add(1);
  }
  std::atomic<int> received{0};
  Bytes last_payload;
};

class StartBurst final : public Process {
 public:
  explicit StartBurst(int count) : count_(count) {}
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

TEST(TcpRuntime, DeliversFramedMessages) {
  Topology topology(2);
  topology.add_channel(ProcessId(0), ProcessId(1));
  std::vector<ProcessPtr> processes;
  processes.push_back(std::make_unique<StartBurst>(200));
  auto counter = std::make_unique<Counter>();
  Counter* counter_ptr = counter.get();
  processes.push_back(std::move(counter));

  TcpRuntime runtime(std::move(topology), std::move(processes));
  ASSERT_TRUE(runtime.start());
  EXPECT_TRUE(TcpRuntime::wait_until(
      [&] { return counter_ptr->received.load() == 200; }, kWait));
  runtime.shutdown();
  EXPECT_EQ(runtime.metrics().totals().messages_sent, 200u);
  EXPECT_EQ(runtime.metrics().totals().messages_delivered, 200u);
  // Last frame decoded intact (payload = 199, little-endian).
  ByteReader reader(counter_ptr->last_payload);
  EXPECT_EQ(reader.u32().value(), 199u);
}

TEST(TcpRuntime, FifoPerChannel) {
  // A receiver that asserts in-order arrival.
  class OrderChecker final : public Process {
   public:
    void on_message(ProcessContext&, ChannelId, Message message) override {
      ByteReader reader(message.payload);
      const std::uint32_t value = reader.u32().value_or(0xffffffff);
      if (value != next.load()) ordered.store(false);
      next.fetch_add(1);
    }
    std::atomic<std::uint32_t> next{0};
    std::atomic<bool> ordered{true};
  };
  Topology topology(2);
  topology.add_channel(ProcessId(0), ProcessId(1));
  std::vector<ProcessPtr> processes;
  processes.push_back(std::make_unique<StartBurst>(500));
  auto checker = std::make_unique<OrderChecker>();
  OrderChecker* checker_ptr = checker.get();
  processes.push_back(std::move(checker));
  TcpRuntime runtime(std::move(topology), std::move(processes));
  ASSERT_TRUE(runtime.start());
  EXPECT_TRUE(TcpRuntime::wait_until(
      [&] { return checker_ptr->next.load() == 500; }, kWait));
  runtime.shutdown();
  EXPECT_TRUE(checker_ptr->ordered.load());
}

TEST(TcpRuntime, TimersAndPost) {
  class Ticker final : public Process {
   public:
    void on_start(ProcessContext& ctx) override {
      ctx.set_timer(Duration::millis(1));
    }
    void on_timer(ProcessContext& ctx, TimerId) override {
      if (ticks.fetch_add(1) + 1 < 3) ctx.set_timer(Duration::millis(1));
    }
    void on_message(ProcessContext&, ChannelId, Message) override {}
    std::atomic<int> ticks{0};
  };
  Topology topology(1);
  std::vector<ProcessPtr> processes;
  auto ticker = std::make_unique<Ticker>();
  Ticker* ticker_ptr = ticker.get();
  processes.push_back(std::move(ticker));
  TcpRuntime runtime(std::move(topology), std::move(processes));
  ASSERT_TRUE(runtime.start());
  EXPECT_TRUE(TcpRuntime::wait_until(
      [&] { return ticker_ptr->ticks.load() >= 3; }, kWait));
  std::atomic<bool> ran{false};
  runtime.post(ProcessId(0), [&](ProcessContext& ctx, Process&) {
    EXPECT_EQ(ctx.self(), ProcessId(0));
    ran.store(true);
  });
  EXPECT_TRUE(TcpRuntime::wait_until([&] { return ran.load(); }, kWait));
  runtime.shutdown();
}

// The flagship: a full halting wave over real sockets.
TEST(TcpRuntime, HaltingAlgorithmOverSockets) {
  GossipConfig gossip;
  gossip.send_interval = Duration::millis(1);

  Topology topology = Topology::ring(3).with_debugger();
  std::vector<ProcessPtr> processes =
      wrap_in_shims(topology, make_gossip(3, gossip));
  auto debugger = std::make_unique<DebuggerProcess>();
  DebuggerProcess* debugger_ptr = debugger.get();
  processes.push_back(std::move(debugger));

  TcpRuntime runtime(topology, std::move(processes));
  ASSERT_TRUE(runtime.start());
  TcpHost host(runtime);
  DebuggerSession session(host, *debugger_ptr, topology.debugger_id());

  // Halt only once gossip demonstrably flows over the sockets.
  const auto& p0 = dynamic_cast<GossipProcess&>(
      dynamic_cast<DebugShim&>(runtime.process(ProcessId(0))).user());
  ASSERT_TRUE(
      TcpRuntime::wait_until([&] { return p0.sent() >= 5; }, kWait));
  session.halt();
  auto wave = session.wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_EQ(wave->state.size(), 3u);
  EXPECT_TRUE(consistent_cut(wave->state));
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(
        dynamic_cast<DebugShim&>(runtime.process(ProcessId(i))).halted());
  }

  // Resume over sockets, then verify the gossip keeps flowing.
  const std::uint64_t sent_at_halt = p0.sent();
  session.resume();
  EXPECT_TRUE(TcpRuntime::wait_until(
      [&] { return p0.sent() > sent_at_halt + 3; }, kWait));
  runtime.shutdown();
}

TEST(TcpRuntime, BreakpointOverSockets) {
  TokenRingConfig ring_config;
  ring_config.rounds = 1000;
  ring_config.hop_delay = Duration::micros(500);
  // Hold the token until the breakpoint is armed on p2: the arm command is
  // an asynchronous control message, and a free-running ring would race it
  // past the first two hops.
  ring_config.start_gate = std::make_shared<std::atomic<bool>>(false);

  auto armed = std::make_shared<std::atomic<std::size_t>>(0);
  DebugShim::Options shim_options;
  shim_options.on_armed = [armed](ProcessId, BreakpointId) {
    armed->fetch_add(1, std::memory_order_acq_rel);
  };

  Topology topology = Topology::ring(3).with_debugger();
  std::vector<ProcessPtr> processes =
      wrap_in_shims(topology, make_token_ring(3, ring_config), shim_options);
  auto debugger = std::make_unique<DebuggerProcess>();
  DebuggerProcess* debugger_ptr = debugger.get();
  processes.push_back(std::move(debugger));

  TcpRuntime runtime(topology, std::move(processes));
  ASSERT_TRUE(runtime.start());
  TcpHost host(runtime);
  DebuggerSession session(host, *debugger_ptr, topology.debugger_id());

  auto bp = session.set_breakpoint("(p2:event(token))^2");
  ASSERT_TRUE(bp.ok());
  ASSERT_TRUE(TcpRuntime::wait_until(
      [&] { return armed->load(std::memory_order_acquire) >= 1; }, kWait));
  ring_config.start_gate->store(true, std::memory_order_release);
  auto wave = session.wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  const auto& p2 = dynamic_cast<TokenRingProcess&>(
      dynamic_cast<DebugShim&>(runtime.process(ProcessId(2))).user());
  EXPECT_EQ(p2.tokens_seen(), 2u);
  runtime.shutdown();
}

TEST(TcpRuntime, BankConservationOverSockets) {
  BankConfig bank;
  bank.transfer_interval = Duration::micros(500);

  Topology topology = Topology::complete(3).with_debugger();
  std::vector<ProcessPtr> processes =
      wrap_in_shims(topology, make_bank(3, bank));
  auto debugger = std::make_unique<DebuggerProcess>();
  DebuggerProcess* debugger_ptr = debugger.get();
  processes.push_back(std::move(debugger));

  TcpRuntime runtime(topology, std::move(processes));
  ASSERT_TRUE(runtime.start());
  TcpHost host(runtime);
  DebuggerSession session(host, *debugger_ptr, topology.debugger_id());

  // Halt only once transfers are demonstrably crossing the wire.
  const auto& b0 = dynamic_cast<BankProcess&>(
      dynamic_cast<DebugShim&>(runtime.process(ProcessId(0))).user());
  ASSERT_TRUE(TcpRuntime::wait_until(
      [&] { return b0.transfers_made() >= 3; }, kWait));
  session.halt();
  auto wave = session.wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  auto total = BankProcess::total_money(wave->state);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total.value(), 3 * bank.initial_balance);
  runtime.shutdown();
}

// ---- Shutdown paths (previously untested: the file never compiled) ----

// Shutdown with traffic still in flight must not hang, leak threads or
// sockets (ASan/TSan verify the leak/race half), or crash on writes to
// half-closed channels (SIGPIPE hardening in write_all).
TEST(TcpRuntime, ShutdownMidTrafficIsClean) {
  GossipConfig gossip;
  gossip.send_interval = Duration::micros(200);
  Topology topology = Topology::complete(3);
  std::vector<ProcessPtr> processes = make_gossip(3, gossip);
  auto* p0 = dynamic_cast<GossipProcess*>(processes[0].get());

  TcpRuntime runtime(std::move(topology), std::move(processes));
  ASSERT_TRUE(runtime.start());
  ASSERT_TRUE(
      TcpRuntime::wait_until([&] { return p0->sent() >= 20; }, kWait));
  runtime.shutdown();   // mid-traffic: inboxes and sockets still busy
  runtime.shutdown();   // idempotent
  const obs::TotalsSnapshot stats = runtime.metrics().totals();
  EXPECT_GE(stats.messages_sent, 20u);
  // Delivery stops at shutdown; nothing may be delivered twice.
  EXPECT_LE(stats.messages_delivered, stats.messages_sent);
}

// Halting mid-traffic buffers application messages as channel state; a
// shutdown in that halted state (no resume) must still tear down cleanly.
TEST(TcpRuntime, HaltThenShutdownIsClean) {
  GossipConfig gossip;
  gossip.send_interval = Duration::micros(300);

  Topology topology = Topology::ring(3).with_debugger();
  std::vector<ProcessPtr> processes =
      wrap_in_shims(topology, make_gossip(3, gossip));
  auto debugger = std::make_unique<DebuggerProcess>();
  DebuggerProcess* debugger_ptr = debugger.get();
  processes.push_back(std::move(debugger));

  TcpRuntime runtime(topology, std::move(processes));
  ASSERT_TRUE(runtime.start());
  TcpHost host(runtime);
  DebuggerSession session(host, *debugger_ptr, topology.debugger_id());

  const auto& p0 = dynamic_cast<GossipProcess&>(
      dynamic_cast<DebugShim&>(runtime.process(ProcessId(0))).user());
  ASSERT_TRUE(
      TcpRuntime::wait_until([&] { return p0.sent() >= 5; }, kWait));
  session.halt();
  auto wave = session.wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  // Shut down while every user process is halted and channel state is
  // buffered; the destructor then closes all fds a second time (no-op).
  runtime.shutdown();
}

// Destruction without an explicit shutdown() call must shut down too.
TEST(TcpRuntime, DestructorShutsDown) {
  GossipConfig gossip;
  gossip.send_interval = Duration::micros(200);
  Topology topology(2);
  topology.add_channel(ProcessId(0), ProcessId(1));
  topology.add_channel(ProcessId(1), ProcessId(0));
  std::vector<ProcessPtr> processes = make_gossip(2, gossip);
  auto* p0 = dynamic_cast<GossipProcess*>(processes[0].get());
  {
    TcpRuntime runtime(std::move(topology), std::move(processes));
    ASSERT_TRUE(runtime.start());
    ASSERT_TRUE(
        TcpRuntime::wait_until([&] { return p0->sent() >= 5; }, kWait));
  }  // ~TcpRuntime joins all workers and closes all sockets
}

// Regression: a peer-closed fd used to stay armed in the poll set, so the
// reactor spun on POLLIN|POLLHUP at 100% CPU.  A retired slot must leave
// the reactor blocking, and the remaining live channels must keep working.
TEST(TcpRuntime, PeerCloseDoesNotBusySpinReactor) {
  Topology topology(3);
  topology.add_channel(ProcessId(0), ProcessId(1));  // ch0, will half-close
  topology.add_channel(ProcessId(2), ProcessId(1));  // ch1, stays live
  std::vector<ProcessPtr> processes;
  processes.push_back(std::make_unique<StartBurst>(50));
  auto counter = std::make_unique<Counter>();
  Counter* counter_ptr = counter.get();
  processes.push_back(std::move(counter));
  processes.push_back(std::make_unique<Counter>());  // p2: sends on demand

  TcpRuntime runtime(std::move(topology), std::move(processes));
  ASSERT_TRUE(runtime.start());
  ASSERT_TRUE(TcpRuntime::wait_until(
      [&] { return counter_ptr->received.load() == 50; }, kWait));

  // p1 observes EOF on ch0 and must retire the slot, then go back to
  // blocking in poll.
  runtime.half_close_channel(ChannelId(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t idle_start = runtime.poll_iterations();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t idle_iterations =
      runtime.poll_iterations() - idle_start;
  // A busy-spinning reactor would rack up hundreds of thousands of
  // iterations in 300ms of idle time; a healthy one blocks (the margin
  // allows stray wakeups under load).
  EXPECT_LT(idle_iterations, 1000u)
      << "reactor busy-spinning after peer close";

  // The other inbound channel still delivers.
  runtime.post(ProcessId(2), [](ProcessContext& ctx, Process&) {
    for (int i = 0; i < 20; ++i) {
      ctx.send(ChannelId(1), Message::application(Bytes{0x5a}));
    }
  });
  EXPECT_TRUE(TcpRuntime::wait_until(
      [&] { return counter_ptr->received.load() == 70; }, kWait));
  runtime.shutdown();
}

// Records the TimerId handed to the first set_timer call of the run.
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

// Regression: timer ids came from a static counter shared by every
// runtime instance in the process, so a second runtime started at
// whatever the first left off (non-deterministic ids, eventual wrap).
// Ids must restart at 1 per instance.
TEST(TcpRuntime, TimerIdsRestartPerRuntimeInstance) {
  for (int instance = 0; instance < 2; ++instance) {
    Topology topology(1);
    std::vector<ProcessPtr> processes;
    auto recorder = std::make_unique<FirstTimerIdRecorder>();
    FirstTimerIdRecorder* recorder_ptr = recorder.get();
    processes.push_back(std::move(recorder));
    TcpRuntime runtime(std::move(topology), std::move(processes));
    ASSERT_TRUE(runtime.start());
    ASSERT_TRUE(TcpRuntime::wait_until(
        [&] { return recorder_ptr->fired.load(); }, kWait));
    runtime.shutdown();
    EXPECT_EQ(recorder_ptr->first_id.load(), 1u)
        << "instance " << instance;
  }
}

// ---- Epoll reactor: multiplexing, backpressure, timer clamping ----

// All channels between one unordered process pair share a single TCP
// connection; the frame's channel-id prefix demultiplexes.  Eight lanes
// each way between two processes must cost exactly one socket.
TEST(TcpRuntime, MultiplexesChannelsOverOneSocketPerPair) {
  constexpr std::uint32_t kLanes = 8;
  constexpr int kPerLane = 40;
  Topology topology(2);
  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    topology.add_channel(ProcessId(0), ProcessId(1));
    topology.add_channel(ProcessId(1), ProcessId(0));
  }
  std::vector<ProcessPtr> processes;
  processes.push_back(std::make_unique<StartBurst>(kPerLane));
  auto counter = std::make_unique<Counter>();
  Counter* counter_ptr = counter.get();
  processes.push_back(std::move(counter));

  TcpRuntime runtime(std::move(topology), std::move(processes));
  EXPECT_EQ(runtime.data_socket_count(), 1u);
  EXPECT_EQ(runtime.max_channels_per_socket(), 2 * kLanes);
  ASSERT_TRUE(runtime.start());
  EXPECT_TRUE(TcpRuntime::wait_until(
      [&] {
        return counter_ptr->received.load() ==
               kPerLane * static_cast<int>(kLanes);
      },
      kWait));
  runtime.shutdown();
  const auto transport = runtime.metrics().snapshot(runtime.now()).transport;
  EXPECT_EQ(transport.mux_channels_per_socket, 2 * kLanes);
  EXPECT_GT(transport.epoll_wakeups, 0u);
  EXPECT_GT(transport.frames_per_wakeup_max, 0u);
}

// A receiver whose worker thread can be parked from the test (a posted
// closure spins until released), wedging the whole inbound direction so
// the sender's kernel buffer demonstrably fills.
class StallableCounter final : public Process {
 public:
  void on_message(ProcessContext&, ChannelId, Message message) override {
    ByteReader reader(message.payload);
    const std::uint32_t value = reader.u32().value_or(0xffffffff);
    if (value != next.load()) ordered.store(false);
    next.fetch_add(1);
  }
  std::atomic<std::uint32_t> next{0};
  std::atomic<bool> ordered{true};
};

// Satellite of the epoll rewrite: a short write / EAGAIN on the
// nonblocking send path must park the queue on EPOLLOUT and resume without
// losing or reordering anything.  Small socket buffers plus a stalled
// receiver force the condition deterministically.  64 KiB, not the kernel
// minimum: buffers of a few KiB push the connection into zero-window
// probing, which stretches the drain after release to seconds.
TEST(TcpRuntime, ShortWriteBackpressureRecoversInOrder) {
  constexpr std::uint32_t kCount = 64;
  constexpr std::uint32_t kPayload = 8 * 1024;
  Topology topology(2);
  topology.add_channel(ProcessId(0), ProcessId(1));
  std::vector<ProcessPtr> processes;
  processes.push_back(std::make_unique<Counter>());  // p0 sends on command
  auto checker = std::make_unique<StallableCounter>();
  StallableCounter* checker_ptr = checker.get();
  processes.push_back(std::move(checker));

  TcpRuntimeConfig config;
  config.sndbuf_bytes = 64 * 1024;
  config.rcvbuf_bytes = 64 * 1024;
  TcpRuntime runtime(std::move(topology), std::move(processes), config);
  ASSERT_TRUE(runtime.start());

  // Park the receiver's worker so nothing drains.
  auto release = std::make_shared<std::atomic<bool>>(false);
  auto parked = std::make_shared<std::atomic<bool>>(false);
  runtime.post(ProcessId(1), [release, parked](ProcessContext&, Process&) {
    parked->store(true);
    while (!release->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  ASSERT_TRUE(TcpRuntime::wait_until([&] { return parked->load(); }, kWait));

  // Burst 512 KiB, more than both socket buffers hold: the sender MUST
  // hit EAGAIN or a partial send and defer to EPOLLOUT.
  runtime.post(ProcessId(0), [](ProcessContext& ctx, Process&) {
    for (std::uint32_t i = 0; i < kCount; ++i) {
      ByteWriter writer;
      writer.u32(i);
      Bytes payload = std::move(writer).take();
      payload.resize(kPayload, 0xab);
      ctx.send(ChannelId(0), Message::application(std::move(payload)));
    }
  });
  ASSERT_TRUE(TcpRuntime::wait_until(
      [&] {
        return runtime.metrics().snapshot(runtime.now()).transport
                   .eagain_deferrals >= 1;
      },
      kWait));

  release->store(true);
  EXPECT_TRUE(TcpRuntime::wait_until(
      [&] { return checker_ptr->next.load() == kCount; }, kWait));
  runtime.shutdown();
  EXPECT_TRUE(checker_ptr->ordered.load()) << "backpressure broke FIFO";
  const auto transport = runtime.metrics().snapshot(runtime.now()).transport;
  EXPECT_GE(transport.eagain_deferrals, 1u);
  EXPECT_EQ(runtime.metrics().totals().messages_delivered, kCount);
}

// The pair's output buffer keeps growing while the receiver is parked:
// frames are appended behind a parked partial write, the drain after the
// release goes through more partial writes and drops the written prefix,
// and a third burst is appended mid-drain.  Every frame must arrive once,
// in order, and be counted in exactly one completed write.
TEST(TcpRuntime, AppendWhileParkedDrainsExactlyOnceInOrder) {
  constexpr std::uint32_t kBurst = 64;
  constexpr std::uint32_t kPayload = 8 * 1024;
  Topology topology(2);
  topology.add_channel(ProcessId(0), ProcessId(1));
  std::vector<ProcessPtr> processes;
  processes.push_back(std::make_unique<Counter>());  // p0 sends on command
  auto checker = std::make_unique<StallableCounter>();
  StallableCounter* checker_ptr = checker.get();
  processes.push_back(std::move(checker));

  TcpRuntimeConfig config;
  config.sndbuf_bytes = 64 * 1024;
  config.rcvbuf_bytes = 64 * 1024;
  TcpRuntime runtime(std::move(topology), std::move(processes), config);
  ASSERT_TRUE(runtime.start());

  auto release = std::make_shared<std::atomic<bool>>(false);
  auto parked = std::make_shared<std::atomic<bool>>(false);
  runtime.post(ProcessId(1), [release, parked](ProcessContext&, Process&) {
    parked->store(true);
    while (!release->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  ASSERT_TRUE(TcpRuntime::wait_until([&] { return parked->load(); }, kWait));

  // Bursts number their payloads consecutively; `sent` counts bursts
  // whose frames are all appended.
  auto sent = std::make_shared<std::atomic<std::uint32_t>>(0);
  const auto burst = [&runtime, sent](std::uint32_t index) {
    runtime.post(ProcessId(0), [sent, index](ProcessContext& ctx, Process&) {
      for (std::uint32_t i = 0; i < kBurst; ++i) {
        ByteWriter writer;
        writer.u32(index * kBurst + i);
        Bytes payload = std::move(writer).take();
        payload.resize(kPayload, 0xab);
        ctx.send(ChannelId(0), Message::application(std::move(payload)));
      }
      sent->fetch_add(1);
    });
  };
  const auto eagain = [&runtime] {
    return runtime.metrics().snapshot(runtime.now()).transport
        .eagain_deferrals;
  };
  // 512 KiB overfills both socket buffers: the first send is partial or
  // EAGAIN and parks the buffer on EPOLLOUT.
  burst(0);
  ASSERT_TRUE(TcpRuntime::wait_until([&] { return eagain() >= 1; }, kWait));
  // Appended behind the parked span; nothing is written meanwhile.
  burst(1);
  ASSERT_TRUE(TcpRuntime::wait_until([&] { return sent->load() == 2; },
                                     kWait));
  release->store(true);
  burst(2);
  EXPECT_TRUE(TcpRuntime::wait_until(
      [&] { return checker_ptr->next.load() == 3 * kBurst; }, kWait));
  runtime.shutdown();
  EXPECT_TRUE(checker_ptr->ordered.load()) << "parked appends broke FIFO";
  EXPECT_EQ(checker_ptr->next.load(), 3 * kBurst);
  const obs::MetricsSnapshot snap = runtime.metrics().snapshot(runtime.now());
  EXPECT_EQ(snap.totals.messages_sent, 3 * kBurst);
  EXPECT_EQ(snap.totals.messages_delivered, 3 * kBurst);
  EXPECT_EQ(snap.transport.write_batch_frames, snap.totals.messages_sent);
  EXPECT_GE(snap.transport.eagain_deferrals, 2u);
}

// Arms a timer on command and records how long it took to fire.
class TimerProbe final : public Process {
 public:
  void arm(ProcessContext& ctx, Duration delay) {
    armed_at_ = std::chrono::steady_clock::now();
    ctx.set_timer(delay);
  }
  void on_timer(ProcessContext&, TimerId) override {
    fire_latency_ms.store(std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - armed_at_)
                              .count());
    fired.store(true);
  }
  void on_message(ProcessContext&, ChannelId, Message) override {}
  std::atomic<bool> fired{false};
  std::atomic<long> fire_latency_ms{-1};

 private:
  std::chrono::steady_clock::time_point armed_at_;
};

// Regression (old blocking write path): a sender wedged against a full
// socket buffer blocked the whole worker, so its own user timers could not
// fire until the receiver drained.  The nonblocking reactor must fire the
// timer while the out-queue is still parked on EPOLLOUT.
TEST(TcpRuntime, UserTimerFiresWhileSenderBackpressured) {
  Topology topology(2);
  topology.add_channel(ProcessId(0), ProcessId(1));
  std::vector<ProcessPtr> processes;
  auto probe = std::make_unique<TimerProbe>();
  TimerProbe* probe_ptr = probe.get();
  processes.push_back(std::move(probe));
  processes.push_back(std::make_unique<Counter>());

  TcpRuntimeConfig config;
  config.sndbuf_bytes = 4 * 1024;
  config.rcvbuf_bytes = 4 * 1024;
  TcpRuntime runtime(std::move(topology), std::move(processes), config);
  ASSERT_TRUE(runtime.start());

  auto release = std::make_shared<std::atomic<bool>>(false);
  auto parked = std::make_shared<std::atomic<bool>>(false);
  runtime.post(ProcessId(1), [release, parked](ProcessContext&, Process&) {
    parked->store(true);
    while (!release->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  ASSERT_TRUE(TcpRuntime::wait_until([&] { return parked->load(); }, kWait));

  runtime.post(ProcessId(0), [probe_ptr](ProcessContext& ctx, Process&) {
    for (std::uint32_t i = 0; i < 64; ++i) {
      ctx.send(ChannelId(0),
               Message::application(Bytes(8 * 1024, 0xcd)));
    }
    probe_ptr->arm(ctx, Duration::millis(10));
  });
  // The timer must fire while the receiver is still parked (queue still
  // backpressured), not after the drain.
  ASSERT_TRUE(
      TcpRuntime::wait_until([&] { return probe_ptr->fired.load(); }, kWait));
  EXPECT_FALSE(release->load());
  release->store(true);
  runtime.shutdown();
}

// Satellite 2: the reactor's sleep must clamp against the nearest USER
// timer even when the reliability layer's own deadlines (here a 2s
// retransmit after a partitioned first attempt) are much further out.
TEST(TcpRuntime, UserTimerNotDelayedByRetransmitBackoff) {
  Topology topology(2);
  topology.add_channel(ProcessId(0), ProcessId(1));
  std::vector<ProcessPtr> processes;
  auto probe = std::make_unique<TimerProbe>();
  TimerProbe* probe_ptr = probe.get();
  processes.push_back(std::move(probe));
  auto counter = std::make_unique<Counter>();
  Counter* counter_ptr = counter.get();
  processes.push_back(std::move(counter));

  // First transmission attempt on the channel is swallowed (partition
  // window [0, 1)); the retransmit only becomes due after 600 ms.
  FaultSpec spec;
  spec.partition_from = 0;
  spec.partition_until = 1;
  TcpRuntimeConfig config;
  auto plan = std::make_shared<FaultPlan>(FaultSpec{}, 1);
  plan->set_channel(ChannelId(0), spec);
  config.faults = std::move(plan);
  config.reliable.rto_initial = Duration::millis(600);
  config.reliable.rto_max = Duration::millis(600);
  TcpRuntime runtime(std::move(topology), std::move(processes), config);
  ASSERT_TRUE(runtime.start());

  runtime.post(ProcessId(0), [probe_ptr](ProcessContext& ctx, Process&) {
    ctx.send(ChannelId(0), Message::application(Bytes{0x01}));
    probe_ptr->arm(ctx, Duration::millis(10));
  });
  ASSERT_TRUE(
      TcpRuntime::wait_until([&] { return probe_ptr->fired.load(); }, kWait));
  // With the sleep clamped only by the reliability deadline the timer
  // could not fire before the 600 ms retransmit; prove it fired well
  // inside (the bound is 30x the timer and half the RTO).
  EXPECT_LT(probe_ptr->fire_latency_ms.load(), 300)
      << "user timer slept through the retransmit backoff";
  // The partitioned message still arrives once the backoff expires.
  EXPECT_TRUE(TcpRuntime::wait_until(
      [&] { return counter_ptr->received.load() == 1; }, kWait));
  runtime.shutdown();
}

}  // namespace
}  // namespace ddbg
