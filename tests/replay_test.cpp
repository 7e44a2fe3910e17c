// Record/replay: a run recorded on any substrate re-executes
// byte-deterministically in the simulator.
//
// The determinism contract under test (DESIGN.md "Record/replay"): the log
// captures every input a user process is a function of — per-channel
// delivery order, timer creation/firing order, completed halt cuts — so
// replaying those inputs in the logged order reproduces the run exactly:
// identical final states, identical replayed S_h (Theorem-2 equivalence),
// and two replays of one log are byte-identical in full.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/serialization.hpp"
#include "debugger/harness.hpp"
#include "net/fault_plan.hpp"
#include "replay/recorder.hpp"
#include "replay/replay_driver.hpp"
#include "replay/replay_session.hpp"
#include "sim/latency_model.hpp"
#include "workload/behaviors.hpp"

namespace ddbg {
namespace {

constexpr Duration kWait = Duration::seconds(60);

TokenRingConfig ring_config(std::uint32_t rounds) {
  TokenRingConfig config;
  config.rounds = rounds;
  config.hop_delay = Duration::millis(1);
  return config;
}

ReplayLogHeader ring_header(std::uint32_t n, const char* substrate,
                            std::uint64_t seed) {
  ReplayLogHeader header;
  header.seed = seed;
  header.substrate = substrate;
  header.num_user_processes = n;
  header.debugger_fanout = 0;
  header.num_channels = static_cast<std::uint32_t>(
      Topology::ring(n).with_debugger().num_channels());
  return header;
}

// ---------------------------------------------------------------------------
// Simulator-recorded runs
// ---------------------------------------------------------------------------

struct SimRecording {
  ReplayLog log;
  std::vector<std::string> final_states;
};

// Record a ring run in the simulator: a few token hops, one halt/resume
// cycle mid-run, then run to quiescence.
SimRecording record_sim_ring(std::uint32_t n, std::uint32_t halts = 1) {
  auto recorder = std::make_shared<ReplayRecorder>(ring_header(n, "sim", 11));
  HarnessConfig config;
  config.seed = 11;
  config.latency = std::make_unique<ConstantLatency>(Duration::millis(2));
  config.replay = recorder;
  SimDebugHarness harness(Topology::ring(n), make_token_ring(n, ring_config(6)),
                          std::move(config));
  recorder->set_metrics(&harness.sim().metrics());

  Simulation& sim = harness.sim();
  for (std::uint32_t wave = 0; wave < halts; ++wave) {
    sim.run_until(sim.now() + Duration::millis(15));
    harness.session().halt();
    auto info = harness.session().wait_for_halt(kWait);
    EXPECT_TRUE(info.has_value());
    harness.session().resume(kWait);
  }
  sim.run_until_quiescent();

  SimRecording recording;
  recording.log = recorder->log();
  for (std::uint32_t p = 0; p < n; ++p) {
    recording.final_states.push_back(
        harness.shim(ProcessId(p)).describe_state());
  }
  return recording;
}

// Replays a ring log with the workload it was recorded with: a replay that
// ran fewer rounds than the recording would stop forwarding the token and
// miss the recording's last deliveries.
ReplayDriver::Report replay_ring(const ReplayLog& log, std::uint32_t n,
                                 std::uint32_t rounds,
                                 std::uint64_t stop_after_cut = 0) {
  ReplayDriver::Options options;
  options.stop_after_cut = stop_after_cut;
  ReplayDriver driver(log, Topology::ring(n),
                      make_token_ring(n, ring_config(rounds)), options);
  return driver.run();
}

TEST(ReplaySim, RecordedRunReplaysExactly) {
  const std::uint32_t n = 4;
  SimRecording recording = record_sim_ring(n);
  ASSERT_GT(recording.log.deliveries(), 0u);
  ASSERT_EQ(recording.log.halt_cuts(), 1u);
  ASSERT_GT(recording.log.timer_fires(), 0u);

  ReplayDriver::Report report = replay_ring(recording.log, n, 6);
  EXPECT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(report.deliveries, recording.log.deliveries());
  EXPECT_EQ(report.timer_fires, recording.log.timer_fires());
  EXPECT_EQ(report.cuts, 1u);
  EXPECT_EQ(report.cuts_matched, 1u) << report.describe();
  EXPECT_EQ(report.divergences, 0u) << report.describe();
  // The replayed run ends in the recorded run's exact final states.
  EXPECT_EQ(report.final_states, recording.final_states);
}

TEST(ReplaySim, TwoReplaysAreByteIdentical) {
  const std::uint32_t n = 4;
  SimRecording recording = record_sim_ring(n);
  ReplayDriver::Report first = replay_ring(recording.log, n, 6);
  ReplayDriver::Report second = replay_ring(recording.log, n, 6);
  EXPECT_TRUE(first.ok()) << first.error;
  EXPECT_EQ(first.describe(), second.describe());
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  EXPECT_EQ(first.final_states, second.final_states);
}

TEST(ReplaySim, ReverseContinueParksAtEarlierCut) {
  const std::uint32_t n = 4;
  SimRecording recording = record_sim_ring(n, /*halts=*/2);
  ASSERT_EQ(recording.log.halt_cuts(), 2u);

  ReplayDriver::Options options;
  options.stop_after_cut = 1;
  ReplayDriver driver(recording.log, Topology::ring(n),
                      make_token_ring(n, ring_config(6)), options);
  ReplayDriver::Report report = driver.run();
  EXPECT_TRUE(report.ok()) << report.error;
  EXPECT_TRUE(report.halted_at_cut);
  EXPECT_EQ(report.cuts, 1u);
  EXPECT_EQ(report.cuts_matched, 1u) << report.describe();
  // The time-traveled system is live and inspectable: the first cut's wave
  // is complete and every user process is frozen (halted).
  auto wave = driver.harness().debugger().latest_halt_wave();
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(wave->complete);
  for (std::uint32_t p = 0; p < n; ++p) {
    EXPECT_TRUE(driver.harness().shim(ProcessId(p)).halted());
  }
}

TEST(ReplaySim, MutatedLogCountsDivergence) {
  const std::uint32_t n = 4;
  SimRecording recording = record_sim_ring(n);
  // Corrupt the payload hash of the first delivery: replay must keep going
  // (the message is still delivered) but flag the divergence.
  for (ReplayRecord& record : recording.log.records) {
    if (record.kind == ReplayRecordKind::kDeliver) {
      record.hash ^= 0xdeadbeefULL;
      break;
    }
  }
  ReplayDriver::Report report = replay_ring(recording.log, n, 6);
  EXPECT_GE(report.divergences, 1u);
}

// The replay driver is the Theorem-2 oracle for a recorded cut.  Both logs
// come from record_sim_ring, so their HaltCut records hold the S_h bytes d
// stored when the wave completed.

ReplayRecord& first_cut(ReplayLog& log) {
  for (ReplayRecord& record : log.records) {
    if (record.kind == ReplayRecordKind::kHaltCut) return record;
  }
  ADD_FAILURE() << "no HaltCut record";
  return log.records.front();
}

TEST(ReplayOracle, FlippedCutStateByteIsAStateDiff) {
  const std::uint32_t n = 4;
  SimRecording recording = record_sim_ring(n);
  ReplayRecord& cut = first_cut(recording.log);
  auto recorded = GlobalState::decode_snapshots(HaltId(cut.wave), cut.state);
  ASSERT_TRUE(recorded.ok());
  // Flip one byte of the first non-empty process state, in place.
  GlobalState flipped(HaltId(cut.wave));
  bool done = false;
  for (const auto& [p, snapshot] : recorded.value().snapshots()) {
    ProcessSnapshot copy = snapshot;
    if (!done && !copy.state.empty()) {
      copy.state[0] ^= 0x01;
      done = true;
    }
    flipped.add(std::move(copy));
  }
  ASSERT_TRUE(done);
  const Bytes mutated = flipped.encode_snapshots();
  ASSERT_EQ(mutated.size(), cut.state.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < mutated.size(); ++i) {
    differing += mutated[i] != cut.state[i] ? 1 : 0;
  }
  ASSERT_EQ(differing, 1u);
  cut.state = mutated;

  ReplayDriver::Report report = replay_ring(recording.log, n, 6);
  EXPECT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(report.cuts, 1u);
  EXPECT_EQ(report.cuts_matched, 0u);
  ASSERT_EQ(report.cut_diffs.size(), 1u) << report.describe();
  EXPECT_NE(report.cut_diffs[0].find("state bytes differ"), std::string::npos)
      << report.cut_diffs[0];
  EXPECT_GE(report.divergences, 1u);
}

TEST(ReplayOracle, TruncatedCutIsUndecodable) {
  const std::uint32_t n = 4;
  SimRecording recording = record_sim_ring(n);
  ReplayRecord& cut = first_cut(recording.log);
  ASSERT_GT(cut.state.size(), 1u);
  cut.state.pop_back();

  ReplayDriver::Report report = replay_ring(recording.log, n, 6);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.error.find("cut #1: recorded S_h undecodable"),
            std::string::npos)
      << report.error;
  EXPECT_EQ(report.cuts, 1u);
  EXPECT_EQ(report.cuts_matched, 0u);
}

// ---------------------------------------------------------------------------
// Threaded-runtime-recorded runs
// ---------------------------------------------------------------------------

TEST(ReplayRuntime, ThreadedRunReplaysInSimulator) {
  const std::uint32_t n = 4;
  auto recorder =
      std::make_shared<ReplayRecorder>(ring_header(n, "threads", 1));
  HarnessConfig config;
  config.seed = 1;
  config.replay = recorder;
  RuntimeDebugHarness harness(Topology::ring(n),
                              make_token_ring(n, ring_config(1'000'000)),
                              std::move(config));
  recorder->set_metrics(&harness.runtime().metrics());
  harness.start();

  // Let the token circulate, then freeze a consistent cut mid-flight.
  ASSERT_TRUE(Runtime::wait_until(
      [&] { return recorder->log().deliveries() >= 3 * n; }, kWait));
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  harness.session().resume(kWait);
  ASSERT_TRUE(Runtime::wait_until(
      [&] { return recorder->log().deliveries() >= 6 * n; }, kWait));
  harness.shutdown();

  const ReplayLog log = recorder->log();
  ASSERT_EQ(log.halt_cuts(), 1u);
  ASSERT_GT(log.timer_fires(), 0u);

  // The wall-clock-scheduled threaded run replays under virtual time.
  ReplayDriver::Report first = replay_ring(log, n, 1'000'000);
  EXPECT_TRUE(first.ok()) << first.error << "\n" << first.describe();
  EXPECT_EQ(first.cuts_matched, 1u) << first.describe();
  EXPECT_EQ(first.divergences, 0u) << first.describe();

  ReplayDriver::Report second = replay_ring(log, n, 1'000'000);
  EXPECT_EQ(first.describe(), second.describe());
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

// ---------------------------------------------------------------------------
// A timer set and then cancelled
// ---------------------------------------------------------------------------
//
// A token ring whose holder arms an hour-long watchdog and a 1 ms hop timer;
// the hop timer cancels the watchdog, then forwards the token.  Replay
// hands the user the recorded TimerIds, so each cancel names the
// watchdog's creation ordinal — 0, 2, 4, … at every process — and no such
// ordinal may fire.
class WatchdogRing final : public Process {
 public:
  void on_start(ProcessContext& ctx) override {
    if (ctx.self() == ProcessId(0)) arm(ctx);
  }
  void on_message(ProcessContext& ctx, ChannelId, Message) override {
    ++tokens_;
    arm(ctx);
  }
  void on_timer(ProcessContext& ctx, TimerId timer) override {
    if (timer == watchdog_) {
      ++watchdog_fires_;
      return;
    }
    ctx.cancel_timer(watchdog_);
    ++cancels_;
    for (const ChannelId c : ctx.topology().out_channels(ctx.self())) {
      if (!ctx.topology().channel(c).is_control) {
        ctx.send(c, Message::application(Bytes{1}));
        return;
      }
    }
  }
  [[nodiscard]] Bytes snapshot_state() const override {
    ByteWriter out;
    out.u64(tokens_);
    out.u64(cancels_);
    out.u64(watchdog_fires_);
    return std::move(out).take();
  }
  [[nodiscard]] std::string describe_state() const override {
    return "tokens=" + std::to_string(tokens_) +
           " cancels=" + std::to_string(cancels_) +
           " watchdog_fires=" + std::to_string(watchdog_fires_);
  }

  [[nodiscard]] std::uint64_t cancels() const { return cancels_; }

 private:
  void arm(ProcessContext& ctx) {
    watchdog_ = ctx.set_timer(Duration::seconds(3600));
    ctx.set_timer(Duration::millis(1));
  }

  TimerId watchdog_;
  std::uint64_t tokens_ = 0;
  std::uint64_t cancels_ = 0;
  std::uint64_t watchdog_fires_ = 0;
};

std::vector<ProcessPtr> make_watchdog_ring(std::uint32_t n) {
  std::vector<ProcessPtr> users;
  for (std::uint32_t i = 0; i < n; ++i) {
    users.push_back(std::make_unique<WatchdogRing>());
  }
  return users;
}

TEST(ReplayRuntime, CancelledTimerNeverFiresInReplay) {
  const std::uint32_t n = 3;
  auto recorder =
      std::make_shared<ReplayRecorder>(ring_header(n, "threads", 6));
  HarnessConfig config;
  config.seed = 6;
  config.replay = recorder;
  RuntimeDebugHarness harness(Topology::ring(n), make_watchdog_ring(n),
                              std::move(config));
  recorder->set_metrics(&harness.runtime().metrics());
  harness.start();
  ASSERT_TRUE(Runtime::wait_until(
      [&] { return recorder->log().deliveries() >= 3 * n; }, kWait));
  harness.session().halt();
  ASSERT_TRUE(harness.session().wait_for_halt(kWait).has_value());
  harness.session().resume(kWait);
  ASSERT_TRUE(Runtime::wait_until(
      [&] { return recorder->log().deliveries() >= 6 * n; }, kWait));
  harness.shutdown();

  const ReplayLog log = recorder->log();
  ASSERT_EQ(log.halt_cuts(), 1u);
  ASSERT_GT(log.timer_fires(), 0u);
  // Only hop timers (odd creation ordinals) fired in the recorded run.
  for (const ReplayRecord& record : log.records) {
    if (record.kind == ReplayRecordKind::kTimerFire) {
      EXPECT_EQ(record.ordinal % 2, 1u) << "p" << record.process;
    }
  }
  std::vector<std::string> final_states;
  for (std::uint32_t p = 0; p < n; ++p) {
    const auto& user =
        static_cast<const WatchdogRing&>(harness.shim(ProcessId(p)).user());
    ASSERT_GT(user.cancels(), 0u) << "p" << p;
    final_states.push_back(user.describe_state());
  }

  ReplayDriver driver(log, Topology::ring(n), make_watchdog_ring(n));
  const ReplayDriver::Report report = driver.run();
  EXPECT_TRUE(report.ok()) << report.error << "\n" << report.describe();
  EXPECT_EQ(report.cuts_matched, 1u) << report.describe();
  EXPECT_EQ(report.divergences, 0u) << report.describe();
  EXPECT_EQ(report.timer_fires, log.timer_fires());
  EXPECT_EQ(report.final_states, final_states);

  // Every process cancelled its first watchdog (ordinal 0) under the
  // replay gate; asked to fire it, the shim refuses.
  Simulation& sim = driver.harness().sim();
  for (std::uint32_t p = 0; p < n; ++p) {
    bool done = false;
    bool fired = true;
    sim.post(ProcessId(p), [&](ProcessContext& ctx, Process&) {
      fired = driver.harness().shim(ProcessId(p)).replay_fire_timer(ctx, 0);
      done = true;
    });
    ASSERT_TRUE(sim.run_until_condition([&] { return done; },
                                        sim.now() + Duration::seconds(1)));
    EXPECT_FALSE(fired) << "p" << p;
  }
}

// ---------------------------------------------------------------------------
// Many in-channels per process: gossip on a complete graph
// ---------------------------------------------------------------------------
//
// The ring tests give every process one application in-channel; here each
// process has n-1, so delivery ordinals are counted per in-channel and the
// halt cut records channel state on several of them at once.

constexpr std::uint32_t kMeshN = 6;

GossipConfig mesh_gossip(std::uint32_t max_sends) {
  GossipConfig config;
  config.send_interval = Duration::millis(1);
  config.max_sends = max_sends;
  return config;
}

ReplayLogHeader mesh_header(const char* substrate, std::uint64_t seed) {
  ReplayLogHeader header;
  header.seed = seed;
  header.substrate = substrate;
  header.num_user_processes = kMeshN;
  header.debugger_fanout = 0;
  header.num_channels = static_cast<std::uint32_t>(
      Topology::complete(kMeshN).with_debugger().num_channels());
  return header;
}

ReplayDriver::Report replay_mesh(const ReplayLog& log,
                                 std::uint32_t max_sends) {
  ReplayDriver driver(log, Topology::complete(kMeshN),
                      make_gossip(kMeshN, mesh_gossip(max_sends)));
  return driver.run();
}

TEST(ReplaySim, CompleteGraphGossipReplaysExactly) {
  const std::uint32_t max_sends = 40;
  auto recorder = std::make_shared<ReplayRecorder>(mesh_header("sim", 3));
  HarnessConfig config;
  config.seed = 3;
  config.replay = recorder;
  SimDebugHarness harness(Topology::complete(kMeshN),
                          make_gossip(kMeshN, mesh_gossip(max_sends)),
                          std::move(config));
  recorder->set_metrics(&harness.sim().metrics());

  Simulation& sim = harness.sim();
  sim.run_until(sim.now() + Duration::millis(12));
  harness.session().halt();
  const auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  // The cut caught gossip in flight, so replay must rebuild channel state.
  EXPECT_GT(wave->state.total_channel_messages(), 1u);
  harness.session().resume(kWait);
  sim.run_until_quiescent();

  const ReplayLog log = recorder->log();
  ASSERT_EQ(log.halt_cuts(), 1u);
  ASSERT_GT(log.deliveries(), kMeshN * (kMeshN - 1));
  // Decoding re-checks that every channel's delivery ordinals run 0, 1, 2…
  const auto decoded = ReplayLog::decode(log.encode());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  std::vector<std::string> final_states;
  for (std::uint32_t p = 0; p < kMeshN; ++p) {
    final_states.push_back(harness.shim(ProcessId(p)).describe_state());
  }

  ReplayDriver::Report report = replay_mesh(log, max_sends);
  EXPECT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(report.deliveries, log.deliveries());
  EXPECT_EQ(report.cuts, 1u);
  EXPECT_EQ(report.cuts_matched, report.cuts) << report.describe();
  EXPECT_EQ(report.divergences, 0u) << report.describe();
  EXPECT_EQ(report.final_states, final_states);
}

TEST(ReplayRuntime, CompleteGraphGossipReplaysInSimulator) {
  auto recorder =
      std::make_shared<ReplayRecorder>(mesh_header("threads", 4));
  HarnessConfig config;
  config.seed = 4;
  config.replay = recorder;
  RuntimeDebugHarness harness(Topology::complete(kMeshN),
                              make_gossip(kMeshN, mesh_gossip(0)),
                              std::move(config));
  recorder->set_metrics(&harness.runtime().metrics());
  harness.start();

  const std::uint64_t busy = 4 * kMeshN * (kMeshN - 1);
  ASSERT_TRUE(Runtime::wait_until(
      [&] { return recorder->log().deliveries() >= busy; }, kWait));
  harness.session().halt();
  ASSERT_TRUE(harness.session().wait_for_halt(kWait).has_value());
  harness.session().resume(kWait);
  ASSERT_TRUE(Runtime::wait_until(
      [&] { return recorder->log().deliveries() >= 2 * busy; }, kWait));
  harness.shutdown();

  const ReplayLog log = recorder->log();
  ASSERT_EQ(log.halt_cuts(), 1u);
  const auto decoded = ReplayLog::decode(log.encode());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();

  ReplayDriver::Report report = replay_mesh(log, 0);
  EXPECT_TRUE(report.ok()) << report.error << "\n" << report.describe();
  EXPECT_EQ(report.cuts, 1u);
  EXPECT_EQ(report.cuts_matched, report.cuts) << report.describe();
  EXPECT_EQ(report.divergences, 0u) << report.describe();
}

// ---------------------------------------------------------------------------
// TCP-recorded runs under a fault plan
// ---------------------------------------------------------------------------

TEST(ReplayTcp, ChaosRunReplaysAsFaultFreeEquivalent) {
  const std::uint32_t n = 4;
  auto plan = FaultPlan::parse("drop=0.03,delay=0.05,extra_delay=2ms", 5);
  ASSERT_TRUE(plan.ok());

  auto recorder = std::make_shared<ReplayRecorder>(ring_header(n, "tcp", 5));
  HarnessConfig config;
  config.seed = 5;
  config.faults = std::make_shared<FaultPlan>(std::move(plan).value());
  config.replay = recorder;
  TcpDebugHarness harness(Topology::ring(n),
                          make_token_ring(n, ring_config(1'000'000)),
                          std::move(config));
  recorder->set_metrics(&harness.tcp().metrics());
  ASSERT_TRUE(harness.start());

  ASSERT_TRUE(TcpRuntime::wait_until(
      [&] { return recorder->log().deliveries() >= 3 * n; }, kWait));
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  harness.session().resume(kWait);
  ASSERT_TRUE(TcpRuntime::wait_until(
      [&] { return recorder->log().deliveries() >= 6 * n; }, kWait));
  harness.shutdown();

  const ReplayLog log = recorder->log();
  ASSERT_EQ(log.halt_cuts(), 1u);

  // The reliability layer made user-level delivery exactly-once FIFO, so
  // the replay is the fault-free equivalent run: same inputs, same cut,
  // zero divergences — with the fault draws preserved as annotations.
  ReplayDriver::Report first = replay_ring(log, n, 1'000'000);
  EXPECT_TRUE(first.ok()) << first.error << "\n" << first.describe();
  EXPECT_EQ(first.cuts_matched, 1u) << first.describe();
  EXPECT_EQ(first.divergences, 0u) << first.describe();
  EXPECT_EQ(first.annotations, log.annotations());

  ReplayDriver::Report second = replay_ring(log, n, 1'000'000);
  EXPECT_EQ(first.describe(), second.describe());
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

// ---------------------------------------------------------------------------
// Wire round trip + session command surface
// ---------------------------------------------------------------------------

TEST(ReplayLogWire, SaveLoadRoundTrip) {
  const std::uint32_t n = 4;
  SimRecording recording = record_sim_ring(n);
  const std::string path =
      testing::TempDir() + "replay_roundtrip_" +
      std::to_string(::getpid()) + ".log";
  ASSERT_TRUE(recording.log.save(path).ok());
  auto loaded = ReplayLog::load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message();
  EXPECT_EQ(loaded.value().encode(), recording.log.encode());
  std::remove(path.c_str());
}

TEST(ReplaySession, LoadRunBackCut) {
  // Record with the named-workload factory so the handler can rebuild the
  // exact processes from the header alone.
  const std::uint32_t n = 4;
  auto built = make_named_workload("ring", n);
  ASSERT_TRUE(built.ok());

  ReplayLogHeader header = ring_header(n, "sim", 3);
  header.workload = "ring";
  auto recorder = std::make_shared<ReplayRecorder>(header);
  HarnessConfig config;
  config.seed = 3;
  config.latency = std::make_unique<ConstantLatency>(Duration::millis(2));
  config.replay = recorder;
  SimDebugHarness harness(built.value().topology,
                          std::move(built.value().processes),
                          std::move(config));
  recorder->set_metrics(&harness.sim().metrics());
  Simulation& sim = harness.sim();
  for (int wave = 0; wave < 2; ++wave) {
    sim.run_until(sim.now() + Duration::millis(15));
    harness.session().halt();
    ASSERT_TRUE(harness.session().wait_for_halt(kWait).has_value());
    harness.session().resume(kWait);
  }

  const std::string path = testing::TempDir() + "replay_session_" +
                           std::to_string(::getpid()) + ".log";
  ASSERT_TRUE(recorder->save(path).ok());

  ReplayCommandHandler handler;
  auto precondition = handler.handle("run");
  ASSERT_FALSE(precondition.ok());
  EXPECT_EQ(precondition.error().code(), ErrorCode::kFailedPrecondition);

  auto loaded = handler.handle("load " + path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message();
  EXPECT_NE(loaded.value().find("loaded"), std::string::npos);

  auto run = handler.handle("run");
  ASSERT_TRUE(run.ok()) << run.error().message();
  EXPECT_NE(run.value().find("cuts_matched=2/2"), std::string::npos)
      << run.value();
  EXPECT_NE(run.value().find("divergences=0"), std::string::npos);

  // Reverse-continue: back -> cut 2, back -> cut 1, back -> error.
  auto back = handler.handle("back");
  ASSERT_TRUE(back.ok()) << back.error().message();
  EXPECT_NE(back.value().find("time-traveled to cut 2/2"), std::string::npos)
      << back.value();
  auto back2 = handler.handle("back");
  ASSERT_TRUE(back2.ok()) << back2.error().message();
  EXPECT_NE(back2.value().find("time-traveled to cut 1/2"),
            std::string::npos);
  auto back3 = handler.handle("back");
  ASSERT_FALSE(back3.ok());
  EXPECT_EQ(back3.error().code(), ErrorCode::kFailedPrecondition);

  auto cut = handler.handle("cut 2");
  ASSERT_TRUE(cut.ok()) << cut.error().message();
  EXPECT_NE(cut.value().find("time-traveled to cut 2/2"), std::string::npos);

  auto status = handler.handle("status");
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status.value().find("halted at cut 2/2"), std::string::npos);

  auto bogus = handler.handle("cut 9");
  EXPECT_FALSE(bogus.ok());
  EXPECT_FALSE(handler.handle("frobnicate").ok());
  std::remove(path.c_str());
}

// The replay metrics block is kept by both sides: the recorder counts what
// it logs, the driver counts what it re-executes.
TEST(ReplayMetrics, RecorderAndDriverKeepTheReplayBlock) {
  const std::uint32_t n = 4;
  auto recorder = std::make_shared<ReplayRecorder>(ring_header(n, "sim", 11));
  HarnessConfig config;
  config.seed = 11;
  config.latency = std::make_unique<ConstantLatency>(Duration::millis(2));
  config.replay = recorder;
  SimDebugHarness harness(Topology::ring(n), make_token_ring(n, ring_config(6)),
                          std::move(config));
  recorder->set_metrics(&harness.sim().metrics());
  Simulation& sim = harness.sim();
  sim.run_until(sim.now() + Duration::millis(15));
  harness.session().halt();
  ASSERT_TRUE(harness.session().wait_for_halt(kWait).has_value());
  harness.session().resume(kWait);
  sim.run_until_quiescent();

  const auto recorded = harness.sim().metrics().snapshot();
  const ReplayLog log = recorder->log();
  EXPECT_EQ(recorded.replay.records_logged, log.records.size());
  EXPECT_EQ(recorded.replay.deliveries_logged, log.deliveries());
  EXPECT_EQ(recorded.replay.timer_sets_logged, log.timer_sets());
  EXPECT_EQ(recorded.replay.timer_fires_logged, log.timer_fires());
  EXPECT_EQ(recorded.replay.cuts_logged, log.halt_cuts());
  EXPECT_EQ(recorded.replay.deliveries_replayed, 0u);

  ReplayDriver driver(log, Topology::ring(n),
                      make_token_ring(n, ring_config(6)));
  ReplayDriver::Report report = driver.run();
  ASSERT_TRUE(report.ok()) << report.error;
  const auto replayed = driver.harness().sim().metrics().snapshot();
  EXPECT_EQ(replayed.replay.deliveries_replayed, log.deliveries());
  EXPECT_EQ(replayed.replay.timers_replayed, log.timer_fires());
  EXPECT_EQ(replayed.replay.cuts_replayed, log.halt_cuts());
  EXPECT_EQ(replayed.replay.divergences, 0u);
  EXPECT_EQ(replayed.replay.records_logged, 0u);  // replays never re-record
}

}  // namespace
}  // namespace ddbg
