// Direct unit tests of the marker-wave state machines — HaltingEngine, and
// the debug shim's C&L recording on the same core (marker rules, wave ids,
// channel-state assembly, resume) — using a fake context, no runtime.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/debug_shim.hpp"
#include "core/halting.hpp"
#include "obs/metrics.hpp"
#include "tests/test_util.hpp"

namespace ddbg {
namespace {

using testing::FakeContext;

// p0 <-> p1 <-> p2 ring: each process one in, one out.
struct RingFixture {
  Topology topology = Topology::ring(3);
  ProcessId self{1};
  FakeContext ctx{ProcessId(1), &topology};

  std::vector<HaltId> halts;
  std::vector<ProcessSnapshot> completions;
  int captures = 0;

  HaltingEngine make_engine() {
    return HaltingEngine(
        self, &topology,
        HaltingEngine::Callbacks{
            [this] {
              ++captures;
              ProcessSnapshot snapshot;
              snapshot.process = self;
              snapshot.state = Bytes{static_cast<std::uint8_t>(captures)};
              snapshot.description = "capture" + std::to_string(captures);
              return snapshot;
            },
            [this](HaltId id, const std::vector<ProcessId>&) {
              halts.push_back(id);
            },
            [this](const ProcessSnapshot& snapshot) {
              completions.push_back(snapshot);
            }});
  }

  [[nodiscard]] ChannelId in_channel() const {
    return topology.in_channels(self)[0];  // from p0
  }
  [[nodiscard]] ChannelId out_channel() const {
    return topology.out_channels(self)[0];  // to p2
  }
};

TEST(HaltingEngine, SpontaneousInitiationSendsMarkersAndHalts) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  EXPECT_FALSE(engine.halted());
  EXPECT_EQ(engine.last_halt_id(), 0u);

  engine.initiate(fx.ctx);
  EXPECT_TRUE(engine.halted());
  EXPECT_EQ(engine.last_halt_id(), 1u);
  const auto markers = fx.ctx.halt_markers();
  ASSERT_EQ(markers.size(), 1u);  // one outgoing channel
  EXPECT_EQ(markers[0].first, fx.out_channel());
  EXPECT_EQ(markers[0].second.halt_id, HaltId(1));
  // Section 2.2.4: the marker carries the initiator's name.
  ASSERT_EQ(markers[0].second.halt_path.size(), 1u);
  EXPECT_EQ(markers[0].second.halt_path[0], fx.self);
  ASSERT_EQ(fx.halts.size(), 1u);
  EXPECT_EQ(fx.halts[0], HaltId(1));
}

TEST(HaltingEngine, InitiateTwiceIsIdempotent) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.initiate(fx.ctx);
  engine.initiate(fx.ctx);
  EXPECT_EQ(engine.last_halt_id(), 1u);
  EXPECT_EQ(fx.ctx.halt_markers().size(), 1u);
  EXPECT_EQ(fx.captures, 1);
}

TEST(HaltingEngine, MarkerReceiptAdoptsWaveAndForwards) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.on_halt_marker(fx.ctx, fx.in_channel(),
                        HaltMarkerData{HaltId(3), {ProcessId(0)}});
  EXPECT_TRUE(engine.halted());
  EXPECT_EQ(engine.last_halt_id(), 3u);
  const auto markers = fx.ctx.halt_markers();
  ASSERT_EQ(markers.size(), 1u);
  EXPECT_EQ(markers[0].second.halt_id, HaltId(3));
  // Path extended with our own name.
  ASSERT_EQ(markers[0].second.halt_path.size(), 2u);
  EXPECT_EQ(markers[0].second.halt_path[0], ProcessId(0));
  EXPECT_EQ(markers[0].second.halt_path[1], fx.self);
  // The first marker's channel is empty; with one in-channel the local
  // snapshot is immediately complete.  Channel states are sparse: an empty
  // channel records no entry at all.
  ASSERT_EQ(fx.completions.size(), 1u);
  EXPECT_TRUE(fx.completions[0].in_channels.empty());
  EXPECT_EQ(fx.completions[0].halt_path.size(), 1u);
}

TEST(HaltingEngine, StaleMarkerIgnored) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.on_halt_marker(fx.ctx, fx.in_channel(), HaltMarkerData{HaltId(2), {}});
  const auto resume = engine.resume();
  EXPECT_FALSE(engine.halted());
  fx.ctx.sent.clear();
  // A marker for an old wave must be ignored entirely.
  engine.on_halt_marker(fx.ctx, fx.in_channel(), HaltMarkerData{HaltId(1), {}});
  engine.on_halt_marker(fx.ctx, fx.in_channel(), HaltMarkerData{HaltId(2), {}});
  EXPECT_FALSE(engine.halted());
  EXPECT_TRUE(fx.ctx.sent.empty());
}

TEST(HaltingEngine, ChannelStateRecordsPreMarkerMessages) {
  // Two in-channels: p0->p1 (ring) plus an extra p2->p1 channel.
  Topology topology = Topology::ring(3);
  const ChannelId extra = topology.add_channel(ProcessId(2), ProcessId(1));
  FakeContext ctx(ProcessId(1), &topology);
  std::vector<ProcessSnapshot> completions;
  HaltingEngine engine(
      ProcessId(1), &topology,
      HaltingEngine::Callbacks{[] { return ProcessSnapshot{}; },
                               nullptr,
                               [&](const ProcessSnapshot& snapshot) {
                                 completions.push_back(snapshot);
                               }});
  const ChannelId ring_in = topology.in_channels(ProcessId(1))[0];

  engine.initiate(ctx);
  // Messages arriving before each channel's marker belong to the channel
  // state (Lemma 2.2).
  EXPECT_TRUE(engine.intercept_message(ring_in,
                                       Message::application(Bytes{1})));
  EXPECT_TRUE(engine.intercept_message(extra, Message::application(Bytes{2})));
  EXPECT_TRUE(engine.intercept_message(extra, Message::application(Bytes{3})));
  EXPECT_TRUE(completions.empty());

  engine.on_halt_marker(ctx, ring_in, HaltMarkerData{HaltId(1), {}});
  EXPECT_TRUE(completions.empty());  // extra channel still open
  // Post-marker traffic on ring_in is NOT channel state.
  EXPECT_TRUE(engine.intercept_message(ring_in,
                                       Message::application(Bytes{9})));

  engine.on_halt_marker(ctx, extra, HaltMarkerData{HaltId(1), {}});
  ASSERT_EQ(completions.size(), 1u);
  const ProcessSnapshot& snapshot = completions[0];
  ASSERT_EQ(snapshot.in_channels.size(), 2u);
  std::size_t ring_slot =
      snapshot.in_channels[0].channel == ring_in ? 0 : 1;
  EXPECT_EQ(snapshot.in_channels[ring_slot].messages,
            (std::vector<Bytes>{{1}}));
  EXPECT_EQ(snapshot.in_channels[1 - ring_slot].messages,
            (std::vector<Bytes>{{2}, {3}}));
}

TEST(HaltingEngine, ResumeReturnsBufferedInArrivalOrder) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.initiate(fx.ctx);
  EXPECT_TRUE(
      engine.intercept_message(fx.in_channel(), Message::application(Bytes{1})));
  EXPECT_TRUE(
      engine.intercept_message(fx.in_channel(), Message::application(Bytes{2})));
  EXPECT_TRUE(engine.intercept_timer(TimerId(7)));

  const auto resume = engine.resume();
  EXPECT_FALSE(engine.halted());
  ASSERT_EQ(resume.messages.size(), 2u);
  EXPECT_EQ(resume.messages[0].second.payload, Bytes{1});
  EXPECT_EQ(resume.messages[1].second.payload, Bytes{2});
  ASSERT_EQ(resume.timers.size(), 1u);
  EXPECT_EQ(resume.timers[0], TimerId(7));
  // After resume the engine intercepts nothing.
  EXPECT_FALSE(
      engine.intercept_message(fx.in_channel(), Message::application(Bytes{3})));
  EXPECT_FALSE(engine.intercept_timer(TimerId(8)));
}

TEST(HaltingEngine, NewWaveAfterResumeGetsHigherId) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.initiate(fx.ctx);
  (void)engine.resume();
  engine.initiate(fx.ctx);
  EXPECT_EQ(engine.last_halt_id(), 2u);
  const auto markers = fx.ctx.halt_markers();
  ASSERT_EQ(markers.size(), 2u);
  EXPECT_EQ(markers[1].second.halt_id, HaltId(2));
}

TEST(HaltingEngine, RunningProcessInterceptsNothing) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  EXPECT_FALSE(
      engine.intercept_message(fx.in_channel(), Message::application({})));
  EXPECT_FALSE(engine.intercept_timer(TimerId(1)));
}

TEST(HaltingEngine, LaterWaveMarkerBufferedWhileHalted) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.initiate(fx.ctx);  // wave 1
  // Anything offered to intercept_message while halted stays "in the
  // channel" and comes back on resume — the generic buffering contract,
  // whatever the message kind.  (The shim itself routes later-wave markers
  // to on_halt_marker, which adopts the wave; see the tests below.)
  Message marker = Message::halt_marker(HaltId(2), {ProcessId(0)});
  EXPECT_TRUE(engine.intercept_message(fx.in_channel(), std::move(marker)));
  const auto resume = engine.resume();
  ASSERT_EQ(resume.messages.size(), 1u);
  EXPECT_EQ(resume.messages[0].second.kind, MessageKind::kHaltMarker);
}

// Two initiators race: a wave-2 marker reaches a process already halted in
// wave 1.  The engine must adopt the newer wave — not re-enter the Halt
// Routine (which asserts against double entry) and not wedge the marker.
TEST(HaltingEngine, NewerWaveMarkerWhileHaltedAdoptsWave) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.initiate(fx.ctx);  // wave 1: spontaneous halt
  ASSERT_TRUE(engine.halted());
  ASSERT_EQ(fx.captures, 1);

  engine.on_halt_marker(fx.ctx, fx.in_channel(),
                        HaltMarkerData{HaltId(2), {ProcessId(0)}});

  EXPECT_TRUE(engine.halted());
  EXPECT_EQ(engine.last_halt_id(), 2u);
  // State was captured once, at the original halt instant: nothing ran
  // in between, so the wave-1 capture stands for wave 2.
  EXPECT_EQ(fx.captures, 1);
  // Both waves announced through on_halt...
  ASSERT_EQ(fx.halts.size(), 2u);
  EXPECT_EQ(fx.halts[0], HaltId(1));
  EXPECT_EQ(fx.halts[1], HaltId(2));
  // ...and both forwarded markers, the second with the new wave id and the
  // initiator's path extended with our own name.
  const auto markers = fx.ctx.halt_markers();
  ASSERT_EQ(markers.size(), 2u);
  EXPECT_EQ(markers[0].second.halt_id, HaltId(1));
  EXPECT_EQ(markers[1].second.halt_id, HaltId(2));
  ASSERT_EQ(markers[1].second.halt_path.size(), 2u);
  EXPECT_EQ(markers[1].second.halt_path[0], ProcessId(0));
  EXPECT_EQ(markers[1].second.halt_path[1], fx.self);
  // The marker's channel closed wave 2's recording; with one in-channel
  // the local snapshot is complete, for wave 2 only.
  ASSERT_EQ(fx.completions.size(), 1u);
  EXPECT_EQ(fx.completions[0].halt_path.size(), 1u);
  EXPECT_EQ(fx.completions[0].halt_path[0], ProcessId(0));
}

TEST(HaltingEngine, AdoptedWaveReseedsChannelStateFromBufferedMessages) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.initiate(fx.ctx);  // wave 1
  // An application message arrives while halted: logically in the channel.
  Message app = Message::application(Bytes{0x42});
  EXPECT_TRUE(engine.intercept_message(fx.in_channel(), std::move(app)));

  engine.on_halt_marker(fx.ctx, fx.in_channel(),
                        HaltMarkerData{HaltId(2), {ProcessId(0)}});

  // Wave 2's channel state includes the buffered message: it was in the
  // channel before wave 2's marker (Lemma 2.2).
  ASSERT_EQ(fx.completions.size(), 1u);
  ASSERT_EQ(fx.completions[0].in_channels.size(), 1u);
  ASSERT_EQ(fx.completions[0].in_channels[0].messages.size(), 1u);
  EXPECT_EQ(fx.completions[0].in_channels[0].messages[0], Bytes{0x42});
  // Resume still replays it to the application exactly once.
  const auto resume = engine.resume();
  ASSERT_EQ(resume.messages.size(), 1u);
  EXPECT_EQ(resume.messages[0].first, fx.in_channel());
  EXPECT_EQ(resume.messages[0].second.kind, MessageKind::kApplication);
}

TEST(HaltingEngine, CompletionReportedOnce) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.on_halt_marker(fx.ctx, fx.in_channel(), HaltMarkerData{HaltId(1), {}});
  EXPECT_EQ(fx.completions.size(), 1u);
  // Duplicate same-wave marker does not re-report.
  engine.on_halt_marker(fx.ctx, fx.in_channel(), HaltMarkerData{HaltId(1), {}});
  EXPECT_EQ(fx.completions.size(), 1u);
}

TEST(HaltingEngine, ProcessWithNoChannelsCompletesImmediately) {
  Topology topology(2);
  topology.add_channel(ProcessId(0), ProcessId(1));
  FakeContext ctx(ProcessId(0), &topology);  // p0: out only, no in
  std::vector<ProcessSnapshot> completions;
  HaltingEngine engine(
      ProcessId(0), &topology,
      HaltingEngine::Callbacks{[] { return ProcessSnapshot{}; },
                               nullptr,
                               [&](const ProcessSnapshot& snapshot) {
                                 completions.push_back(snapshot);
                               }});
  engine.initiate(ctx);
  EXPECT_EQ(completions.size(), 1u);
}

// ---- Shared marker-wave rules, for both wave kinds ----
//
// Recording has no engine of its own: the debug shim drives a MarkerWave
// directly, so the recording side runs through a DebugShim over the fake
// context, exactly as a runtime would deliver to it.

enum class WaveKind { kHalt, kRecord };

// A quiet user process that counts how often its state is captured.
class CountingProcess final : public Process {
 public:
  explicit CountingProcess(int& captures) : captures_(captures) {}
  void on_message(ProcessContext&, ChannelId, Message) override {}
  [[nodiscard]] Bytes snapshot_state() const override {
    ++captures_;
    return Bytes{static_cast<std::uint8_t>(captures_)};
  }

 private:
  int& captures_;
};

// One process's wave of either kind.  Construct in place only: callbacks
// capture `this`.
struct WaveFixture {
  WaveFixture(WaveKind kind, Topology t, ProcessId p)
      : topology(std::move(t)), self(p), ctx(p, &topology) {
    const auto report = [this](std::uint64_t wave,
                               const ProcessSnapshot& snapshot) {
      waves.push_back(wave);
      completions.push_back(snapshot);
    };
    if (kind == WaveKind::kHalt) {
      halting.emplace(self, &topology,
                      HaltingEngine::Callbacks{
                          [this] {
                            ++captures;
                            return ProcessSnapshot{};
                          },
                          nullptr,
                          [this, report](const ProcessSnapshot& snapshot) {
                            report(halting->last_halt_id(), snapshot);
                          }});
      return;
    }
    DebugShim::Options options;
    options.local_snapshot_report =
        [report](ProcessId, std::uint64_t wave,
                 const ProcessSnapshot& snapshot) { report(wave, snapshot); };
    shim = std::make_unique<DebugShim>(
        self, std::make_unique<CountingProcess>(captures), options);
    shim->on_start(ctx);
  }
  WaveFixture(const WaveFixture&) = delete;
  WaveFixture& operator=(const WaveFixture&) = delete;

  void initiate() {
    if (halting) {
      halting->initiate(ctx);
    } else {
      shim->initiate_snapshot(ctx);
    }
  }
  void marker(ChannelId in, std::uint64_t id) {
    if (halting) {
      halting->on_halt_marker(ctx, in, HaltMarkerData{HaltId(id), {}});
    } else {
      shim->on_message(ctx, in, Message::snapshot_marker(id));
    }
  }
  void app(ChannelId in, Bytes payload) {
    Message message = Message::application(std::move(payload));
    if (halting) {
      (void)halting->intercept_message(in, std::move(message));
    } else {
      shim->on_message(ctx, in, std::move(message));
    }
  }
  // (channel, wave id) of every marker this process sent, in order.
  [[nodiscard]] std::vector<std::pair<ChannelId, std::uint64_t>>
  markers_sent() const {
    std::vector<std::pair<ChannelId, std::uint64_t>> markers;
    for (const auto& [channel, message] : ctx.sent) {
      if (message.kind == MessageKind::kHaltMarker) {
        markers.emplace_back(channel, message.halt->halt_id.value());
      } else if (message.kind == MessageKind::kSnapshotMarker) {
        markers.emplace_back(channel, message.snapshot->snapshot_id);
      }
    }
    return markers;
  }
  [[nodiscard]] ChannelId in_channel() const {
    return topology.in_channels(self)[0];
  }

  Topology topology;
  ProcessId self;
  FakeContext ctx;
  int captures = 0;
  std::optional<HaltingEngine> halting;
  std::unique_ptr<DebugShim> shim;
  std::vector<std::uint64_t> waves;
  std::vector<ProcessSnapshot> completions;
};

class MarkerWaveRules : public ::testing::TestWithParam<WaveKind> {};

// A second marker of the same wave on an already-closed channel must not
// count towards completion, nor report it again.
TEST_P(MarkerWaveRules, DuplicateMarkerCountsOnce) {
  Topology topology = Topology::ring(3);
  const ChannelId extra = topology.add_channel(ProcessId(2), ProcessId(1));
  WaveFixture fx(GetParam(), std::move(topology), ProcessId(1));
  const ChannelId ring_in = fx.in_channel();
  fx.marker(ring_in, 1);
  fx.marker(ring_in, 1);
  EXPECT_TRUE(fx.completions.empty());  // `extra` is still open
  fx.marker(extra, 1);
  ASSERT_EQ(fx.completions.size(), 1u);
  fx.marker(extra, 1);
  fx.marker(ring_in, 1);
  EXPECT_EQ(fx.completions.size(), 1u);
}

TEST_P(MarkerWaveRules, NoInChannelsCompletesAtOnce) {
  Topology topology(2);
  topology.add_channel(ProcessId(0), ProcessId(1));
  WaveFixture fx(GetParam(), std::move(topology), ProcessId(0));
  fx.initiate();
  ASSERT_EQ(fx.completions.size(), 1u);
  EXPECT_EQ(fx.waves[0], 1u);
  EXPECT_EQ(fx.markers_sent().size(), 1u);
}

// A wave learned from the debugger skips the marker echo back onto the
// control out-channel, and counts it; application-channel markers always
// go out, whichever channel the wave was learned on.
TEST_P(MarkerWaveRules, ControlEchoSuppressedAppMarkersNever) {
  const Topology topology = Topology::ring(3).with_debugger();
  const ProcessId p1(1);
  const ChannelId app_out = topology.out_channels(p1)[0];
  ASSERT_FALSE(topology.channel(app_out).is_control);
  obs::MetricsRegistry metrics("sim", topology.num_processes(), {});

  WaveFixture from_tier(GetParam(), topology, p1);
  from_tier.ctx.registry = &metrics;
  from_tier.marker(topology.control_to(p1), 1);
  EXPECT_EQ(from_tier.markers_sent(),
            (std::vector<std::pair<ChannelId, std::uint64_t>>{{app_out, 1}}));
  EXPECT_EQ(metrics.snapshot().tier.markers_suppressed, 1u);

  WaveFixture from_app(GetParam(), topology, p1);
  from_app.ctx.registry = &metrics;
  from_app.marker(from_app.topology.in_channels(p1)[0], 1);
  EXPECT_EQ(from_app.markers_sent(),
            (std::vector<std::pair<ChannelId, std::uint64_t>>{
                {app_out, 1}, {topology.control_from(p1), 1}}));
  EXPECT_EQ(metrics.snapshot().tier.markers_suppressed, 1u);
}

// In-degree 255: completion comes exactly once, on the last channel's
// marker, and a second round of markers changes nothing.
TEST_P(MarkerWaveRules, CompleteTopologyCompletesOnLastMarker) {
  WaveFixture fx(GetParam(), Topology::complete(256), ProcessId(0));
  const auto in = fx.topology.in_channels(ProcessId(0));
  ASSERT_EQ(in.size(), 255u);
  for (std::size_t i = 0; i < in.size(); ++i) {
    fx.marker(in[i], 1);
    ASSERT_EQ(fx.completions.size(), i + 1 == in.size() ? 1u : 0u) << i;
  }
  for (const ChannelId c : in) fx.marker(c, 1);
  EXPECT_EQ(fx.completions.size(), 1u);
  EXPECT_EQ(fx.captures, 1);
}

INSTANTIATE_TEST_SUITE_P(BothKinds, MarkerWaveRules,
                         ::testing::Values(WaveKind::kHalt, WaveKind::kRecord),
                         [](const auto& info) -> std::string {
                           return info.param == WaveKind::kHalt ? "Halt"
                                                                : "Record";
                         });

// ---- Recording (C&L, section 2.1) ----
//
// The suite keeps the name of the engine these tests were first written
// against; recording now runs on the shim's MarkerWave.

struct RecordingFixture : WaveFixture {
  RecordingFixture()
      : WaveFixture(WaveKind::kRecord, Topology::ring(3), ProcessId(1)) {}
};

TEST(SnapshotEngine, InitiateRecordsAndSendsMarkers) {
  RecordingFixture fx;
  fx.initiate();
  EXPECT_EQ(fx.captures, 1);
  EXPECT_EQ(fx.markers_sent(),
            (std::vector<std::pair<ChannelId, std::uint64_t>>{
                {fx.topology.out_channels(fx.self)[0], 1}}));
  EXPECT_TRUE(fx.completions.empty());  // the in-channel is still open
  // A recording in progress is not restarted by another initiation.
  fx.initiate();
  EXPECT_EQ(fx.captures, 1);
}

TEST(SnapshotEngine, RecordsChannelUntilMarker) {
  RecordingFixture fx;
  fx.initiate();
  fx.app(fx.in_channel(), Bytes{5});
  fx.marker(fx.in_channel(), 1);
  ASSERT_EQ(fx.completions.size(), 1u);
  ASSERT_EQ(fx.completions[0].in_channels.size(), 1u);
  EXPECT_EQ(fx.completions[0].in_channels[0].messages,
            (std::vector<Bytes>{{5}}));
  // The recording is over: the next initiation starts wave 2.
  fx.initiate();
  EXPECT_EQ(fx.markers_sent().back().second, 2u);
}

TEST(SnapshotEngine, FirstMarkerMeansEmptyChannel) {
  RecordingFixture fx;
  fx.marker(fx.in_channel(), 4);
  ASSERT_EQ(fx.completions.size(), 1u);
  // Sparse channel states: an empty channel records no entry at all.
  EXPECT_TRUE(fx.completions[0].in_channels.empty());
  EXPECT_EQ(fx.waves[0], 4u);
}

TEST(SnapshotEngine, PostMarkerTrafficNotRecorded) {
  RecordingFixture fx;
  fx.marker(fx.in_channel(), 1);
  fx.app(fx.in_channel(), Bytes{9});
  ASSERT_EQ(fx.completions.size(), 1u);
  EXPECT_TRUE(fx.completions[0].in_channels.empty());
}

TEST(SnapshotEngine, SequentialWaves) {
  RecordingFixture fx;
  fx.marker(fx.in_channel(), 1);
  fx.marker(fx.in_channel(), 2);
  EXPECT_EQ(fx.waves, (std::vector<std::uint64_t>{1, 2}));
  // Stale wave ignored.
  fx.marker(fx.in_channel(), 1);
  EXPECT_EQ(fx.completions.size(), 2u);
}

TEST(SnapshotEngine, ObserveWhileIdleIsNoop) {
  RecordingFixture fx;
  fx.app(fx.in_channel(), Bytes{1});
  EXPECT_TRUE(fx.completions.empty());
  EXPECT_TRUE(fx.markers_sent().empty());
  fx.marker(fx.in_channel(), 1);
  ASSERT_EQ(fx.completions.size(), 1u);
  EXPECT_TRUE(fx.completions[0].in_channels.empty());
}

// Two recordings overlap: a newer wave's marker reaches a process still
// recording the older one.  The newer wave restarts the recording (state
// captured again, markers sent, channel states reset) and the older wave's
// remaining markers are stale.
TEST(SnapshotEngine, NewerWaveRestartsRecordingInProgress) {
  Topology topology = Topology::ring(3);
  const ChannelId extra = topology.add_channel(ProcessId(2), ProcessId(1));
  WaveFixture fx(WaveKind::kRecord, std::move(topology), ProcessId(1));
  const ChannelId ring_in = fx.in_channel();

  fx.marker(ring_in, 1);        // wave 1 starts; ring_in closed
  fx.app(extra, Bytes{1});      // wave 1's state of `extra`
  fx.marker(extra, 2);          // wave 2 restarts; `extra` closed
  EXPECT_EQ(fx.captures, 2);
  fx.app(ring_in, Bytes{2});    // wave 2's state of ring_in
  fx.marker(extra, 1);          // stale
  EXPECT_TRUE(fx.completions.empty());
  fx.marker(ring_in, 2);
  ASSERT_EQ(fx.completions.size(), 1u);
  EXPECT_EQ(fx.waves[0], 2u);
  ASSERT_EQ(fx.completions[0].in_channels.size(), 1u);
  EXPECT_EQ(fx.completions[0].in_channels[0].channel, ring_in);
  EXPECT_EQ(fx.completions[0].in_channels[0].messages,
            (std::vector<Bytes>{{2}}));
  const auto markers = fx.markers_sent();
  ASSERT_EQ(markers.size(), 2u);
  EXPECT_EQ(markers[0].second, 1u);
  EXPECT_EQ(markers[1].second, 2u);
}

}  // namespace
}  // namespace ddbg
