#include "microcosts.hpp"

#include <functional>
#include <span>

#include "common/rng.hpp"
#include "core/halting.hpp"
#include "core/lp_detector.hpp"
#include "net/framing.hpp"
#include "net/reliable.hpp"
#include "stats.hpp"
#include "tracing.hpp"

namespace perfbench {

using namespace ddbg;

namespace {

constexpr int kReps = 7;

// Median over kReps of (time of one `body` call) / ops.  `prepare` runs
// untimed before each repetition.
double per_op_ns(std::size_t ops, const std::function<void()>& prepare,
                 const std::function<void()>& body) {
  if (ops == 0) return 0.0;
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    prepare();
    const std::int64_t t0 = wall_ns();
    body();
    samples.push_back(static_cast<double>(wall_ns() - t0) /
                      static_cast<double>(ops));
  }
  return median(std::move(samples));
}

// A process context that accepts and drops everything: the halting engine
// runs against it in isolation.
class NullContext final : public ProcessContext {
 public:
  NullContext(const Topology& topology, ProcessId self)
      : topology_(topology), self_(self) {}
  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] TimePoint now() const override { return TimePoint{}; }
  [[nodiscard]] const Topology& topology() const override {
    return topology_;
  }
  void send(ChannelId, Message message) override { keep(message.kind); }
  TimerId set_timer(Duration) override { return TimerId(1); }
  void cancel_timer(TimerId) override {}
  [[nodiscard]] Rng& rng() override { return rng_; }
  void stop_self() override {}

 private:
  const Topology& topology_;
  ProcessId self_;
  Rng rng_{1};
};

// Per-marker cost of whole halt waves at p0 of `users` (+ flat debugger):
// the first marker halts and floods, the rest close in-channels.
double halting_marker_ns(const Topology& users, const HaltMarkerData& sample,
                         const ProcessSnapshot& state, int waves_per_rep) {
  const Topology topology = users.with_debugger();
  const ProcessId self(0);
  NullContext ctx(topology, self);
  HaltingEngine engine(
      self, &topology,
      HaltingEngine::Callbacks{[&state] { return state; }, nullptr, nullptr});
  const auto in = topology.in_channels(self);
  std::uint64_t wave = 0;
  HaltMarkerData data = sample;
  return per_op_ns(
      static_cast<std::size_t>(waves_per_rep) * in.size(), [] {},
      [&] {
        for (int w = 0; w < waves_per_rep; ++w) {
          data.halt_id = HaltId(++wave);
          for (const ChannelId c : in) engine.on_halt_marker(ctx, c, data);
          keep(engine.resume().messages.size());
        }
      });
}

std::vector<VectorClock> clocks_at_n4(const MicroInputs& inputs) {
  std::vector<VectorClock> clocks;
  for (const Message& m : inputs.messages) {
    if (m.kind != MessageKind::kApplication || m.vclock.empty()) continue;
    VectorClock clock(4);
    clock.merge(m.vclock);
    clocks.push_back(clock);
  }
  if (clocks.size() >= 16) return clocks;
  // Clocks are off on this workload: draw n=4 clocks from the seed.
  Rng rng(inputs.seed);
  clocks.clear();
  for (int i = 0; i < 256; ++i) {
    VectorClock clock(4);
    for (std::uint32_t p = 0; p < 4; ++p) {
      const std::uint64_t ticks = rng.next_below(1000);
      for (std::uint64_t t = 0; t < ticks; ++t) clock.tick(ProcessId(p));
    }
    clocks.push_back(clock);
  }
  return clocks;
}

}  // namespace

MicroCosts measure_micro_costs(const MicroInputs& inputs) {
  MicroCosts out;
  const std::vector<Message>& messages = inputs.messages;
  const std::size_t n = messages.size();

  // ---- core.halting ----
  HaltMarkerData marker;
  if (!inputs.markers.empty()) marker = inputs.markers.front();
  const ProcessSnapshot state =
      inputs.snapshots.empty() ? ProcessSnapshot{} : inputs.snapshots.front();
  out.halting_marker_d2_ns =
      halting_marker_ns(Topology::complete(3), marker, state, 2000);
  out.halting_marker_d255_ns =
      halting_marker_ns(Topology::complete(256), marker, state, 10);

  // ---- core.lp: non-matching receive events against the armed watch ----
  {
    LinkedPredicateDetector detector(
        ProcessId(0), LinkedPredicateDetector::Callbacks{
                          [](BreakpointId, const LocalEvent&, bool) {},
                          [](ProcessId, BreakpointId, const LinkedPredicate&,
                             std::uint32_t, bool) {},
                          [](BreakpointId, std::uint32_t, const LocalEvent&) {}});
    detector.arm(BreakpointId(1), inputs.breakpoint.linked.expanded(), 0);
    std::vector<LocalEvent> events;
    for (const Message& m : messages) {
      if (m.kind != MessageKind::kApplication) continue;
      LocalEvent event;
      event.kind = LocalEventKind::kMessageReceived;
      event.process = ProcessId(0);
      event.value = static_cast<std::int64_t>(m.payload.size());
      event.message_id = m.message_id;
      event.lamport = m.lamport;
      event.vclock = m.vclock;
      events.push_back(std::move(event));
    }
    constexpr int kLoops = 50;
    out.lp_event_ns = per_op_ns(events.size() * kLoops, [] {}, [&] {
      for (int l = 0; l < kLoops; ++l) {
        for (const LocalEvent& e : events) detector.on_local_event(e);
      }
    });
  }

  // ---- net: encode / decode / frame parse ----
  constexpr int kLoops = 20;
  std::vector<Bytes> encoded;
  Bytes stream;
  for (const Message& m : messages) {
    ByteWriter writer;
    m.encode(writer);
    encoded.push_back(std::move(writer).take());
    const std::size_t header = begin_frame(stream);
    stream.insert(stream.end(), encoded.back().begin(), encoded.back().end());
    end_frame(stream, header);
  }
  {
    Bytes buffer;
    out.encode_ns = per_op_ns(n * kLoops, [] {}, [&] {
      for (int l = 0; l < kLoops; ++l) {
        for (const Message& m : messages) {
          buffer.clear();
          ByteWriter writer(buffer);
          m.encode(writer);
          keep(buffer.data());
        }
      }
    });
  }
  out.decode_ns = per_op_ns(n * kLoops, [] {}, [&] {
    for (int l = 0; l < kLoops; ++l) {
      for (const Bytes& bytes : encoded) {
        ByteReader reader(bytes);
        keep(Message::decode(reader).ok());
      }
    }
  });
  out.frame_parse_ns = per_op_ns(n * kLoops, [] {}, [&] {
    constexpr std::size_t kChunk = 64 * 1024;
    for (int l = 0; l < kLoops; ++l) {
      FrameParser parser;
      for (std::size_t at = 0; at < stream.size(); at += kChunk) {
        const std::size_t len = std::min(kChunk, stream.size() - at);
        parser.append(std::span<const std::uint8_t>(stream.data() + at, len));
        while (auto body = parser.next()) keep(body->size());
      }
    }
  });

  // ---- net.rel: sender stage+ack, receiver in-order on_frame ----
  std::vector<Message> copies;
  out.rel_stage_ack_ns = per_op_ns(
      n, [&] { copies = messages; },
      [&] {
        ReliableSender sender;
        for (Message& m : copies) {
          const std::uint64_t seq = sender.stage(std::move(m), 0, TimePoint{});
          keep(sender.ack(seq));
        }
      });
  out.rel_on_frame_ns = per_op_ns(
      n, [&] { copies = messages; },
      [&] {
        ReliableReceiver receiver;
        std::vector<ReliableReceiver::Delivery> delivered;
        std::uint64_t seq = 0;
        for (Message& m : copies) {
          keep(receiver.on_frame(++seq, std::move(m), 0, delivered));
          delivered.clear();
        }
      });

  // ---- clock at n=4 ----
  const std::vector<VectorClock> clocks = clocks_at_n4(inputs);
  {
    VectorClock acc(4);
    out.clock_merge_ns = per_op_ns(clocks.size() * kLoops, [] {}, [&] {
      for (int l = 0; l < kLoops; ++l) {
        for (const VectorClock& c : clocks) acc.merge(c);
      }
      keep(acc.at(ProcessId(0)));
    });
    out.clock_compare_ns =
        per_op_ns((clocks.size() - 1) * kLoops, [] {}, [&] {
          for (int l = 0; l < kLoops; ++l) {
            for (std::size_t i = 1; i < clocks.size(); ++i) {
              keep(clocks[i - 1].compare(clocks[i]));
            }
          }
        });
  }

  // ---- debugger.global_state_add ----
  std::vector<ProcessSnapshot> fragments;
  out.global_state_add_ns = per_op_ns(
      inputs.snapshots.size(), [&] { fragments = inputs.snapshots; },
      [&] {
        GlobalState state(HaltId(1));
        for (ProcessSnapshot& s : fragments) state.add(std::move(s));
        keep(state.size());
      });
  return out;
}

}  // namespace perfbench
