// Chaos tests: the fault-injection adversary (net/fault_plan.hpp) against
// the reliability layer (net/reliable.hpp) on all three substrates.
//
// The claim under test is the one the paper takes as an axiom (section
// 2.1): channels are reliable, FIFO and unbounded.  With a FaultPlan
// dropping, duplicating, reordering, delaying and resetting transmissions,
// the algorithms above the transport — token circulation, halting waves,
// C&L snapshots, linked-predicate detection — must reach exactly the same
// verdicts as on a clean transport, and the vector-clock consistency
// checks (analysis/consistency) must keep holding on every halted state.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/consistency.hpp"
#include "common/rng.hpp"
#include "core/debug_shim.hpp"
#include "debugger/debugger_process.hpp"
#include "debugger/harness.hpp"
#include "debugger/session.hpp"
#include "net/fault_plan.hpp"
#include "net/reliable.hpp"
#include "net/reliable_link.hpp"
#include "net/replay_hooks.hpp"
#include "net/transport_hooks.hpp"
#include "runtime/runtime.hpp"
#include "runtime/tcp_runtime.hpp"
#include "sim/simulation.hpp"
#include "workload/behaviors.hpp"

namespace ddbg {
namespace {

constexpr Duration kWait = Duration::seconds(30);

// A mixed adversary: every non-reset kind at once.  Probabilities are high
// enough that a few dozen sends are guaranteed (statistically, and pinned
// by the determinism test) to hit every kind.
FaultSpec mixed_spec() {
  FaultSpec spec;
  spec.drop = 0.10;
  spec.duplicate = 0.08;
  spec.reorder = 0.08;
  spec.delay = 0.08;
  return spec;
}

std::shared_ptr<FaultPlan> make_plan(FaultSpec spec, std::uint64_t seed) {
  return std::make_shared<FaultPlan>(spec, seed);
}

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

TEST(ChaosPlan, ParseFullSpec) {
  auto plan = FaultPlan::parse(
      "drop=0.05,dup=0.02,reorder=0.03,delay=0.05,reset=0.001,"
      "partition=200..260,reorder_delay=8ms,extra_delay=250us",
      42);
  ASSERT_TRUE(plan.ok()) << plan.error().to_string();
  const FaultSpec& spec = plan.value().spec_for(ChannelId(0));
  EXPECT_DOUBLE_EQ(spec.drop, 0.05);
  EXPECT_DOUBLE_EQ(spec.duplicate, 0.02);
  EXPECT_DOUBLE_EQ(spec.reorder, 0.03);
  EXPECT_DOUBLE_EQ(spec.delay, 0.05);
  EXPECT_DOUBLE_EQ(spec.reset, 0.001);
  EXPECT_EQ(spec.partition_from, 200u);
  EXPECT_EQ(spec.partition_until, 260u);
  EXPECT_EQ(spec.reorder_delay, Duration::millis(8));
  EXPECT_EQ(spec.extra_delay, Duration::micros(250));
  EXPECT_EQ(plan.value().seed(), 42u);
}

TEST(ChaosPlan, ParseRejectsGarbage) {
  EXPECT_FALSE(FaultPlan::parse("drop=0.5,warp=0.1", 1).ok());
  EXPECT_FALSE(FaultPlan::parse("drop=not-a-number", 1).ok());
  EXPECT_FALSE(FaultPlan::parse("drop=0.7,dup=0.7", 1).ok());  // sum > 1
  EXPECT_FALSE(FaultPlan::parse("partition=9..3", 1).ok());
  EXPECT_FALSE(FaultPlan::parse("drop", 1).ok());
}

TEST(ChaosPlan, DecisionsAreDeterministicPerSeed) {
  FaultSpec spec = mixed_spec();
  spec.reset = 0.02;
  const FaultPlan a(spec, 7);
  const FaultPlan b(spec, 7);
  const FaultPlan c(spec, 8);
  bool any_difference_across_seeds = false;
  for (std::uint64_t attempt = 0; attempt < 512; ++attempt) {
    const auto da = a.decide(ChannelId(3), attempt);
    const auto db = b.decide(ChannelId(3), attempt);
    EXPECT_EQ(da.kind, db.kind) << "attempt " << attempt;
    EXPECT_EQ(da.extra_delay, db.extra_delay) << "attempt " << attempt;
    if (da.kind != c.decide(ChannelId(3), attempt).kind) {
      any_difference_across_seeds = true;
    }
  }
  EXPECT_TRUE(any_difference_across_seeds);
}

TEST(ChaosPlan, PartitionWindowDropsEveryAttemptInside) {
  FaultSpec spec;
  spec.partition_from = 10;
  spec.partition_until = 20;
  const FaultPlan plan(spec, 1);
  for (std::uint64_t attempt = 0; attempt < 30; ++attempt) {
    const auto decision = plan.decide(ChannelId(0), attempt);
    if (attempt >= 10 && attempt < 20) {
      EXPECT_EQ(decision.kind, FaultKind::kPartition) << attempt;
    } else {
      EXPECT_EQ(decision.kind, FaultKind::kNone) << attempt;
    }
  }
}

TEST(ChaosPlan, AckPathFacesOnlyDropAndDelay) {
  FaultSpec spec;
  spec.duplicate = 0.5;
  spec.reorder = 0.3;
  spec.reset = 0.2;
  const FaultPlan plan(spec, 11);
  for (std::uint64_t attempt = 0; attempt < 256; ++attempt) {
    EXPECT_EQ(plan.decide_ack(ChannelId(2), attempt).kind, FaultKind::kNone);
  }
}

TEST(ChaosPlan, PerChannelOverride) {
  FaultPlan plan(FaultSpec{}, 1);
  FaultSpec lossy;
  lossy.drop = 1.0;
  plan.set_channel(ChannelId(1), lossy);
  EXPECT_EQ(plan.decide(ChannelId(0), 0).kind, FaultKind::kNone);
  EXPECT_EQ(plan.decide(ChannelId(1), 0).kind, FaultKind::kDrop);
}

// ---------------------------------------------------------------------------
// ReliableSender / ReliableReceiver
// ---------------------------------------------------------------------------

Message numbered(std::uint32_t n) {
  ByteWriter writer;
  writer.u32(n);
  return Message::application(std::move(writer).take());
}

TEST(ChaosReliable, InOrderBurstDeliversAndRetires) {
  ReliableSender sender;
  ReliableReceiver receiver;
  std::vector<ReliableReceiver::Delivery> out;
  for (std::uint32_t i = 0; i < 5; ++i) {
    const std::uint64_t seq = sender.stage(numbered(i), i, TimePoint{0});
    EXPECT_EQ(seq, i + 1);
    EXPECT_EQ(receiver.on_frame(seq, numbered(i), i, out),
              ReliableReceiver::Accept::kDelivered);
  }
  ASSERT_EQ(out.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].seq, i + 1);
    EXPECT_EQ(out[i].meta, i);
  }
  EXPECT_EQ(receiver.cum_ack(), 5u);
  EXPECT_EQ(sender.ack(receiver.cum_ack()), 5u);
  EXPECT_EQ(sender.unacked(), 0u);
  EXPECT_EQ(sender.peek(3), nullptr);
}

TEST(ChaosReliable, DuplicatesSuppressedReordersHeld) {
  ReliableReceiver receiver;
  std::vector<ReliableReceiver::Delivery> out;
  // seq 2 arrives early: held, nothing released, cum_ack unchanged.
  EXPECT_EQ(receiver.on_frame(2, numbered(2), 0, out),
            ReliableReceiver::Accept::kBuffered);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(receiver.cum_ack(), 0u);
  EXPECT_EQ(receiver.held(), 1u);
  // A second copy of the held frame is a duplicate, not a re-buffer.
  EXPECT_EQ(receiver.on_frame(2, numbered(2), 0, out),
            ReliableReceiver::Accept::kDuplicate);
  // seq 1 fills the gap: both release, in order.
  EXPECT_EQ(receiver.on_frame(1, numbered(1), 0, out),
            ReliableReceiver::Accept::kDelivered);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, 1u);
  EXPECT_EQ(out[1].seq, 2u);
  EXPECT_EQ(receiver.cum_ack(), 2u);
  // Late duplicate of an already-released frame.
  EXPECT_EQ(receiver.on_frame(1, numbered(1), 0, out),
            ReliableReceiver::Accept::kDuplicate);
}

TEST(ChaosReliable, BackoffDoublesUpToCap) {
  ReliableConfig config;
  config.rto_initial = Duration::millis(25);
  config.rto_max = Duration::millis(400);
  ReliableSender sender(config);
  sender.stage(numbered(1), 0, TimePoint{0});
  ASSERT_TRUE(sender.next_deadline().has_value());
  EXPECT_EQ(sender.next_deadline()->ns, Duration::millis(25).ns);
  // Fire retransmissions at exactly each deadline; each fire doubles the
  // backoff, so the gap to the next deadline runs 50 -> 100 -> 200 -> 400
  // and then pins at the cap.
  TimePoint now{0};
  std::vector<std::uint64_t> due;
  const std::int64_t expected[] = {50, 100, 200, 400, 400, 400};
  for (const std::int64_t gap_ms : expected) {
    now = *sender.next_deadline();
    sender.due(now, due);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], 1u);
    ASSERT_TRUE(sender.next_deadline().has_value());
    EXPECT_EQ(sender.next_deadline()->ns - now.ns,
              Duration::millis(gap_ms).ns)
        << "after firing at " << now.ns;
  }
  // Not due again before the deadline.
  sender.due(now, due);
  EXPECT_TRUE(due.empty());
}

TEST(ChaosReliable, MarkAllDueReplaysTheWindow) {
  ReliableSender sender;
  for (std::uint32_t i = 0; i < 4; ++i) {
    sender.stage(numbered(i), 0, TimePoint{0});
  }
  ASSERT_EQ(sender.ack(2), 2u);
  EXPECT_EQ(sender.mark_all_due(TimePoint{1000}), 2u);
  std::vector<std::uint64_t> due;
  sender.due(TimePoint{1000}, due);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0], 3u);
  EXPECT_EQ(due[1], 4u);
}

// The payload number a numbered() message carries.
std::uint32_t number_of(const ReliableSender::Staged* staged) {
  ByteReader reader(staged->message.payload);
  return reader.u32().value();
}

TEST(ChaosReliable, PeekAfterPartialAckFindsTheEntry) {
  ReliableSender sender;
  for (std::uint32_t i = 1; i <= 6; ++i) {
    sender.stage(numbered(i * 10), i, TimePoint{0});
  }
  ASSERT_EQ(sender.ack(2), 2u);
  for (std::uint64_t seq = 3; seq <= 6; ++seq) {
    const ReliableSender::Staged* staged = sender.peek(seq);
    ASSERT_NE(staged, nullptr) << "seq " << seq;
    EXPECT_EQ(staged->meta, seq);
    EXPECT_EQ(number_of(staged), seq * 10);
  }
  // Past the half-way mark: the acked prefix is compacted away, and the
  // offsets still resolve.
  ASSERT_EQ(sender.ack(4), 2u);
  EXPECT_EQ(sender.unacked(), 2u);
  ASSERT_NE(sender.peek(5), nullptr);
  EXPECT_EQ(number_of(sender.peek(5)), 50u);
  EXPECT_EQ(number_of(sender.peek(6)), 60u);
}

TEST(ChaosReliable, PeekOutsideTheWindowIsNull) {
  ReliableSender sender;
  EXPECT_EQ(sender.peek(0), nullptr);
  EXPECT_EQ(sender.peek(1), nullptr);  // nothing staged yet
  for (std::uint32_t i = 0; i < 5; ++i) {
    sender.stage(numbered(i), 0, TimePoint{0});
  }
  ASSERT_EQ(sender.ack(1), 1u);
  EXPECT_EQ(sender.peek(0), nullptr);
  EXPECT_EQ(sender.peek(1), nullptr);  // acked
  EXPECT_NE(sender.peek(2), nullptr);
  EXPECT_NE(sender.peek(sender.last_staged()), nullptr);
  EXPECT_EQ(sender.peek(sender.last_staged() + 1), nullptr);
  EXPECT_EQ(sender.peek(~std::uint64_t{0}), nullptr);
  // A stale (lower) cumulative ack retires nothing.
  EXPECT_EQ(sender.ack(0), 0u);
  EXPECT_EQ(sender.cum_acked(), 1u);
}

TEST(ChaosReliable, StagingAfterFullAckContinuesNumbering) {
  ReliableSender sender;
  for (std::uint32_t i = 0; i < 3; ++i) {
    sender.stage(numbered(i), 0, TimePoint{0});
  }
  ASSERT_EQ(sender.ack(3), 3u);
  EXPECT_EQ(sender.unacked(), 0u);
  EXPECT_FALSE(sender.next_deadline().has_value());
  EXPECT_EQ(sender.stage(numbered(7), 7, TimePoint{5}), 4u);
  EXPECT_EQ(sender.last_staged(), 4u);
  EXPECT_EQ(sender.peek(3), nullptr);
  ASSERT_NE(sender.peek(4), nullptr);
  EXPECT_EQ(sender.peek(4)->meta, 7u);
  EXPECT_EQ(number_of(sender.peek(4)), 7u);
}

TEST(ChaosReliable, DueAndMarkAllDueAfterCompaction) {
  ReliableConfig config;
  config.rto_initial = Duration::millis(10);
  config.rto_max = Duration::millis(40);
  ReliableSender sender(config);
  for (std::uint32_t i = 0; i < 8; ++i) {
    sender.stage(numbered(i), 0, TimePoint{Duration::millis(i).ns});
  }
  ASSERT_EQ(sender.ack(5), 5u);  // head passes half: compacted
  ASSERT_EQ(sender.unacked(), 3u);
  std::vector<std::uint64_t> due{99};  // stale contents are replaced
  sender.due(TimePoint{Duration::millis(15).ns}, due);
  EXPECT_EQ(due, (std::vector<std::uint64_t>{6}));  // staged at 5 ms
  sender.due(TimePoint{Duration::millis(17).ns}, due);
  EXPECT_EQ(due, (std::vector<std::uint64_t>{7, 8}));
  EXPECT_EQ(sender.mark_all_due(TimePoint{Duration::millis(20).ns}), 3u);
  sender.due(TimePoint{Duration::millis(20).ns}, due);
  EXPECT_EQ(due, (std::vector<std::uint64_t>{6, 7, 8}));
  // Each entry has now fired twice: 10 -> 20 -> 40 ms (the cap) of backoff.
  ASSERT_TRUE(sender.next_deadline().has_value());
  EXPECT_EQ(sender.next_deadline()->ns, Duration::millis(60).ns);
}

// Reference model of the retransmit window: the straightforward deque of
// (seq, deadline, rto) the contiguous window replaced.
struct ModelWindow {
  struct Entry {
    std::uint64_t seq;
    std::uint64_t meta;
    TimePoint next_retry;
    Duration rto;
  };
  ReliableConfig config;
  std::deque<Entry> window;
  std::uint64_t next_seq = 1;

  std::uint64_t stage(std::uint64_t meta, TimePoint now) {
    window.push_back(Entry{next_seq, meta, now + config.rto_initial,
                           config.rto_initial});
    return next_seq++;
  }
  void ack(std::uint64_t cum) {
    while (!window.empty() && window.front().seq <= cum) window.pop_front();
  }
  std::vector<std::uint64_t> due(TimePoint now) {
    std::vector<std::uint64_t> out;
    for (Entry& e : window) {
      if (e.next_retry > now) continue;
      out.push_back(e.seq);
      e.rto = e.rto * 2 > config.rto_max ? config.rto_max : e.rto * 2;
      e.next_retry = now + e.rto;
    }
    return out;
  }
  std::optional<TimePoint> next_deadline() const {
    std::optional<TimePoint> best;
    for (const Entry& e : window) {
      if (!best || e.next_retry < *best) best = e.next_retry;
    }
    return best;
  }
  const Entry* find(std::uint64_t seq) const {
    for (const Entry& e : window) {
      if (e.seq == seq) return &e;
    }
    return nullptr;
  }
};

TEST(ChaosReliable, RandomizedWindowMatchesDequeModel) {
  ReliableConfig config;
  config.rto_initial = Duration::millis(3);
  config.rto_max = Duration::millis(20);
  ReliableSender sender(config);
  ModelWindow model{config, {}, 1};
  Rng rng(42);
  TimePoint now{0};
  std::uint64_t cum = 0;
  std::vector<std::uint64_t> due;
  for (int step = 0; step < 1000; ++step) {
    now = now + Duration::micros(rng.next_in(0, 2000));
    const std::uint64_t op = rng.next_below(10);
    if (op < 4) {
      const auto meta = static_cast<std::uint64_t>(step);
      const std::uint64_t seq = sender.stage(
          numbered(static_cast<std::uint32_t>(step)), meta, now);
      ASSERT_EQ(seq, model.stage(meta, now));
    } else if (op < 7) {
      // Cumulative acks only move forward, sometimes over the whole window
      // and sometimes re-acking what is already retired.
      const std::uint64_t top = sender.last_staged();
      if (top > cum) cum += rng.next_below(top - cum + 1);
      sender.ack(cum);
      model.ack(cum);
    } else if (op < 9) {
      sender.due(now, due);
      ASSERT_EQ(due, model.due(now)) << "step " << step;
    } else {
      const std::size_t n = sender.mark_all_due(now);
      for (auto& e : model.window) e.next_retry = now;
      ASSERT_EQ(n, model.window.size());
    }
    ASSERT_EQ(sender.unacked(), model.window.size()) << "step " << step;
    ASSERT_EQ(sender.next_deadline(), model.next_deadline())
        << "step " << step;
    const std::uint64_t top = sender.last_staged();
    for (std::uint64_t seq = cum > 2 ? cum - 2 : 0; seq <= top + 2; ++seq) {
      const ReliableSender::Staged* staged = sender.peek(seq);
      const ModelWindow::Entry* expected = model.find(seq);
      ASSERT_EQ(staged != nullptr, expected != nullptr)
          << "step " << step << " seq " << seq;
      if (staged != nullptr) {
        ASSERT_EQ(staged->meta, expected->meta);
        ASSERT_EQ(number_of(staged), expected->meta);
      }
    }
  }
}

TEST(ChaosReliable, HeaderRoundTrip) {
  RelHeader header;
  header.tag = RelHeader::kData;
  header.seq = 0x1122334455667788ULL;
  header.cum_ack = 0x99aabbccddeeff00ULL;
  ByteWriter writer;
  header.encode(writer);
  const Bytes wire = std::move(writer).take();
  EXPECT_EQ(wire.size(), kRelHeaderSize);
  ByteReader reader(wire);
  const auto decoded = RelHeader::decode(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().tag, header.tag);
  EXPECT_EQ(decoded.value().seq, header.seq);
  EXPECT_EQ(decoded.value().cum_ack, header.cum_ack);

  Bytes corrupt = wire;
  corrupt[0] = 0x7f;  // bad tag
  ByteReader bad(corrupt);
  EXPECT_FALSE(RelHeader::decode(bad).ok());
}

// ---------------------------------------------------------------------------
// ReliableLink: the one reliability driver, through a fake port and a
// hand-set clock
// ---------------------------------------------------------------------------

// One request the link made of its substrate.
struct PortCall {
  enum class Kind { kData, kAck, kLose, kRetry, kDeliver } kind;
  std::size_t slot = 0;
  // kData: frame seq; kAck: cumulative ack; kDeliver: payload number.
  std::uint64_t value = 0;
  std::uint64_t attempt = 0;  // kData / kAck
  Duration extra{0};          // kData / kAck
  bool copy = false;          // kData
  TimePoint at{0};            // kLose: resync time; kRetry: retry time

  bool operator==(const PortCall&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const PortCall& c) {
    return os << "{kind " << static_cast<int>(c.kind) << " slot " << c.slot
              << " value " << c.value << " attempt " << c.attempt
              << " extra " << c.extra.ns << " copy " << c.copy << " at "
              << c.at.ns << "}";
  }
};

PortCall data(std::uint64_t seq, std::uint64_t attempt, Duration extra = {},
              bool copy = false) {
  return {PortCall::Kind::kData, 0, seq, attempt, extra, copy, TimePoint{0}};
}
PortCall ack(std::uint64_t cum, std::uint64_t attempt, Duration extra = {}) {
  return {PortCall::Kind::kAck, 0, cum, attempt, extra, false, TimePoint{0}};
}
PortCall lose(TimePoint resync_at) {
  return {PortCall::Kind::kLose, 0, 0, 0, Duration{0}, false, resync_at};
}
PortCall retry(TimePoint when) {
  return {PortCall::Kind::kRetry, 0, 0, 0, Duration{0}, false, when};
}
PortCall delivered(std::uint64_t number) {
  return {PortCall::Kind::kDeliver, 0, number, 0, Duration{0}, false,
          TimePoint{0}};
}

class FakePort final : public ReliableLink::Port {
 public:
  void transmit_data(std::size_t slot, ChannelId channel, std::uint64_t seq,
                     const ReliableSender::Staged& staged,
                     std::uint64_t attempt, Duration extra,
                     bool copy) override {
    EXPECT_EQ(channel, ChannelId(0));    // p0's out-slot 0
    EXPECT_EQ(number_of(&staged), seq);  // numbered(seq) was sent as seq
    calls.push_back(
        {PortCall::Kind::kData, slot, seq, attempt, extra, copy, {}});
  }
  void transmit_ack(std::size_t slot, ChannelId channel,
                    std::uint64_t cum_ack, std::uint64_t attempt,
                    Duration extra) override {
    EXPECT_EQ(channel, ChannelId(1));  // p0's in-slot 0
    calls.push_back(
        {PortCall::Kind::kAck, slot, cum_ack, attempt, extra, false, {}});
  }
  void lose_connection(std::size_t slot, ChannelId channel,
                       TimePoint resync_at) override {
    EXPECT_EQ(channel, ChannelId(0));
    calls.push_back({PortCall::Kind::kLose, slot, 0, 0, {}, false, resync_at});
  }
  void arm_retry(std::size_t slot, ChannelId channel,
                 TimePoint when) override {
    EXPECT_EQ(channel, ChannelId(0));
    calls.push_back({PortCall::Kind::kRetry, slot, 0, 0, {}, false, when});
  }
  void deliver(std::size_t slot, ChannelId channel, Message&& message,
               std::uint64_t) override {
    EXPECT_EQ(channel, ChannelId(1));
    ByteReader reader(message.payload);
    calls.push_back({PortCall::Kind::kDeliver, slot, reader.u32().value(), 0,
                     {}, false, {}});
  }

  // The calls since the last take(), in order.
  std::vector<PortCall> take() { return std::exchange(calls, {}); }

  std::vector<PortCall> calls;
};

// Replay annotations as (kind, channel, detail), in order.
using Note = std::array<std::uint64_t, 3>;

class AnnotationLog final : public ReplaySink {
 public:
  void record_delivery(ProcessId, ChannelId, std::uint64_t, std::uint64_t,
                       std::uint64_t) override {}
  void record_timer_set(ProcessId, std::uint64_t, TimerId) override {}
  void record_timer_fire(ProcessId, std::uint64_t) override {}
  void record_halt_cut(std::uint64_t, Bytes) override {}
  void record_annotation(std::uint8_t kind, ChannelId channel,
                         std::uint64_t detail) override {
    notes.push_back({kind, channel.value(), detail});
  }

  std::vector<Note> notes;
};

// Every transport counter the link moves.
struct Counters {
  std::array<std::uint64_t, kNumFaultKinds> faults{};
  std::uint64_t retransmits = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t resync_replayed = 0;
  std::uint64_t channel_down = 0;

  bool operator==(const Counters&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const Counters& c) {
    os << "{faults";
    for (const std::uint64_t n : c.faults) os << ' ' << n;
    return os << " retransmits " << c.retransmits << " dup_suppressed "
              << c.dup_suppressed << " reconnects " << c.reconnects
              << " resync_replayed " << c.resync_replayed << " channel_down "
              << c.channel_down << "}";
  }
};

Counters only_fault(FaultKind kind, std::uint64_t n = 1) {
  Counters c;
  c.faults[fault_index(kind)] = n;
  return c;
}

Topology two_way_pair() {
  Topology topology(2);
  topology.add_channel(ProcessId(0), ProcessId(1));  // c0: p0's out slot 0
  topology.add_channel(ProcessId(1), ProcessId(0));  // c1: p0's in slot 0
  return topology;
}

ReliableConfig link_config() {
  ReliableConfig config;
  config.rto_initial = Duration::millis(10);
  config.rto_max = Duration::millis(40);
  return config;
}

constexpr std::uint8_t note_kind(FaultKind kind) {
  return static_cast<std::uint8_t>(fault_index(kind));
}

// Process 0's link under `spec`: sends on c0, receives on c1.
struct LinkRig {
  explicit LinkRig(FaultSpec spec = {})
      : plan(spec, 7),
        topology(two_way_pair()),
        metrics("sim", 2, channel_meta(topology)),
        link(topology.out_channels(ProcessId(0)),
             topology.in_channels(ProcessId(0)), plan, link_config(),
             metrics, &log) {}

  void send(std::uint32_t number, TimePoint now) {
    link.send(port, 0, numbered(number), number, now);
  }
  void receive(std::uint32_t seq) {
    link.receive(port, 0, seq, numbered(seq), 0);
  }

  [[nodiscard]] Counters counters() const {
    const obs::TransportSnapshot t = metrics.snapshot(TimePoint{0}).transport;
    Counters c;
    for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
      c.faults[k] = t.faults_injected[k];
    }
    c.retransmits = t.retransmits;
    c.dup_suppressed = t.dup_suppressed;
    c.reconnects = t.reconnects;
    c.resync_replayed = t.resync_replayed;
    c.channel_down = t.channel_down;
    return c;
  }

  FaultPlan plan;
  Topology topology;
  obs::MetricsRegistry metrics;
  AnnotationLog log;
  ReliableLink link;
  FakePort port;
};

constexpr TimePoint at_ms(std::int64_t ms) {
  return TimePoint{Duration::millis(ms).ns};
}

TEST(ChaosReliableLink, CleanSendTransmitsOnceAndArmsOneRetry) {
  LinkRig rig;
  rig.send(1, at_ms(0));
  EXPECT_EQ(rig.port.take(),
            (std::vector<PortCall>{data(1, 0), retry(at_ms(10))}));
  // The armed check covers the second frame too: no second arm.
  rig.send(2, at_ms(1));
  EXPECT_EQ(rig.port.take(), (std::vector<PortCall>{data(2, 1)}));
  EXPECT_EQ(rig.counters(), Counters{});
  EXPECT_TRUE(rig.log.notes.empty());
}

TEST(ChaosReliableLink, DropVanishesAndTheRetryResends) {
  FaultSpec spec;
  spec.drop = 1.0;
  LinkRig rig(spec);
  rig.send(1, at_ms(0));
  EXPECT_EQ(rig.port.take(), (std::vector<PortCall>{retry(at_ms(10))}));
  EXPECT_EQ(rig.counters(), only_fault(FaultKind::kDrop));
  // The retry retransmits (dropped again) and re-arms with doubled RTO.
  rig.link.on_retry(rig.port, 0, at_ms(10));
  EXPECT_EQ(rig.port.take(), (std::vector<PortCall>{retry(at_ms(30))}));
  Counters expected = only_fault(FaultKind::kDrop, 2);
  expected.retransmits = 1;
  EXPECT_EQ(rig.counters(), expected);
  EXPECT_EQ(rig.log.notes,
            (std::vector<Note>{{note_kind(FaultKind::kDrop), 0, 0},
                               {note_kind(FaultKind::kDrop), 0, 1}}));
}

TEST(ChaosReliableLink, PartitionDropsOnlyInsideItsWindow) {
  FaultSpec spec;
  spec.partition_from = 0;
  spec.partition_until = 1;
  LinkRig rig(spec);
  rig.send(1, at_ms(0));
  EXPECT_EQ(rig.port.take(), (std::vector<PortCall>{retry(at_ms(10))}));
  rig.link.on_retry(rig.port, 0, at_ms(10));
  EXPECT_EQ(rig.port.take(),
            (std::vector<PortCall>{data(1, 1), retry(at_ms(30))}));
  Counters expected = only_fault(FaultKind::kPartition);
  expected.retransmits = 1;
  EXPECT_EQ(rig.counters(), expected);
  EXPECT_EQ(rig.log.notes,
            (std::vector<Note>{{note_kind(FaultKind::kPartition), 0, 0}}));
}

TEST(ChaosReliableLink, DuplicateSendsTheCopyThenTheOriginal) {
  FaultSpec spec;
  spec.duplicate = 1.0;
  LinkRig rig(spec);
  rig.send(1, at_ms(0));
  EXPECT_EQ(rig.port.take(),
            (std::vector<PortCall>{data(1, 0, Duration{0}, true), data(1, 0),
                                   retry(at_ms(10))}));
  EXPECT_EQ(rig.counters(), only_fault(FaultKind::kDuplicate));
  EXPECT_EQ(rig.log.notes,
            (std::vector<Note>{{note_kind(FaultKind::kDuplicate), 0, 0}}));
}

TEST(ChaosReliableLink, ReorderAndDelayAddTheirExtraTime) {
  for (const FaultKind kind : {FaultKind::kReorder, FaultKind::kDelay}) {
    FaultSpec spec;
    spec.reorder_delay = Duration::millis(8);
    spec.extra_delay = Duration::millis(3);
    (kind == FaultKind::kReorder ? spec.reorder : spec.delay) = 1.0;
    const Duration extra = kind == FaultKind::kReorder ? spec.reorder_delay
                                                       : spec.extra_delay;
    LinkRig rig(spec);
    rig.send(1, at_ms(0));
    EXPECT_EQ(rig.port.take(),
              (std::vector<PortCall>{data(1, 0, extra), retry(at_ms(10))}))
        << to_string(kind);
    EXPECT_EQ(rig.counters(), only_fault(kind)) << to_string(kind);
    EXPECT_EQ(rig.log.notes, (std::vector<Note>{{note_kind(kind), 0, 0}}))
        << to_string(kind);
  }
}

TEST(ChaosReliableLink, ResetLosesTheConnectionOncePerOutage) {
  FaultSpec spec;
  spec.reset = 1.0;
  LinkRig rig(spec);
  rig.send(1, at_ms(0));
  EXPECT_EQ(rig.port.take(),
            (std::vector<PortCall>{lose(at_ms(10)), retry(at_ms(10))}));
  // A second reset while the reconnect is pending is counted but schedules
  // no second resync.
  rig.send(2, at_ms(1));
  EXPECT_TRUE(rig.port.take().empty());
  Counters expected = only_fault(FaultKind::kReset, 2);
  expected.channel_down = 2;
  EXPECT_EQ(rig.counters(), expected);
  // The resync replays both frames; the first one's reset starts a new
  // outage, the second is inside it.
  rig.link.resync(rig.port, 0, at_ms(10));
  EXPECT_EQ(rig.port.take(), (std::vector<PortCall>{lose(at_ms(20))}));
  expected = only_fault(FaultKind::kReset, 4);
  expected.channel_down = 4;
  expected.retransmits = 2;
  expected.reconnects = 1;
  expected.resync_replayed = 2;
  EXPECT_EQ(rig.counters(), expected);
  const std::uint8_t reset = note_kind(FaultKind::kReset);
  EXPECT_EQ(rig.log.notes,
            (std::vector<Note>{{reset, 0, 0},
                               {reset, 0, 1},
                               {kReplayAnnotationReconnect, 0, 0},
                               {kReplayAnnotationResync, 0, 2},
                               {reset, 0, 2},
                               {reset, 0, 3}}));
}

TEST(ChaosReliableLink, ResyncReplaysExactlyTheUnackedWindow) {
  LinkRig rig;
  for (std::uint32_t n = 1; n <= 3; ++n) rig.send(n, at_ms(0));
  rig.port.take();
  rig.link.on_ack(0, 1);
  rig.link.resync(rig.port, 0, at_ms(5));
  // Frames 2 and 3 go out again; the check armed at t=10ms still stands.
  EXPECT_EQ(rig.port.take(), (std::vector<PortCall>{data(2, 3), data(3, 4)}));
  Counters expected;
  expected.retransmits = 2;
  expected.reconnects = 1;
  expected.resync_replayed = 2;
  EXPECT_EQ(rig.counters(), expected);
  EXPECT_EQ(rig.log.notes,
            (std::vector<Note>{{kReplayAnnotationReconnect, 0, 0},
                               {kReplayAnnotationResync, 0, 2}}));
}

TEST(ChaosReliableLink, FrameAckedBeforeItsRetryIsNotResent) {
  LinkRig rig;
  rig.send(1, at_ms(0));
  rig.send(2, at_ms(0));
  rig.port.take();
  rig.link.on_ack(0, 1);
  // Only frame 2 is still unacked when the retry fires.
  rig.link.on_retry(rig.port, 0, at_ms(10));
  EXPECT_EQ(rig.port.take(),
            (std::vector<PortCall>{data(2, 2), retry(at_ms(30))}));
  EXPECT_EQ(rig.link.peek(0, 1), nullptr);
  // Once everything is acked the retry resends nothing and disarms.
  rig.link.on_ack(0, 2);
  rig.link.on_retry(rig.port, 0, at_ms(30));
  EXPECT_TRUE(rig.port.take().empty());
  Counters expected;
  expected.retransmits = 1;
  EXPECT_EQ(rig.counters(), expected);
  EXPECT_TRUE(rig.log.notes.empty());
}

TEST(ChaosReliableLink, ReceiverReleasesInOrderAndAcksEveryArrival) {
  LinkRig rig;
  rig.receive(2);  // early: held
  rig.link.acknowledge(rig.port, 0);
  EXPECT_EQ(rig.port.take(), (std::vector<PortCall>{ack(0, 0)}));
  rig.receive(1);  // fills the gap: both released, in order
  rig.link.acknowledge(rig.port, 0);
  EXPECT_EQ(rig.port.take(), (std::vector<PortCall>{delivered(1), delivered(2),
                                                    ack(2, 1)}));
  rig.receive(1);  // duplicate: suppressed, but still acked
  rig.link.acknowledge(rig.port, 0);
  EXPECT_EQ(rig.port.take(), (std::vector<PortCall>{ack(2, 2)}));
  Counters expected;
  expected.dup_suppressed = 1;
  EXPECT_EQ(rig.counters(), expected);
  EXPECT_TRUE(rig.log.notes.empty());
}

TEST(ChaosReliableLink, AckDropIsCountedAndNothingIsSent) {
  FaultSpec spec;
  spec.drop = 1.0;
  LinkRig rig(spec);
  rig.receive(1);
  rig.link.acknowledge(rig.port, 0);
  EXPECT_EQ(rig.port.take(), (std::vector<PortCall>{delivered(1)}));
  EXPECT_EQ(rig.counters(), only_fault(FaultKind::kDrop));
  // Ack faults are annotated on the in-channel (c1).
  EXPECT_EQ(rig.log.notes,
            (std::vector<Note>{{note_kind(FaultKind::kDrop), 1, 0}}));
}

TEST(ChaosReliableLink, AckDelayAddsItsExtraTime) {
  FaultSpec spec;
  spec.delay = 1.0;
  spec.extra_delay = Duration::millis(3);
  LinkRig rig(spec);
  rig.receive(1);
  rig.link.acknowledge(rig.port, 0);
  EXPECT_EQ(rig.port.take(),
            (std::vector<PortCall>{delivered(1),
                                   ack(1, 0, Duration::millis(3))}));
  EXPECT_EQ(rig.counters(), only_fault(FaultKind::kDelay));
  EXPECT_EQ(rig.log.notes,
            (std::vector<Note>{{note_kind(FaultKind::kDelay), 1, 0}}));
}

// ---------------------------------------------------------------------------
// Simulator chaos matrix
// ---------------------------------------------------------------------------

// The token must survive every fault kind individually: each round trip is
// a chain of dependent sends, so a single lost (or misordered) hop wedges
// the ring forever unless the reliability layer recovers it.
TEST(ChaosSim, TokenRingSurvivesEachFaultKind) {
  struct Case {
    const char* name;
    FaultSpec spec;
  };
  std::vector<Case> cases;
  {
    Case c{"drop", {}};
    c.spec.drop = 0.25;
    cases.push_back(c);
  }
  {
    Case c{"duplicate", {}};
    c.spec.duplicate = 0.25;
    cases.push_back(c);
  }
  {
    Case c{"reorder", {}};
    c.spec.reorder = 0.25;
    cases.push_back(c);
  }
  {
    Case c{"delay", {}};
    c.spec.delay = 0.25;
    cases.push_back(c);
  }
  {
    Case c{"reset", {}};
    c.spec.reset = 0.10;
    cases.push_back(c);
  }
  {
    Case c{"partition", {}};
    c.spec.partition_from = 5;
    c.spec.partition_until = 25;
    cases.push_back(c);
  }

  constexpr std::uint32_t kRounds = 12;
  for (const Case& test_case : cases) {
    TokenRingConfig ring;
    ring.rounds = kRounds;
    SimulationConfig config;
    config.seed = 9;
    config.faults = make_plan(test_case.spec, 9);
    Simulation sim(Topology::ring(3), make_token_ring(3, ring),
                   std::move(config));
    const auto& p0 =
        dynamic_cast<TokenRingProcess&>(sim.process(ProcessId(0)));
    const bool done = sim.run_until_condition(
        [&] { return p0.tokens_seen() >= kRounds; },
        sim.now() + Duration::seconds(120));
    EXPECT_TRUE(done) << "ring wedged under " << test_case.name;
    const auto snap = sim.metrics().snapshot(sim.now());
    // The adversary demonstrably acted...
    std::uint64_t injected = 0;
    for (const std::uint64_t n : snap.transport.faults_injected) {
      injected += n;
    }
    EXPECT_GT(injected, 0u) << test_case.name;
    // ...and the ledger balances: every send was delivered exactly once.
    EXPECT_EQ(snap.totals.messages_delivered, snap.totals.messages_sent)
        << test_case.name;
  }
}

TEST(ChaosSim, RecoveryCountersPopulated) {
  TokenRingConfig ring;
  ring.rounds = 20;
  FaultSpec spec = mixed_spec();
  spec.reset = 0.05;
  SimulationConfig config;
  config.seed = 3;
  config.faults = make_plan(spec, 3);
  Simulation sim(Topology::ring(3), make_token_ring(3, ring),
                 std::move(config));
  const auto& p0 = dynamic_cast<TokenRingProcess&>(sim.process(ProcessId(0)));
  ASSERT_TRUE(sim.run_until_condition(
      [&] { return p0.tokens_seen() >= 20; },
      sim.now() + Duration::seconds(300)));
  const auto t = sim.metrics().snapshot(sim.now()).transport;
  EXPECT_GT(t.faults_injected[fault_index(FaultKind::kDrop)], 0u);
  EXPECT_GT(t.faults_injected[fault_index(FaultKind::kDuplicate)], 0u);
  EXPECT_GT(t.faults_injected[fault_index(FaultKind::kReset)], 0u);
  EXPECT_GT(t.retransmits, 0u);
  EXPECT_GT(t.dup_suppressed, 0u);
  EXPECT_GT(t.reconnects, 0u);
  EXPECT_GT(t.resync_replayed, 0u);
  EXPECT_GT(t.channel_down, 0u);
}

// Two runs with the same seed and plan are the same run: same faults, same
// recoveries, byte-identical metrics.  This is what makes chaos failures
// reproducible, and it doubles as the E7 guarantee (a null plan leaves the
// legacy path byte-for-byte alone, which the seed suite already pins).
TEST(ChaosSim, SameSeedSamePlanIsByteIdentical) {
  const auto run = [] {
    TokenRingConfig ring;
    ring.rounds = 15;
    FaultSpec spec = mixed_spec();
    spec.reset = 0.03;
    SimulationConfig config;
    config.seed = 21;
    config.faults = make_plan(spec, 21);
    Simulation sim(Topology::ring(4), make_token_ring(4, ring),
                   std::move(config));
    sim.run_for(Duration::seconds(30));
    return sim.metrics().snapshot(sim.now()).to_json();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"faults_injected\""), std::string::npos);
}

// Halting under chaos: the wave completes, every process freezes, the cut
// is consistent, and the verdict matches a fault-free run of the same
// system (completeness, size, per-process halted flags).
TEST(ChaosSim, HaltVerdictMatchesFaultFreeRun) {
  const auto halt_run = [](std::shared_ptr<FaultPlan> faults) {
    GossipConfig gossip;
    HarnessConfig config;
    config.seed = 5;
    config.faults = std::move(faults);
    SimDebugHarness harness(Topology::ring(4), make_gossip(4, gossip),
                            std::move(config));
    harness.sim().run_for(Duration::millis(50));
    harness.session().halt();
    auto wave = harness.session().wait_for_halt(kWait);
    EXPECT_TRUE(wave.has_value());
    if (wave.has_value()) {
      EXPECT_TRUE(wave->complete);
      EXPECT_EQ(wave->state.size(), 4u);
      EXPECT_TRUE(consistent_cut(wave->state));
    }
    for (std::uint32_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(harness.shim(ProcessId(i)).halted());
      EXPECT_EQ(harness.shim(ProcessId(i)).halting().last_halt_id(), 1u);
    }
  };
  halt_run(nullptr);
  FaultSpec spec = mixed_spec();
  spec.reset = 0.02;
  halt_run(make_plan(spec, 5));
}

// Linked-predicate detection under chaos: the breakpoint on p2's token
// event must fire exactly once — a duplicated token would fire it twice, a
// dropped one never.
TEST(ChaosSim, LinkedPredicateVerdictUnchangedByFaults) {
  TokenRingConfig ring;
  ring.rounds = 100;
  // Hold the token until the arm command (which itself crosses the lossy
  // transport and may need retransmits) demonstrably landed on p2 —
  // otherwise the token laps the ring while the arm is in recovery and
  // the exact-one-event assertion races the adversary.
  ring.start_gate = std::make_shared<std::atomic<bool>>(false);
  HarnessConfig config;
  config.seed = 6;
  config.faults = make_plan(mixed_spec(), 6);
  SimDebugHarness harness(Topology::ring(4), make_token_ring(4, ring),
                          std::move(config));
  auto bp = harness.session().set_breakpoint("p2:event(token)");
  ASSERT_TRUE(bp.ok());
  ASSERT_TRUE(harness.sim().run_until_condition(
      [&] { return harness.armed_count() >= 1; },
      harness.sim().now() + Duration::seconds(60)));
  ring.start_gate->store(true);
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  const auto& p2 =
      dynamic_cast<TokenRingProcess&>(harness.shim(ProcessId(2)).user());
  EXPECT_EQ(p2.tokens_seen(), 1u);
  const auto hits = harness.session().hits();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].breakpoint, bp.value());
  EXPECT_EQ(hits[0].process, ProcessId(2));
  EXPECT_TRUE(consistent_cut(wave->state));
}

// C&L snapshot wave under chaos: recorded money is conserved even while
// transfers drop, duplicate and reorder underneath the markers.
TEST(ChaosSim, SnapshotConservesMoneyUnderFaults) {
  BankConfig bank;
  HarnessConfig config;
  config.seed = 8;
  config.faults = make_plan(mixed_spec(), 8);
  SimDebugHarness harness(Topology::complete(3), make_bank(3, bank),
                          std::move(config));
  harness.sim().run_for(Duration::millis(60));
  auto snapshot = harness.session().take_snapshot(kWait);
  ASSERT_TRUE(snapshot.has_value());
  auto total = BankProcess::total_money(snapshot->state);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total.value(), 3 * bank.initial_balance);
}

// ---------------------------------------------------------------------------
// Threaded runtime under chaos
// ---------------------------------------------------------------------------

TEST(ChaosThreads, TokenRingCompletesUnderMixedFaults) {
  constexpr std::uint32_t kRounds = 6;
  TokenRingConfig ring;
  ring.rounds = kRounds;
  ring.hop_delay = Duration::micros(200);
  RuntimeConfig config;
  config.seed = 2;
  config.faults = make_plan(mixed_spec(), 2);
  Runtime runtime(Topology::ring(3), make_token_ring(3, ring), config);
  runtime.start();
  const auto& p0 =
      dynamic_cast<TokenRingProcess&>(runtime.process(ProcessId(0)));
  EXPECT_TRUE(Runtime::wait_until(
      [&] { return p0.tokens_seen() >= kRounds; }, kWait));
  runtime.shutdown();
  const auto snap = runtime.metrics().snapshot(runtime.now());
  EXPECT_EQ(snap.totals.messages_delivered, snap.totals.messages_sent);
  std::uint64_t injected = 0;
  for (const std::uint64_t n : snap.transport.faults_injected) injected += n;
  EXPECT_GT(injected, 0u);
}

TEST(ChaosThreads, HaltingConsistentUnderMixedFaults) {
  GossipConfig gossip;
  gossip.send_interval = Duration::millis(1);
  HarnessConfig config;
  config.seed = 4;
  FaultSpec spec = mixed_spec();
  spec.reset = 0.02;
  config.faults = make_plan(spec, 4);
  RuntimeDebugHarness harness(Topology::ring(3), make_gossip(3, gossip),
                              std::move(config));
  harness.start();
  const auto& p0 =
      dynamic_cast<GossipProcess&>(harness.shim(ProcessId(0)).user());
  ASSERT_TRUE(Runtime::wait_until([&] { return p0.sent() >= 5; }, kWait));
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(wave->complete);
  EXPECT_EQ(wave->state.size(), 3u);
  EXPECT_TRUE(consistent_cut(wave->state));
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(harness.shim(ProcessId(i)).halted());
  }
  harness.shutdown();
}

// ---------------------------------------------------------------------------
// TCP runtime under chaos
// ---------------------------------------------------------------------------

// TcpHost (the session adapter) now lives in debugger/harness.hpp, shared
// with the tier harness.

// Emits `count` numbered messages from its on_start burst.
class Burst final : public Process {
 public:
  explicit Burst(std::uint32_t count) : count_(count) {}
  void on_start(ProcessContext& ctx) override {
    for (std::uint32_t i = 0; i < count_; ++i) {
      for (const ChannelId c : ctx.topology().out_channels(ctx.self())) {
        ByteWriter writer;
        writer.u32(i);
        ctx.send(c, Message::application(std::move(writer).take()));
      }
    }
  }
  void on_message(ProcessContext&, ChannelId, Message) override {}

 private:
  std::uint32_t count_;
};

// Records every payload it sees, in arrival order.
class Recorder final : public Process {
 public:
  void on_message(ProcessContext&, ChannelId, Message message) override {
    ByteReader reader(message.payload);
    const auto value = reader.u32();
    if (value.ok()) {
      std::lock_guard<std::mutex> guard{mutex_};
      values_.push_back(value.value());
    }
    received_.fetch_add(1, std::memory_order_acq_rel);
  }
  [[nodiscard]] std::uint32_t received() const {
    return received_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::vector<std::uint32_t> values() {
    std::lock_guard<std::mutex> guard{mutex_};
    return values_;
  }

 private:
  std::atomic<std::uint32_t> received_{0};
  std::mutex mutex_;
  std::vector<std::uint32_t> values_;
};

// The §2.1 axioms, end to end over real sockets: 60 messages cross a lossy
// channel and arrive exactly once, in exactly the order sent.
TEST(ChaosTcp, ExactlyOnceFifoUnderDropDupReorder) {
  constexpr std::uint32_t kCount = 60;
  FaultSpec spec = mixed_spec();
  spec.reset = 0.03;
  TcpRuntimeConfig config;
  config.faults = make_plan(spec, 13);
  std::vector<ProcessPtr> processes;
  processes.push_back(std::make_unique<Burst>(kCount));
  auto recorder = std::make_unique<Recorder>();
  Recorder* recorder_ptr = recorder.get();
  processes.push_back(std::move(recorder));
  TcpRuntime runtime(Topology::ring(2), std::move(processes), config);
  ASSERT_TRUE(runtime.start());
  EXPECT_TRUE(TcpRuntime::wait_until(
      [&] { return recorder_ptr->received() >= kCount; }, kWait));
  runtime.shutdown();
  const auto values = recorder_ptr->values();
  ASSERT_EQ(values.size(), kCount);  // nothing lost, nothing duplicated
  for (std::uint32_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(values[i], i) << "order broken at " << i;  // FIFO
  }
  const auto t = runtime.metrics().snapshot(runtime.now()).transport;
  std::uint64_t injected = 0;
  for (const std::uint64_t n : t.faults_injected) injected += n;
  EXPECT_GT(injected, 0u);
  EXPECT_GT(t.retransmits, 0u);
}

// Halting over sockets while connections reset underneath: the wave still
// completes on a consistent cut, and the transport demonstrably went down
// and came back (reconnect + resync counters).
TEST(ChaosTcp, HaltingConsistentAcrossReconnects) {
  GossipConfig gossip;
  gossip.send_interval = Duration::millis(1);
  FaultSpec spec = mixed_spec();
  spec.reset = 0.04;
  TcpRuntimeConfig config;
  config.faults = make_plan(spec, 17);

  Topology topology = Topology::ring(3).with_debugger();
  std::vector<ProcessPtr> processes =
      wrap_in_shims(topology, make_gossip(3, gossip));
  auto debugger = std::make_unique<DebuggerProcess>();
  DebuggerProcess* debugger_ptr = debugger.get();
  processes.push_back(std::move(debugger));

  TcpRuntime runtime(topology, std::move(processes), config);
  ASSERT_TRUE(runtime.start());
  TcpHost host(runtime);
  DebuggerSession session(host, *debugger_ptr, topology.debugger_id());

  // Let gossip flow until at least one injected reset has forced a full
  // reconnect round-trip, so the halt below crosses a healed channel.
  ASSERT_TRUE(TcpRuntime::wait_until(
      [&] {
        return runtime.metrics().snapshot(runtime.now()).transport
                   .reconnects >= 1;
      },
      kWait));
  session.halt();
  auto wave = session.wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(wave->complete);
  EXPECT_EQ(wave->state.size(), 3u);
  EXPECT_TRUE(consistent_cut(wave->state));
  runtime.shutdown();

  const auto t = runtime.metrics().snapshot(runtime.now()).transport;
  EXPECT_GT(t.faults_injected[fault_index(FaultKind::kReset)], 0u);
  EXPECT_GT(t.reconnects, 0u);
  EXPECT_GT(t.channel_down, 0u);
}

}  // namespace
}  // namespace ddbg
