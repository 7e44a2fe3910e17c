// Unit tests for message wire encoding and the command protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/commands.hpp"
#include "net/message.hpp"
#include "tests/test_util.hpp"

namespace ddbg {
namespace {

Message round_trip(const Message& m) {
  ByteWriter writer;
  m.encode(writer);
  ByteReader reader(writer.buffer());
  auto decoded = Message::decode(reader);
  EXPECT_TRUE(decoded.ok());
  EXPECT_TRUE(reader.exhausted());
  return std::move(decoded).value();
}

TEST(Message, ApplicationRoundTrip) {
  Message m = Message::application(Bytes{1, 2, 3});
  m.message_id = 99;
  m.lamport = 7;
  const Message d = round_trip(m);
  EXPECT_EQ(d.kind, MessageKind::kApplication);
  EXPECT_EQ(d.message_id, 99u);
  EXPECT_EQ(d.lamport, 7u);
  EXPECT_EQ(d.payload, (Bytes{1, 2, 3}));
  EXPECT_FALSE(d.halt.has_value());
}

TEST(Message, ApplicationWithVectorClock) {
  Message m = Message::application(Bytes{9});
  m.vclock = VectorClock(3);
  m.vclock.tick(ProcessId(1));
  const Message d = round_trip(m);
  EXPECT_EQ(d.vclock.at(ProcessId(1)), 1u);
}

TEST(Message, HaltMarkerRoundTrip) {
  Message m = Message::halt_marker(HaltId(5), {ProcessId(2), ProcessId(0)});
  const Message d = round_trip(m);
  EXPECT_EQ(d.kind, MessageKind::kHaltMarker);
  ASSERT_TRUE(d.halt.has_value());
  EXPECT_EQ(d.halt->halt_id, HaltId(5));
  ASSERT_EQ(d.halt->halt_path.size(), 2u);
  EXPECT_EQ(d.halt->halt_path[0], ProcessId(2));
  EXPECT_EQ(d.halt->halt_path[1], ProcessId(0));
}

TEST(Message, SnapshotMarkerRoundTrip) {
  const Message d = round_trip(Message::snapshot_marker(17));
  EXPECT_EQ(d.kind, MessageKind::kSnapshotMarker);
  ASSERT_TRUE(d.snapshot.has_value());
  EXPECT_EQ(d.snapshot->snapshot_id, 17u);
}

TEST(Message, PredicateMarkerRoundTrip) {
  const Message d = round_trip(
      Message::predicate_marker(BreakpointId(3), Bytes{0xaa, 0xbb}, 2));
  EXPECT_EQ(d.kind, MessageKind::kPredicateMarker);
  ASSERT_TRUE(d.predicate.has_value());
  EXPECT_EQ(d.predicate->breakpoint, BreakpointId(3));
  EXPECT_EQ(d.predicate->encoded_predicate, (Bytes{0xaa, 0xbb}));
  EXPECT_EQ(d.predicate->stage_index, 2u);
}

TEST(Message, ControlRoundTrip) {
  const Message d = round_trip(Message::control(Bytes{5, 6}));
  EXPECT_EQ(d.kind, MessageKind::kControl);
  EXPECT_EQ(d.payload, (Bytes{5, 6}));
}

TEST(Message, DecodeRejectsGarbageKind) {
  Bytes data{0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  ByteReader reader(data);
  EXPECT_FALSE(Message::decode(reader).ok());
}

TEST(Message, DecodeRejectsMarkerWithoutPayload) {
  // A peer could send a marker kind with its payload flag cleared; the
  // shim would then assert on the missing payload.
  for (const MessageKind kind :
       {MessageKind::kHaltMarker, MessageKind::kSnapshotMarker,
        MessageKind::kPredicateMarker}) {
    Message m;
    m.kind = kind;
    ByteWriter writer;
    m.encode(writer);
    ByteReader reader(writer.buffer());
    EXPECT_FALSE(Message::decode(reader).ok()) << to_string(kind);
  }
}

TEST(Message, EncodedSizeGrowsWithPayload) {
  Message small = Message::application(Bytes(4, 0));
  Message large = Message::application(Bytes(400, 0));
  EXPECT_LT(small.encoded_size(), large.encoded_size());
  EXPECT_GE(large.encoded_size(), 400u);
}

TEST(Message, EncodedSizeEqualsEncodedBytes) {
  // 0 and 2^(7k) for k = 1..9: varints of every length from 1 to 10 bytes.
  std::vector<std::uint64_t> values{0};
  for (int k = 1; k <= 9; ++k) values.push_back(std::uint64_t{1} << (7 * k));
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::uint64_t v = values[i];
    ByteWriter varint;
    varint.varint(v);
    EXPECT_EQ(varint.size(), i + 1) << v;
    EXPECT_EQ(varint_size(v), i + 1) << v;
    if (v > 0) {
      EXPECT_EQ(varint_size(v - 1), i) << v;
    }
  }
  const auto v32 = [](std::uint64_t v) {
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(v, UINT32_MAX));
  };
  for (const std::uint64_t v : values) {
    // Payload lengths cross the 1/2/3-byte length-varint boundaries.
    for (const std::size_t payload : {0u, 127u, 128u, 16384u}) {
      // Every subset of the optional fields: vclock, halt, snapshot,
      // predicate.
      for (int mask = 0; mask < 16; ++mask) {
        Message m = Message::application(Bytes(payload, 0x5a));
        m.message_id = v;
        m.lamport = v;
        if (mask & 1) {
          ByteWriter clock;
          clock.varint(3);
          clock.varint(v);
          clock.varint(1);
          clock.varint(v);
          ByteReader reader(clock.buffer());
          m.vclock = VectorClock::decode(reader).value();
        }
        if (mask & 2) {
          m.halt = HaltMarkerData{HaltId(v), {ProcessId(v32(v)), ProcessId(0)}};
        }
        if (mask & 4) m.snapshot = SnapshotMarkerData{v};
        if (mask & 8) {
          m.predicate = PredicateMarkerData{BreakpointId(v32(v)),
                                            Bytes(payload, 0xa5), v32(v),
                                            true};
        }
        ByteWriter writer;
        m.encode(writer);
        EXPECT_EQ(m.encoded_size(), writer.size())
            << "v=" << v << " payload=" << payload << " mask=" << mask;
      }
    }
  }
}

TEST(Message, DescribeIsInformative) {
  Message m = Message::halt_marker(HaltId(4), {ProcessId(1)});
  const std::string text = m.describe();
  EXPECT_NE(text.find("halt_marker"), std::string::npos);
  EXPECT_NE(text.find("halt_id=4"), std::string::npos);
  EXPECT_NE(text.find("p1"), std::string::npos);
}

// ---- Command protocol ----

Command command_round_trip(const Command& cmd) {
  auto decoded = Command::decode(cmd.encode());
  EXPECT_TRUE(decoded.ok());
  return std::move(decoded).value();
}

TEST(Command, ArmPredicateRoundTrip) {
  const Command d = command_round_trip(
      Command::arm_predicate(BreakpointId(7), Bytes{1, 2}, 3));
  EXPECT_EQ(d.kind, CommandKind::kArmPredicate);
  EXPECT_EQ(d.breakpoint, BreakpointId(7));
  EXPECT_EQ(d.predicate, (Bytes{1, 2}));
  EXPECT_EQ(d.stage_index, 3u);
}

TEST(Command, ResumeRoundTrip) {
  const Command d = command_round_trip(Command::resume(12));
  EXPECT_EQ(d.kind, CommandKind::kResume);
  EXPECT_EQ(d.wave_id, 12u);
}

TEST(Command, HaltReportRoundTrip) {
  // A user's own snapshot.
  ProcessSnapshot snapshot;
  snapshot.process = ProcessId(2);
  snapshot.state = Bytes{9, 8, 7};
  snapshot.description = "bal=5";
  snapshot.halt_path = {ProcessId(1), ProcessId(0)};
  snapshot.in_channels.push_back(
      ChannelState{ChannelId(4), {Bytes{1}, Bytes{2, 2}}});
  snapshot.vclock = VectorClock(3);
  snapshot.vclock.tick(ProcessId(2));
  snapshot.captured_at = TimePoint{12345};

  const Command d =
      command_round_trip(Command::halt_report(ProcessId(2), 6, {snapshot}));
  EXPECT_EQ(d.kind, CommandKind::kHaltReport);
  EXPECT_EQ(d.reporter, ProcessId(2));
  EXPECT_EQ(d.wave_id, 6u);
  ASSERT_EQ(d.reports.size(), 1u);
  EXPECT_EQ(d.reports[0].process, ProcessId(2));
  const ProcessSnapshot r = d.snapshot(0);
  EXPECT_EQ(r.state, (Bytes{9, 8, 7}));
  EXPECT_EQ(r.description, "bal=5");
  ASSERT_EQ(r.halt_path.size(), 2u);
  ASSERT_EQ(r.in_channels.size(), 1u);
  EXPECT_EQ(r.in_channels[0].channel, ChannelId(4));
  ASSERT_EQ(r.in_channels[0].messages.size(), 2u);
  EXPECT_EQ(r.in_channels[0].messages[1], (Bytes{2, 2}));
  EXPECT_EQ(r.vclock.at(ProcessId(2)), 1u);
  EXPECT_EQ(r.captured_at.ns, 12345);
}

TEST(Command, AggregatedHaltReportRoundTrip) {
  // An aggregator's merged subtree fragment, under the same kind as a
  // user's own halt report.
  std::vector<ProcessSnapshot> snapshots(2);
  snapshots[0].process = ProcessId(3);
  snapshots[0].state = Bytes{1, 2, 3};
  snapshots[0].halt_path = {ProcessId(9), ProcessId(8)};
  snapshots[0].in_channels.push_back(
      ChannelState{ChannelId(5), {Bytes{4}, Bytes{5, 5}}});
  snapshots[1].process = ProcessId(4);
  snapshots[1].description = "idle";

  const Command merged = command_round_trip(testing::report_of(
      CommandKind::kHaltReport, ProcessId(10), 7, snapshots));
  EXPECT_EQ(merged.kind, CommandKind::kHaltReport);
  EXPECT_EQ(merged.reporter, ProcessId(10));
  EXPECT_EQ(merged.wave_id, 7u);
  ASSERT_EQ(merged.reports.size(), 2u);
  EXPECT_EQ(merged.reports[0].process, ProcessId(3));
  const ProcessSnapshot first = merged.snapshot(0);
  EXPECT_EQ(first.state, (Bytes{1, 2, 3}));
  ASSERT_EQ(first.halt_path.size(), 2u);
  EXPECT_EQ(first.halt_path[1], ProcessId(8));
  ASSERT_EQ(first.in_channels.size(), 1u);
  EXPECT_EQ(first.in_channels[0].messages[1], (Bytes{5, 5}));
  EXPECT_EQ(merged.reports[1].process, ProcessId(4));
  EXPECT_EQ(merged.snapshot(1).description, "idle");
  // The records are the snapshots' own encodings, back to back.
  ByteWriter writer;
  for (const ProcessSnapshot& snapshot : snapshots) snapshot.encode(writer);
  EXPECT_EQ(merged.records, writer.buffer());
}

TEST(Command, AggregatedReportEmptyRoundTrip) {
  // An empty list still round-trips (a tier node drops it as a fault).
  const Command empty = command_round_trip(
      testing::report_of(CommandKind::kHaltReport, ProcessId(1), 1, {}));
  EXPECT_EQ(empty.kind, CommandKind::kHaltReport);
  EXPECT_TRUE(empty.reports.empty());
  EXPECT_TRUE(empty.records.empty());
}

TEST(Command, SnapshotReportRoundTrip) {
  std::vector<ProcessSnapshot> snapshots(1);
  snapshots[0].process = ProcessId(0);
  snapshots[0].state = Bytes{6};
  const Command d = command_round_trip(
      Command::snapshot_report(ProcessId(0), 2, snapshots[0]));
  EXPECT_EQ(d.kind, CommandKind::kSnapshotReport);
  EXPECT_EQ(d.reporter, ProcessId(0));
  EXPECT_EQ(d.wave_id, 2u);
  ASSERT_EQ(d.reports.size(), 1u);
  EXPECT_EQ(d.snapshot(0).state, (Bytes{6}));

  // A merged fragment from aggregator p5.
  snapshots.resize(3);
  snapshots[1].process = ProcessId(1);
  snapshots[2].process = ProcessId(2);
  snapshots[2].state = Bytes{7, 7};
  const Command merged = command_round_trip(testing::report_of(
      CommandKind::kSnapshotReport, ProcessId(5), 2, snapshots));
  EXPECT_EQ(merged.reporter, ProcessId(5));
  ASSERT_EQ(merged.reports.size(), 3u);
  EXPECT_EQ(merged.reports[2].process, ProcessId(2));
  EXPECT_EQ(merged.snapshot(2).state, (Bytes{7, 7}));
}

TEST(Command, RouteMarkerRoundTrip) {
  const Command d = command_round_trip(Command::route_marker(
      ProcessId(1), ProcessId(4), BreakpointId(2), Bytes{3}, 1));
  EXPECT_EQ(d.kind, CommandKind::kRouteMarker);
  EXPECT_EQ(d.reporter, ProcessId(1));
  EXPECT_EQ(d.target, ProcessId(4));
}

TEST(Command, BreakpointHitRoundTrip) {
  const Command d = command_round_trip(
      Command::breakpoint_hit(ProcessId(0), BreakpointId(9), "p0:event(x)"));
  EXPECT_EQ(d.kind, CommandKind::kBreakpointHit);
  EXPECT_EQ(d.text, "p0:event(x)");
}

TEST(Command, NotifySatisfiedRoundTrip) {
  const Command d = command_round_trip(
      Command::notify_satisfied(ProcessId(3), BreakpointId(1), 2));
  EXPECT_EQ(d.kind, CommandKind::kNotifySatisfied);
  EXPECT_EQ(d.stage_index, 2u);
}

TEST(Command, DownwardCommandCarriesItsTarget) {
  Command arm = Command::arm_predicate(BreakpointId(2), Bytes{7, 7}, 0);
  EXPECT_FALSE(arm.target.valid());  // every user until a target is named
  arm.target = ProcessId(6);
  const Command d = command_round_trip(arm);
  EXPECT_EQ(d.kind, CommandKind::kArmPredicate);
  EXPECT_EQ(d.target, ProcessId(6));
  EXPECT_TRUE(is_downward(d.kind));
  EXPECT_FALSE(is_downward(CommandKind::kHaltReport));
}

TEST(Command, DecodeRejectsTruncation) {
  Bytes encoded = Command::resume(3).encode();
  encoded.resize(encoded.size() / 2);
  EXPECT_FALSE(Command::decode(encoded).ok());
}

TEST(Command, DecodeRejectsTrailingBytes) {
  Bytes encoded = Command::resume(3).encode();
  encoded.push_back(0);
  EXPECT_FALSE(Command::decode(encoded).ok());
}

TEST(GlobalState, EquivalenceIgnoresMetadata) {
  ProcessSnapshot a;
  a.process = ProcessId(0);
  a.state = Bytes{1};
  a.halt_path = {ProcessId(3)};
  a.captured_at = TimePoint{1};
  ProcessSnapshot b = a;
  b.halt_path = {};
  b.captured_at = TimePoint{999};

  GlobalState s1(HaltId(1));
  s1.add(a);
  GlobalState s2(HaltId(2));
  s2.add(b);
  EXPECT_TRUE(s1.equivalent(s2));
}

TEST(GlobalState, DifferenceInStateBytesDetected) {
  ProcessSnapshot a;
  a.process = ProcessId(0);
  a.state = Bytes{1};
  ProcessSnapshot b = a;
  b.state = Bytes{2};
  GlobalState s1{HaltId(1)};
  s1.add(a);
  GlobalState s2{HaltId(1)};
  s2.add(b);
  EXPECT_FALSE(s1.equivalent(s2));
  EXPECT_TRUE(s1.first_difference(s2).has_value());
}

TEST(GlobalState, DifferenceInChannelContentsDetected) {
  ProcessSnapshot a;
  a.process = ProcessId(0);
  a.in_channels.push_back(ChannelState{ChannelId(0), {Bytes{1}}});
  ProcessSnapshot b;
  b.process = ProcessId(0);
  b.in_channels.push_back(ChannelState{ChannelId(0), {}});
  GlobalState s1{HaltId(1)};
  s1.add(a);
  GlobalState s2{HaltId(1)};
  s2.add(b);
  EXPECT_FALSE(s1.equivalent(s2));
}

TEST(GlobalState, ChannelOrderNormalized) {
  ProcessSnapshot a;
  a.process = ProcessId(0);
  a.in_channels.push_back(ChannelState{ChannelId(1), {Bytes{1}}});
  a.in_channels.push_back(ChannelState{ChannelId(0), {}});
  ProcessSnapshot b;
  b.process = ProcessId(0);
  b.in_channels.push_back(ChannelState{ChannelId(0), {}});
  b.in_channels.push_back(ChannelState{ChannelId(1), {Bytes{1}}});
  GlobalState s1{HaltId(1)};
  s1.add(a);
  GlobalState s2{HaltId(1)};
  s2.add(b);
  EXPECT_TRUE(s1.equivalent(s2));
  EXPECT_EQ(s1.total_channel_messages(), 1u);
}

}  // namespace
}  // namespace ddbg
