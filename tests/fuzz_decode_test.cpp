// Decode robustness: random and mutated byte strings must never crash the
// decoders — they either parse or return a kParseError.  (Wire input is
// attacker-ish data by definition: another machine produced it.)
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "core/commands.hpp"
#include "core/predicate.hpp"
#include "debugger/aggregator.hpp"
#include "debugger/session_protocol.hpp"
#include "net/framing.hpp"
#include "net/message.hpp"
#include "net/topology.hpp"
#include "replay/replay_log.hpp"
#include "tests/test_util.hpp"

namespace ddbg {
namespace {

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes bytes(rng.next_below(max_len + 1));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
  return bytes;
}

class FuzzDecode : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzDecode, RandomBytesNeverCrashMessageDecode) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const Bytes bytes = random_bytes(rng, 64);
    ByteReader reader(bytes);
    auto result = Message::decode(reader);
    if (result.ok()) {
      // Whatever decoded must re-encode without crashing, to exactly the
      // computed wire size.
      ByteWriter writer;
      result.value().encode(writer);
      EXPECT_EQ(result.value().encoded_size(), writer.size());
    }
  }
}

TEST_P(FuzzDecode, RandomBytesNeverCrashCommandDecode) {
  Rng rng(GetParam() ^ 0x1111);
  for (int i = 0; i < 2000; ++i) {
    const Bytes bytes = random_bytes(rng, 96);
    auto result = Command::decode(bytes);
    if (result.ok()) {
      (void)result.value().encode();
    }
  }
}

TEST_P(FuzzDecode, RandomBytesNeverCrashPredicateDecode) {
  Rng rng(GetParam() ^ 0x2222);
  for (int i = 0; i < 2000; ++i) {
    const Bytes bytes = random_bytes(rng, 64);
    auto lp = LinkedPredicate::decode_from_bytes(bytes);
    if (lp.ok()) (void)lp.value().describe();
    ByteReader reader(bytes);
    auto spec = BreakpointSpec::decode(reader);
    if (spec.ok()) (void)spec.value().describe();
  }
}

// One valid message of every kind, each with the optional parts its kind
// can carry: the wire format these pin is what every substrate's byte
// accounting and the TCP frames rely on.
std::vector<Message> message_corpus() {
  Message app = Message::application(Bytes{1, 2, 3, 4, 5});
  app.message_id = 0x0000020000000011ULL;
  app.lamport = 300;
  app.vclock = VectorClock(4);
  app.vclock.tick(ProcessId(3));
  app.vclock.tick(ProcessId(1));
  Message halt = Message::halt_marker(
      HaltId(7), {ProcessId(1), ProcessId(2), ProcessId(200)});
  halt.message_id = (1ULL << 63) | 5;
  Message snapshot = Message::snapshot_marker(1000);
  snapshot.message_id = 9;
  Message predicate =
      Message::predicate_marker(BreakpointId(3), Bytes{0xaa, 0xbb, 0xcc}, 2,
                                /*monitor=*/true);
  predicate.message_id = 12;
  Message control = Message::control(Command::resume(4).encode());
  control.message_id = (1ULL << 63) | (3ULL << 32) | 1;
  return {app, halt, snapshot, predicate, control};
}

// Every field of a message is required, so no proper prefix decodes.
TEST_P(FuzzDecode, TruncationsOfValidMessagesFailCleanly) {
  const std::vector<Message> corpus = message_corpus();
  ASSERT_EQ(corpus.size(),
            static_cast<std::size_t>(MessageKind::kControl) + 1);
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    const Message& valid = corpus[k];
    ASSERT_EQ(valid.kind, static_cast<MessageKind>(k));
    ByteWriter writer;
    valid.encode(writer);
    const Bytes& encoded = writer.buffer();
    ASSERT_EQ(valid.encoded_size(), encoded.size()) << to_string(valid.kind);
    ByteReader whole(encoded);
    auto clean = Message::decode(whole);
    ASSERT_TRUE(clean.ok()) << to_string(valid.kind);
    EXPECT_TRUE(whole.exhausted());
    ByteWriter again;
    clean.value().encode(again);
    EXPECT_EQ(again.buffer(), encoded) << to_string(valid.kind);
    for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
      const Bytes truncated(
          encoded.begin(), encoded.begin() + static_cast<std::ptrdiff_t>(cut));
      ByteReader reader(truncated);
      auto result = Message::decode(reader);
      ASSERT_FALSE(result.ok()) << to_string(valid.kind) << " cut=" << cut;
      EXPECT_EQ(result.error().code(), ErrorCode::kParseError);
    }
  }
}

TEST_P(FuzzDecode, BitFlipsOfValidMessagesFailCleanlyOrReencode) {
  Rng rng(GetParam() ^ 0x3333);
  for (const Message& valid : message_corpus()) {
    ByteWriter writer;
    valid.encode(writer);
    const Bytes& encoded = writer.buffer();
    for (int i = 0; i < 500; ++i) {
      Bytes mutated = encoded;
      const std::size_t pos = rng.next_below(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
      ByteReader reader(mutated);
      auto result = Message::decode(reader);
      if (!result.ok()) {
        EXPECT_EQ(result.error().code(), ErrorCode::kParseError);
        continue;
      }
      // Whatever decoded re-encodes to exactly its computed wire size.
      ByteWriter reencoded;
      result.value().encode(reencoded);
      EXPECT_EQ(result.value().encoded_size(), reencoded.size())
          << to_string(valid.kind) << " flip at " << pos;
    }
  }
}

// One valid command of every kind, including a multi-snapshot report and a
// downward command that names its target.
std::vector<Command> command_corpus() {
  ProcessSnapshot snapshot;
  snapshot.process = ProcessId(1);
  snapshot.state = Bytes{9, 9};
  snapshot.in_channels.push_back(ChannelState{ChannelId(0), {Bytes{1}}});
  snapshot.halt_path = {ProcessId(4), ProcessId(0)};
  ProcessSnapshot other;
  other.process = ProcessId(2);
  other.description = "idle";

  Command targeted = Command::arm_predicate(BreakpointId(2), Bytes{1, 2}, 1);
  targeted.target = ProcessId(3);
  Command notify = Command::arm_notify(BreakpointId(3), Bytes{5}, 1);
  notify.target = ProcessId(1);
  Command query = Command::query_state();
  query.target = ProcessId(2);
  return {
      targeted,
      notify,
      Command::disarm(BreakpointId(2)),
      Command::resume(4),
      query,
      Command::halt_report(ProcessId(1), 3, snapshot),
      testing::report_of(CommandKind::kSnapshotReport, ProcessId(5), 2,
                         {snapshot, other}),
      Command::breakpoint_hit(ProcessId(1), BreakpointId(2), "p1:sent>=2"),
      Command::notify_satisfied(ProcessId(1), BreakpointId(3), 1),
      Command::route_marker(ProcessId(1), ProcessId(3), BreakpointId(2),
                            Bytes{7}, 1, true),
      Command::state_report(ProcessId(2), other),
  };
}

TEST_P(FuzzDecode, BitFlipsOfValidCommandsFailCleanlyOrRoundTrip) {
  Rng rng(GetParam() ^ 0x4444);
  const std::vector<Command> corpus = command_corpus();
  ASSERT_EQ(corpus.size(),
            static_cast<std::size_t>(CommandKind::kStateReport) + 1);
  for (const Command& command : corpus) {
    const Bytes encoded = command.encode();
    auto clean = Command::decode(encoded);
    ASSERT_TRUE(clean.ok()) << to_string(command.kind);
    EXPECT_EQ(clean.value().encode(), encoded);
    for (int i = 0; i < 500; ++i) {
      Bytes mutated = encoded;
      const std::size_t pos = rng.next_below(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
      auto result = Command::decode(mutated);
      if (!result.ok()) continue;
      // Whatever decoded re-encodes to bytes that decode to the same thing.
      const Bytes reencoded = result.value().encode();
      auto again = Command::decode(reencoded);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again.value().encode(), reencoded);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecode,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ---- the snapshot record scan ----
//
// Reports travel up the debugger tier as encoded ProcessSnapshot records
// that ProcessSnapshot::scan validates and no tier node decodes, so scan
// must accept exactly what decode accepts: a record scan lets through is
// one d will decode when a session asks for the wave.

// One snapshot of every shape the codec writes: empty, the command
// corpus's two, and one with multi-byte varints and lengths everywhere.
std::vector<ProcessSnapshot> snapshot_corpus() {
  std::vector<ProcessSnapshot> corpus(4);
  corpus[1].process = ProcessId(1);
  corpus[1].state = Bytes{9, 9};
  corpus[1].in_channels.push_back(ChannelState{ChannelId(0), {Bytes{1}}});
  corpus[1].halt_path = {ProcessId(4), ProcessId(0)};
  corpus[2].process = ProcessId(2);
  corpus[2].description = "idle";
  ProcessSnapshot& heavy = corpus[3];
  heavy.process = ProcessId(70000);
  heavy.state = Bytes(200, 0x5a);
  heavy.description = std::string(130, 'd');
  heavy.in_channels.push_back(
      ChannelState{ChannelId(300), {Bytes(129, 1), Bytes{}, Bytes{2, 3}}});
  heavy.in_channels.push_back(ChannelState{ChannelId(5), {}});
  heavy.halt_path = {ProcessId(1), ProcessId(100000), ProcessId(2)};
  heavy.vclock = VectorClock(3);
  for (int i = 0; i < 300; ++i) heavy.vclock.tick(ProcessId(1));
  heavy.captured_at = TimePoint{-123456789};
  return corpus;
}

// scan and decode give the same verdict on `data`, and on success the same
// process id and record length.
void expect_scan_agrees(std::span<const std::uint8_t> data,
                        const std::string& what) {
  ByteReader scan_reader(data);
  ByteReader decode_reader(data);
  auto scanned = ProcessSnapshot::scan(scan_reader);
  auto decoded = ProcessSnapshot::decode(decode_reader);
  ASSERT_EQ(scanned.ok(), decoded.ok()) << what;
  if (!scanned.ok()) {
    EXPECT_EQ(scanned.error().code(), ErrorCode::kParseError) << what;
    return;
  }
  EXPECT_EQ(scanned.value(), decoded.value().process) << what;
  EXPECT_EQ(scan_reader.position(), decode_reader.position()) << what;
}

Bytes encode_record(const ProcessSnapshot& snapshot) {
  ByteWriter writer;
  snapshot.encode(writer);
  return std::move(writer).take();
}

class RecordScan : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecordScan, AgreesWithDecodeOnEveryTruncation) {
  for (const ProcessSnapshot& snapshot : snapshot_corpus()) {
    // A trailing byte must not be part of the record.
    Bytes encoded = encode_record(snapshot);
    encoded.push_back(static_cast<std::uint8_t>(GetParam()));
    for (std::size_t cut = 0; cut <= encoded.size(); ++cut) {
      expect_scan_agrees(std::span(encoded).first(cut),
                         to_string(snapshot.process) + " cut=" +
                             std::to_string(cut));
    }
  }
}

TEST_P(RecordScan, AgreesWithDecodeOnBitFlips) {
  Rng rng(GetParam() ^ 0x5555);
  for (const ProcessSnapshot& snapshot : snapshot_corpus()) {
    const Bytes encoded = encode_record(snapshot);
    for (int i = 0; i < 500; ++i) {
      Bytes mutated = encoded;
      const std::size_t pos = rng.next_below(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
      expect_scan_agrees(mutated,
                         to_string(snapshot.process) + " flip at " +
                             std::to_string(pos));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordScan, ::testing::Values(1u, 2u, 3u, 4u));

// The splice keeps what decode -> std::map -> re-encode did with odd
// reports: a user's later record replaces its earlier one (within a report
// or across two), and a report naming a user outside the sending child's
// range is dropped whole.  The leaf aggregator covers users [0, 4) of a
// fanout-4 tier.
TEST(RecordSplice, RepeatedOrForeignUsersHandledAsByTheMap) {
  const Topology topology = Topology::ring(16).with_debugger_tree(4);
  const ProcessId leaf = topology.tier_parent(ProcessId(0));
  testing::FakeContext ctx{leaf, &topology};
  AggregatorProcess aggregator;
  aggregator.on_start(ctx);
  // The wave's marker comes from the parent first; drop what it forwards.
  aggregator.on_message(
      ctx, topology.control_to(leaf),
      Message::halt_marker(HaltId(1), {topology.tier_parent(leaf)}));
  ctx.sent.clear();
  auto snapshot = [](std::uint32_t p, std::uint8_t version) {
    ProcessSnapshot s;
    s.process = ProcessId(p);
    s.state = Bytes(version, version);
    return s;
  };
  GlobalState expected{HaltId(1)};  // the map the old merge built
  auto send = [&](std::uint32_t from, std::vector<ProcessSnapshot> reports,
                  bool accepted) {
    const Command command = testing::report_of(
        CommandKind::kHaltReport, ProcessId(from), 1, reports);
    aggregator.on_message(ctx, topology.control_from(ProcessId(from)),
                          Message::control(command.encode()));
    if (!accepted) return;
    for (ProcessSnapshot& s : reports) expected.add(std::move(s));
  };
  send(0, {snapshot(0, 1), snapshot(0, 2)}, true);  // repeat in one report
  send(1, {snapshot(1, 3)}, true);
  send(1, {snapshot(1, 4)}, true);                  // repeat across two
  send(2, {snapshot(2, 5), snapshot(6, 5)}, false); // p6 is not p2's
  send(2, {snapshot(3, 5)}, false);                 // nor is p3
  send(3, {snapshot(3, 6)}, true);
  EXPECT_TRUE(ctx.sent.empty()) << "p2 has not reported";
  send(2, {snapshot(2, 7)}, true);
  ASSERT_EQ(ctx.sent.size(), 1u);
  auto up = Command::decode(ctx.sent[0].second.payload);
  ASSERT_TRUE(up.ok());
  ASSERT_EQ(up.value().reports.size(), 4u);
  const Bytes with_count = expected.encode_snapshots();
  EXPECT_EQ(up.value().records,
            Bytes(with_count.begin() + 1, with_count.end()));
}

// Boundary-value corpus: crafted inputs at the edges of the varint and
// length-prefix encodings.  These target the exact overflow modes random
// fuzzing is unlikely to hit: length prefixes near UINT64_MAX (where
// `pos_ + len` wraps) and 10-byte varints whose spare bits do not fit in
// 64 bits.

// A varint-encoded length claiming nearly UINT64_MAX bytes must fail the
// bounds check, not wrap it.
TEST(DecodeBoundary, HugeLengthPrefixFailsStr) {
  for (const std::uint64_t len :
       {~0ULL, ~0ULL - 1, ~0ULL - 7, 1ULL << 63, (1ULL << 32) + 1}) {
    ByteWriter writer;
    writer.varint(len);
    writer.u8('x');  // a few real bytes after the lying prefix
    writer.u8('y');
    const Bytes encoded = std::move(writer).take();
    ByteReader reader(encoded);
    auto result = reader.str();
    EXPECT_FALSE(result.ok()) << "len=" << len;
  }
}

TEST(DecodeBoundary, HugeLengthPrefixFailsBytes) {
  for (const std::uint64_t len : {~0ULL, ~0ULL - 3, 1ULL << 62}) {
    ByteWriter writer;
    writer.varint(len);
    writer.u8(0xaa);
    const Bytes encoded = std::move(writer).take();
    ByteReader reader(encoded);
    auto result = reader.bytes();
    EXPECT_FALSE(result.ok()) << "len=" << len;
  }
}

// The length that would make `pos_ + len` exactly wrap to a small value.
TEST(DecodeBoundary, WrappingLengthPrefixFails) {
  ByteWriter writer;
  writer.varint(0);  // placeholder; rebuilt below with a precise length
  Bytes prefix;
  {
    // After reading the varint, pos_ is the prefix size; a length of
    // (UINT64_MAX - pos_ + 1) makes pos_ + len == 0 under wraparound.
    ByteWriter w;
    w.varint(~0ULL - 9);  // 10-byte varint, so pos_ == 10 after the read
    prefix = std::move(w).take();
    ASSERT_EQ(prefix.size(), 10u);
  }
  ByteReader reader(prefix);
  auto result = reader.bytes();
  EXPECT_FALSE(result.ok());
}

// Canonical UINT64_MAX: nine 0xff continuation bytes, final byte 0x01.
TEST(DecodeBoundary, MaxVarintRoundTrips) {
  for (const std::uint64_t v :
       {~0ULL, ~0ULL - 1, 1ULL << 63, (1ULL << 63) - 1}) {
    ByteWriter writer;
    writer.varint(v);
    const Bytes encoded = std::move(writer).take();
    ByteReader reader(encoded);
    auto result = reader.varint();
    ASSERT_TRUE(result.ok()) << "v=" << v;
    EXPECT_EQ(result.value(), v);
    EXPECT_TRUE(reader.exhausted());
  }
}

// Ten-byte varints whose tenth byte carries payload bits beyond bit 63
// (0x7e mask) encode values that cannot fit in a u64; accepting them would
// silently truncate.  Before the fix these decoded to wrong values.
TEST(DecodeBoundary, TenByteVarintWithSpareBitsRejected) {
  for (const std::uint8_t last : {0x02, 0x03, 0x7e, 0x7f}) {
    Bytes encoded(9, 0xff);
    encoded.push_back(last);
    ByteReader reader(encoded);
    auto result = reader.varint();
    EXPECT_FALSE(result.ok()) << "last=" << static_cast<int>(last);
  }
}

// An eleventh byte is always too long, whatever the bits.
TEST(DecodeBoundary, ElevenByteVarintRejected) {
  Bytes encoded(10, 0x80);  // ten continuation bytes with zero payload
  encoded.push_back(0x01);
  ByteReader reader(encoded);
  auto result = reader.varint();
  EXPECT_FALSE(result.ok());
}

// A stage repeat must fit the u32 it is stored in: 2^32 would otherwise
// truncate to a zero-repeat stage.
TEST(DecodeBoundary, LinkedPredicateRepeatPastU32Rejected) {
  DisjunctivePredicate dp;
  dp.alternatives.push_back(SimplePredicate::message_received(ProcessId(0)));
  for (const std::uint64_t repeat :
       {std::uint64_t{1} << 32, ~std::uint64_t{0}}) {
    ByteWriter writer;
    writer.varint(1);  // one stage
    dp.encode(writer);
    writer.varint(repeat);
    EXPECT_FALSE(LinkedPredicate::decode_from_bytes(writer.buffer()).ok())
        << repeat;
  }
}

// Truncated prefixes: the varint length parses but the payload is short.
TEST(DecodeBoundary, TruncatedLengthPrefixFailsCleanly) {
  ByteWriter writer;
  writer.str("hello world");
  Bytes encoded = std::move(writer).take();
  for (std::size_t cut = 1; cut < encoded.size(); ++cut) {
    Bytes truncated(encoded.begin(),
                    encoded.begin() + static_cast<std::ptrdiff_t>(cut));
    ByteReader reader(truncated);
    auto result = reader.str();
    EXPECT_FALSE(result.ok()) << "cut=" << cut;
  }
}

TEST(DecodeBoundary, TruncatedFixedWidthFailsCleanly) {
  ByteWriter writer;
  writer.u64(0x1122334455667788ULL);
  Bytes encoded = std::move(writer).take();
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    Bytes truncated(encoded.begin(),
                    encoded.begin() + static_cast<std::ptrdiff_t>(cut));
    ByteReader reader(truncated);
    EXPECT_FALSE(reader.u64().ok()) << "cut=" << cut;
  }
}

// A message whose embedded string length claims UINT64_MAX must fail the
// whole decode, not crash.  (Message layout: kind byte first; the payload
// length prefix is deeper in, so craft via a valid message then stomp the
// length varint region with a maximal one.)
TEST(DecodeBoundary, MessageWithHugePayloadLengthFails) {
  // Build directly: a bytes field with a lying length inside an otherwise
  // plausible buffer exercises the same reader path Message::decode uses.
  ByteWriter writer;
  writer.u8(0);  // plausible leading byte
  writer.varint(~0ULL);
  for (int i = 0; i < 16; ++i) writer.u8(0xee);
  const Bytes encoded = std::move(writer).take();
  ByteReader reader(encoded);
  (void)reader.u8();
  EXPECT_FALSE(reader.bytes().ok());
}

// -- Session protocol: client requests and server responses ---------------
//
// A decoded request or response must be in range (a known op, a status that
// names an ErrorCode) and must survive encode -> decode unchanged.  Varint
// length prefixes may arrive non-canonical, so the check compares fields,
// not bytes.

namespace session_test {

Bytes encode_request(const SessionRequest& request) {
  ByteWriter writer;
  request.encode(writer);
  return std::move(writer).take();
}

Bytes encode_response(const SessionResponse& response) {
  ByteWriter writer;
  response.encode(writer);
  return std::move(writer).take();
}

void expect_request_round_trips(const SessionRequest& request) {
  EXPECT_LE(static_cast<std::uint8_t>(request.op), kMaxSessionOp);
  auto again = SessionRequest::decode(encode_request(request));
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_EQ(again.value().req_id, request.req_id);
  EXPECT_EQ(again.value().op, request.op);
  EXPECT_EQ(again.value().text, request.text);
  EXPECT_EQ(again.value().number, request.number);
}

void expect_response_round_trips(const SessionResponse& response) {
  EXPECT_LE(response.status, kMaxSessionStatus);
  if (const auto code = response.error_code()) {
    EXPECT_LE(static_cast<int>(*code), static_cast<int>(ErrorCode::kInternal));
  }
  auto again = SessionResponse::decode(encode_response(response));
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_EQ(again.value().req_id, response.req_id);
  EXPECT_EQ(again.value().status, response.status);
  EXPECT_EQ(again.value().text, response.text);
  EXPECT_EQ(again.value().number, response.number);
  EXPECT_EQ(again.value().payload, response.payload);
}

// A valid request and response with seed-dependent field lengths.
SessionRequest sample_request(Rng& rng) {
  SessionRequest request;
  request.req_id = rng.next_u64();
  request.op = static_cast<SessionOp>(rng.next_below(kMaxSessionOp + 1));
  request.text = std::string(rng.next_below(200), 'r');
  request.number = static_cast<std::int64_t>(rng.next_u64());
  return request;
}

SessionResponse sample_response(Rng& rng) {
  SessionResponse response = SessionResponse::success(
      rng.next_u64(), std::string(rng.next_below(200), 's'),
      static_cast<std::int64_t>(rng.next_u64()), random_bytes(rng, 200));
  response.status =
      static_cast<std::uint8_t>(rng.next_below(kMaxSessionStatus + 1));
  return response;
}

}  // namespace session_test

TEST_P(FuzzDecode, RandomBytesFailCleanlyOrRoundTripSessionRequest) {
  using namespace session_test;
  Rng rng(GetParam() ^ 0x5555);
  int decoded = 0;
  for (int i = 0; i < 2000; ++i) {
    // Half the inputs get a text length that fills the body exactly and an
    // op at or just past the last one, so some decode; the rest are noise.
    Bytes bytes = random_bytes(rng, 48);
    if (i % 2 == 0 && bytes.size() >= 18) {
      bytes[8] = static_cast<std::uint8_t>(rng.next_below(kMaxSessionOp + 2));
      bytes[9] = static_cast<std::uint8_t>(bytes.size() - 18);
    }
    auto result = SessionRequest::decode(bytes);
    if (result.ok()) {
      ++decoded;
      expect_request_round_trips(result.value());
    } else {
      EXPECT_EQ(result.error().code(), ErrorCode::kParseError);
    }
  }
  EXPECT_GT(decoded, 0);
}

TEST_P(FuzzDecode, RandomBytesFailCleanlyOrRoundTripSessionResponse) {
  using namespace session_test;
  Rng rng(GetParam() ^ 0x6666);
  int decoded = 0;
  for (int i = 0; i < 2000; ++i) {
    // Half the inputs get text and payload lengths that fill the body
    // exactly and a status at or just past the last one; the rest are noise.
    Bytes bytes = random_bytes(rng, 48);
    if (i % 2 == 0 && bytes.size() >= 19) {
      const std::size_t text = rng.next_below(bytes.size() - 18);
      bytes[8] =
          static_cast<std::uint8_t>(rng.next_below(kMaxSessionStatus + 2));
      bytes[9] = static_cast<std::uint8_t>(text);
      bytes[18 + text] = static_cast<std::uint8_t>(bytes.size() - 19 - text);
    }
    auto result = SessionResponse::decode(bytes);
    if (result.ok()) {
      ++decoded;
      expect_response_round_trips(result.value());
    } else {
      EXPECT_EQ(result.error().code(), ErrorCode::kParseError);
    }
  }
  EXPECT_GT(decoded, 0);
}

TEST_P(FuzzDecode, BitFlipsOfSessionMessagesFailCleanlyOrRoundTrip) {
  using namespace session_test;
  Rng rng(GetParam() ^ 0x7777);
  const Bytes request = encode_request(sample_request(rng));
  const Bytes response = encode_response(sample_response(rng));
  for (int i = 0; i < 500; ++i) {
    Bytes mutated = request;
    std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    auto req = SessionRequest::decode(mutated);
    if (req.ok()) {
      expect_request_round_trips(req.value());
    } else {
      EXPECT_EQ(req.error().code(), ErrorCode::kParseError);
    }

    mutated = response;
    pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    auto resp = SessionResponse::decode(mutated);
    if (resp.ok()) {
      expect_response_round_trips(resp.value());
    } else {
      EXPECT_EQ(resp.error().code(), ErrorCode::kParseError);
    }
  }
}

// Every field is required, so no proper prefix of a valid body decodes.
TEST_P(FuzzDecode, TruncationsOfSessionMessagesFail) {
  using namespace session_test;
  Rng rng(GetParam() ^ 0x8888);
  const Bytes request = encode_request(sample_request(rng));
  const Bytes response = encode_response(sample_response(rng));
  for (std::size_t cut = 0; cut < request.size(); ++cut) {
    const Bytes prefix(request.begin(),
                       request.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(SessionRequest::decode(prefix).ok()) << "cut=" << cut;
  }
  for (std::size_t cut = 0; cut < response.size(); ++cut) {
    const Bytes prefix(response.begin(),
                       response.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(SessionResponse::decode(prefix).ok()) << "cut=" << cut;
  }
  EXPECT_TRUE(SessionRequest::decode(request).ok());
  EXPECT_TRUE(SessionResponse::decode(response).ok());
}

// The last ErrorCode (kInternal) travels as status 8; 9 names nothing.
TEST(DecodeBoundary, SessionResponseStatusPastLastErrorCodeRejected) {
  using namespace session_test;
  SessionResponse response =
      SessionResponse::failure(9, Error(ErrorCode::kTimeout, "slow"));
  response.status = kMaxSessionStatus;
  auto last = SessionResponse::decode(encode_response(response));
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value().error_code(), ErrorCode::kInternal);

  response.status = kMaxSessionStatus + 1;
  EXPECT_EQ(response.status, 9);
  auto past = SessionResponse::decode(encode_response(response));
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.error().code(), ErrorCode::kParseError);
}

TEST(DecodeBoundary, SessionRequestTrailingByteRejected) {
  using namespace session_test;
  Rng rng(1);
  Bytes bytes = encode_request(sample_request(rng));
  bytes.push_back(0);
  auto decoded = SessionRequest::decode(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kParseError);
}

TEST(DecodeBoundary, SessionResponseTrailingByteRejected) {
  using namespace session_test;
  Rng rng(1);
  Bytes bytes = encode_response(sample_response(rng));
  bytes.push_back(0);
  auto decoded = SessionResponse::decode(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kParseError);
}

// kStateReport (10) is the last command kind.  11 was the first of the
// tier's envelope and aggregated kinds, which no longer exist.
TEST(DecodeBoundary, CommandKindPastLastRejected) {
  Bytes encoded = Command::query_state().encode();
  encoded[0] = static_cast<std::uint8_t>(CommandKind::kStateReport);
  ASSERT_TRUE(Command::decode(encoded).ok());
  for (const std::uint8_t kind : {std::uint8_t{11}, std::uint8_t{255}}) {
    encoded[0] = kind;
    auto decoded = Command::decode(encoded);
    ASSERT_FALSE(decoded.ok()) << int{kind};
    EXPECT_EQ(decoded.error().code(), ErrorCode::kParseError);
  }
}

// -- FrameParser: stream reassembly and the frame-length sanity cap --------

namespace framing_test {

Bytes make_frame(const Bytes& body) {
  Bytes frame;
  frame.reserve(kFrameHeaderSize + body.size());
  const std::size_t header_at = begin_frame(frame);
  frame.insert(frame.end(), body.begin(), body.end());
  end_frame(frame, header_at);
  return frame;
}

}  // namespace framing_test

TEST(FrameParser, SingleFrameRoundTrips) {
  FrameParser parser;
  const Bytes body{1, 2, 3, 4, 5};
  const Bytes frame = framing_test::make_frame(body);
  parser.append(frame);
  const auto got = parser.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(std::equal(got->begin(), got->end(), body.begin(), body.end()));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(FrameParser, FrameSplitAcrossArbitraryAppendBoundaries) {
  const Bytes body{10, 20, 30, 40, 50, 60, 70};
  const Bytes frame = framing_test::make_frame(body);
  // Every split point, including mid-header.
  for (std::size_t cut = 0; cut <= frame.size(); ++cut) {
    FrameParser parser;
    parser.append(std::span<const std::uint8_t>(frame.data(), cut));
    if (cut < frame.size()) {
      EXPECT_FALSE(parser.next().has_value());
    }
    parser.append(
        std::span<const std::uint8_t>(frame.data() + cut, frame.size() - cut));
    const auto got = parser.next();
    ASSERT_TRUE(got.has_value()) << "cut=" << cut;
    EXPECT_TRUE(
        std::equal(got->begin(), got->end(), body.begin(), body.end()));
  }
}

TEST(FrameParser, BurstOfFramesInOneAppend) {
  FrameParser parser;
  Bytes stream;
  for (std::uint8_t i = 0; i < 10; ++i) {
    const Bytes frame = framing_test::make_frame(Bytes(i + 1, i));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  parser.append(stream);
  for (std::uint8_t i = 0; i < 10; ++i) {
    const auto got = parser.next();
    ASSERT_TRUE(got.has_value()) << "frame " << int(i);
    EXPECT_EQ(got->size(), static_cast<std::size_t>(i) + 1);
  }
  EXPECT_FALSE(parser.next().has_value());
}

TEST(FrameParser, ZeroLengthBodyIsAValidFrame) {
  FrameParser parser;
  parser.append(framing_test::make_frame(Bytes{}));
  const auto got = parser.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), 0u);
}

TEST(FrameParser, OversizedFrameLengthMarksStreamCorrupt) {
  FrameParser parser(/*max_frame_len=*/1024);
  Bytes header(kFrameHeaderSize);
  const std::uint32_t huge = 0xfffffff0u;
  std::memcpy(header.data(), &huge, sizeof(huge));
  parser.append(header);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.corrupt());
  EXPECT_EQ(parser.rejected_frame_len(), huge);
  // Corrupt is sticky: even a well-formed frame afterwards is not parsed
  // (the transport must drop the connection).
  parser.append(framing_test::make_frame(Bytes{1}));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.corrupt());
}

TEST(FrameParser, LengthJustAboveCapRejectedAtCapAccepted) {
  FrameParser small(/*max_frame_len=*/8);
  small.append(framing_test::make_frame(Bytes(9, 0x11)));
  EXPECT_FALSE(small.next().has_value());
  EXPECT_TRUE(small.corrupt());
  EXPECT_EQ(small.rejected_frame_len(), 9u);

  FrameParser exact(/*max_frame_len=*/8);
  exact.append(framing_test::make_frame(Bytes(8, 0x11)));
  EXPECT_TRUE(exact.next().has_value());
  EXPECT_FALSE(exact.corrupt());
}

// -- Frame demultiplexing: the channel id a frame names is wire input -----
//
// TcpRuntime resolves a frame's channel id to an endpoint slot with
// Topology::find_in_slot (data frames) and find_out_slot (acks) before it
// indexes any per-channel table, so an out-of-range or foreign id must come
// back empty rather than as some other channel's slot.

TEST(FrameDemux, OutOfRangeChannelIdsHaveNoSlot) {
  const Topology t = Topology::complete(4).with_debugger();
  const ProcessId self(2);
  for (const std::uint32_t raw :
       {static_cast<std::uint32_t>(t.num_channels()),
        static_cast<std::uint32_t>(t.num_channels()) + 1, 0x7FFFFFFFu,
        0xFFFFFFFEu, 0xFFFFFFFFu}) {
    EXPECT_FALSE(t.find_in_slot(self, ChannelId(raw)).has_value()) << raw;
    EXPECT_FALSE(t.find_out_slot(self, ChannelId(raw)).has_value()) << raw;
  }
}

TEST(FrameDemux, ChannelsOfOtherProcessesHaveNoSlot) {
  const Topology t = Topology::complete(4).with_debugger();
  const ProcessId self(2);
  for (const ChannelSpec& spec : t.channels()) {
    const auto in = t.find_in_slot(self, spec.id);
    const auto out = t.find_out_slot(self, spec.id);
    EXPECT_EQ(in.has_value(), spec.destination == self) << spec.id.value();
    EXPECT_EQ(out.has_value(), spec.source == self) << spec.id.value();
    if (in) {
      EXPECT_EQ(t.in_channels(self)[*in], spec.id);
    }
    if (out) {
      EXPECT_EQ(t.out_channels(self)[*out], spec.id);
    }
  }
  // An application channel between two other processes.
  const auto foreign = t.channel_between(ProcessId(0), ProcessId(1));
  ASSERT_TRUE(foreign.has_value());
  EXPECT_FALSE(t.find_in_slot(self, *foreign).has_value());
  EXPECT_FALSE(t.find_out_slot(self, *foreign).has_value());
}

TEST(FrameDemux, OwnControlChannelsResolveInTheirDirectionOnly) {
  const Topology t = Topology::complete(4).with_debugger_tree(2);
  const ProcessId self(2);
  const ChannelId down = t.control_to(self);   // parent -> self
  const ChannelId up = t.control_from(self);   // self -> parent
  const auto down_slot = t.find_in_slot(self, down);
  ASSERT_TRUE(down_slot.has_value());
  EXPECT_EQ(t.in_channels(self)[*down_slot], down);
  EXPECT_FALSE(t.find_out_slot(self, down).has_value());
  const auto up_slot = t.find_out_slot(self, up);
  ASSERT_TRUE(up_slot.has_value());
  EXPECT_EQ(t.out_channels(self)[*up_slot], up);
  EXPECT_FALSE(t.find_in_slot(self, up).has_value());
  // Another user's control channels are foreign here.
  EXPECT_FALSE(t.find_in_slot(self, t.control_to(ProcessId(1))).has_value());
  EXPECT_FALSE(
      t.find_out_slot(self, t.control_from(ProcessId(1))).has_value());
}

// -- ReplayLog: the record/replay wire format (src/replay) -----------------
//
// A replay log is loaded from disk, so it is wire input like everything
// else here: random bytes, truncations and bit flips must come back as a
// clean kParseError (or a valid prefix), never UB.  The boundary corpus
// targets the log's semantic validation — sequential delivery ordinals,
// fires referencing created timers, bounded ids — on top of the framing
// and varint edges the generic corpus already covers.

namespace replay_log_test {

// A small valid log exercising every record kind.
ReplayLog make_log() {
  ReplayLog log;
  log.header.seed = 42;
  log.header.substrate = "sim";
  log.header.workload = "ring";
  log.header.num_user_processes = 3;
  log.header.debugger_fanout = 0;
  log.header.num_channels = 10;

  ReplayRecord set;
  set.kind = ReplayRecordKind::kTimerSet;
  set.process = 0;
  set.ordinal = 0;
  set.timer = 17;
  log.records.push_back(set);

  for (std::uint64_t i = 0; i < 3; ++i) {
    ReplayRecord deliver;
    deliver.kind = ReplayRecordKind::kDeliver;
    deliver.process = 1;
    deliver.channel = 2;
    deliver.ordinal = i;
    deliver.hash = 0x1234567890abcdefULL + i;
    deliver.detail = 8;
    log.records.push_back(deliver);
  }

  ReplayRecord fire;
  fire.kind = ReplayRecordKind::kTimerFire;
  fire.process = 0;
  fire.ordinal = 0;
  log.records.push_back(fire);

  ReplayRecord cut;
  cut.kind = ReplayRecordKind::kHaltCut;
  cut.wave = 1;
  cut.state = Bytes{1, 2, 3};
  log.records.push_back(cut);

  ReplayRecord note;
  note.kind = ReplayRecordKind::kAnnotation;
  note.annotation = 0;  // fault kind 0 (drop)
  note.channel = 4;
  note.detail = 9;
  log.records.push_back(note);
  return log;
}

// One framed record appended to a valid header, for crafting bad records.
Bytes log_with_record_frame(const Bytes& record_body) {
  ReplayLog log = make_log();
  log.records.clear();
  Bytes encoded = log.encode();
  const std::size_t at = begin_frame(encoded);
  encoded.insert(encoded.end(), record_body.begin(), record_body.end());
  end_frame(encoded, at);
  return encoded;
}

}  // namespace replay_log_test

TEST_P(FuzzDecode, RandomBytesNeverCrashReplayLogDecode) {
  Rng rng(GetParam() ^ 0x5555);
  for (int i = 0; i < 2000; ++i) {
    const Bytes bytes = random_bytes(rng, 128);
    auto result = ReplayLog::decode(bytes);
    if (result.ok()) (void)result.value().encode();
  }
}

TEST_P(FuzzDecode, BitFlipsOfValidReplayLogFailCleanlyOrReencode) {
  Rng rng(GetParam() ^ 0x6666);
  const Bytes encoded = replay_log_test::make_log().encode();
  for (int i = 0; i < 500; ++i) {
    Bytes mutated = encoded;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    auto result = ReplayLog::decode(mutated);
    if (result.ok()) (void)result.value().encode();
  }
}

// Every truncation either fails cleanly or decodes a strict record prefix
// (cuts on a frame boundary lose whole trailing records, nothing else).
TEST(ReplayLogBoundary, TruncationsFailCleanlyOrDecodeAPrefix) {
  const ReplayLog log = replay_log_test::make_log();
  const Bytes encoded = log.encode();
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    Bytes truncated(encoded.begin(),
                    encoded.begin() + static_cast<std::ptrdiff_t>(cut));
    auto result = ReplayLog::decode(truncated);
    if (!result.ok()) {
      EXPECT_EQ(result.error().code(), ErrorCode::kParseError)
          << "cut=" << cut;
      continue;
    }
    ASSERT_LT(result.value().records.size(), log.records.size())
        << "cut=" << cut;
    const Bytes reencoded = result.value().encode();
    EXPECT_TRUE(std::equal(reencoded.begin(), reencoded.end(),
                           encoded.begin()))
        << "cut=" << cut;
  }
}

TEST(ReplayLogBoundary, BadMagicAndVersionRejected) {
  ReplayLog log = replay_log_test::make_log();
  Bytes encoded = log.encode();
  // Frame header is kFrameHeaderSize bytes, then the u32 magic.
  Bytes bad_magic = encoded;
  bad_magic[kFrameHeaderSize] ^= 0xff;
  EXPECT_FALSE(ReplayLog::decode(bad_magic).ok());
  Bytes bad_version = encoded;
  bad_version[kFrameHeaderSize + 4] ^= 0xff;
  EXPECT_FALSE(ReplayLog::decode(bad_version).ok());
}

TEST(ReplayLogBoundary, UnknownRecordKindRejected) {
  for (const std::uint8_t kind : {kMaxReplayRecordKind + 1, 0x7f, 0xff}) {
    ByteWriter writer;
    writer.u8(static_cast<std::uint8_t>(kind));
    const Bytes encoded =
        replay_log_test::log_with_record_frame(std::move(writer).take());
    auto result = ReplayLog::decode(encoded);
    ASSERT_FALSE(result.ok()) << "kind=" << int(kind);
    EXPECT_EQ(result.error().code(), ErrorCode::kParseError);
  }
}

TEST(ReplayLogBoundary, OutOfRangeProcessAndChannelRejected) {
  // Deliver naming process 3 in a 3-process log (valid ids are 0..2).
  {
    ByteWriter writer;
    writer.u8(static_cast<std::uint8_t>(ReplayRecordKind::kDeliver));
    writer.varint(3);
    writer.varint(0);
    writer.varint(0);
    writer.u64(0);
    writer.varint(0);
    EXPECT_FALSE(ReplayLog::decode(replay_log_test::log_with_record_frame(
                                       std::move(writer).take()))
                     .ok());
  }
  // Deliver naming channel 10 in a 10-channel log (valid ids are 0..9).
  {
    ByteWriter writer;
    writer.u8(static_cast<std::uint8_t>(ReplayRecordKind::kDeliver));
    writer.varint(0);
    writer.varint(10);
    writer.varint(0);
    writer.u64(0);
    writer.varint(0);
    EXPECT_FALSE(ReplayLog::decode(replay_log_test::log_with_record_frame(
                                       std::move(writer).take()))
                     .ok());
  }
}

// Per-channel delivery ordinals are sequential from 0; a gap (or a replayed
// ordinal) is corruption, not a reorderable input.
TEST(ReplayLogBoundary, DeliveryOrdinalGapRejected) {
  for (const std::uint64_t first : {1ULL, 2ULL, ~0ULL}) {
    ByteWriter writer;
    writer.u8(static_cast<std::uint8_t>(ReplayRecordKind::kDeliver));
    writer.varint(0);
    writer.varint(0);
    writer.varint(first);  // channel 0 expects ordinal 0 first
    writer.u64(0);
    writer.varint(0);
    auto result = ReplayLog::decode(
        replay_log_test::log_with_record_frame(std::move(writer).take()));
    ASSERT_FALSE(result.ok()) << "first=" << first;
    EXPECT_EQ(result.error().code(), ErrorCode::kParseError);
  }
}

TEST(ReplayLogBoundary, TimerFireBeforeAnySetRejected) {
  ByteWriter writer;
  writer.u8(static_cast<std::uint8_t>(ReplayRecordKind::kTimerFire));
  writer.varint(0);
  writer.varint(0);  // process 0 has created no timers yet
  EXPECT_FALSE(ReplayLog::decode(replay_log_test::log_with_record_frame(
                                     std::move(writer).take()))
                   .ok());
}

TEST(ReplayLogBoundary, TrailingBytesInRecordFrameRejected) {
  ByteWriter writer;
  writer.u8(static_cast<std::uint8_t>(ReplayRecordKind::kTimerSet));
  writer.varint(0);
  writer.varint(0);
  writer.u32(5);
  writer.u8(0xcc);  // one stray byte after a complete record
  EXPECT_FALSE(ReplayLog::decode(replay_log_test::log_with_record_frame(
                                     std::move(writer).take()))
                   .ok());
}

// Non-canonical varints inside a record: a 10-byte encoding whose spare
// bits overflow u64 must fail the whole log decode, and an over-long
// encoding of a small ordinal must not crash (the reader may accept or
// reject it; accepting yields the same value, which then re-encodes
// canonically).
TEST(ReplayLogBoundary, NonCanonicalVarintInRecordHandledCleanly) {
  {
    Bytes body;
    body.push_back(static_cast<std::uint8_t>(ReplayRecordKind::kTimerFire));
    body.insert(body.end(), 9, 0xff);  // process varint: overflowing u64
    body.push_back(0x7f);
    auto result =
        ReplayLog::decode(replay_log_test::log_with_record_frame(body));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), ErrorCode::kParseError);
  }
  {
    Bytes body;
    body.push_back(static_cast<std::uint8_t>(ReplayRecordKind::kTimerSet));
    body.push_back(0x80);  // process = 0 in a padded two-byte encoding
    body.push_back(0x00);
    body.push_back(0x00);            // ordinal 0
    for (int i = 0; i < 4; ++i) body.push_back(0x05);  // timer u32
    auto result =
        ReplayLog::decode(replay_log_test::log_with_record_frame(body));
    if (result.ok()) {
      const auto& records = result.value().records;
      ASSERT_EQ(records.size(), 1u);
      EXPECT_EQ(records[0].process, 0u);
      (void)result.value().encode();
    } else {
      EXPECT_EQ(result.error().code(), ErrorCode::kParseError);
    }
  }
}

// A huge claimed S_h length inside a HaltCut record must fail the bounds
// check, not allocate or wrap.
TEST(ReplayLogBoundary, HaltCutWithHugeStateLengthRejected) {
  ByteWriter writer;
  writer.u8(static_cast<std::uint8_t>(ReplayRecordKind::kHaltCut));
  writer.varint(1);      // wave
  writer.varint(~0ULL);  // state length prefix claiming UINT64_MAX bytes
  writer.u8(0xaa);
  EXPECT_FALSE(ReplayLog::decode(replay_log_test::log_with_record_frame(
                                     std::move(writer).take()))
                   .ok());
}

TEST(ReplayLogBoundary, ValidLogRoundTripsThroughDecode) {
  const ReplayLog log = replay_log_test::make_log();
  const Bytes encoded = log.encode();
  auto decoded = ReplayLog::decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  EXPECT_EQ(decoded.value().records.size(), log.records.size());
  EXPECT_EQ(decoded.value().encode(), encoded);
  EXPECT_EQ(decoded.value().deliveries(), 3u);
  EXPECT_EQ(decoded.value().timer_sets(), 1u);
  EXPECT_EQ(decoded.value().timer_fires(), 1u);
  EXPECT_EQ(decoded.value().halt_cuts(), 1u);
  EXPECT_EQ(decoded.value().annotations(), 1u);
}

TEST(FrameParser, RandomChunkingNeverLosesOrCorruptsFrames) {
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    Bytes stream;
    std::vector<std::size_t> sizes;
    for (int i = 0; i < 20; ++i) {
      const std::size_t len = rng.next_below(100);
      sizes.push_back(len);
      const Bytes frame = framing_test::make_frame(
          Bytes(len, static_cast<std::uint8_t>(i)));
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    FrameParser parser;
    std::size_t fed = 0;
    std::size_t seen = 0;
    while (seen < sizes.size()) {
      if (fed < stream.size()) {
        const std::size_t chunk =
            std::min(stream.size() - fed, rng.next_below(64) + 1);
        parser.append(
            std::span<const std::uint8_t>(stream.data() + fed, chunk));
        fed += chunk;
      }
      while (const auto got = parser.next()) {
        ASSERT_LT(seen, sizes.size());
        EXPECT_EQ(got->size(), sizes[seen]);
        ++seen;
      }
      ASSERT_FALSE(parser.corrupt());
    }
    EXPECT_EQ(parser.buffered_bytes(), 0u);
  }
}

}  // namespace
}  // namespace ddbg
