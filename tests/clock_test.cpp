// Unit tests for Lamport clocks, vector clocks and the happened-before
// graph, including a cross-check of the two ordering mechanisms.
#include <gtest/gtest.h>

#include <cstddef>

#include "clock/happened_before.hpp"
#include "clock/lamport.hpp"
#include "clock/vector_clock.hpp"
#include "common/serialization.hpp"

// Allocations made so far by this binary.  tests/alloc_counter.cpp replaces
// the global operator new to count them; it is a separate translation unit
// so the replaced operators are never inlined into the code under test.
std::size_t allocation_count();

namespace ddbg {
namespace {

TEST(LamportClock, TicksMonotonically) {
  LamportClock clock;
  EXPECT_EQ(clock.now(), 0u);
  EXPECT_EQ(clock.tick(), 1u);
  EXPECT_EQ(clock.tick(), 2u);
  EXPECT_EQ(clock.now(), 2u);
}

TEST(LamportClock, ReceiveAdvancesPastMessage) {
  LamportClock clock;
  clock.tick();  // 1
  EXPECT_EQ(clock.on_receive(10), 11u);
  EXPECT_EQ(clock.now(), 11u);
}

TEST(LamportClock, ReceiveOfOldMessageStillTicks) {
  LamportClock clock;
  for (int i = 0; i < 5; ++i) clock.tick();
  EXPECT_EQ(clock.on_receive(2), 6u);
}

TEST(LamportClock, SendReceiveOrdersEvents) {
  LamportClock sender;
  LamportClock receiver;
  const std::uint64_t send_time = sender.on_send();
  const std::uint64_t receive_time = receiver.on_receive(send_time);
  EXPECT_LT(send_time, receive_time);
}

TEST(VectorClock, FreshClocksAreEqual) {
  VectorClock a;
  VectorClock b;
  EXPECT_EQ(a.compare(b), CausalOrder::kEqual);
}

TEST(VectorClock, TickMakesAfter) {
  VectorClock a;
  VectorClock b = a;
  b.tick(ProcessId(0));
  EXPECT_EQ(a.compare(b), CausalOrder::kBefore);
  EXPECT_EQ(b.compare(a), CausalOrder::kAfter);
  EXPECT_TRUE(a.before(b));
}

TEST(VectorClock, IndependentTicksAreConcurrent) {
  VectorClock a;
  VectorClock b;
  a.tick(ProcessId(0));
  b.tick(ProcessId(1));
  EXPECT_EQ(a.compare(b), CausalOrder::kConcurrent);
  EXPECT_TRUE(a.concurrent_with(b));
}

TEST(VectorClock, MessageTransferOrders) {
  // p0 sends to p1; p1's post-receive clock dominates p0's send clock.
  VectorClock p0;
  VectorClock p1;
  p0.tick(ProcessId(0));  // send event
  const VectorClock message = p0;
  p1.on_receive(ProcessId(1), message);
  EXPECT_TRUE(message.before(p1));
  // But p0's *later* events stay concurrent with p1.
  p0.tick(ProcessId(0));
  EXPECT_EQ(p0.compare(p1), CausalOrder::kConcurrent);
}

TEST(VectorClock, MergeTakesComponentwiseMax) {
  VectorClock a(3);
  VectorClock b(3);
  a.tick(ProcessId(0));
  a.tick(ProcessId(0));
  b.tick(ProcessId(2));
  a.merge(b);
  EXPECT_EQ(a.at(ProcessId(0)), 2u);
  EXPECT_EQ(a.at(ProcessId(2)), 1u);
}

TEST(VectorClock, DifferentSizesCompare) {
  VectorClock small;
  small.tick(ProcessId(0));
  VectorClock large(8);
  large.tick(ProcessId(0));
  EXPECT_EQ(small.compare(large), CausalOrder::kEqual);
  large.tick(ProcessId(7));
  EXPECT_EQ(small.compare(large), CausalOrder::kBefore);
}

TEST(VectorClock, SerializationRoundTrip) {
  VectorClock clock(4);
  clock.tick(ProcessId(1));
  clock.tick(ProcessId(1));
  clock.tick(ProcessId(3));
  ByteWriter writer;
  clock.encode(writer);
  ByteReader reader(writer.buffer());
  auto decoded = VectorClock::decode(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().compare(clock), CausalOrder::kEqual);
}

TEST(VectorClock, ToString) {
  VectorClock clock(2);
  clock.tick(ProcessId(1));
  EXPECT_EQ(clock.to_string(), "[0,1]");
}

TEST(HappenedBefore, ProgramOrder) {
  HappenedBeforeGraph graph;
  const EventIndex a = graph.add_event(ProcessId(0));
  const EventIndex b = graph.add_event(ProcessId(0));
  graph.add_edge(a, b);
  EXPECT_TRUE(graph.happened_before(a, b));
  EXPECT_FALSE(graph.happened_before(b, a));
  EXPECT_FALSE(graph.happened_before(a, a));
}

TEST(HappenedBefore, MessageEdge) {
  HappenedBeforeGraph graph;
  const EventIndex send = graph.add_event(ProcessId(0));
  const EventIndex receive = graph.add_event(ProcessId(1));
  graph.register_send(42, send);
  graph.link_receive(42, receive);
  EXPECT_TRUE(graph.happened_before(send, receive));
}

TEST(HappenedBefore, Transitivity) {
  HappenedBeforeGraph graph;
  const EventIndex a = graph.add_event(ProcessId(0));
  const EventIndex b = graph.add_event(ProcessId(1));
  const EventIndex c = graph.add_event(ProcessId(2));
  graph.add_edge(a, b);
  graph.add_edge(b, c);
  EXPECT_TRUE(graph.happened_before(a, c));
  EXPECT_FALSE(graph.happened_before(c, a));
}

TEST(HappenedBefore, ConcurrentEvents) {
  HappenedBeforeGraph graph;
  const EventIndex a = graph.add_event(ProcessId(0));
  const EventIndex b = graph.add_event(ProcessId(1));
  EXPECT_TRUE(graph.concurrent(a, b));
  EXPECT_FALSE(graph.concurrent(a, a));
}

TEST(HappenedBefore, UnmatchedReceiveTolerated) {
  HappenedBeforeGraph graph;
  const EventIndex r = graph.add_event(ProcessId(1));
  graph.link_receive(99, r);  // no registered send: no edge, no crash
  EXPECT_EQ(graph.num_events(), 1u);
}

// Cross-check vector clocks against the explicit graph on a small diamond:
//   p0: a1 -> a2 (send m1) -> a3
//   p1: b1 (recv m1) -> b2
TEST(HappenedBefore, AgreesWithVectorClocks) {
  VectorClock vc_p0;
  VectorClock vc_p1;
  HappenedBeforeGraph graph;

  const EventIndex a1 = graph.add_event(ProcessId(0));
  vc_p0.tick(ProcessId(0));
  const VectorClock vc_a1 = vc_p0;

  const EventIndex a2 = graph.add_event(ProcessId(0));
  graph.add_edge(a1, a2);
  vc_p0.tick(ProcessId(0));
  const VectorClock vc_a2 = vc_p0;
  graph.register_send(1, a2);

  const EventIndex b1 = graph.add_event(ProcessId(1));
  graph.link_receive(1, b1);
  vc_p1.on_receive(ProcessId(1), vc_a2);
  const VectorClock vc_b1 = vc_p1;

  const EventIndex a3 = graph.add_event(ProcessId(0));
  graph.add_edge(a2, a3);
  vc_p0.tick(ProcessId(0));
  const VectorClock vc_a3 = vc_p0;

  EXPECT_TRUE(graph.happened_before(a1, b1));
  EXPECT_TRUE(vc_a1.before(vc_b1));
  EXPECT_TRUE(graph.concurrent(a3, b1));
  EXPECT_TRUE(vc_a3.concurrent_with(vc_b1));
}

// Vector-clock merge and comparison sit on the per-message hot path (every
// stamped send/receive); once the clocks have reached their full width,
// neither operation may allocate.
TEST(VectorClock, MergeAndCompareAreAllocationFreeOnceSized) {
  constexpr std::uint32_t kProcs = 64;
  VectorClock a;
  VectorClock b;
  a.tick(ProcessId(kProcs - 1));  // size both to full width up front
  b.tick(ProcessId(kProcs - 1));
  for (std::uint32_t i = 0; i < kProcs; i += 3) a.tick(ProcessId(i));
  for (std::uint32_t i = 1; i < kProcs; i += 2) b.tick(ProcessId(i));

  const std::size_t before = allocation_count();
  for (int round = 0; round < 100; ++round) {
    a.merge(b);
    b.merge(a);
    (void)a.compare(b);
    (void)b.compare(a);
    a.tick(ProcessId(round % kProcs));
    b.on_receive(ProcessId((round + 7) % kProcs), a);
  }
  EXPECT_EQ(allocation_count(), before)
      << "merge/compare/tick allocated on pre-sized clocks";
}

TEST(VectorClock, CompareAgainstWiderClockIsAllocationFree) {
  VectorClock narrow;
  VectorClock wide;
  narrow.tick(ProcessId(2));
  wide.tick(ProcessId(40));
  wide.tick(ProcessId(3));
  const std::size_t before = allocation_count();
  // Zero-extension comparison in both directions, no temporaries.
  EXPECT_EQ(narrow.compare(wide), CausalOrder::kConcurrent);
  EXPECT_EQ(wide.compare(narrow), CausalOrder::kConcurrent);
  EXPECT_EQ(allocation_count(), before);
}

}  // namespace
}  // namespace ddbg
