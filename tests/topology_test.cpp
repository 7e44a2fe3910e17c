// Unit tests for the topology graph: construction, generators, SCC and the
// extended-model (debugger) transformation.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "net/topology.hpp"

namespace ddbg {
namespace {

TEST(Topology, AddProcessesAndChannels) {
  Topology t(3);
  EXPECT_EQ(t.num_processes(), 3u);
  const ChannelId c = t.add_channel(ProcessId(0), ProcessId(1));
  EXPECT_EQ(t.num_channels(), 1u);
  EXPECT_EQ(t.channel(c).source, ProcessId(0));
  EXPECT_EQ(t.channel(c).destination, ProcessId(1));
  EXPECT_FALSE(t.channel(c).is_control);
}

TEST(Topology, OutAndInChannels) {
  Topology t(3);
  const ChannelId c01 = t.add_channel(ProcessId(0), ProcessId(1));
  const ChannelId c02 = t.add_channel(ProcessId(0), ProcessId(2));
  const ChannelId c21 = t.add_channel(ProcessId(2), ProcessId(1));
  ASSERT_EQ(t.out_channels(ProcessId(0)).size(), 2u);
  EXPECT_EQ(t.out_channels(ProcessId(0))[0], c01);
  EXPECT_EQ(t.out_channels(ProcessId(0))[1], c02);
  ASSERT_EQ(t.in_channels(ProcessId(1)).size(), 2u);
  EXPECT_EQ(t.in_channels(ProcessId(1))[0], c01);
  EXPECT_EQ(t.in_channels(ProcessId(1))[1], c21);
  EXPECT_TRUE(t.out_channels(ProcessId(1)).empty());
}

TEST(Topology, ChannelBetween) {
  Topology t = Topology::ring(4);
  auto c = t.channel_between(ProcessId(1), ProcessId(2));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(t.channel(*c).destination, ProcessId(2));
  EXPECT_FALSE(t.channel_between(ProcessId(0), ProcessId(2)).has_value());
}

TEST(Topology, RingShape) {
  Topology t = Topology::ring(5);
  EXPECT_EQ(t.num_processes(), 5u);
  EXPECT_EQ(t.num_channels(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(t.out_channels(ProcessId(i)).size(), 1u);
    EXPECT_EQ(t.in_channels(ProcessId(i)).size(), 1u);
  }
  EXPECT_TRUE(t.strongly_connected());
}

TEST(Topology, StarShape) {
  Topology t = Topology::star(5);
  EXPECT_EQ(t.num_channels(), 8u);  // 4 spokes, 2 channels each
  EXPECT_EQ(t.out_channels(ProcessId(0)).size(), 4u);
  EXPECT_TRUE(t.strongly_connected());
}

TEST(Topology, PipelineIsAcyclic) {
  Topology t = Topology::pipeline(4);
  EXPECT_EQ(t.num_channels(), 3u);
  EXPECT_FALSE(t.strongly_connected());
  EXPECT_EQ(t.num_strongly_connected_components(), 4u);
}

TEST(Topology, CompleteShape) {
  Topology t = Topology::complete(4);
  EXPECT_EQ(t.num_channels(), 12u);
  EXPECT_TRUE(t.strongly_connected());
}

TEST(Topology, TwoNodeCycle) {
  Topology t(2);
  t.add_channel(ProcessId(0), ProcessId(1));
  EXPECT_FALSE(t.strongly_connected());
  t.add_channel(ProcessId(1), ProcessId(0));
  EXPECT_TRUE(t.strongly_connected());
}

TEST(Topology, RandomStronglyConnectedAlwaysIs) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = static_cast<std::uint32_t>(rng.next_in(2, 20));
    const auto extra = static_cast<std::uint32_t>(rng.next_in(0, 30));
    Topology t = Topology::random_strongly_connected(n, extra, rng);
    EXPECT_TRUE(t.strongly_connected())
        << "n=" << n << " extra=" << extra << " trial=" << trial;
    // The generator clamps the extra edges to the capacity left after the
    // ring (n*(n-1) total ordered pairs, n used by the ring).
    const std::uint64_t capacity =
        static_cast<std::uint64_t>(n) * (n - 1) - n;
    EXPECT_EQ(t.num_channels(), n + std::min<std::uint64_t>(extra, capacity));
  }
}

TEST(Topology, RandomEdgeProbabilityExtremes) {
  Rng rng(7);
  Topology empty = Topology::random(5, 0.0, rng);
  EXPECT_EQ(empty.num_channels(), 0u);
  EXPECT_EQ(empty.num_strongly_connected_components(), 5u);
  Topology full = Topology::random(5, 1.0, rng);
  EXPECT_EQ(full.num_channels(), 20u);
  EXPECT_TRUE(full.strongly_connected());
}

TEST(Topology, WithDebuggerAddsControlChannels) {
  Topology t = Topology::pipeline(3).with_debugger();
  EXPECT_TRUE(t.has_debugger());
  EXPECT_EQ(t.num_processes(), 4u);
  EXPECT_EQ(t.num_user_processes(), 3u);
  EXPECT_EQ(t.debugger_id(), ProcessId(3));
  EXPECT_TRUE(t.is_debugger(ProcessId(3)));
  EXPECT_FALSE(t.is_debugger(ProcessId(0)));
  // 2 pipeline channels + 2 control channels per user process.
  EXPECT_EQ(t.num_channels(), 2u + 6u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const ChannelSpec& to = t.channel(t.control_to(ProcessId(i)));
    EXPECT_TRUE(to.is_control);
    EXPECT_EQ(to.source, t.debugger_id());
    EXPECT_EQ(to.destination, ProcessId(i));
    const ChannelSpec& from = t.channel(t.control_from(ProcessId(i)));
    EXPECT_TRUE(from.is_control);
    EXPECT_EQ(from.source, ProcessId(i));
    EXPECT_EQ(from.destination, t.debugger_id());
  }
}

// Section 2.2.3's claim: the debugger process makes *any* topology strongly
// connected.
TEST(Topology, DebuggerMakesAnythingStronglyConnected) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    Topology t = Topology::random(8, 0.1, rng);
    EXPECT_TRUE(t.with_debugger().strongly_connected()) << "trial " << trial;
  }
  EXPECT_TRUE(Topology::pipeline(6).with_debugger().strongly_connected());
}

TEST(Topology, ChannelBetweenIgnoresControlChannels) {
  Topology t = Topology::pipeline(2).with_debugger();
  // p0 -> debugger exists only as a control channel.
  EXPECT_FALSE(t.channel_between(ProcessId(0), t.debugger_id()).has_value());
  EXPECT_TRUE(t.channel_between(ProcessId(0), ProcessId(1)).has_value());
}

TEST(Topology, UserProcessIds) {
  Topology t = Topology::ring(3).with_debugger();
  const auto users = t.user_process_ids();
  ASSERT_EQ(users.size(), 3u);
  EXPECT_EQ(users[0], ProcessId(0));
  EXPECT_EQ(users[2], ProcessId(2));
  EXPECT_EQ(t.process_ids().size(), 4u);
}

TEST(Topology, DescribeMentionsCounts) {
  Topology t = Topology::ring(3);
  EXPECT_NE(t.describe().find("3 processes"), std::string::npos);
}

TEST(Topology, TreeIsStronglyConnectedAndShaped) {
  const Topology t = Topology::tree(10, 2);
  EXPECT_EQ(t.num_processes(), 10u);
  EXPECT_EQ(t.num_channels(), 18u);  // 2 per tree edge
  EXPECT_TRUE(t.strongly_connected());
  // Child 4's parent under branching 2 is (4 - 1) / 2 = 1.
  EXPECT_TRUE(t.channel_between(ProcessId(1), ProcessId(4)).has_value());
  EXPECT_TRUE(t.channel_between(ProcessId(4), ProcessId(1)).has_value());
  EXPECT_FALSE(t.channel_between(ProcessId(0), ProcessId(4)).has_value());

  const Topology wide = Topology::tree(7, 3);
  EXPECT_TRUE(wide.strongly_connected());
  EXPECT_EQ(wide.out_channels(ProcessId(0)).size(), 3u);
}

// The large-N generator checks: complete() at N = 1024 builds ~1M channels
// with 64-bit count arithmetic, and channel_between stays O(1) (an
// out-degree scan here would make this test conspicuously slow).
TEST(Topology, LargeGeneratorsAndConstantTimeLookup) {
  const std::uint32_t n = 1024;
  const Topology complete = Topology::complete(n);
  EXPECT_EQ(complete.num_channels(),
            static_cast<std::size_t>(n) * (n - 1));
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(complete.out_channels(ProcessId(i)).size(), n - 1);
    EXPECT_EQ(complete.in_channels(ProcessId(i)).size(), n - 1);
  }
  // Every ordered pair resolves; spot the full first row and diagonal.
  for (std::uint32_t j = 1; j < n; ++j) {
    const auto c = complete.channel_between(ProcessId(0), ProcessId(j));
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(complete.channel(*c).destination, ProcessId(j));
  }
  EXPECT_FALSE(
      complete.channel_between(ProcessId(5), ProcessId(5)).has_value());

  const Topology ring = Topology::ring(n);
  EXPECT_EQ(ring.num_channels(), static_cast<std::size_t>(n));
  EXPECT_TRUE(ring.channel_between(ProcessId(n - 1), ProcessId(0)));

  const Topology tree = Topology::tree(n, 4);
  EXPECT_EQ(tree.num_channels(), 2u * (n - 1));
  EXPECT_TRUE(tree.strongly_connected());
}

TEST(Topology, ChannelBetweenReturnsFirstDataChannel) {
  Topology t(2);
  const ChannelId first = t.add_channel(ProcessId(0), ProcessId(1));
  t.add_channel(ProcessId(0), ProcessId(1));  // parallel duplicate
  const auto found = t.channel_between(ProcessId(0), ProcessId(1));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, first);
}

// Every channel knows its position at both endpoints, control channels
// included, and the debugger transformations (which copy the topology and
// append) keep those positions valid.
void expect_slots_consistent(const Topology& t) {
  for (const ChannelSpec& spec : t.channels()) {
    const ChannelId c = spec.id;
    const auto in = t.in_channels(spec.destination);
    const auto out = t.out_channels(spec.source);
    ASSERT_LT(t.in_slot(c), in.size());
    ASSERT_LT(t.out_slot(c), out.size());
    EXPECT_EQ(in[t.in_slot(c)], c);
    EXPECT_EQ(out[t.out_slot(c)], c);
    EXPECT_EQ(t.find_in_slot(spec.destination, c), t.in_slot(c));
    EXPECT_EQ(t.find_out_slot(spec.source, c), t.out_slot(c));
  }
}

TEST(Topology, EndpointSlotsIndexInAndOutChannels) {
  Rng rng(7);
  const std::vector<Topology> shapes = {
      Topology::ring(7), Topology::complete(6), Topology::tree(13, 3),
      Topology::random_strongly_connected(12, 20, rng)};
  for (const Topology& plain : shapes) {
    SCOPED_TRACE(plain.describe());
    expect_slots_consistent(plain);
    const Topology flat = plain.with_debugger();
    expect_slots_consistent(flat);
    expect_slots_consistent(plain.with_debugger_tree(4));
    const Topology copy = flat;
    expect_slots_consistent(copy);
  }
}

}  // namespace
}  // namespace ddbg
