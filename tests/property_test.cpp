// Property-based sweeps (parameterized gtest) over topology families,
// sizes and seeds, asserting the paper's invariants on every run:
//
//   P1  every debugger-initiated halting wave completes;
//   P2  the halted cut is consistent (vector-clock criterion);
//   P3  message accounting is exact: recorded channel state == in-flight
//       per the trace, no orphans, no losses (Lemma 2.2);
//   P4  all last_halt_ids agree (section 2.2.1);
//   P5  halt markers per wave <= total channels (each channel carries at
//       most one marker per wave);
//   P6  S_h == S_r on the same seeded execution (Theorem 2);
//   P7  halt/resume/halt yields a second complete, consistent wave;
//   P8  random predicate expressions survive describe->parse round trips.
#include <gtest/gtest.h>

#include <sstream>
#include <tuple>

#include "analysis/consistency.hpp"
#include "core/predicate_parser.hpp"
#include "debugger/harness.hpp"
#include "workload/behaviors.hpp"

namespace ddbg {
namespace {

constexpr Duration kWait = Duration::seconds(60);

enum class Family { kRing, kStar, kComplete, kRandom, kPipeline };

const char* family_name(Family family) {
  switch (family) {
    case Family::kRing: return "ring";
    case Family::kStar: return "star";
    case Family::kComplete: return "complete";
    case Family::kRandom: return "random";
    case Family::kPipeline: return "pipeline";
  }
  return "?";
}

Topology make_family(Family family, std::uint32_t n, std::uint64_t seed) {
  switch (family) {
    case Family::kRing: return Topology::ring(n);
    case Family::kStar: return Topology::star(n);
    case Family::kComplete: return Topology::complete(n);
    case Family::kPipeline: return Topology::pipeline(n);
    case Family::kRandom: {
      Rng rng(seed);
      return Topology::random_strongly_connected(n, n, rng);
    }
  }
  return Topology::ring(n);
}

using HaltSweepParam = std::tuple<Family, std::uint32_t, std::uint64_t>;

class HaltSweep : public ::testing::TestWithParam<HaltSweepParam> {};

TEST_P(HaltSweep, HaltWaveInvariants) {
  const auto [family, n, seed] = GetParam();
  Trace trace;
  HarnessConfig config;
  config.seed = seed;
  config.shim_options.trace_sink = trace.sink();
  SimDebugHarness harness(make_family(family, n, seed),
                          make_gossip(n, GossipConfig{}), std::move(config));
  const std::size_t total_channels = harness.topology().num_channels();
  harness.sim().run_for(Duration::millis(30));

  const std::uint64_t markers_before =
      sent_count(harness.sim().metrics().totals(), MessageKind::kHaltMarker);
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);

  // P1: completion.
  ASSERT_TRUE(wave.has_value())
      << family_name(family) << " n=" << n << " seed=" << seed;
  EXPECT_EQ(wave->state.size(), n);

  // P2: consistency.
  const auto violation = find_cut_inconsistency(wave->state);
  EXPECT_FALSE(violation.has_value()) << *violation;

  // P3: exact message accounting.
  const MessageAccounting accounting = account_messages(trace, wave->state);
  EXPECT_EQ(accounting.orphan_receives, 0u);
  EXPECT_EQ(accounting.lost_messages, 0u);
  EXPECT_EQ(accounting.recorded_in_channels, accounting.in_flight_per_trace);

  // P4: agreed halt id.
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(harness.shim(ProcessId(i)).halting().last_halt_id(), 1u);
  }

  // P5: marker bound.
  const std::uint64_t markers =
      sent_count(harness.sim().metrics().totals(), MessageKind::kHaltMarker) -
      markers_before;
  EXPECT_LE(markers, total_channels);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, HaltSweep,
    ::testing::Combine(::testing::Values(Family::kRing, Family::kStar,
                                         Family::kComplete, Family::kRandom,
                                         Family::kPipeline),
                       ::testing::Values(2u, 5u, 9u),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<HaltSweepParam>& info) {
      std::ostringstream name;
      name << family_name(std::get<0>(info.param)) << "_n"
           << std::get<1>(info.param) << "_s" << std::get<2>(info.param);
      return name.str();
    });

using EquivalenceParam = std::tuple<std::uint32_t, std::uint64_t>;
class EquivalenceSweep : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(EquivalenceSweep, HaltedEqualsRecorded) {
  const auto [n, seed] = GetParam();
  Rng topo_rng(seed);
  const Topology topology =
      Topology::random_strongly_connected(n, n / 2, topo_rng);
  const Duration point = Duration::millis(35);

  GlobalState recorded;
  {
    HarnessConfig config;
    config.seed = seed;
    SimDebugHarness harness(topology, make_gossip(n, GossipConfig{}),
                            std::move(config));
    harness.sim().run_for(point);
    auto wave = harness.session().take_snapshot(kWait);
    ASSERT_TRUE(wave.has_value());
    recorded = wave->state;
  }
  HarnessConfig config;
  config.seed = seed;
  SimDebugHarness harness(topology, make_gossip(n, GossipConfig{}),
                          std::move(config));
  harness.sim().run_for(point);
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  const auto difference = wave->state.first_difference(recorded);
  EXPECT_FALSE(difference.has_value()) << *difference;
}

INSTANTIATE_TEST_SUITE_P(RandomRuns, EquivalenceSweep,
                         ::testing::Combine(::testing::Values(3u, 6u, 12u),
                                            ::testing::Values(10u, 20u, 30u,
                                                              40u)));

using CycleParam = std::tuple<std::uint32_t, std::uint64_t>;
class HaltResumeCycles : public ::testing::TestWithParam<CycleParam> {};

TEST_P(HaltResumeCycles, RepeatedWavesStayConsistent) {
  const auto [n, seed] = GetParam();
  BankConfig bank;
  HarnessConfig config;
  config.seed = seed;
  SimDebugHarness harness(Topology::complete(n), make_bank(n, bank),
                          std::move(config));
  for (std::uint64_t wave_id = 1; wave_id <= 3; ++wave_id) {
    harness.sim().run_for(Duration::millis(25));
    harness.session().halt();
    const bool complete = harness.sim().run_until_condition(
        [&] { return harness.debugger().halt_complete(wave_id); },
        harness.sim().now() + kWait);
    ASSERT_TRUE(complete) << "wave " << wave_id;
    auto wave = harness.debugger().halt_wave(wave_id);
    ASSERT_TRUE(wave.has_value());
    EXPECT_TRUE(consistent_cut(wave->state)) << "wave " << wave_id;
    auto total = BankProcess::total_money(wave->state);
    ASSERT_TRUE(total.ok());
    EXPECT_EQ(total.value(),
              static_cast<std::int64_t>(n) * bank.initial_balance)
        << "wave " << wave_id;
    harness.session().resume();
  }
}

INSTANTIATE_TEST_SUITE_P(Cycles, HaltResumeCycles,
                         ::testing::Combine(::testing::Values(2u, 4u),
                                            ::testing::Values(5u, 6u, 7u)));

// P8: random predicate expressions round-trip through describe/parse.
class PredicateRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

BreakpointSpec random_spec(Rng& rng) {
  auto random_sp = [&rng] {
    const auto p = ProcessId(static_cast<std::uint32_t>(rng.next_below(6)));
    switch (rng.next_below(5)) {
      case 0: return SimplePredicate::user_event(p, "ev");
      case 1: return SimplePredicate::procedure_entered(p, "proc");
      case 2:
        return SimplePredicate::var_compare(
            p, "x", static_cast<CompareOp>(rng.next_in(1, 6)),
            rng.next_in(-100, 100));
      case 3: return SimplePredicate::message_sent(p);
      default: return SimplePredicate::message_received(p);
    }
  };
  BreakpointSpec spec;
  if (rng.next_bool(0.3)) {
    spec.kind = BreakpointSpec::Kind::kConjunctive;
    const auto terms = 2 + rng.next_below(3);
    for (std::uint64_t i = 0; i < terms; ++i) {
      spec.conjunctive.terms.push_back(random_sp());
    }
    spec.mode = rng.next_bool(0.5) ? ConjunctionMode::kOrdered
                                   : ConjunctionMode::kUnordered;
    return spec;
  }
  spec.kind = BreakpointSpec::Kind::kLinked;
  const auto stages = 1 + rng.next_below(4);
  for (std::uint64_t s = 0; s < stages; ++s) {
    DisjunctivePredicate dp;
    const auto alts = 1 + rng.next_below(3);
    for (std::uint64_t a = 0; a < alts; ++a) {
      dp.alternatives.push_back(random_sp());
    }
    spec.linked.stages.push_back(LinkedPredicate::Stage{
        std::move(dp), static_cast<std::uint32_t>(1 + rng.next_below(3))});
  }
  return spec;
}

TEST_P(PredicateRoundTrip, DescribeParseDescribe) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const BreakpointSpec spec = random_spec(rng);
    const std::string text = spec.describe();
    auto reparsed = parse_breakpoint(text);
    ASSERT_TRUE(reparsed.ok()) << text << ": "
                               << reparsed.error().to_string();
    EXPECT_EQ(reparsed.value().describe(), text);
    // Binary round trip as well.
    ByteWriter writer;
    spec.encode(writer);
    ByteReader reader(writer.buffer());
    auto decoded = BreakpointSpec::decode(reader);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().describe(), text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace ddbg
