// The hierarchical debugger tier (AggregatorProcess + DebuggerProcess tree
// mode + Topology::with_debugger_tree): shape invariants, one command
// protocol for flat and tree mode, hostile input at an aggregator, flat-vs-
// tree verdict equivalence, wave retention at the root, marker-suppression
// equivalence, GlobalState move semantics, and chaos on interior tier
// channels.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/consistency.hpp"
#include "common/logging.hpp"
#include "core/debug_shim.hpp"
#include "debugger/aggregator.hpp"
#include "debugger/harness.hpp"
#include "net/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "tests/test_util.hpp"
#include "workload/behaviors.hpp"

// Allocations made so far by this binary (tests/alloc_counter.cpp): the
// convergecast move-semantics tests pin "no payload copies" as an
// allocation budget.
std::size_t allocation_count();

namespace ddbg {
namespace {

constexpr Duration kWait = Duration::seconds(30);

HarnessConfig tier_config(std::uint64_t seed, std::uint32_t fanout) {
  HarnessConfig config;
  config.seed = seed;
  config.debugger_fanout = fanout;
  return config;
}

// A process with no behaviour: its halted state depends on nothing, which
// isolates the control-plane marker flow from application timing.
class IdleProcess final : public Process {
 public:
  void on_message(ProcessContext&, ChannelId, Message) override {}
  [[nodiscard]] std::string describe_state() const override { return "idle"; }
};

std::vector<ProcessPtr> make_idle(std::uint32_t n) {
  std::vector<ProcessPtr> processes;
  for (std::uint32_t i = 0; i < n; ++i) {
    processes.push_back(std::make_unique<IdleProcess>());
  }
  return processes;
}

// ---------------------------------------------------------------------------
// Topology shape
// ---------------------------------------------------------------------------

TEST(DebuggerTierTopology, TreeShapeInvariants) {
  for (const std::uint32_t n : {1u, 2u, 5u, 16u, 100u}) {
    for (const std::uint32_t fanout : {2u, 4u, 16u}) {
      const Topology t = Topology(n).with_debugger_tree(fanout);
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " fanout=" + std::to_string(fanout));
      ASSERT_TRUE(t.has_debugger());
      EXPECT_EQ(t.num_user_processes(), n);
      EXPECT_EQ(t.num_processes(), n + t.num_tier_processes());
      EXPECT_EQ(t.num_aggregators(), t.num_tier_processes() - 1);
      EXPECT_EQ(t.tier_fanout(), fanout);
      // The root covers every user; the control tree alone makes the
      // topology strongly connected (section 2.2.3's property, preserved).
      EXPECT_EQ(t.tier_user_range(t.debugger_id()),
                (std::pair<std::uint32_t, std::uint32_t>{0, n}));
      EXPECT_TRUE(t.strongly_connected());
      // Every non-root process has a parent that lists it as a child, and
      // control channels to/from that parent.
      std::vector<std::uint32_t> covered(n, 0);
      for (const ProcessId p : t.process_ids()) {
        if (p == t.debugger_id()) {
          EXPECT_FALSE(t.tier_parent(p).valid());
          continue;
        }
        const ProcessId parent = t.tier_parent(p);
        ASSERT_TRUE(parent.valid()) << to_string(p);
        EXPECT_TRUE(t.is_aggregator(parent) || t.is_debugger(parent));
        bool listed = false;
        for (const ProcessId c : t.tier_children(parent)) listed |= c == p;
        EXPECT_TRUE(listed) << to_string(p);
        EXPECT_EQ(t.channel(t.control_to(p)).source, parent);
        EXPECT_EQ(t.channel(t.control_from(p)).destination, parent);
        if (p.value() < n) {
          // User: leaf of the tier.
          EXPECT_TRUE(t.tier_children(p).empty());
        } else {
          // Aggregator: at most `fanout` children whose user ranges tile
          // this node's range.
          const auto children = t.tier_children(p);
          EXPECT_LE(children.size(), fanout);
          EXPECT_FALSE(children.empty());
          auto [lo, hi] = t.tier_user_range(p);
          std::uint32_t cursor = lo;
          for (const ProcessId c : children) {
            const auto [clo, chi] = t.tier_user_range(c);
            EXPECT_EQ(clo, cursor);
            cursor = chi;
          }
          EXPECT_EQ(cursor, hi);
        }
      }
      for (const ProcessId u : t.user_process_ids()) {
        for (std::uint32_t i = t.tier_user_range(u).first;
             i < t.tier_user_range(u).second; ++i) {
          covered[i] += 1;
        }
      }
      for (std::uint32_t i = 0; i < n; ++i) EXPECT_EQ(covered[i], 1u);
    }
  }
}

TEST(DebuggerTierTopology, FlatDebuggerChildrenAreAllUsers) {
  const Topology t = Topology::ring(5).with_debugger();
  EXPECT_EQ(t.num_tier_processes(), 1u);
  EXPECT_EQ(t.tier_fanout(), 0u);
  const auto children = t.tier_children(t.debugger_id());
  ASSERT_EQ(children.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(children[i], ProcessId(i));
    EXPECT_EQ(t.tier_parent(ProcessId(i)), t.debugger_id());
  }
}

// ---------------------------------------------------------------------------
// One protocol at every tier node (fake contexts, hop by hop)
// ---------------------------------------------------------------------------

using testing::FakeContext;

// The root and every aggregator of `topology`, each on a fake context.
// pump() delivers tier traffic hop by hop and collects the control bytes
// that reach each user process.
class FakeTier {
 public:
  explicit FakeTier(Topology topology)
      : topology_(std::move(topology)),
        root_ctx_(topology_.debugger_id(), &topology_) {
    root_.on_start(root_ctx_);
    for (const ProcessId p : topology_.process_ids()) {
      if (!topology_.is_aggregator(p)) continue;
      Node& node = aggregators_[p];
      node.ctx = std::make_unique<FakeContext>(p, &topology_);
      node.process.on_start(*node.ctx);
    }
  }

  DebuggerProcess& root() { return root_; }
  FakeContext& root_ctx() { return root_ctx_; }

  // Control payloads received by user `p`, in order.
  const std::vector<Bytes>& received(ProcessId p) { return received_[p]; }

  // Delivers everything the root sent, plus `inject`, hop by hop.
  void pump(std::vector<std::pair<ChannelId, Message>> queue = {}) {
    auto drain = [&queue](FakeContext& ctx) {
      for (auto& sent : ctx.sent) queue.push_back(std::move(sent));
      ctx.sent.clear();
    };
    drain(root_ctx_);
    while (!queue.empty()) {
      auto [channel, message] = std::move(queue.front());
      queue.erase(queue.begin());
      const ProcessId to = topology_.channel(channel).destination;
      if (topology_.is_debugger(to)) {
        root_.on_message(root_ctx_, channel, std::move(message));
        drain(root_ctx_);
      } else if (topology_.is_aggregator(to)) {
        Node& node = aggregators_.at(to);
        node.process.on_message(*node.ctx, channel, std::move(message));
        drain(*node.ctx);
      } else if (message.kind == MessageKind::kControl) {
        received_[to].push_back(std::move(message.payload));
      }
    }
  }

  // User `p` reports its own halt snapshot for wave `wave`.
  void report_halt(ProcessId p, std::uint64_t wave) {
    ProcessSnapshot snapshot;
    snapshot.process = p;
    snapshot.halt_path = {topology_.tier_parent(p)};
    deliver(p, Command::halt_report(p, wave, snapshot));
  }
  // User `p` reports a recorded snapshot whose state is `state`.
  void report_snapshot(ProcessId p, std::uint64_t wave, Bytes state) {
    ProcessSnapshot snapshot;
    snapshot.process = p;
    snapshot.state = std::move(state);
    deliver(p, Command::snapshot_report(p, wave, snapshot));
  }

 private:
  struct Node {
    std::unique_ptr<FakeContext> ctx;
    AggregatorProcess process;
  };

  void deliver(ProcessId p, const Command& report) {
    std::vector<std::pair<ChannelId, Message>> queue;
    queue.emplace_back(topology_.control_from(p),
                       Message::control(report.encode()));
    pump(std::move(queue));
  }

  Topology topology_;
  FakeContext root_ctx_;
  DebuggerProcess root_;
  std::map<ProcessId, Node> aggregators_;
  std::map<ProcessId, std::vector<Bytes>> received_;
};

// Arm (linked and unordered), query, resume and disarm, as one session
// would issue them; returns what users p2 and p13 received.
std::pair<std::vector<Bytes>, std::vector<Bytes>> drive_commands(
    FakeTier& tier) {
  DebuggerProcess& d = tier.root();
  FakeContext& ctx = tier.root_ctx();
  BreakpointSpec linked;
  linked.kind = BreakpointSpec::Kind::kLinked;
  DisjunctivePredicate dp;
  dp.alternatives.push_back(SimplePredicate::user_event(ProcessId(13), "x"));
  linked.linked = LinkedPredicate::single(dp);
  const BreakpointId bp = d.set_breakpoint(ctx, linked);
  BreakpointSpec unordered;
  unordered.kind = BreakpointSpec::Kind::kConjunctive;
  unordered.mode = ConjunctionMode::kUnordered;
  unordered.conjunctive.terms.push_back(
      SimplePredicate::user_event(ProcessId(2), "a"));
  unordered.conjunctive.terms.push_back(
      SimplePredicate::user_event(ProcessId(13), "b"));
  d.set_breakpoint(ctx, unordered);
  d.query_state(ctx, ProcessId(13));
  d.initiate_halt(ctx);
  d.resume_all(ctx);
  d.clear_breakpoint(ctx, bp);
  tier.pump();
  return {tier.received(ProcessId(2)), tier.received(ProcessId(13))};
}

TEST(DebuggerTierProtocol, UsersReceiveIdenticalCommandBytesFlatAndTree) {
  FakeTier flat(Topology::ring(16).with_debugger());
  FakeTier tree(Topology::ring(16).with_debugger_tree(4));
  const auto [flat_p2, flat_p13] = drive_commands(flat);
  const auto [tree_p2, tree_p13] = drive_commands(tree);
  // p13: arm, arm_notify, query, resume, disarm.  p2: arm_notify, resume,
  // disarm.
  ASSERT_EQ(flat_p13.size(), 5u);
  ASSERT_EQ(flat_p2.size(), 3u);
  EXPECT_EQ(tree_p13, flat_p13);
  EXPECT_EQ(tree_p2, flat_p2);
  const std::vector<CommandKind> kinds = {
      CommandKind::kArmPredicate, CommandKind::kArmNotify,
      CommandKind::kQueryState, CommandKind::kResume,
      CommandKind::kDisarmBreakpoint};
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    auto command = Command::decode(tree_p13[i]);
    ASSERT_TRUE(command.ok());
    EXPECT_EQ(command.value().kind, kinds[i]);
    // Targeted commands name p13; broadcasts name nobody.
    EXPECT_EQ(command.value().target,
              i < 3 ? ProcessId(13) : ProcessId());
  }
}

TEST(DebuggerTierProtocol, ReportsMergeTheSameWayFlatAndTree) {
  // Users report their own snapshots; aggregators ship merged fragments up
  // under the same kind; the root keys halt paths by snapshot either way
  // and names the children it is still waiting on.
  FakeTier flat(Topology::ring(16).with_debugger());
  FakeTier tree(Topology::ring(16).with_debugger_tree(4));
  for (FakeTier* tier : {&flat, &tree}) {
    tier->root().initiate_halt(tier->root_ctx());
    tier->pump();
    for (std::uint32_t p = 0; p < 13; ++p) tier->report_halt(ProcessId(p), 1);
  }
  EXPECT_EQ(flat.root().describe_pending(true, 1),
            "waiting on 3 of 16 children: p13 [13,14), p14 [14,15), "
            "p15 [15,16)");
  // The root reads its own slot index: p12's record is still held below.
  EXPECT_EQ(tree.root().describe_pending(true, 1),
            "waiting on 1 of 4 children: p19 [12,16) "
            "(missing p12, p13, p14, p15)");
  for (FakeTier* tier : {&flat, &tree}) {
    for (std::uint32_t p = 13; p < 16; ++p) {
      tier->report_halt(ProcessId(p), 1);
    }
    auto wave = tier->root().halt_wave(1);
    ASSERT_TRUE(wave.has_value());
    EXPECT_TRUE(wave->complete);
    EXPECT_EQ(wave->state.size(), 16u);
    ASSERT_EQ(wave->halt_paths.size(), 16u);
    EXPECT_EQ(wave->halt_paths.at(ProcessId(15)).size(), 1u);
  }
}

// A timed-out wave names, for each pending child, the users the root's
// slot index still lacks.  An aggregator ships only a full fragment, so
// the root cannot see which of its users are the ones holding it up.
TEST(DebuggerTierProtocol, PendingNamesTheMissingUsersOfEachChild) {
  FakeTier tree(Topology::ring(16).with_debugger_tree(4));
  tree.root().initiate_halt(tree.root_ctx());
  tree.pump();
  for (std::uint32_t p = 0; p < 16; ++p) {
    if (p != 5 && p != 14) tree.report_halt(ProcessId(p), 1);
  }
  EXPECT_EQ(tree.root().describe_pending(true, 1),
            "waiting on 2 of 4 children: p17 [4,8) (missing p4, p5, p6, "
            "p7), p19 [12,16) (missing p12, p13, p14, p15)");
  tree.report_halt(ProcessId(5), 1);
  EXPECT_EQ(tree.root().describe_pending(true, 1),
            "waiting on 1 of 4 children: p19 [12,16) "
            "(missing p12, p13, p14, p15)");
  tree.report_halt(ProcessId(14), 1);
  EXPECT_EQ(tree.root().describe_pending(true, 1),
            "waiting on 0 of 4 children");

  // At most 8 users of a child are named.
  FakeTier wide(Topology::ring(64).with_debugger_tree(4));
  wide.root().initiate_halt(wide.root_ctx());
  wide.pump();
  const std::string pending = wide.root().describe_pending(true, 1);
  EXPECT_EQ(pending.substr(0, pending.find(',', pending.find("p7"))),
            "waiting on 4 of 4 children: p80 [0,16) (missing p0, p1, p2, "
            "p3, p4, p5, p6, p7")
      << pending;
  EXPECT_NE(pending.find("p7, +8 more)"), std::string::npos) << pending;
}

// A halt wave and a recording wave with the same id assemble side by side
// in one table, each from its own reports, up the same tier.
TEST(DebuggerTierProtocol, HaltAndRecordingWavesStayApart) {
  FakeTier tree(Topology::ring(16).with_debugger_tree(4));
  ASSERT_EQ(tree.root().initiate_halt(tree.root_ctx()), 1u);
  ASSERT_EQ(tree.root().initiate_snapshot(tree.root_ctx()), 1u);
  tree.pump();
  const auto recorded = [](std::uint32_t p) {
    return Bytes{0x5a, static_cast<std::uint8_t>(p)};
  };
  for (std::uint32_t p = 0; p < 8; ++p) {
    tree.report_halt(ProcessId(p), 1);
    tree.report_snapshot(ProcessId(p + 4), 1, recorded(p + 4));
  }
  EXPECT_EQ(tree.root().describe_pending(true, 1),
            "waiting on 2 of 4 children: p18 [8,12) (missing p8, p9, p10, "
            "p11), p19 [12,16) (missing p12, p13, p14, p15)");
  EXPECT_EQ(tree.root().describe_pending(false, 1),
            "waiting on 2 of 4 children: p16 [0,4) (missing p0, p1, p2, "
            "p3), p19 [12,16) (missing p12, p13, p14, p15)");
  EXPECT_FALSE(tree.root().halt_complete(1));
  EXPECT_FALSE(tree.root().snapshot_complete(1));
  for (std::uint32_t p = 0; p < 4; ++p) {
    tree.report_snapshot(ProcessId(p), 1, recorded(p));
    tree.report_snapshot(ProcessId(p + 12), 1, recorded(p + 12));
    tree.report_halt(ProcessId(p + 8), 1);
    tree.report_halt(ProcessId(p + 12), 1);
  }
  const auto halted = tree.root().halt_wave(1);
  const auto snapshot = tree.root().snapshot_wave(1);
  ASSERT_TRUE(halted.has_value() && snapshot.has_value());
  EXPECT_TRUE(halted->complete);
  EXPECT_TRUE(snapshot->complete);
  ASSERT_EQ(halted->state.size(), 16u);
  ASSERT_EQ(snapshot->state.size(), 16u);
  EXPECT_EQ(halted->halt_paths.size(), 16u);
  EXPECT_TRUE(snapshot->halt_paths.empty());
  for (const auto& [p, s] : halted->state.snapshots()) {
    EXPECT_TRUE(s.state.empty()) << to_string(p);
    EXPECT_EQ(s.halt_path.size(), 1u) << to_string(p);
  }
  for (const auto& [p, s] : snapshot->state.snapshots()) {
    EXPECT_EQ(s.state, recorded(p.value())) << to_string(p);
    EXPECT_TRUE(s.halt_path.empty()) << to_string(p);
  }
}

// Hostile input at an aggregator: the leaf covering users [0, 4) of a
// fanout-4 tier over 16 users.
struct LeafFixture {
  Topology topology = Topology::ring(16).with_debugger_tree(4);
  ProcessId leaf = topology.tier_parent(ProcessId(0));
  ProcessId parent = topology.tier_parent(leaf);
  FakeContext ctx{leaf, &topology};
  AggregatorProcess aggregator;

  LeafFixture() { aggregator.on_start(ctx); }

  void from_parent(const Command& command) {
    aggregator.on_message(ctx, topology.control_to(leaf),
                          Message::control(command.encode()));
  }
  void from_user(ProcessId p, const Command& command) {
    aggregator.on_message(ctx, topology.control_from(p),
                          Message::control(command.encode()));
  }
  // Halt wave `wave`'s marker arrives from the parent, as it does before
  // any report of the wave; the markers it forwards are not kept in `sent`.
  void open_halt(std::uint64_t wave) {
    const std::size_t before = ctx.sent.size();
    aggregator.on_message(ctx, topology.control_to(leaf),
                          Message::halt_marker(HaltId(wave), {parent}));
    ctx.sent.erase(ctx.sent.begin() + static_cast<std::ptrdiff_t>(before),
                   ctx.sent.end());
  }
};

// A fragment lives only while its wave assembles: after 50 waves the
// aggregator holds just the one still in progress.
TEST(DebuggerTierProtocol, AggregatorKeepsOnlyInProgressFragments) {
  LeafFixture fx;
  const auto report = [&](std::uint32_t p, std::uint64_t wave) {
    ProcessSnapshot snapshot;
    snapshot.process = ProcessId(p);
    fx.from_user(ProcessId(p),
                 Command::halt_report(ProcessId(p), wave, {snapshot}));
  };
  for (std::uint64_t wave = 1; wave <= 50; ++wave) {
    fx.open_halt(wave);
    report(0, wave);
    report(1, wave);
    EXPECT_EQ(fx.aggregator.fragments_in_progress(), 1u);
    report(2, wave);
    report(3, wave);
    EXPECT_EQ(fx.aggregator.fragments_in_progress(), 0u);
  }
  EXPECT_EQ(fx.ctx.sent.size(), 50u);  // one report up per wave
  fx.open_halt(51);
  report(0, 51);
  EXPECT_EQ(fx.aggregator.fragments_in_progress(), 1u);
}

// Counts the warnings logged while it lives.
struct WarningCount {
  std::size_t warnings = 0;
  WarningCount() {
    Logger::instance().set_sink([this](LogLevel level, std::string_view) {
      warnings += level == LogLevel::kWarn ? 1 : 0;
    });
  }
  ~WarningCount() { Logger::instance().set_sink(nullptr); }
};

// Reports for waves the aggregator never adopted are stale or hostile: each
// is logged and dropped, and none opens a fragment.
TEST(DebuggerTierProtocol, AggregatorDropsReportsForWavesItNeverAdopted) {
  LeafFixture fx;
  ProcessSnapshot snapshot;
  snapshot.process = ProcessId(0);
  WarningCount log;
  for (std::uint64_t wave = 1; wave <= 10'000; ++wave) {
    fx.from_user(ProcessId(0),
                 Command::halt_report(ProcessId(0), wave, snapshot));
  }
  EXPECT_EQ(fx.aggregator.fragments_in_progress(), 0u);
  EXPECT_EQ(log.warnings, 10'000u);
  EXPECT_TRUE(fx.ctx.sent.empty());
}

// A shipped wave is closed: a late report neither reopens its fragment nor
// ships it a second time.
TEST(DebuggerTierProtocol, AggregatorDoesNotReopenAShippedWave) {
  LeafFixture fx;
  const auto report = [&](std::uint32_t p) {
    ProcessSnapshot snapshot;
    snapshot.process = ProcessId(p);
    fx.from_user(ProcessId(p),
                 Command::halt_report(ProcessId(p), 1, snapshot));
  };
  fx.open_halt(1);
  for (std::uint32_t p = 0; p < 4; ++p) report(p);
  ASSERT_EQ(fx.ctx.sent.size(), 1u);
  WarningCount log;
  for (std::uint32_t p = 0; p < 4; ++p) report(p);
  EXPECT_EQ(fx.aggregator.fragments_in_progress(), 0u);
  EXPECT_EQ(log.warnings, 4u);
  EXPECT_EQ(fx.ctx.sent.size(), 1u);
}

TEST(DebuggerTierProtocol, AggregatorDropsTargetOutsideItsSubtree) {
  LeafFixture fx;
  ASSERT_EQ(fx.topology.tier_user_range(fx.leaf),
            (std::pair<std::uint32_t, std::uint32_t>{0, 4}));
  Command query = Command::query_state();
  query.target = ProcessId(13);
  fx.from_parent(query);
  EXPECT_TRUE(fx.ctx.sent.empty());
  // The same command for a user below it goes to that user alone, as sent.
  query.target = ProcessId(2);
  fx.from_parent(query);
  ASSERT_EQ(fx.ctx.sent.size(), 1u);
  EXPECT_EQ(fx.ctx.sent[0].first, fx.topology.control_to(ProcessId(2)));
  EXPECT_EQ(fx.ctx.sent[0].second.payload, query.encode());
}

TEST(DebuggerTierProtocol, AggregatorTakesDirectionFromTheChannel) {
  LeafFixture fx;
  fx.from_user(ProcessId(0), Command::resume(1));  // downward from a child
  fx.from_parent(Command::breakpoint_hit(ProcessId(0), BreakpointId(1),
                                         "x"));  // upward from the parent
  EXPECT_TRUE(fx.ctx.sent.empty());
  // The right directions pass: a relay up, a broadcast down.
  fx.from_user(ProcessId(0),
               Command::breakpoint_hit(ProcessId(0), BreakpointId(1), "x"));
  fx.from_parent(Command::resume(1));
  ASSERT_EQ(fx.ctx.sent.size(), 5u);
  EXPECT_EQ(fx.ctx.sent[0].first, fx.topology.control_from(fx.leaf));
}

TEST(DebuggerTierProtocol, AggregatorMergesOnlyItsChildrensOwnSnapshots) {
  LeafFixture fx;
  auto snapshot = [](std::uint32_t p) {
    ProcessSnapshot s;
    s.process = ProcessId(p);
    return s;
  };
  // p0's channel speaks only for p0: neither p1 nor a user of another
  // subtree may fill the fragment in its name.
  fx.open_halt(1);
  fx.from_user(ProcessId(0), Command::halt_report(ProcessId(0), 1,
                                                  {snapshot(1)}));
  fx.from_user(ProcessId(0),
               testing::report_of(CommandKind::kHaltReport, ProcessId(0), 1,
                                  {snapshot(0), snapshot(9)}));
  fx.from_user(ProcessId(0), testing::report_of(CommandKind::kHaltReport,
                                                ProcessId(0), 1, {}));
  EXPECT_TRUE(fx.ctx.sent.empty());
  for (std::uint32_t p = 0; p < 4; ++p) {
    fx.from_user(ProcessId(p),
                 Command::halt_report(ProcessId(p), 1, {snapshot(p)}));
  }
  ASSERT_EQ(fx.ctx.sent.size(), 1u);
  auto up = Command::decode(fx.ctx.sent[0].second.payload);
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up.value().kind, CommandKind::kHaltReport);
  EXPECT_EQ(up.value().reporter, fx.leaf);
  ASSERT_EQ(up.value().reports.size(), 4u);
  EXPECT_EQ(up.value().reports[3].process, ProcessId(3));
}

// ---------------------------------------------------------------------------
// Flat vs tree verdict equivalence
// ---------------------------------------------------------------------------

// A finished (quiescent) workload halts to a state that does not depend on
// marker timing, so the flat and tree cuts must be Theorem-2 identical.
TEST(DebuggerTier, QuiescedHaltStateIdenticalFlatVsTree) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const std::uint32_t fanout : {2u, 3u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " fanout=" + std::to_string(fanout));
      TokenRingConfig ring;
      ring.rounds = 3;
      auto run = [&](std::uint32_t debugger_fanout) {
        SimDebugHarness harness(Topology::ring(9), make_token_ring(9, ring),
                                tier_config(seed, debugger_fanout));
        harness.sim().run_for(Duration::seconds(2));  // workload finishes
        harness.session().halt();
        auto wave = harness.session().wait_for_halt(kWait);
        EXPECT_TRUE(wave.has_value());
        return wave;
      };
      auto flat = run(0);
      auto tree = run(fanout);
      ASSERT_TRUE(flat.has_value() && tree.has_value());
      EXPECT_EQ(tree->state.size(), 9u);
      const auto difference = flat->state.first_difference(tree->state);
      EXPECT_FALSE(difference.has_value()) << *difference;
      EXPECT_TRUE(consistent_cut(tree->state));
    }
  }
}

TEST(DebuggerTier, QuiescedSnapshotIdenticalFlatVsTree) {
  TokenRingConfig ring;
  ring.rounds = 2;
  auto run = [&](std::uint32_t fanout) {
    SimDebugHarness harness(Topology::ring(7), make_token_ring(7, ring),
                            tier_config(4, fanout));
    harness.sim().run_for(Duration::seconds(2));
    auto wave = harness.session().take_snapshot(kWait);
    EXPECT_TRUE(wave.has_value());
    return wave;
  };
  auto flat = run(0);
  auto tree = run(2);
  ASSERT_TRUE(flat.has_value() && tree.has_value());
  // Recordings carry no halt paths, so the rendering is byte-identical too.
  EXPECT_EQ(flat->state.describe(), tree->state.describe());
  EXPECT_FALSE(flat->state.first_difference(tree->state).has_value());
}

// Theorem 2 *within* tree mode, mid-flight: S_h == S_r on the same
// deterministic execution, with markers crossing the aggregator tier.
TEST(DebuggerTier, TreeHaltedEqualsTreeRecorded) {
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Duration point = Duration::millis(40);
    SimDebugHarness record_run(Topology::ring(9),
                               make_gossip(9, GossipConfig{}),
                               tier_config(seed, 3));
    record_run.sim().run_for(point);
    auto recorded = record_run.session().take_snapshot(kWait);
    ASSERT_TRUE(recorded.has_value());

    SimDebugHarness halt_run(Topology::ring(9), make_gossip(9, GossipConfig{}),
                             tier_config(seed, 3));
    halt_run.sim().run_for(point);
    halt_run.session().halt();
    auto halted = halt_run.session().wait_for_halt(kWait);
    ASSERT_TRUE(halted.has_value());

    const auto difference = halted->state.first_difference(recorded->state);
    EXPECT_FALSE(difference.has_value()) << *difference;
  }
}

// Mid-flight verdict on a tree tier: money in transit plus balances is
// conserved, and the cut is vector-clock consistent.
TEST(DebuggerTier, BankConservationAcrossTreeHaltedState) {
  for (const std::uint64_t seed : {11u, 12u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    BankConfig bank;
    SimDebugHarness harness(Topology::complete(8), make_bank(8, bank),
                            tier_config(seed, 2));
    harness.sim().run_for(Duration::millis(60));
    harness.session().halt();
    auto wave = harness.session().wait_for_halt(kWait);
    ASSERT_TRUE(wave.has_value());
    EXPECT_EQ(wave->state.size(), 8u);
    auto total = BankProcess::total_money(wave->state);
    ASSERT_TRUE(total.ok());
    EXPECT_EQ(total.value(), 8 * bank.initial_balance);
    EXPECT_TRUE(consistent_cut(wave->state));
    for (std::uint32_t i = 0; i < 8; ++i) {
      EXPECT_TRUE(harness.shim(ProcessId(i)).halted());
      EXPECT_EQ(harness.shim(ProcessId(i)).halting().last_halt_id(), 1u);
    }
  }
}

// Halt paths through the tier start at the root and walk aggregators, and
// every user's last_halt_id agrees (section 2.2.1's invariant).
TEST(DebuggerTier, HaltPathsWalkTheTier) {
  SimDebugHarness harness(Topology::ring(8), make_gossip(8, GossipConfig{}),
                          tier_config(13, 2));
  harness.sim().run_for(Duration::millis(20));
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  const Topology& t = harness.topology();
  const ProcessId root = harness.debugger_id();
  for (const auto& [p, path] : wave->halt_paths) {
    ASSERT_FALSE(path.empty()) << to_string(p);
    EXPECT_EQ(path.front(), root) << to_string(p);
    // Everything on the path before the first user process is tier-side.
    for (const ProcessId hop : path) {
      if (hop.value() < t.num_user_processes()) break;
      EXPECT_TRUE(t.is_aggregator(hop) || t.is_debugger(hop));
    }
  }
}

// ---------------------------------------------------------------------------
// Control-plane routing through the tier
// ---------------------------------------------------------------------------

TEST(DebuggerTier, BreakpointFiresThroughTier) {
  TokenRingConfig ring;
  ring.rounds = 100;
  SimDebugHarness harness(Topology::ring(6), make_token_ring(6, ring),
                          tier_config(14, 2));
  auto bp = harness.session().set_breakpoint(
      "p1:event(token) -> p4:event(token)");
  ASSERT_TRUE(bp.ok());
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  const auto hits = harness.session().hits();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].process, ProcessId(4));  // chain completes at p4
  EXPECT_EQ(hits[0].breakpoint, bp.value());
  EXPECT_TRUE(consistent_cut(wave->state));
}

TEST(DebuggerTier, QueryStateRoutesThroughTier) {
  SimDebugHarness harness(Topology::ring(8), make_gossip(8, GossipConfig{}),
                          tier_config(15, 2));
  harness.sim().run_for(Duration::millis(30));
  auto report = harness.session().inspect(ProcessId(6), kWait);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->process, ProcessId(6));
  EXPECT_NE(report->description.find("sent="), std::string::npos);
}

TEST(DebuggerTier, ResumeThroughTierContinuesExecution) {
  SimDebugHarness harness(Topology::ring(8), make_gossip(8, GossipConfig{}),
                          tier_config(16, 2));
  harness.sim().run_for(Duration::millis(30));
  harness.session().halt();
  ASSERT_TRUE(harness.session().wait_for_halt(kWait).has_value());
  const auto& p0 =
      dynamic_cast<GossipProcess&>(harness.shim(ProcessId(0)).user());
  const std::uint64_t sent_at_halt = p0.sent();
  harness.sim().run_for(Duration::millis(50));
  EXPECT_EQ(p0.sent(), sent_at_halt);  // frozen
  harness.session().resume();
  harness.sim().run_for(Duration::millis(80));
  EXPECT_FALSE(harness.shim(ProcessId(0)).halted());
  EXPECT_GT(p0.sent(), sent_at_halt);
}

TEST(DebuggerTier, RepeatedWavesThroughTierStayConsistent) {
  SimDebugHarness harness(Topology::ring(9), make_gossip(9, GossipConfig{}),
                          tier_config(17, 3));
  for (std::uint64_t wave_id = 1; wave_id <= 3; ++wave_id) {
    harness.sim().run_for(Duration::millis(20));
    harness.session().halt();
    ASSERT_TRUE(harness.sim().run_until_condition(
        [&] { return harness.debugger().halt_complete(wave_id); },
        harness.sim().now() + kWait));
    auto wave = harness.debugger().halt_wave(wave_id);
    ASSERT_TRUE(wave.has_value());
    EXPECT_EQ(wave->state.size(), 9u);
    EXPECT_TRUE(consistent_cut(wave->state));
    harness.session().resume();
  }
}

// d keeps every completed wave as the encode_snapshots() bytes it
// assembled, and nothing else: 200 waves later, the first and the
// hundredth still read back exactly as wait_for_halt returned them.
TEST(WaveRetention, OldWavesReadBackAsTheyCompleted) {
  SimDebugHarness harness(Topology::ring(16), make_gossip(16, GossipConfig{}),
                          tier_config(23, 4));
  std::map<std::uint64_t, DebuggerProcess::WaveInfo> kept;
  for (std::uint64_t wave_id = 1; wave_id <= 200; ++wave_id) {
    harness.sim().run_for(Duration::millis(3));
    harness.session().halt();
    auto wave = harness.session().wait_for_halt(kWait);
    ASSERT_TRUE(wave.has_value());
    ASSERT_EQ(wave->id, wave_id);
    ASSERT_EQ(wave->state.size(), 16u);
    const Bytes encoded = wave->state.encode_snapshots();
    EXPECT_EQ(*wave->encoded, encoded);
    EXPECT_EQ(harness.debugger().stored_halt_bytes(wave_id), encoded.size());
    if (wave_id == 1 || wave_id == 100) kept.emplace(wave_id, *wave);
    harness.session().resume();
  }
  for (const auto& [wave_id, then] : kept) {
    auto now = harness.debugger().halt_wave(wave_id);
    ASSERT_TRUE(now.has_value());
    EXPECT_TRUE(now->complete);
    EXPECT_EQ(now->state.encode_snapshots(), then.state.encode_snapshots());
    EXPECT_EQ(now->halt_paths, then.halt_paths);
    EXPECT_EQ(now->encoded, then.encoded) << "one stored buffer per wave";
    EXPECT_EQ(harness.debugger().stored_halt_bytes(wave_id),
              then.encoded->size());
  }
  EXPECT_EQ(harness.debugger().stored_halt_bytes(201), 0u);
}

// ---------------------------------------------------------------------------
// Marker suppression
// ---------------------------------------------------------------------------

// With only control channels, a debugger-initiated halt makes every user
// learn the wave from its parent — each user's single control out-channel
// echo is exactly the redundant send, so the counter is exact.
TEST(DebuggerTier, SuppressionCountsAndPreservesVerdict) {
  auto run = [&](bool suppress, std::uint32_t fanout) {
    HarnessConfig config = tier_config(18, fanout);
    config.shim_options.suppress_redundant_markers = suppress;
    SimDebugHarness harness(Topology(6), make_idle(6), std::move(config));
    harness.sim().run_for(Duration::millis(5));
    harness.session().halt();
    auto wave = harness.session().wait_for_halt(kWait);
    EXPECT_TRUE(wave.has_value());
    EXPECT_TRUE(wave->complete);
    EXPECT_EQ(wave->state.size(), 6u);
    return harness.sim().metrics().snapshot().tier.markers_suppressed;
  };
  EXPECT_EQ(run(/*suppress=*/false, /*fanout=*/0), 0u);
  EXPECT_EQ(run(/*suppress=*/true, /*fanout=*/0), 6u);
  // Tree mode: the six user echoes are suppressed the same way; interior
  // aggregators additionally skip the back-edge toward the wave's sender.
  EXPECT_GE(run(/*suppress=*/true, /*fanout=*/2), 6u);
}

// The flood (suppression off) and the suppressed run halt to Theorem-2
// identical states on a quiesced workload, flat and tree alike.
TEST(DebuggerTier, SuppressionDoesNotChangeQuiescedVerdict) {
  TokenRingConfig ring;
  ring.rounds = 3;
  auto run = [&](bool suppress, std::uint32_t fanout) {
    HarnessConfig config = tier_config(19, fanout);
    config.shim_options.suppress_redundant_markers = suppress;
    SimDebugHarness harness(Topology::ring(6), make_token_ring(6, ring),
                            std::move(config));
    harness.sim().run_for(Duration::seconds(2));
    harness.session().halt();
    auto wave = harness.session().wait_for_halt(kWait);
    EXPECT_TRUE(wave.has_value());
    return wave;
  };
  auto flood = run(false, 0);
  for (const std::uint32_t fanout : {0u, 2u}) {
    auto suppressed = run(true, fanout);
    ASSERT_TRUE(flood.has_value() && suppressed.has_value());
    const auto difference = flood->state.first_difference(suppressed->state);
    EXPECT_FALSE(difference.has_value())
        << "fanout " << fanout << ": " << *difference;
  }
}

// ---------------------------------------------------------------------------
// Convergecast move semantics (allocation pins)
// ---------------------------------------------------------------------------

ProcessSnapshot heavy_snapshot(std::uint32_t pid) {
  ProcessSnapshot snapshot;
  snapshot.process = ProcessId(pid);
  snapshot.state = Bytes(1024, 0x5a);
  for (std::uint32_t c = 0; c < 8; ++c) {
    ChannelState cs;
    cs.channel = ChannelId(c);
    for (std::uint32_t m = 0; m < 16; ++m) {
      cs.messages.push_back(Bytes(256, static_cast<std::uint8_t>(m)));
    }
    snapshot.in_channels.push_back(std::move(cs));
  }
  return snapshot;
}

TEST(GlobalStateMove, AddByRvalueDoesNotCopyPayloads) {
  GlobalState state{HaltId(1)};
  ProcessSnapshot snapshot = heavy_snapshot(3);
  const std::size_t before = allocation_count();
  state.add(std::move(snapshot));
  const std::size_t allocations = allocation_count() - before;
  // One map node plus slack; the 128 payload buffers must move, not copy.
  EXPECT_LE(allocations, 4u) << "aggregation path is copying snapshots";
  EXPECT_EQ(state.at(ProcessId(3)).in_channels.size(), 8u);
}

TEST(GlobalStateMove, LvalueAddStillCopies) {
  GlobalState state{HaltId(1)};
  const ProcessSnapshot snapshot = heavy_snapshot(0);
  state.add(snapshot);  // const ref: must copy, caller keeps its snapshot
  EXPECT_EQ(snapshot.in_channels.size(), 8u);
  EXPECT_FALSE(snapshot.state.empty());
  EXPECT_EQ(state.at(ProcessId(0)).in_channels.size(), 8u);
}

// ---------------------------------------------------------------------------
// Chaos on interior tier channels
// ---------------------------------------------------------------------------

// Faults on an interior aggregator's channels (the convergecast trunk):
// with the reliability layer on, the wave still completes with a
// consistent, conservation-clean verdict.
TEST(DebuggerTierChaos, InteriorAggregatorChannelFaults) {
  BankConfig bank;
  const Topology topology = Topology::complete(8).with_debugger_tree(2);
  // Find an interior aggregator (a non-root tier node with aggregator
  // children) and aim the adversary at every channel touching it.
  ProcessId interior;
  for (const ProcessId p : topology.process_ids()) {
    if (!topology.is_aggregator(p)) continue;
    for (const ProcessId c : topology.tier_children(p)) {
      if (topology.is_aggregator(c)) interior = p;
    }
  }
  ASSERT_TRUE(interior.valid()) << "fanout 2 over 8 users has 3 tier levels";
  FaultSpec lossy;
  lossy.drop = 0.15;
  lossy.duplicate = 0.10;
  lossy.reorder = 0.10;
  auto plan = std::make_shared<FaultPlan>(FaultSpec{}, 7);
  for (const ChannelSpec& channel : topology.channels()) {
    if (channel.source == interior || channel.destination == interior) {
      plan->set_channel(channel.id, lossy);
    }
  }
  HarnessConfig config = tier_config(20, 2);
  config.faults = std::move(plan);
  SimDebugHarness harness(Topology::complete(8), make_bank(8, bank),
                          std::move(config));
  harness.sim().run_for(Duration::millis(50));
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(wave->complete);
  EXPECT_EQ(wave->state.size(), 8u);
  auto total = BankProcess::total_money(wave->state);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total.value(), 8 * bank.initial_balance);
  EXPECT_TRUE(consistent_cut(wave->state));
  // The adversary actually bit: the verdict above survived real loss, not a
  // lucky fault-free run.
  const auto transport = harness.sim().metrics().snapshot().transport;
  std::uint64_t injected = 0;
  for (const std::uint64_t count : transport.faults_injected) {
    injected += count;
  }
  EXPECT_GT(injected, 0u);
  EXPECT_GT(transport.retransmits, 0u);
}

// ---------------------------------------------------------------------------
// Threaded runtime
// ---------------------------------------------------------------------------

TEST(DebuggerTierRuntime, TreeHaltOnThreads) {
  GossipConfig gossip;
  RuntimeDebugHarness harness(Topology::ring(8), make_gossip(8, gossip),
                              tier_config(21, 2));
  harness.start();
  auto wave_started = Runtime::wait_until(
      [&] {
        return dynamic_cast<GossipProcess&>(harness.shim(ProcessId(0)).user())
                   .sent() > 0;
      },
      kWait);
  ASSERT_TRUE(wave_started);
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(wave->complete);
  EXPECT_EQ(wave->state.size(), 8u);
  EXPECT_TRUE(consistent_cut(wave->state));
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(harness.shim(ProcessId(i)).halted());
  }
  harness.shutdown();
}

// ---------------------------------------------------------------------------
// TCP runtime: the tier over real sockets (epoll reactor under load)
// ---------------------------------------------------------------------------

// Moderate-N tree halt over TCP loopback: every convergecast hop is a real
// socket frame, repeated waves with resumes in between.  Also pins the
// transport economics — channel multiplexing keeps the socket count below
// the channel count even with a full control tree wired in.
TEST(DebuggerTierTcp, TreeHaltAtModerateN) {
  constexpr std::uint32_t kUsers = 32;
  GossipConfig gossip;
  gossip.send_interval = Duration::millis(1);
  TcpDebugHarness harness(Topology::ring(kUsers), make_gossip(kUsers, gossip),
                          tier_config(22, 4));
  const std::size_t channels = harness.topology().channels().size();
  EXPECT_LT(harness.tcp().data_socket_count(), channels)
      << "pair muxing should need fewer sockets than channels";
  ASSERT_TRUE(harness.start());
  const auto& p0 =
      dynamic_cast<GossipProcess&>(harness.shim(ProcessId(0)).user());
  for (std::uint64_t wave_id = 1; wave_id <= 2; ++wave_id) {
    const std::uint64_t sent_before = p0.sent();
    ASSERT_TRUE(TcpRuntime::wait_until(
        [&] { return p0.sent() > sent_before; }, kWait));
    harness.session().halt();
    ASSERT_TRUE(TcpRuntime::wait_until(
        [&] { return harness.debugger().halt_complete(wave_id); }, kWait));
    auto wave = harness.debugger().halt_wave(wave_id);
    ASSERT_TRUE(wave.has_value());
    EXPECT_TRUE(wave->complete);
    EXPECT_EQ(wave->state.size(), kUsers);
    EXPECT_TRUE(consistent_cut(wave->state));
    for (std::uint32_t i = 0; i < kUsers; ++i) {
      EXPECT_TRUE(harness.shim(ProcessId(i)).halted()) << i;
    }
    harness.session().resume();
  }
  harness.shutdown();
  const auto transport =
      harness.tcp().metrics().snapshot(harness.tcp().now()).transport;
  EXPECT_GT(transport.epoll_wakeups, 0u);
  EXPECT_GE(transport.mux_channels_per_socket, 2u);
}

// A breakpoint armed through the aggregator tier, hit on a socket-borne
// event, halting through the tier again.  The start gate holds the ring
// until the arm command has crossed two tier hops.
TEST(DebuggerTierTcp, BreakpointFiresThroughTierOverSockets) {
  TokenRingConfig ring;
  ring.rounds = 1000;
  ring.hop_delay = Duration::micros(500);
  ring.start_gate = std::make_shared<std::atomic<bool>>(false);
  TcpDebugHarness harness(Topology::ring(6), make_token_ring(6, ring),
                          tier_config(23, 2));
  ASSERT_TRUE(harness.start());
  auto bp = harness.session().set_breakpoint("(p2:event(token))^2");
  ASSERT_TRUE(bp.ok());
  ASSERT_TRUE(harness.wait_for_armed(1, kWait));
  ring.start_gate->store(true, std::memory_order_release);
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(wave->complete);
  const auto hits = harness.session().hits();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].process, ProcessId(2));
  EXPECT_EQ(hits[0].breakpoint, bp.value());
  const auto& p2 =
      dynamic_cast<TokenRingProcess&>(harness.shim(ProcessId(2)).user());
  EXPECT_EQ(p2.tokens_seen(), 2u);
  EXPECT_TRUE(consistent_cut(wave->state));
  harness.shutdown();
}

// Connections reset mid-run (including tier control channels), forcing
// reconnects and resyncs underneath a halt wave; the wave must still
// complete on a consistent cut over the healed transport.
TEST(DebuggerTierTcp, ReconnectDuringHaltWave) {
  GossipConfig gossip;
  gossip.send_interval = Duration::millis(1);
  FaultSpec spec;
  spec.drop = 0.05;
  spec.reset = 0.04;
  HarnessConfig config = tier_config(24, 2);
  config.faults = std::make_shared<FaultPlan>(spec, 24);
  TcpDebugHarness harness(Topology::ring(8), make_gossip(8, gossip),
                          std::move(config));
  ASSERT_TRUE(harness.start());
  // Let traffic flow until at least one reset has forced a reconnect, so
  // the halt below crosses a socket that demonstrably went down and back.
  ASSERT_TRUE(TcpRuntime::wait_until(
      [&] {
        return harness.tcp().metrics().snapshot(harness.tcp().now())
                   .transport.reconnects >= 1;
      },
      kWait));
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(wave->complete);
  EXPECT_EQ(wave->state.size(), 8u);
  EXPECT_TRUE(consistent_cut(wave->state));
  harness.shutdown();
  const auto transport =
      harness.tcp().metrics().snapshot(harness.tcp().now()).transport;
  EXPECT_GT(transport.faults_injected[fault_index(FaultKind::kReset)], 0u);
  EXPECT_GT(transport.reconnects, 0u);
  EXPECT_GT(transport.resync_replayed, 0u);
}

}  // namespace
}  // namespace ddbg
