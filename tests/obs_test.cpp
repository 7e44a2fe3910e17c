// Observability layer: MetricsRegistry unit tests, snapshot/JSON schema
// sanity, and counter parity — the same deterministic workload must
// produce the same traffic counters on the simulator, the threaded
// runtime and the TCP runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/debug_shim.hpp"
#include "core/event.hpp"
#include "obs/metrics.hpp"
#include "runtime/runtime.hpp"
#include "runtime/tcp_runtime.hpp"
#include "sim/simulation.hpp"
#include "workload/behaviors.hpp"

namespace ddbg {
namespace {

constexpr Duration kWait = Duration::seconds(20);

// Traffic-class indices (pinned to MessageKind by a static_assert in
// net/transport_hooks.hpp).
constexpr std::uint8_t kApp = 0;
constexpr std::uint8_t kControl = 4;

obs::MetricsRegistry make_registry() {
  // Two processes, channel 0: 0 -> 1 (app), channel 1: 1 -> 0 (control).
  std::vector<obs::ChannelMeta> meta;
  meta.push_back(obs::ChannelMeta{0, 1, false});
  meta.push_back(obs::ChannelMeta{1, 0, true});
  return obs::MetricsRegistry("sim", 2, std::move(meta));
}

TEST(Metrics, CountersAccumulatePerChannelAndClass) {
  obs::MetricsRegistry registry = make_registry();
  registry.on_send(0, kApp, 10);
  registry.on_send(0, kApp, 14);
  registry.on_deliver(0, kApp, 10);
  registry.on_send(1, kControl, 7);
  registry.observe_backlog(0, 3);
  registry.observe_backlog(0, 1);
  registry.add_send_blocked(1, 500);
  registry.observe_queue_depth(1, 9);

  const obs::TotalsSnapshot totals = registry.totals();
  EXPECT_EQ(totals.sent[kApp], 2u);
  EXPECT_EQ(totals.sent[kControl], 1u);
  EXPECT_EQ(totals.delivered[kApp], 1u);
  EXPECT_EQ(totals.messages_sent, 3u);
  EXPECT_EQ(totals.messages_delivered, 1u);
  EXPECT_EQ(totals.bytes_sent, 31u);
  EXPECT_EQ(totals.bytes_delivered, 10u);

  const obs::MetricsSnapshot snap = registry.snapshot(TimePoint{1000});
  ASSERT_EQ(snap.channels.size(), 2u);
  EXPECT_EQ(snap.channels[0].sent[kApp], 2u);
  EXPECT_EQ(snap.channels[0].bytes_sent, 24u);
  EXPECT_EQ(snap.channels[0].max_backlog, 3u);
  EXPECT_FALSE(snap.channels[0].is_control);
  EXPECT_EQ(snap.channels[1].sent[kControl], 1u);
  EXPECT_EQ(snap.channels[1].send_blocked_ns, 500u);
  EXPECT_TRUE(snap.channels[1].is_control);

  // Per-process attribution: process 0 sent on channel 0 and received on
  // channel 1; process 1 the reverse.
  ASSERT_EQ(snap.processes.size(), 2u);
  EXPECT_EQ(snap.processes[0].sent[kApp], 2u);
  EXPECT_EQ(snap.processes[0].delivered[kControl], 0u);
  EXPECT_EQ(snap.processes[1].delivered[kApp], 1u);
  EXPECT_EQ(snap.processes[1].sent[kControl], 1u);
  EXPECT_EQ(snap.processes[1].max_queue_depth, 9u);
  EXPECT_EQ(snap.elapsed_ns, 1000);
}

TEST(Metrics, SpanLifecycle) {
  obs::MetricsRegistry registry = make_registry();
  registry.span_begin(obs::Span::kHaltWave, 1, TimePoint{100});
  registry.span_end(obs::Span::kHaltWave, 1, TimePoint{350});
  const obs::LatencyStat& stat = registry.span_stat(obs::Span::kHaltWave);
  EXPECT_EQ(stat.count(), 1u);
  EXPECT_EQ(stat.total_ns(), 250u);
  EXPECT_EQ(stat.min_ns(), 250u);
  EXPECT_EQ(stat.max_ns(), 250u);
}

TEST(Metrics, SpanEndWithoutBeginIsNoOp) {
  obs::MetricsRegistry registry = make_registry();
  registry.span_end(obs::Span::kArm, 42, TimePoint{500});
  EXPECT_EQ(registry.span_stat(obs::Span::kArm).count(), 0u);
}

TEST(Metrics, SpanEarliestBeginWins) {
  obs::MetricsRegistry registry = make_registry();
  registry.span_begin(obs::Span::kArm, 7, TimePoint{100});
  registry.span_begin(obs::Span::kArm, 7, TimePoint{900});  // ignored
  registry.span_end(obs::Span::kArm, 7, TimePoint{1100});
  const obs::LatencyStat& stat = registry.span_stat(obs::Span::kArm);
  EXPECT_EQ(stat.count(), 1u);
  EXPECT_EQ(stat.total_ns(), 1000u);
}

TEST(Metrics, EmptyLatencyStatReportsZeroMin) {
  obs::LatencyStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_EQ(stat.min_ns(), 0u);
  EXPECT_EQ(stat.max_ns(), 0u);
}

TEST(Metrics, SpanKeyPacksPair) {
  EXPECT_EQ(obs::MetricsRegistry::key(0, 0), 0u);
  EXPECT_EQ(obs::MetricsRegistry::key(1, 2), (1ULL << 32) | 2);
  EXPECT_NE(obs::MetricsRegistry::key(1, 2), obs::MetricsRegistry::key(2, 1));
}

TEST(Metrics, JsonSchemaStableAndWellFormed) {
  obs::MetricsRegistry registry = make_registry();
  registry.on_send(0, kApp, 12);
  registry.on_deliver(0, kApp, 12);
  registry.span_begin(obs::Span::kHaltWave, 1, TimePoint{0});
  registry.span_end(obs::Span::kHaltWave, 1, TimePoint{777});

  const std::string a = registry.snapshot(TimePoint{5000}).to_json();
  const std::string b = registry.snapshot(TimePoint{5000}).to_json();
  // Byte-identical for identical state: the schema promises stability.
  EXPECT_EQ(a, b);

  EXPECT_NE(a.find("\"schema\":\"ddbg.metrics.v1\""), std::string::npos);
  EXPECT_NE(a.find("\"runtime\":\"sim\""), std::string::npos);
  EXPECT_NE(a.find("\"elapsed_ns\":5000"), std::string::npos);
  EXPECT_NE(a.find("\"totals\":"), std::string::npos);
  EXPECT_NE(a.find("\"transport\":"), std::string::npos);
  EXPECT_NE(a.find("\"pool_hits\":"), std::string::npos);
  EXPECT_NE(a.find("\"deliver_batches\":"), std::string::npos);
  EXPECT_NE(a.find("\"write_batches\":"), std::string::npos);
  EXPECT_NE(a.find("\"processes\":["), std::string::npos);
  EXPECT_NE(a.find("\"channels\":["), std::string::npos);
  EXPECT_NE(a.find("\"latencies\":"), std::string::npos);
  EXPECT_NE(a.find("\"halt_wave\":"), std::string::npos);
  EXPECT_EQ(a.front(), '{');
  EXPECT_EQ(a.back(), '}');
  // Balanced braces and brackets (no nesting tricks in this schema).
  int braces = 0;
  int brackets = 0;
  for (const char c : a) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // Integer-only schema: the only dots are the two in the schema string.
  EXPECT_EQ(std::count(a.begin(), a.end(), '.'), 2);
}

// ---------------------------------------------------------------------------
// Counter parity across runtimes.
//
// A token ring of n processes running r rounds sends exactly n*r
// application messages (token values 1..n*r, the last one retiring the
// token), whatever substrate executes it.  The observability layer must
// report the same counters from all three.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kRingSize = 4;
constexpr std::uint32_t kRounds = 5;
constexpr std::uint64_t kExpectedTokens = kRingSize * kRounds;

TokenRingConfig ring_config() {
  TokenRingConfig config;
  config.rounds = kRounds;
  config.hop_delay = Duration::millis(1);
  return config;
}

std::uint64_t total_tokens(const std::vector<TokenRingProcess*>& procs) {
  std::uint64_t total = 0;
  for (const TokenRingProcess* p : procs) total += p->tokens_seen();
  return total;
}

// Collects raw pointers before the ProcessPtrs are moved into a runtime.
std::vector<TokenRingProcess*> ring_pointers(
    const std::vector<ProcessPtr>& processes) {
  std::vector<TokenRingProcess*> pointers;
  for (const auto& p : processes) {
    pointers.push_back(dynamic_cast<TokenRingProcess*>(p.get()));
  }
  return pointers;
}

void check_ring_totals(const obs::MetricsSnapshot& snap) {
  std::uint64_t app_sent = 0;
  std::uint64_t app_delivered = 0;
  std::uint64_t other = 0;
  for (std::size_t cls = 0; cls < obs::kNumTrafficClasses; ++cls) {
    if (cls == kApp) {
      app_sent = snap.totals.sent[cls];
      app_delivered = snap.totals.delivered[cls];
    } else {
      other += snap.totals.sent[cls] + snap.totals.delivered[cls];
    }
  }
  EXPECT_EQ(app_sent, kExpectedTokens);
  EXPECT_EQ(app_delivered, kExpectedTokens);
  EXPECT_EQ(other, 0u) << "plain workload must have no marker/control traffic";
  EXPECT_EQ(snap.totals.bytes_sent, snap.totals.bytes_delivered);
  EXPECT_EQ(snap.processes.size(), kRingSize);
  // Each ring process forwards kRounds tokens (p0's first launch included).
  for (const auto& process : snap.processes) {
    EXPECT_EQ(process.sent[kApp], kRounds);
    EXPECT_EQ(process.delivered[kApp], kRounds);
  }
}

obs::MetricsSnapshot run_ring_sim() {
  Simulation sim(Topology::ring(kRingSize),
                 make_token_ring(kRingSize, ring_config()));
  sim.run_for(Duration::seconds(2));
  return sim.metrics().snapshot(sim.now());
}

obs::MetricsSnapshot run_ring_threads() {
  auto processes = make_token_ring(kRingSize, ring_config());
  const auto pointers = ring_pointers(processes);
  Runtime runtime(Topology::ring(kRingSize), std::move(processes));
  runtime.start();
  EXPECT_TRUE(Runtime::wait_until(
      [&] { return total_tokens(pointers) == kExpectedTokens; }, kWait));
  runtime.shutdown();
  return runtime.metrics().snapshot(runtime.now());
}

obs::MetricsSnapshot run_ring_tcp() {
  auto processes = make_token_ring(kRingSize, ring_config());
  const auto pointers = ring_pointers(processes);
  TcpRuntime runtime(Topology::ring(kRingSize), std::move(processes));
  EXPECT_TRUE(runtime.start());
  EXPECT_TRUE(TcpRuntime::wait_until(
      [&] { return total_tokens(pointers) == kExpectedTokens; }, kWait));
  runtime.shutdown();
  return runtime.metrics().snapshot(runtime.now());
}

TEST(MetricsParity, SimTokenRingCounters) { check_ring_totals(run_ring_sim()); }

TEST(MetricsParity, RuntimeTokenRingCounters) {
  check_ring_totals(run_ring_threads());
}

TEST(MetricsParity, TcpRuntimeTokenRingCounters) {
  check_ring_totals(run_ring_tcp());
}

TEST(MetricsParity, IdenticalWorkloadIdenticalBytesAcrossRuntimes) {
  const obs::MetricsSnapshot sim = run_ring_sim();
  const obs::MetricsSnapshot threads = run_ring_threads();
  const obs::MetricsSnapshot tcp = run_ring_tcp();
  // All three account message bytes as the encoded message size (the TCP
  // runtime excludes its 4-byte frame prefix), so byte counters agree
  // exactly, not just message counts.
  EXPECT_EQ(sim.totals.bytes_sent, threads.totals.bytes_sent);
  EXPECT_EQ(sim.totals.bytes_sent, tcp.totals.bytes_sent);
  EXPECT_EQ(sim.totals.messages_sent, threads.totals.messages_sent);
  EXPECT_EQ(sim.totals.messages_sent, tcp.totals.messages_sent);
  EXPECT_EQ(sim.runtime, "sim");
  EXPECT_EQ(threads.runtime, "threads");
  EXPECT_EQ(tcp.runtime, "tcp");
}

// Hot-path transport counters (pool + batching) must be populated by all
// three runtimes and obey the same invariants: one pooled acquire per send
// (misses bounded by warmup), batch-message totals equal to deliveries.
void check_ring_transport(const obs::MetricsSnapshot& snap,
                          bool has_write_path) {
  const obs::TransportSnapshot& t = snap.transport;
  // Every send encodes through exactly one pooled buffer.
  EXPECT_EQ(t.pool_hits + t.pool_misses, snap.totals.messages_sent);
  EXPECT_GT(t.pool_hits, 0u);
  // Cold misses only: at most one buffer per worker pool warms up (the
  // sim has a single pool and shows exactly one).
  EXPECT_LE(t.pool_misses, kRingSize);
  // Batched delivery accounts for every delivered message exactly once.
  EXPECT_EQ(t.deliver_batch_messages, snap.totals.messages_delivered);
  EXPECT_GT(t.deliver_batches, 0u);
  EXPECT_GE(t.max_deliver_batch, 1u);
  if (has_write_path) {
    // The TCP runtime flushes every frame through a gathered write.
    EXPECT_EQ(t.write_batch_frames, snap.totals.messages_sent);
    EXPECT_GT(t.write_batches, 0u);
    EXPECT_GE(t.max_write_batch, 1u);
  } else {
    // In-memory delivery: no socket write path, counters stay zero.
    EXPECT_EQ(t.write_batches, 0u);
    EXPECT_EQ(t.write_batch_frames, 0u);
    EXPECT_EQ(t.max_write_batch, 0u);
  }
}

TEST(MetricsParity, SimTransportCounters) {
  check_ring_transport(run_ring_sim(), /*has_write_path=*/false);
}

TEST(MetricsParity, RuntimeTransportCounters) {
  check_ring_transport(run_ring_threads(), /*has_write_path=*/false);
}

TEST(MetricsParity, TcpRuntimeTransportCounters) {
  check_ring_transport(run_ring_tcp(), /*has_write_path=*/true);
}

// ---------------------------------------------------------------------------
// Golden outputs
// ---------------------------------------------------------------------------

// Byte-for-byte pins of the trace and the ddbg.metrics.v1 JSON for a tiny
// fixed run.  This is the regression tripwire for any ordering leak — an
// unordered container iterated into a trace, or a metrics field emitted in
// hash order, changes these literal bytes.
TEST(MetricsGolden, TinyTokenRingTraceAndJsonArePinned) {
  constexpr const char* kGoldenTrace =
      "p0/process_started @L1 seq0\n"
      "p0/channel_created on c0 @L2 seq1\n"
      "p1/process_started @L1 seq0\n"
      "p1/channel_created on c1 @L2 seq1\n"
      "p0/procedure_entered(forward_token) @L3 seq2\n"
      "p0/message_sent on c0 @L4 seq3\n"
      "p1/message_received on c0 @L5 seq2\n"
      "p1/user_event(token)=1 @L6 seq3\n"
      "p1/state_change(tokens_seen)=1 @L7 seq4\n"
      "p1/procedure_entered(forward_token) @L8 seq5\n"
      "p1/message_sent on c1 @L9 seq6\n"
      "p0/message_received on c1 @L10 seq4\n"
      "p0/user_event(token)=2 @L11 seq5\n"
      "p0/state_change(tokens_seen)=1 @L12 seq6\n"
      "p0/user_event(token_retired)=2 @L13 seq7\n"
      "p0/process_terminated @L14 seq8\n";
  constexpr const char* kGoldenJson =
      R"({"schema":"ddbg.metrics.v1","runtime":"sim","elapsed_ns":4000000,)"
      R"("totals":{"messages_sent":2,"messages_delivered":2,"bytes_sent":45,)"
      R"("bytes_delivered":45,"sent":{"app":2,"halt_marker":0,)"
      R"("snapshot_marker":0,"predicate_marker":0,"control":0},"delivered":{)"
      R"("app":2,"halt_marker":0,"snapshot_marker":0,"predicate_marker":0,)"
      R"("control":0}},"transport":{"pool_hits":1,"pool_misses":1,)"
      R"("deliver_batches":2,"deliver_batch_messages":2,"max_deliver_batch":1,)"
      R"("write_batches":0,"write_batch_frames":0,"max_write_batch":0,)"
      R"("epoll_wakeups":0,"frames_per_wakeup_max":0,"eagain_deferrals":0,)"
      R"("mux_channels_per_socket":0,)"
      R"("faults_injected":{"drop":0,"duplicate":0,"reorder":0,"delay":0,)"
      R"("partition":0,"reset":0},"retransmits":0,"dup_suppressed":0,)"
      R"("reconnects":0,"resync_replayed":0,"channel_down":0},"tier":{)"
      R"("tree_fanout":0,"acks_aggregated":0,"markers_suppressed":0},)"
      R"("session":{"opened":0,"closed":0,"active_peak":0,"requests":0,)"
      R"("request_errors":0,"halts_handed_off":0,"halts_released":0},)"
      R"("replay":{"records_logged":0,"deliveries_logged":0,)"
      R"("timer_sets_logged":0,"timer_fires_logged":0,"cuts_logged":0,)"
      R"("annotations_logged":0,"log_bytes":0,"deliveries_replayed":0,)"
      R"("timers_replayed":0,"cuts_replayed":0,"divergences":0},)"
      R"("processes":[{)"
      R"("id":0,"bytes_sent":22,"bytes_delivered":23,"max_queue_depth":0,)"
      R"("sent":{"app":1,"halt_marker":0,"snapshot_marker":0,)"
      R"("predicate_marker":0,"control":0},"delivered":{"app":1,)"
      R"("halt_marker":0,"snapshot_marker":0,"predicate_marker":0,)"
      R"("control":0}},{"id":1,"bytes_sent":23,"bytes_delivered":22,)"
      R"("max_queue_depth":0,"sent":{"app":1,"halt_marker":0,)"
      R"("snapshot_marker":0,"predicate_marker":0,"control":0},"delivered":{)"
      R"("app":1,"halt_marker":0,"snapshot_marker":0,"predicate_marker":0,)"
      R"("control":0}}],"channels":[{"id":0,"source":0,"destination":1,)"
      R"("control":false,"bytes_sent":22,"bytes_delivered":22,)"
      R"("send_blocked_ns":0,"max_backlog":1,"sent":{"app":1,)"
      R"("halt_marker":0,"snapshot_marker":0,"predicate_marker":0,)"
      R"("control":0},"delivered":{"app":1,"halt_marker":0,)"
      R"("snapshot_marker":0,"predicate_marker":0,"control":0}},{"id":1,)"
      R"("source":1,"destination":0,"control":false,"bytes_sent":23,)"
      R"("bytes_delivered":23,"send_blocked_ns":0,"max_backlog":1,"sent":{)"
      R"("app":1,"halt_marker":0,"snapshot_marker":0,"predicate_marker":0,)"
      R"("control":0},"delivered":{"app":1,"halt_marker":0,)"
      R"("snapshot_marker":0,"predicate_marker":0,"control":0}}],)"
      R"("latencies":{"halt_wave":{"count":0,"total_ns":0,"min_ns":0,)"
      R"("max_ns":0},"snapshot_wave":{"count":0,"total_ns":0,"min_ns":0,)"
      R"("max_ns":0},"breakpoint_notify":{"count":0,"total_ns":0,"min_ns":0,)"
      R"("max_ns":0},"arm":{"count":0,"total_ns":0,"min_ns":0,"max_ns":0}}})";

  std::ostringstream trace;
  DebugShim::Options options;
  options.trace_sink = [&trace](const LocalEvent& event) {
    trace << event.describe() << "\n";
  };
  Topology topology = Topology::ring(2);
  std::vector<ProcessPtr> users;
  for (int i = 0; i < 2; ++i) {
    TokenRingConfig token_config;
    token_config.rounds = 1;
    users.push_back(std::make_unique<TokenRingProcess>(token_config));
  }
  SimulationConfig config;
  config.seed = 1;
  config.latency = constant_latency(Duration::millis(1));
  Simulation sim(topology, wrap_in_shims(topology, std::move(users), options),
                 std::move(config));
  ASSERT_TRUE(sim.run_until_quiescent());
  EXPECT_EQ(trace.str(), kGoldenTrace);
  EXPECT_EQ(sim.metrics().snapshot(sim.now()).to_json(), kGoldenJson);
}

}  // namespace
}  // namespace ddbg
