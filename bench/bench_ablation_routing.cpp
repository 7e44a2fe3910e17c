// Ablation: predicate-marker routing policy.
//
// DESIGN.md's routing decision: ship predicate markers on direct
// application channels when they exist, falling back to a hop through the
// debugger process otherwise.  This bench ablates the decision by forcing
// all markers through the debugger and compares detection latency and
// message counts on chains where direct channels exist (a token ring with
// adjacent-stage chains).
#include <benchmark/benchmark.h>

#include <sstream>

#include "bench/bench_util.hpp"

namespace ddbg::bench {
namespace {

struct RoutingRow {
  bool halted = false;
  double time_to_halt_ms = 0;
  std::uint64_t direct_markers = 0;
  std::uint64_t control_messages = 0;
};

RoutingRow run_chain(std::uint32_t chain, bool force_routed,
                     std::uint64_t seed) {
  const std::uint32_t n = 8;
  TokenRingConfig ring_config;
  ring_config.rounds = 1000;
  HarnessConfig config;
  config.seed = seed;
  config.shim_options.route_markers_via_debugger = force_routed;
  SimDebugHarness harness(Topology::ring(n), make_token_ring(n, ring_config),
                          std::move(config));
  std::ostringstream expr;
  for (std::uint32_t i = 1; i <= chain; ++i) {
    if (i > 1) expr << " -> ";
    expr << "p" << i << ":event(token)";
  }
  const TimePoint start = harness.sim().now();
  auto bp = harness.session().set_breakpoint(expr.str());
  RoutingRow row;
  if (!bp.ok()) return row;
  auto wave = harness.session().wait_for_halt(Duration::seconds(120));
  row.halted = wave.has_value();
  if (wave.has_value()) {
    row.time_to_halt_ms = (wave->completed_at - start).to_millis();
  }
  const obs::TotalsSnapshot totals = harness.sim().metrics().totals();
  row.direct_markers = sent_count(totals, MessageKind::kPredicateMarker);
  row.control_messages = sent_count(totals, MessageKind::kControl);
  record_metrics(std::string(force_routed ? "routed" : "direct") +
                     " chain=" + std::to_string(chain),
                 harness.sim());
  return row;
}

void print_table() {
  print_header(
      "ABLATION: predicate-marker routing (direct vs via-debugger)",
      "Token ring, adjacent-stage chains where direct channels exist.\n"
      "Design decision under test: prefer direct application channels for "
      "predicate\nmarkers; the ablation forces every marker through the "
      "debugger instead.");
  print_row("%8s %10s %14s %14s %12s", "chain", "policy", "direct_mkrs",
            "ctl_msgs", "halt_ms");
  for (const std::uint32_t chain : {2u, 4u, 6u}) {
    for (const bool forced : {false, true}) {
      const RoutingRow row = run_chain(chain, forced, 17);
      print_row("%8u %10s %14llu %14llu %12.2f", chain,
                forced ? "routed" : "direct",
                static_cast<unsigned long long>(row.direct_markers),
                static_cast<unsigned long long>(row.control_messages),
                row.halted ? row.time_to_halt_ms : -1.0);
    }
  }
  print_row("\n(routing through the debugger doubles the marker's hop count "
            "and adds control\ntraffic, but detection still works — the "
            "fallback is correct, just costlier)");
}

void BM_RoutingPolicy(benchmark::State& state) {
  const bool forced = state.range(0) == 1;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_chain(4, forced, seed++).halted);
  }
  state.SetLabel(forced ? "routed" : "direct");
}
BENCHMARK(BM_RoutingPolicy)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ddbg::bench

int main(int argc, char** argv) {
  ddbg::bench::print_table();
  ddbg::bench::write_metrics_json("ablation_routing");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
