// Experiment E7 (section 4): steady-state overhead of debugging
// architectures.
//
//   plain     — the uninstrumented application
//   shim      — marker-based debugging agent, no vector clocks
//   shim+vc   — marker-based agent with piggybacked vector clocks
//   hub       — BUGNET/Schiffenbaur-style central rerouting
//
// Paper claim: rerouting through a central hub roughly doubles the message
// count, adds a second hop of latency to every application message, and
// perturbs the program; the marker-based approach costs nothing while no
// wave is in progress (vector clocks add bytes, not messages).
#include <benchmark/benchmark.h>

#include "baselines/central_hub.hpp"
#include "bench/bench_util.hpp"

namespace ddbg::bench {
namespace {

constexpr Duration kRun = Duration::millis(300);

struct OverheadRow {
  const char* config;
  std::uint64_t app_progress = 0;  // items the application itself got done
  std::uint64_t messages = 0;      // wire messages
  std::uint64_t bytes = 0;         // wire bytes
  double hops_per_payload = 1.0;
};

std::uint64_t gossip_progress(Simulation& sim, std::uint32_t n) {
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    Process* process = &sim.process(ProcessId(i));
    if (auto* shim = dynamic_cast<DebugShim*>(process)) {
      total += dynamic_cast<GossipProcess&>(shim->user()).received();
    } else if (auto* gossip = dynamic_cast<GossipProcess*>(process)) {
      total += gossip->received();
    }
  }
  return total;
}

OverheadRow run_plain(std::uint32_t n, std::uint64_t seed) {
  Topology topology = Topology::ring(n);
  SimulationConfig config;
  config.seed = seed;
  Simulation sim(topology, make_gossip(n, GossipConfig{}), std::move(config));
  sim.run_for(kRun);
  record_metrics("plain n=" + std::to_string(n), sim);
  const obs::TotalsSnapshot totals = sim.metrics().totals();
  return OverheadRow{"plain", gossip_progress(sim, n), totals.messages_sent,
                     totals.bytes_sent, 1.0};
}

OverheadRow run_shim(std::uint32_t n, std::uint64_t seed, bool vclocks) {
  HarnessConfig config;
  config.seed = seed;
  config.shim_options.stamp_vector_clocks = vclocks;
  SimDebugHarness harness(Topology::ring(n), make_gossip(n, GossipConfig{}),
                          std::move(config));
  harness.sim().run_for(kRun);
  record_metrics(std::string(vclocks ? "shim+vc" : "shim") +
                     " n=" + std::to_string(n),
                 harness.sim());
  const obs::TotalsSnapshot totals = harness.sim().metrics().totals();
  return OverheadRow{vclocks ? "shim+vc" : "shim",
                     gossip_progress(harness.sim(), n), totals.messages_sent,
                     totals.bytes_sent, 1.0};
}

OverheadRow run_hub(std::uint32_t n, std::uint64_t seed) {
  const HubTopology hub_info = make_hub_topology(Topology::ring(n));
  SimulationConfig config;
  config.seed = seed;
  Simulation sim(hub_info.topology,
                 wrap_for_hub(hub_info, make_gossip(n, GossipConfig{})),
                 std::move(config));
  sim.run_for(kRun);
  std::uint64_t progress = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    auto& client = dynamic_cast<HubClientShim&>(sim.process(ProcessId(i)));
    (void)client;
  }
  // Progress: received counts live inside the wrapped users; walk clients.
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string state =
        sim.process(ProcessId(i)).describe_state();  // "sent=X received=Y"
    const auto pos = state.find("received=");
    if (pos != std::string::npos) {
      progress += std::strtoull(state.c_str() + pos + 9, nullptr, 10);
    }
  }
  record_metrics("hub n=" + std::to_string(n), sim);
  const obs::TotalsSnapshot totals = sim.metrics().totals();
  return OverheadRow{"hub", progress, totals.messages_sent, totals.bytes_sent,
                     2.0};
}

void print_table() {
  print_header(
      "E7: steady-state overhead of debugging architectures (section 4)",
      "Gossip ring, 300ms of virtual time, no halting wave in progress.\n"
      "Paper claim: central-hub rerouting ~doubles messages and hops; the "
      "marker-based\napproach adds no messages while idle (vector clocks "
      "add bytes only).");
  print_row("%4s %10s %12s %12s %12s %10s %14s", "n", "config", "delivered",
            "messages", "bytes", "hops", "bytes/msg");
  for (const std::uint32_t n : {4u, 8u, 16u}) {
    const OverheadRow rows[] = {run_plain(n, 1), run_shim(n, 1, false),
                                run_shim(n, 1, true), run_hub(n, 1)};
    for (const OverheadRow& row : rows) {
      print_row("%4u %10s %12llu %12llu %12llu %10.1f %14.1f", n, row.config,
                static_cast<unsigned long long>(row.app_progress),
                static_cast<unsigned long long>(row.messages),
                static_cast<unsigned long long>(row.bytes),
                row.hops_per_payload,
                row.messages == 0
                    ? 0.0
                    : static_cast<double>(row.bytes) /
                          static_cast<double>(row.messages));
    }
  }
  print_row("\n(hub: ~2x messages and 2 hops per payload; shim matches "
            "plain's message count)");
}

void BM_SteadyState(benchmark::State& state) {
  // Wall-clock cost of simulating 300ms under each configuration.
  const std::uint32_t n = 8;
  const int config = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  const char* labels[] = {"plain", "shim", "shim+vc", "hub"};
  for (auto _ : state) {
    OverheadRow row;
    switch (config) {
      case 0: row = run_plain(n, seed); break;
      case 1: row = run_shim(n, seed, false); break;
      case 2: row = run_shim(n, seed, true); break;
      default: row = run_hub(n, seed); break;
    }
    ++seed;
    benchmark::DoNotOptimize(row.messages);
  }
  state.SetLabel(labels[config]);
}
BENCHMARK(BM_SteadyState)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ddbg::bench

int main(int argc, char** argv) {
  ddbg::bench::print_table();
  ddbg::bench::write_metrics_json("e7_overhead");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
