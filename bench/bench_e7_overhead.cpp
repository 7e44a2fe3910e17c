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

#include <algorithm>
#include <ctime>

#include "baselines/central_hub.hpp"
#include "bench/bench_util.hpp"

namespace ddbg::bench {
namespace {

constexpr Duration kRun = Duration::millis(300);
constexpr int kCpuRuns = 15;

// CPU time of the calling thread: the simulator runs every process on it.
std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Runs `sim` for kRun and returns the thread CPU it took.
std::int64_t timed_run(Simulation& sim) {
  const std::int64_t start = thread_cpu_ns();
  sim.run_for(kRun);
  return thread_cpu_ns() - start;
}

struct OverheadRow {
  const char* config;
  std::uint64_t app_progress = 0;  // items the application itself got done
  std::uint64_t messages = 0;      // wire messages
  std::uint64_t bytes = 0;         // wire bytes
  double hops_per_payload = 1.0;
  std::int64_t cpu_ns = 0;  // thread CPU of the run, set-up excluded
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
  const std::int64_t cpu_ns = timed_run(sim);
  record_metrics("plain n=" + std::to_string(n), sim);
  const obs::TotalsSnapshot totals = sim.metrics().totals();
  return OverheadRow{"plain", gossip_progress(sim, n), totals.messages_sent,
                     totals.bytes_sent, 1.0, cpu_ns};
}

OverheadRow run_shim(std::uint32_t n, std::uint64_t seed, bool vclocks) {
  HarnessConfig config;
  config.seed = seed;
  config.shim_options.stamp_vector_clocks = vclocks;
  SimDebugHarness harness(Topology::ring(n), make_gossip(n, GossipConfig{}),
                          std::move(config));
  const std::int64_t cpu_ns = timed_run(harness.sim());
  record_metrics(std::string(vclocks ? "shim+vc" : "shim") +
                     " n=" + std::to_string(n),
                 harness.sim());
  const obs::TotalsSnapshot totals = harness.sim().metrics().totals();
  return OverheadRow{vclocks ? "shim+vc" : "shim",
                     gossip_progress(harness.sim(), n), totals.messages_sent,
                     totals.bytes_sent, 1.0, cpu_ns};
}

OverheadRow run_hub(std::uint32_t n, std::uint64_t seed) {
  const HubTopology hub_info = make_hub_topology(Topology::ring(n));
  SimulationConfig config;
  config.seed = seed;
  Simulation sim(hub_info.topology,
                 wrap_for_hub(hub_info, make_gossip(n, GossipConfig{})),
                 std::move(config));
  const std::int64_t cpu_ns = timed_run(sim);
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
                     2.0, cpu_ns};
}

OverheadRow run_config(int config, std::uint32_t n, std::uint64_t seed) {
  switch (config) {
    case 0: return run_plain(n, seed);
    case 1: return run_shim(n, seed, false);
    case 2: return run_shim(n, seed, true);
    default: return run_hub(n, seed);
  }
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

// The CPU the table above cannot show: thread CPU per delivered application
// message, the median of kCpuRuns runs of each row.  Timing varies between
// runs, so it is printed apart from the deterministic table and stays out
// of the metrics JSON.
void print_cpu_table() {
  print_row("\nThread CPU per delivered application message (median of %d "
            "runs, seed 1):",
            kCpuRuns);
  print_row("%4s %10s %14s", "n", "config", "cpu_ns/msg");
  for (const std::uint32_t n : {4u, 8u, 16u}) {
    // Runs of the four configs interleave, so drift in the host's speed
    // reaches every row alike.
    std::vector<double> per_msg[4];
    const char* labels[4] = {};
    for (int run = 0; run < kCpuRuns; ++run) {
      for (int config = 0; config < 4; ++config) {
        const OverheadRow row = run_config(config, n, 1);
        labels[config] = row.config;
        per_msg[config].push_back(
            static_cast<double>(row.cpu_ns) /
            static_cast<double>(std::max<std::uint64_t>(row.app_progress, 1)));
      }
    }
    for (int config = 0; config < 4; ++config) {
      std::vector<double>& v = per_msg[config];
      std::nth_element(v.begin(), v.begin() + kCpuRuns / 2, v.end());
      print_row("%4u %10s %14.0f", n, labels[config], v[kCpuRuns / 2]);
    }
  }
}

void BM_SteadyState(benchmark::State& state) {
  // Wall-clock cost of simulating 300ms under each configuration.
  const std::uint32_t n = 8;
  const int config = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  const char* labels[] = {"plain", "shim", "shim+vc", "hub"};
  for (auto _ : state) {
    const OverheadRow row = run_config(config, n, seed);
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
  ddbg::bench::print_cpu_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
