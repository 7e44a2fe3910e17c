// Shared helpers for the experiment benches.
//
// Every bench binary regenerates one experiment from DESIGN.md's index: it
// prints a paper-style table of the experiment's rows (deterministic,
// virtual-time metrics from the simulator) and then runs google-benchmark
// timings for the wall-clock cost of the operations involved.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "debugger/harness.hpp"
#include "obs/metrics.hpp"
#include "workload/behaviors.hpp"

namespace ddbg::bench {

inline void print_header(const char* experiment, const char* claim) {
  std::printf("\n==== %s ====\n%s\n\n", experiment, claim);
}

inline void print_row(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stdout, format, args);
  va_end(args);
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Metrics JSON emission.
//
// Each bench binary collects one MetricsRegistry snapshot per labelled table
// row (record_metrics) and writes them as BENCH_<name>.json — an array of
// "ddbg.metrics.v1" snapshots under the "ddbg.bench.metrics.v1" envelope —
// into $DDBG_METRICS_DIR (default: the working directory).  The file is
// written once, after the table and before the google-benchmark timing
// loops; record_metrics calls made by re-runs inside timing loops are
// ignored so the file reflects the deterministic table pass only.
// ---------------------------------------------------------------------------

namespace detail {

struct MetricsSink {
  bool written = false;
  std::vector<std::pair<std::string, std::string>> runs;  // label, json

  static MetricsSink& instance() {
    static MetricsSink sink;
    return sink;
  }
};

}  // namespace detail

// Records a labelled snapshot of `registry` for the bench's JSON output.
inline void record_metrics(std::string label,
                           const obs::MetricsRegistry& registry,
                           TimePoint now) {
  detail::MetricsSink& sink = detail::MetricsSink::instance();
  if (sink.written) return;
  sink.runs.emplace_back(std::move(label),
                         registry.snapshot(now).to_json());
}

inline void record_metrics(std::string label, const Simulation& sim) {
  record_metrics(std::move(label), sim.metrics(), sim.now());
}

// Writes BENCH_<bench_name>.json and freezes the sink.  Safe to call when
// nothing was recorded (writes an empty runs array).
inline void write_metrics_json(const char* bench_name) {
  detail::MetricsSink& sink = detail::MetricsSink::instance();
  if (sink.written) return;
  sink.written = true;
  const char* dir = std::getenv("DDBG_METRICS_DIR");
  std::string path = dir != nullptr && *dir != '\0' ? std::string(dir) : ".";
  path += "/BENCH_";
  path += bench_name;
  path += ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"schema\":\"ddbg.bench.metrics.v1\",\"bench\":\"%s\","
                  "\"runs\":[",
               bench_name);
  for (std::size_t i = 0; i < sink.runs.size(); ++i) {
    std::fprintf(f, "%s{\"label\":\"%s\",\"metrics\":%s}",
                 i == 0 ? "" : ",", sink.runs[i].first.c_str(),
                 sink.runs[i].second.c_str());
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("metrics written to %s (%zu runs)\n", path.c_str(),
              sink.runs.size());
}

// Metrics from driving one halting wave to completion on the simulator.
struct HaltRunMetrics {
  bool completed = false;
  double halt_latency_ms = 0;   // virtual time: initiation -> S_h complete
  std::uint64_t halt_markers = 0;
  std::uint64_t control_messages = 0;
  std::uint64_t app_messages = 0;
  std::size_t channel_state_messages = 0;
  std::size_t processes = 0;
};

// Runs `workload` on `topology` (+debugger) for `warmup`, initiates a halt
// from the debugger, and reports wave metrics.
inline HaltRunMetrics run_halt_wave(const Topology& topology,
                                    std::vector<ProcessPtr> processes,
                                    std::uint64_t seed, Duration warmup,
                                    Duration limit = Duration::seconds(60),
                                    const char* metrics_label = nullptr) {
  HarnessConfig config;
  config.seed = seed;
  // Chaos knobs: DDBG_FAULT_PLAN / DDBG_FAULT_SEED turn the fault
  // adversary on for any halting bench; unset means the reliable fast
  // paths run untouched and tables stay byte-identical.
  config.faults = FaultPlan::from_env();
  SimDebugHarness harness(topology, std::move(processes), std::move(config));
  harness.sim().run_for(warmup);
  const obs::TotalsSnapshot before = harness.sim().metrics().totals();
  const TimePoint start = harness.sim().now();
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(limit);

  HaltRunMetrics metrics;
  metrics.completed = wave.has_value();
  if (wave.has_value()) {
    metrics.halt_latency_ms = (wave->completed_at - start).to_millis();
    metrics.channel_state_messages = wave->state.total_channel_messages();
    metrics.processes = wave->state.size();
  }
  const obs::TotalsSnapshot after = harness.sim().metrics().totals();
  metrics.halt_markers = sent_count(after, MessageKind::kHaltMarker) -
                         sent_count(before, MessageKind::kHaltMarker);
  metrics.control_messages = sent_count(after, MessageKind::kControl);
  metrics.app_messages = sent_count(after, MessageKind::kApplication) -
                         sent_count(before, MessageKind::kApplication);
  if (metrics_label != nullptr) record_metrics(metrics_label, harness.sim());
  return metrics;
}

}  // namespace ddbg::bench
