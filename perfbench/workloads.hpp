// The benchmark's workloads and the closed-loop cycle runner.
//
// One client drives one DebuggerSession: a cycle is traffic, then a halt
// (even cycles) or a breakpoint hit (odd cycles), then verification of the
// assembled S_h, then resume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "system.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  SystemConfig system;  // seed is filled in per run
  ddbg::Duration traffic;  // per-cycle traffic phase (virtual on sim)
  std::size_t warmup_cycles = 0;
};

[[nodiscard]] const std::vector<Workload>& workloads();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct BenchResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // key=value facts printed before the result line.
  std::vector<std::string> info;
};

// trace == false: the end-to-end metrics.  trace == true: an untraced and
// a traced pass over the same inputs, the per-layer metrics.
[[nodiscard]] BenchResult run_workload(const Workload& workload,
                                       std::uint64_t seed, double seconds,
                                       bool trace);

}  // namespace perfbench
