// Layer micro-costs on inputs captured from a workload run: the cost model
// behind the end-to-end numbers.  Each figure is the median, over
// repetitions, of the mean cost of one call.
#pragma once

#include <cstdint>
#include <vector>

#include "core/global_state.hpp"
#include "core/predicate.hpp"
#include "net/message.hpp"

namespace perfbench {

struct MicroInputs {
  std::vector<ddbg::Message> messages;  // application, marker and control
  std::vector<ddbg::HaltMarkerData> markers;
  std::vector<ddbg::ProcessSnapshot> snapshots;  // fragments of a real S_h
  ddbg::BreakpointSpec breakpoint;  // the workload's breakpoint, on p0
  std::uint64_t seed = 1;
};

struct MicroCosts {
  double halting_marker_d2_ns = 0;
  double halting_marker_d255_ns = 0;
  double lp_event_ns = 0;
  double encode_ns = 0;
  double decode_ns = 0;
  double frame_parse_ns = 0;
  double rel_stage_ack_ns = 0;
  double rel_on_frame_ns = 0;
  double clock_merge_ns = 0;
  double clock_compare_ns = 0;
  double global_state_add_ns = 0;
};

[[nodiscard]] MicroCosts measure_micro_costs(const MicroInputs& inputs);

}  // namespace perfbench
