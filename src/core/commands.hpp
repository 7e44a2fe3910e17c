// Debugger <-> process command protocol, carried as kControl messages over
// the control channels of the extended model (section 2.2.3).
//
// Control traffic is the debugger's own plumbing: it is always delivered,
// even to a halted process ("user processes are always willing to accept a
// message from the debugger process"), and it never appears in recorded
// channel states.
//
// Under a debugger tier (Topology::with_debugger_tree) the same commands
// cross the aggregators unchanged: a downward command is routed by its
// `target` (invalid = every user), and an aggregator's subtree fragment
// travels up under the same report kind a user sends.
//
// A report carries snapshots as encoded ProcessSnapshot records, and they
// stay encoded all the way to d: decode() validates each record with
// ProcessSnapshot::scan and keeps its bytes, and an aggregator splices the
// records of its subtree into one report without decoding any of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/serialization.hpp"
#include "core/global_state.hpp"

namespace ddbg {

enum class CommandKind : std::uint8_t {
  // debugger -> process
  kArmPredicate = 0,     // arm an LP stage (the debugger's Predicate-Marker-
                         // Sending Rule, and routed markers' final hop)
  kArmNotify = 1,        // unordered CP: report every satisfaction of an SP
  kDisarmBreakpoint = 2,
  kResume = 3,           // leave the halted state of wave halt_id
  kQueryState = 4,       // reply with a kStateReport

  // process -> debugger
  kHaltReport = 5,       // local contribution to S_h complete
  kSnapshotReport = 6,   // local contribution to S_r complete
  kBreakpointHit = 7,    // an LP completed at this process (halting follows)
  kNotifySatisfied = 8,  // unordered CP: one term was satisfied here
  kRouteMarker = 9,      // forward this predicate marker to `target`
  kStateReport = 10,
};

// Debugger -> process commands travel down the tier; the rest travel up.
[[nodiscard]] constexpr bool is_downward(CommandKind kind) {
  return kind <= CommandKind::kQueryState;
}

[[nodiscard]] constexpr const char* to_string(CommandKind kind) {
  switch (kind) {
    case CommandKind::kArmPredicate: return "arm_predicate";
    case CommandKind::kArmNotify: return "arm_notify";
    case CommandKind::kDisarmBreakpoint: return "disarm_breakpoint";
    case CommandKind::kResume: return "resume";
    case CommandKind::kQueryState: return "query_state";
    case CommandKind::kHaltReport: return "halt_report";
    case CommandKind::kSnapshotReport: return "snapshot_report";
    case CommandKind::kBreakpointHit: return "breakpoint_hit";
    case CommandKind::kNotifySatisfied: return "notify_satisfied";
    case CommandKind::kRouteMarker: return "route_marker";
    case CommandKind::kStateReport: return "state_report";
  }
  return "?";
}

// Where one snapshot record lies in Command::records.
struct SnapshotRecord {
  ProcessId process;
  std::uint32_t offset = 0;
  std::uint32_t size = 0;
};

struct Command {
  CommandKind kind = CommandKind::kQueryState;

  BreakpointId breakpoint;
  // kArmPredicate / kRouteMarker: encoded LinkedPredicate remainder.
  // kArmNotify: encoded SimplePredicate.
  Bytes predicate;
  std::uint32_t stage_index = 0;  // LP stages consumed so far / CP term idx
  // kArmPredicate / kRouteMarker: monitor-mode chain (record, don't halt).
  bool monitor = false;
  // Downward commands: the destination user (invalid = every user).
  // kRouteMarker: the final destination of the predicate marker.
  ProcessId target;
  std::uint64_t wave_id = 0;      // halt or snapshot wave
  ProcessId reporter;             // process -> debugger commands
  std::string text;               // freeform description
  // kHaltReport / kSnapshotReport / kStateReport: a user's own snapshot,
  // or every snapshot an aggregator collected from its subtree, as records
  // back to back in `records`, and where each one lies.
  Bytes records;
  std::vector<SnapshotRecord> reports;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<Command> decode(
      std::span<const std::uint8_t> data);

  // Encodes `snapshot` as one more record.
  void add_report(const ProcessSnapshot& snapshot);
  // Appends one record that is already encoded (and scanned).
  void add_report(ProcessId process, std::span<const std::uint8_t> record);
  [[nodiscard]] std::span<const std::uint8_t> record(std::size_t i) const {
    return std::span(records).subspan(reports[i].offset, reports[i].size);
  }
  // Decodes record `i`.
  [[nodiscard]] ProcessSnapshot snapshot(std::size_t i) const;

  // ---- constructors ----
  [[nodiscard]] static Command arm_predicate(BreakpointId bp, Bytes lp,
                                             std::uint32_t stage_index,
                                             bool monitor = false);
  [[nodiscard]] static Command arm_notify(BreakpointId bp, Bytes sp,
                                          std::uint32_t term_index);
  [[nodiscard]] static Command disarm(BreakpointId bp);
  [[nodiscard]] static Command resume(std::uint64_t halt_id);
  [[nodiscard]] static Command query_state();
  // A user's own report: `snapshot` encoded once, straight into it.
  [[nodiscard]] static Command halt_report(ProcessId reporter,
                                           std::uint64_t halt_id,
                                           const ProcessSnapshot& snapshot);
  [[nodiscard]] static Command snapshot_report(
      ProcessId reporter, std::uint64_t snapshot_id,
      const ProcessSnapshot& snapshot);
  [[nodiscard]] static Command breakpoint_hit(ProcessId reporter,
                                              BreakpointId bp,
                                              std::string description);
  [[nodiscard]] static Command notify_satisfied(ProcessId reporter,
                                                BreakpointId bp,
                                                std::uint32_t term_index);
  [[nodiscard]] static Command route_marker(ProcessId reporter,
                                            ProcessId target, BreakpointId bp,
                                            Bytes lp,
                                            std::uint32_t stage_index,
                                            bool monitor = false);
  [[nodiscard]] static Command state_report(ProcessId reporter,
                                            const ProcessSnapshot& snapshot);
};

}  // namespace ddbg
