#include "debugger/session.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>

namespace ddbg {

bool DebuggerSession::call(std::function<void(ProcessContext&)> action,
                           Duration timeout) {
  auto done = std::make_shared<std::atomic<bool>>(false);
  host_.post(debugger_id_,
             [action = std::move(action), done](ProcessContext& ctx,
                                                Process&) {
               action(ctx);
               done->store(true);
             });
  return host_.wait([done] { return done->load(); }, timeout);
}

Result<BreakpointId> DebuggerSession::set_breakpoint(
    std::string_view expression, Duration timeout) {
  auto spec = parse_breakpoint(expression);
  // Parse failure and arm failure are different user mistakes; keep the
  // parse error (with its column) distinct from the timeout below.
  if (!spec.ok()) return spec.error();
  return arm_breakpoint(spec.value(), timeout);
}

Result<BreakpointId> DebuggerSession::arm_breakpoint(
    const BreakpointSpec& spec, Duration timeout) {
  auto id = std::make_shared<BreakpointId>();
  const bool acked = call(
      [this, spec, id](ProcessContext& ctx) {
        *id = debugger_.set_breakpoint(ctx, spec);
      },
      timeout);
  if (!acked) {
    return Error(ErrorCode::kTimeout,
                 "target did not ack arm within " +
                     std::to_string(timeout.ns / 1'000'000) + "ms");
  }
  if (!id->valid()) {
    return Error(ErrorCode::kInvalidArgument,
                 "breakpoint names a process outside the topology");
  }
  return *id;
}

void DebuggerSession::clear_breakpoint(BreakpointId bp) {
  host_.post(debugger_id_, [this, bp](ProcessContext& ctx, Process&) {
    debugger_.clear_breakpoint(ctx, bp);
  });
}

void DebuggerSession::halt() {
  // Read before posting: the wave the initiate starts is numbered above
  // every wave that exists now, so none of those (say, one another session
  // halted and nobody resumed) can answer the next wait_for_halt().
  halt_floor_ = std::max(halt_floor_, debugger_.last_halt_id());
  host_.post(debugger_id_, [this](ProcessContext& ctx, Process&) {
    debugger_.initiate_halt(ctx);
  });
}

std::optional<DebuggerProcess::WaveInfo> DebuggerSession::wait_for_halt(
    Duration timeout) {
  const std::uint64_t floor =
      std::max(halt_floor_, debugger_.resumed_through());
  const bool complete = host_.wait(
      [this, floor] { return debugger_.last_complete_halt_id() > floor; },
      timeout);
  if (!complete) return std::nullopt;
  return debugger_.last_complete_halt_wave();
}

void DebuggerSession::resume(Duration timeout) {
  call([this](ProcessContext& ctx) { debugger_.resume_all(ctx); }, timeout);
}

std::optional<DebuggerProcess::WaveInfo> DebuggerSession::take_snapshot(
    Duration timeout) {
  auto wave = std::make_shared<std::uint64_t>(0);
  call(
      [this, wave](ProcessContext& ctx) {
        *wave = debugger_.initiate_snapshot(ctx);
      },
      timeout);
  const bool complete = host_.wait(
      [this, wave] { return debugger_.snapshot_complete(*wave); }, timeout);
  if (!complete) return std::nullopt;
  return debugger_.snapshot_wave(*wave);
}

std::optional<ProcessSnapshot> DebuggerSession::inspect(ProcessId process,
                                                        Duration timeout) {
  // Synchronously: query_state drops any stale report before the request
  // goes out, so the wait below can only observe the fresh answer.
  if (!call([this, process](
                ProcessContext& ctx) { debugger_.query_state(ctx, process); },
            timeout)) {
    return std::nullopt;
  }
  const bool arrived = host_.wait(
      [this, process] { return debugger_.state_report(process).has_value(); },
      timeout);
  if (!arrived) return std::nullopt;
  return debugger_.state_report(process);
}

}  // namespace ddbg
