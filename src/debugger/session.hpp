// DebuggerSession: the programmer-facing API of the interactive debugger.
//
// A session drives a DebuggerProcess that is running inside either the
// deterministic simulator or the multithreaded runtime; the difference is
// abstracted by SessionHost (post a closure into the debugger's context,
// wait for a condition).  On the simulator, "waiting" means advancing
// virtual time, so scripted debugging sessions are fully deterministic.
//
//   DebuggerSession session(host, debugger, topology.debugger_id());
//   auto bp = session.set_breakpoint("p0:event(token) -> p2:recv");
//   auto halted = session.wait_for_halt(Duration::seconds(5));
//   ...inspect halted->state...
//   session.resume();
#pragma once

#include <functional>
#include <optional>
#include <string_view>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/time.hpp"
#include "core/predicate.hpp"
#include "core/predicate_parser.hpp"
#include "debugger/debugger_process.hpp"
#include "net/process.hpp"

namespace ddbg {

class SessionHost {
 public:
  virtual ~SessionHost() = default;
  // Run `action` in `target`'s process context, serialized with its
  // handlers.
  virtual void post(ProcessId target,
                    std::function<void(ProcessContext&, Process&)> action) = 0;
  // Block (or advance virtual time) until `condition` holds or `timeout`
  // elapses; returns whether it held.
  virtual bool wait(const std::function<bool()>& condition,
                    Duration timeout) = 0;
};

class DebuggerSession {
 public:
  DebuggerSession(SessionHost& host, DebuggerProcess& debugger,
                  ProcessId debugger_id)
      : host_(host), debugger_(debugger), debugger_id_(debugger_id) {}

  // ---- breakpoints ----
  // Parse and register a breakpoint from the text syntax (see
  // core/predicate_parser.hpp).  Arming is asynchronous; the returned id is
  // final.  Failures are distinguishable by code: kParseError carries
  // "syntax error at column k", kTimeout means the debugger never
  // acknowledged the registration, kInvalidArgument means the expression
  // parsed but names a process outside the topology.
  Result<BreakpointId> set_breakpoint(std::string_view expression,
                                      Duration timeout = Duration::seconds(5));
  // Register an already-parsed spec, with the same kTimeout /
  // kInvalidArgument distinction.
  Result<BreakpointId> arm_breakpoint(const BreakpointSpec& spec,
                                      Duration timeout = Duration::seconds(5));
  void clear_breakpoint(BreakpointId bp);

  // ---- halting ----
  // Ask the debugger to halt the whole computation now.  Does not wait.
  void halt();
  // Wait for a complete S_h of a wave newer than both the last resumed
  // wave and every wave that existed when this session last called halt()
  // (a breakpoint's wave, or the one halt() started), and return the
  // newest complete wave.
  std::optional<DebuggerProcess::WaveInfo> wait_for_halt(Duration timeout);
  // Resume the halted computation.  Returns once the debugger has issued
  // the resume commands, so a following wait_for_halt() refers to the next
  // wave, not the one just resumed.
  void resume(Duration timeout = Duration::seconds(5));

  // ---- recording (C&L, monitor-only) ----
  std::optional<DebuggerProcess::WaveInfo> take_snapshot(Duration timeout);

  // ---- inspection ----
  std::optional<ProcessSnapshot> inspect(ProcessId process, Duration timeout);
  [[nodiscard]] std::vector<DebuggerProcess::BreakpointHit> hits() const {
    return debugger_.hits();
  }
  [[nodiscard]] DebuggerProcess& debugger() { return debugger_; }

 private:
  // Post to the debugger and wait for the closure to have run.
  bool call(std::function<void(ProcessContext&)> action, Duration timeout);

  SessionHost& host_;
  DebuggerProcess& debugger_;
  ProcessId debugger_id_;
  // Waves up to here predate this session's last halt().
  std::uint64_t halt_floor_ = 0;
};

}  // namespace ddbg
