// The process model: reactive state machines driven by message deliveries
// and timers.  One Process implementation runs unchanged on both the
// deterministic simulator (src/sim) and the multithreaded runtime
// (src/runtime); the ProcessContext is the runtime's face toward the
// process.
//
// Handlers run one at a time per process (an "event" in the paper's 5-tuple
// sense <p, s, ss, M, c> is exactly one handler invocation), so Process
// implementations need no internal locking.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/serialization.hpp"
#include "common/time.hpp"
#include "net/message.hpp"
#include "net/topology.hpp"

namespace ddbg {

namespace obs {
class MetricsRegistry;
}  // namespace obs

class ProcessContext {
 public:
  virtual ~ProcessContext() = default;

  [[nodiscard]] virtual ProcessId self() const = 0;
  [[nodiscard]] virtual TimePoint now() const = 0;
  [[nodiscard]] virtual const Topology& topology() const = 0;

  // The hosting runtime's metrics registry, for control-plane latency
  // tracing (debug shim / debugger process).  May be null on contexts that
  // do not carry one (e.g. bare test fixtures).
  [[nodiscard]] virtual obs::MetricsRegistry* metrics() const {
    return nullptr;
  }

  // Enqueue a message on an outgoing channel.  The channel must be one of
  // topology().out_channels(self()).  Channels are reliable, FIFO and
  // unbounded (section 2.1's model), so send never fails or blocks.
  virtual void send(ChannelId channel, Message message) = 0;

  // One-shot timer; fires on_timer after `delay`.  Returns an id that can be
  // cancelled.  Timers give processes autonomous (spontaneous) behaviour.
  virtual TimerId set_timer(Duration delay) = 0;
  virtual void cancel_timer(TimerId timer) = 0;

  // Deterministic per-process randomness.
  [[nodiscard]] virtual Rng& rng() = 0;

  // Runs `fn` now.  No library code calls this; it is kept only because
  // the benchmark harness's context proxy (perfbench/tracing.hpp) overrides
  // it, and goes when that proxy does.
  virtual void run_ordered(std::function<void()> fn) { fn(); }

  // Marks this process as finished with its own work.  A stopped process
  // still receives messages (so markers keep flowing) but schedules no more
  // timers; the runtimes use the flag for quiescence detection.
  virtual void stop_self() = 0;
};

class Process {
 public:
  virtual ~Process() = default;

  virtual void on_start(ProcessContext& /*ctx*/) {}
  virtual void on_message(ProcessContext& ctx, ChannelId in,
                          Message message) = 0;
  virtual void on_timer(ProcessContext& /*ctx*/, TimerId /*timer*/) {}

  // Snapshot of the process's application state, captured by the debug shim
  // at halt/record time (the `s` of the paper's event tuples).  The bytes
  // are opaque to the library; equality of snapshots is byte equality.
  [[nodiscard]] virtual Bytes snapshot_state() const { return {}; }

  // Reinitialize from a snapshot_state() encoding (time-travel restore from
  // a halted global state).  Called before on_start; a restored process's
  // on_start must resume from the restored state rather than initialize.
  // Returns false if this process does not support restoration.
  virtual bool restore_state(const Bytes& /*state*/) { return false; }

  // Human-readable rendering of the current state, for the debugger UI.
  [[nodiscard]] virtual std::string describe_state() const { return ""; }
};

using ProcessPtr = std::unique_ptr<Process>;

}  // namespace ddbg
