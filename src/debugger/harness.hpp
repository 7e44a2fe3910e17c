// Hosts and harnesses: one-call wiring of (topology, user processes) into a
// debuggable system on any substrate.
//
//   SimDebugHarness harness(Topology::ring(4), make_ring_processes(...));
//   harness.session().set_breakpoint("p0:event(token)");
//   harness.sim().run_for(Duration::seconds(1));
//
// The harness extends the topology with the debugger process (section
// 2.2.3), wraps every user process in a DebugShim, appends a
// DebuggerProcess, and exposes a DebuggerSession bound to the right host.
#pragma once

#include <atomic>
#include <concepts>
#include <memory>
#include <vector>

#include "core/debug_shim.hpp"
#include "debugger/debugger_process.hpp"
#include "debugger/session.hpp"
#include "runtime/runtime.hpp"
#include "runtime/tcp_runtime.hpp"
#include "sim/simulation.hpp"

namespace ddbg {

// A SessionHost over substrate S: posts into it, and waits by advancing
// virtual time (simulator) or by sleep-polling (threaded runtimes).
template <class S>
class Host final : public SessionHost {
 public:
  explicit Host(S& substrate) : substrate_(substrate) {}

  void post(ProcessId target,
            std::function<void(ProcessContext&, Process&)> action) override {
    substrate_.post(target, std::move(action));
  }

  bool wait(const std::function<bool()>& condition,
            Duration timeout) override {
    if constexpr (std::same_as<S, Simulation>) {
      return substrate_.run_until_condition(condition,
                                            substrate_.now() + timeout);
    } else {
      return S::wait_until(condition, timeout);
    }
  }

 private:
  S& substrate_;
};

using SimHost = Host<Simulation>;
using RuntimeHost = Host<Runtime>;
using TcpHost = Host<TcpRuntime>;

struct HarnessConfig {
  std::uint64_t seed = 1;
  // 0 = flat debugger (one control channel pair per user, the paper's
  // single-`d` model).  >= 2 = hierarchical debugger tier built with
  // Topology::with_debugger_tree(fanout): users hang off leaf aggregators,
  // aggregators off higher aggregators, the root plays `d`.
  std::uint32_t debugger_fanout = 0;
  std::unique_ptr<LatencyModel> latency;  // simulator only
  DebugShim::Options shim_options;
  // Fault adversary, forwarded to the substrate (net/fault_plan.hpp).
  // Null keeps the reliable fast paths untouched.
  std::shared_ptr<FaultPlan> faults;
  ReliableConfig reliable;
  // Simulator worker threads (SimulationConfig::workers); results are
  // byte-identical for any value.  Ignored by the threaded runtime.
  std::uint32_t workers = 1;
  // Record/replay sink (src/replay): wired into every DebugShim (delivery/
  // timer records), the DebuggerProcess (halt cuts) and the substrate
  // (fault/reconnect annotations).  Null keeps every path untouched.
  std::shared_ptr<ReplaySink> replay;
};

// The harness over substrate S, explicitly instantiated for the three
// substrates in debugger/harness.cpp.  Substrate-specific members are
// constrained: sim()/runtime()/tcp() name the substrate, and the threaded
// runtimes add start()/shutdown() (TcpRuntime's start reports whether
// socket setup succeeded) and shut down on destruction.  With a debugger
// tier on TCP, every convergecast hop is a multiplexed TCP frame, so
// halt/breakpoint/resume tests at moderate N exercise the epoll reactor
// under genuine kernel backpressure.
template <class S>
class DebugHarness {
 public:
  static constexpr bool kThreaded = !std::same_as<S, Simulation>;

  DebugHarness(const Topology& user_topology, std::vector<ProcessPtr> users,
               HarnessConfig config = {});
  ~DebugHarness();

  auto start()
    requires kThreaded
  {
    return substrate_->start();
  }
  void shutdown()
    requires kThreaded
  {
    substrate_->shutdown();
  }

  [[nodiscard]] Simulation& sim()
    requires std::same_as<S, Simulation>
  {
    return *substrate_;
  }
  [[nodiscard]] Runtime& runtime()
    requires std::same_as<S, Runtime>
  {
    return *substrate_;
  }
  [[nodiscard]] TcpRuntime& tcp()
    requires std::same_as<S, TcpRuntime>
  {
    return *substrate_;
  }

  [[nodiscard]] DebuggerSession& session() { return *session_; }
  [[nodiscard]] DebuggerProcess& debugger() { return *debugger_; }
  [[nodiscard]] const Topology& topology() const {
    return substrate_->topology();
  }
  [[nodiscard]] ProcessId debugger_id() const { return debugger_id_; }
  // The shim wrapping user process p.
  [[nodiscard]] DebugShim& shim(ProcessId p);
  // Breakpoint watches armed across all shims so far.  Arming is
  // asynchronous (arm commands travel as control messages), so a test that
  // needs a breakpoint live before it lets traffic flow waits on this
  // rather than sleeping.
  [[nodiscard]] std::size_t armed_count() const {
    return armed_count_->load(std::memory_order_acquire);
  }
  [[nodiscard]] bool wait_for_armed(std::size_t watches, Duration timeout) {
    return host_->wait([this, watches] { return armed_count() >= watches; },
                       timeout);
  }

 private:
  std::shared_ptr<std::atomic<std::size_t>> armed_count_ =
      std::make_shared<std::atomic<std::size_t>>(0);
  std::shared_ptr<ReplaySink> replay_;  // keeps the recorder alive
  std::unique_ptr<S> substrate_;
  DebuggerProcess* debugger_ = nullptr;  // owned by substrate_
  ProcessId debugger_id_;
  std::unique_ptr<Host<S>> host_;
  std::unique_ptr<DebuggerSession> session_;
};

extern template class DebugHarness<Simulation>;
extern template class DebugHarness<Runtime>;
extern template class DebugHarness<TcpRuntime>;

using SimDebugHarness = DebugHarness<Simulation>;
using RuntimeDebugHarness = DebugHarness<Runtime>;
using TcpDebugHarness = DebugHarness<TcpRuntime>;

}  // namespace ddbg
