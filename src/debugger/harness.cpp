#include "debugger/harness.hpp"

#include <type_traits>

#include "debugger/aggregator.hpp"

namespace ddbg {

namespace {

struct WiredSystem {
  Topology topology;  // with debugger (tier)
  std::vector<ProcessPtr> processes;
  DebuggerProcess* debugger = nullptr;
};

WiredSystem wire(const Topology& user_topology, std::vector<ProcessPtr> users,
                 std::uint32_t debugger_fanout,
                 DebugShim::Options shim_options,
                 std::shared_ptr<std::atomic<std::size_t>> armed_count,
                 ReplaySink* replay = nullptr) {
  // Count armed watches harness-wide, chaining any hook the caller set.
  // The counter outlives the shims via shared ownership, and the hook runs
  // on process threads — hence the atomic.
  shim_options.on_armed = [armed_count = std::move(armed_count),
                           user_hook = std::move(shim_options.on_armed)](
                              ProcessId p, BreakpointId bp) {
    armed_count->fetch_add(1, std::memory_order_acq_rel);
    if (user_hook) user_hook(p, bp);
  };
  // Record mode: every shim logs its user-boundary inputs, the debugger
  // logs completed halt cuts.  (The harness owns the sink's lifetime.)
  if (replay != nullptr) shim_options.replay_record = replay;
  WiredSystem wired;
  wired.topology = debugger_fanout == 0
                       ? user_topology.with_debugger()
                       : user_topology.with_debugger_tree(debugger_fanout);
  wired.processes =
      wrap_in_shims(wired.topology, std::move(users), std::move(shim_options));
  // Tier processes occupy the slots after the users, root (the debugger)
  // last; process ids must line up with the topology's slots.
  for (std::uint32_t i = 0; i < wired.topology.num_aggregators(); ++i) {
    wired.processes.push_back(std::make_unique<AggregatorProcess>());
  }
  auto debugger = std::make_unique<DebuggerProcess>();
  debugger->set_replay_sink(replay);
  wired.debugger = debugger.get();
  wired.processes.push_back(std::move(debugger));
  return wired;
}

// The substrate's own config, carrying the harness-level settings.
template <class S>
auto substrate_config(HarnessConfig& config,
                      const std::shared_ptr<ReplaySink>& replay) {
  if constexpr (std::same_as<S, Simulation>) {
    SimulationConfig sim;
    sim.seed = config.seed;
    sim.latency = std::move(config.latency);
    sim.faults = std::move(config.faults);
    sim.reliable = config.reliable;
    sim.workers = config.workers;
    return sim;
  } else {
    std::conditional_t<std::same_as<S, Runtime>, RuntimeConfig,
                       TcpRuntimeConfig>
        threaded;
    threaded.seed = config.seed;
    threaded.faults = std::move(config.faults);
    threaded.reliable = config.reliable;
    threaded.replay = replay;
    return threaded;
  }
}

}  // namespace

template <class S>
DebugHarness<S>::DebugHarness(const Topology& user_topology,
                              std::vector<ProcessPtr> users,
                              HarnessConfig config)
    : replay_(config.replay) {
  WiredSystem wired = wire(user_topology, std::move(users),
                           config.debugger_fanout,
                           std::move(config.shim_options), armed_count_,
                           replay_.get());
  debugger_ = wired.debugger;
  debugger_id_ = wired.topology.debugger_id();
  substrate_ = std::make_unique<S>(std::move(wired.topology),
                                   std::move(wired.processes),
                                   substrate_config<S>(config, replay_));
  host_ = std::make_unique<Host<S>>(*substrate_);
  session_ =
      std::make_unique<DebuggerSession>(*host_, *debugger_, debugger_id_);
}

template <class S>
DebugHarness<S>::~DebugHarness() {
  if constexpr (kThreaded) shutdown();
}

template <class S>
DebugShim& DebugHarness<S>::shim(ProcessId p) {
  auto* shim = dynamic_cast<DebugShim*>(&substrate_->process(p));
  DDBG_ASSERT(shim != nullptr, "process is not wrapped in a DebugShim");
  return *shim;
}

template class DebugHarness<Simulation>;
template class DebugHarness<Runtime>;
template class DebugHarness<TcpRuntime>;

}  // namespace ddbg
