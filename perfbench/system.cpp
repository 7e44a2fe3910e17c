#include "system.hpp"

#include <mutex>
#include <stdexcept>
#include <thread>

#include "debugger/aggregator.hpp"
#include "debugger/harness.hpp"

namespace perfbench {

using ddbg::Duration;
using ddbg::ProcessContext;
using ddbg::ProcessId;

// Times post() -> closure start for runtime.post_us.
class System::TimedHost final : public ddbg::SessionHost {
 public:
  explicit TimedHost(ddbg::SessionHost& inner) : inner_(inner) {}

  void post(ProcessId target,
            std::function<void(ProcessContext&, ddbg::Process&)> action)
      override {
    const std::int64_t posted = wall_ns();
    inner_.post(target, [this, posted, action = std::move(action)](
                            ProcessContext& ctx, ddbg::Process& process) {
      {
        std::lock_guard<std::mutex> guard{mutex_};
        samples_us_.push_back(static_cast<double>(wall_ns() - posted) / 1e3);
      }
      action(ctx, process);
    });
  }

  bool wait(const std::function<bool()>& condition,
            Duration timeout) override {
    return inner_.wait(condition, timeout);
  }

  [[nodiscard]] std::vector<double> samples_us() const {
    std::lock_guard<std::mutex> guard{mutex_};
    return samples_us_;
  }

 private:
  ddbg::SessionHost& inner_;
  mutable std::mutex mutex_;
  std::vector<double> samples_us_;
};

System::System(const SystemConfig& config, Tracer* tracer, Capture* capture)
    : num_users_(config.users.num_processes()) {
  probe_->tracer = tracer;

  ddbg::DebugShim::Options options;
  options.stamp_vector_clocks = config.vector_clocks;
  options.on_armed = [armed = armed_](ProcessId, ddbg::BreakpointId) {
    armed->fetch_add(1, std::memory_order_acq_rel);
  };
  ddbg::Topology topology = config.fanout == 0
                                ? config.users.with_debugger()
                                : config.users.with_debugger_tree(config.fanout);
  index_channels(topology, *probe_);
  std::vector<ddbg::ProcessPtr> processes = ddbg::wrap_in_shims(
      topology, make_users(config.users, config.user, *probe_), options);
  for (std::uint32_t i = 0; i < topology.num_aggregators(); ++i) {
    processes.push_back(std::make_unique<ddbg::AggregatorProcess>());
  }
  auto debugger = std::make_unique<ddbg::DebuggerProcess>();
  debugger_ = debugger.get();
  processes.push_back(std::move(debugger));
  if (tracer != nullptr) {
    for (std::size_t i = 0; i < processes.size(); ++i) {
      const ProcessId id(static_cast<std::uint32_t>(i));
      const auto role = topology.is_debugger(id) ? TracedProcess::Role::kRoot
                        : topology.is_aggregator(id)
                            ? TracedProcess::Role::kAggregator
                            : TracedProcess::Role::kShim;
      processes[i] = std::make_unique<TracedProcess>(std::move(processes[i]),
                                                     role, *tracer, *capture);
    }
  }

  std::shared_ptr<ddbg::FaultPlan> faults;
  if (!config.faults.empty()) {
    auto plan = ddbg::FaultPlan::parse(config.faults, config.seed);
    if (!plan.ok()) throw std::runtime_error("bad fault plan " + config.faults);
    faults = std::make_shared<ddbg::FaultPlan>(std::move(plan).value());
  }
  const ProcessId debugger_id = topology.debugger_id();
  switch (config.substrate) {
    case Substrate::kSim: {
      ddbg::SimulationConfig sim_config;
      sim_config.seed = config.seed;
      sim_config.faults = faults;
      sim_ = std::make_unique<ddbg::Simulation>(
          std::move(topology), std::move(processes), std::move(sim_config));
      host_ = std::make_unique<ddbg::SimHost>(*sim_);
      break;
    }
    case Substrate::kThreads: {
      ddbg::RuntimeConfig runtime_config;
      runtime_config.seed = config.seed;
      runtime_config.faults = faults;
      runtime_ = std::make_unique<ddbg::Runtime>(
          std::move(topology), std::move(processes), runtime_config);
      host_ = std::make_unique<ddbg::RuntimeHost>(*runtime_);
      break;
    }
    case Substrate::kTcp: {
      ddbg::TcpRuntimeConfig tcp_config;
      tcp_config.seed = config.seed;
      tcp_config.faults = faults;
      tcp_ = std::make_unique<ddbg::TcpRuntime>(
          std::move(topology), std::move(processes), tcp_config);
      host_ = std::make_unique<ddbg::TcpHost>(*tcp_);
      break;
    }
  }
  ddbg::SessionHost* host = host_.get();
  if (tracer != nullptr) {
    timed_host_ = std::make_unique<TimedHost>(*host_);
    host = timed_host_.get();
  }
  session_ =
      std::make_unique<ddbg::DebuggerSession>(*host, *debugger_, debugger_id);
}

System::~System() { shutdown(); }

bool System::start() {
  if (runtime_) runtime_->start();
  if (tcp_) return tcp_->start();
  return true;
}

void System::shutdown() {
  if (runtime_) runtime_->shutdown();
  if (tcp_) tcp_->shutdown();
}

ddbg::TimePoint System::now() const {
  if (sim_) return sim_->now();
  if (runtime_) return runtime_->now();
  return tcp_->now();
}

ddbg::obs::MetricsRegistry& System::metrics() {
  if (sim_) return sim_->metrics();
  if (runtime_) return runtime_->metrics();
  return tcp_->metrics();
}

const ddbg::Topology& System::topology() const {
  if (sim_) return sim_->topology();
  if (runtime_) return runtime_->topology();
  return tcp_->topology();
}

std::size_t System::threads() const {
  return sim_ ? 1 : topology().num_processes();
}

bool System::wait(const std::function<bool()>& condition, Duration timeout) {
  return host_->wait(condition, timeout);
}

void System::advance(Duration d) {
  if (sim_) {
    sim_->run_for(d);
    return;
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(d.ns));
}

std::vector<double> System::post_samples_us() const {
  return timed_host_ ? timed_host_->samples_us() : std::vector<double>{};
}

}  // namespace perfbench
