// One debuggable system on one substrate, wired from public types the way
// debugger/harness.cpp wires it: with_debugger() or with_debugger_tree(),
// wrap_in_shims(), the aggregators, then the DebuggerProcess last.  With a
// tracer every shim, aggregator and the debugger is wrapped in a
// TracedProcess, and the session's host is timed.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/debug_shim.hpp"
#include "debugger/debugger_process.hpp"
#include "debugger/session.hpp"
#include "runtime/runtime.hpp"
#include "runtime/tcp_runtime.hpp"
#include "sim/simulation.hpp"
#include "tracing.hpp"
#include "user.hpp"

namespace perfbench {

enum class Substrate : std::uint8_t { kSim, kThreads, kTcp };

struct SystemConfig {
  Substrate substrate = Substrate::kSim;
  ddbg::Topology users;
  std::uint32_t fanout = 0;  // 0 = flat debugger
  bool vector_clocks = false;
  std::string faults;  // FaultPlan spec; empty = fault-free
  UserConfig user;
  std::uint64_t seed = 1;
};

class System {
 public:
  // `tracer` and `capture` may be null (untraced run); both or neither.
  System(const SystemConfig& config, Tracer* tracer, Capture* capture);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // Starts the threaded substrates (no-op on the simulator).
  [[nodiscard]] bool start();
  void shutdown();

  [[nodiscard]] ddbg::TimePoint now() const;
  [[nodiscard]] ddbg::obs::MetricsRegistry& metrics();
  [[nodiscard]] const ddbg::Topology& topology() const;
  [[nodiscard]] ddbg::DebuggerSession& session() { return *session_; }
  [[nodiscard]] Probe& probe() { return *probe_; }
  [[nodiscard]] ddbg::Simulation* sim() { return sim_.get(); }
  [[nodiscard]] std::uint32_t num_users() const { return num_users_; }
  [[nodiscard]] std::size_t armed() const {
    return armed_->load(std::memory_order_acquire);
  }
  // OS threads the substrate runs: the caller's on the simulator, one per
  // process on threads and TCP.
  [[nodiscard]] std::size_t threads() const;

  // Host wait: advances virtual time on the simulator, sleep-polls
  // otherwise.
  bool wait(const std::function<bool()>& condition, ddbg::Duration timeout);
  // Lets traffic flow for `d` (virtual on the simulator, wall otherwise).
  void advance(ddbg::Duration d);

  // runtime.post_us samples (traced runs only): post() to closure start.
  [[nodiscard]] std::vector<double> post_samples_us() const;

 private:
  class TimedHost;

  std::uint32_t num_users_ = 0;
  std::shared_ptr<std::atomic<std::size_t>> armed_ =
      std::make_shared<std::atomic<std::size_t>>(0);
  std::unique_ptr<Probe> probe_ = std::make_unique<Probe>();
  std::unique_ptr<ddbg::Simulation> sim_;
  std::unique_ptr<ddbg::Runtime> runtime_;
  std::unique_ptr<ddbg::TcpRuntime> tcp_;
  ddbg::DebuggerProcess* debugger_ = nullptr;
  std::unique_ptr<ddbg::SessionHost> host_;
  std::unique_ptr<TimedHost> timed_host_;
  std::unique_ptr<ddbg::DebuggerSession> session_;
};

}  // namespace perfbench
