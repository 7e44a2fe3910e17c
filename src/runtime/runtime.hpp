// Multithreaded runtime: one OS thread per process, blocking inboxes,
// immediate (in-memory) channel delivery.
//
// This runtime exists to demonstrate the algorithms under real concurrency
// and real (scheduler-induced) communication delay: handlers race across
// processes exactly as they would across machines, while each process's
// handlers stay serialized on its own thread.  Process implementations run
// unchanged on this runtime and on the deterministic simulator.
//
// Channel model: send() pushes the message into the destination process's
// inbox under a lock, so channels are reliable, unbounded and FIFO
// (section 2.1's assumptions).  The thread, timer and context plumbing is
// the shared threaded core (runtime/worker_core.hpp).
#pragma once

#include <memory>

#include "net/fault_plan.hpp"
#include "net/reliable.hpp"
#include "net/replay_hooks.hpp"
#include "runtime/worker_core.hpp"

namespace ddbg {

struct RuntimeConfig {
  std::uint64_t seed = 1;
  // Fault adversary.  When set, each worker's ReliableLink stages its sends
  // and subjects them to the plan; receivers suppress duplicates and
  // release in sequence order, so processes still observe section 2.1's
  // reliable FIFO channels.  Null (default) keeps the direct-delivery fast
  // path untouched.
  std::shared_ptr<FaultPlan> faults;
  ReliableConfig reliable;
  // Record/replay sink (src/replay).  The runtime appends transport-level
  // annotations — fault draws, reconnects, resync replays — as diagnostic
  // provenance; the user-boundary inputs are recorded by the DebugShims.
  // Null (default) leaves every path untouched.
  std::shared_ptr<ReplaySink> replay;
};

class Runtime final : public ThreadedRuntime {
 public:
  Runtime(Topology topology, std::vector<ProcessPtr> processes,
          RuntimeConfig config = {});
  ~Runtime();

  // Launch all process threads (calls on_start on each thread).
  void start();
  // Stop all process threads; idempotent.  Pending inbox items are dropped.
  void shutdown();

  // Post a closure and wait for it to run; returns false on timeout or if
  // the runtime is shut down first.  Must not be called from a process
  // thread.
  bool call(ProcessId target, WorkerCore::Closure action, Duration timeout);

 private:
  class Worker;

  [[nodiscard]] Worker& worker(ProcessId p);

  RuntimeConfig config_;
};

}  // namespace ddbg
