// The core the two threaded substrates share: one OS thread per process.
//
// Runtime (in-memory inboxes) and TcpRuntime (an epoll reactor over
// loopback sockets) differ only in how a frame moves and how a worker
// sleeps.  Everything else lives here once:
//
//   * WorkerCore is one hosted process: its thread, its ProcessContext, its
//     timer table, the deferred internal actions of its reliability link
//     (retransmit checks, delayed frames, resyncs), and the hand-off of a
//     delivered message to the process;
//   * ThreadedRuntime is the runtime-wide state: topology, metrics, the
//     workers, the message/timer id counters, the epoch, and the
//     post/process/now/wait_until surface the debugger session drives.
//
// A derived worker supplies transmit() (move a sent message), wake()
// (interrupt its wait), run() (its thread body) and push_closure(); with a
// FaultPlan it also supplies the frame-moving half of ReliableLink::Port.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/process.hpp"
#include "net/reliable_link.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"

namespace ddbg {

class ThreadedRuntime;

class WorkerCore : public ProcessContext, protected ReliableLink::Port {
 public:
  using Clock = std::chrono::steady_clock;
  using Closure = std::function<void(ProcessContext&, Process&)>;

  // `faults` (may be null), `reliable` and `replay` (may be null) configure
  // the reliability link.
  WorkerCore(ThreadedRuntime& host, ProcessId id, ProcessPtr process, Rng rng,
             const FaultPlan* faults, const ReliableConfig& reliable,
             ReplaySink* replay);
  ~WorkerCore() override;
  WorkerCore(const WorkerCore&) = delete;
  WorkerCore& operator=(const WorkerCore&) = delete;

  // Run `action` on this worker's thread, in process context, serialized
  // with the process's handlers.
  virtual void push_closure(Closure action) = 0;

  void start();
  // Ask the thread to exit after the handler it is in, then wait for it.
  void request_stop();
  void join();
  [[nodiscard]] Process& process() { return *process_; }

  // ---- ProcessContext ----
  [[nodiscard]] ProcessId self() const override { return id_; }
  [[nodiscard]] TimePoint now() const override;
  [[nodiscard]] const Topology& topology() const override;
  // Checks the channel is ours and stamps a message id, then transmit().
  void send(ChannelId channel, Message message) final;
  TimerId set_timer(Duration delay) final;
  void cancel_timer(TimerId timer) final;
  [[nodiscard]] Rng& rng() override { return rng_; }
  [[nodiscard]] obs::MetricsRegistry* metrics() const override;
  // No dedicated bookkeeping: a "stopped" process simply schedules no
  // further timers; its thread keeps serving messages so markers flow.
  void stop_self() override {}

 protected:
  virtual void run() = 0;
  virtual void transmit(ChannelId channel, Message message) = 0;
  // Interrupt the thread's wait (a timer was added).
  virtual void wake() = 0;

  // Hand an arrived message to the process, counted into the current
  // delivery batch; end_delivery_batch() closes the batch.
  void deliver_message(ChannelId channel, Message message,
                       std::uint32_t wire_bytes);
  void end_delivery_batch();

  // Queue an internal action (a reliability deadline) for this worker's
  // own thread; only that thread may call it.
  void defer(Clock::time_point when, std::function<void()> action);
  // With `lock` held on mutex_: run the earliest due deferred action, else
  // the earliest due timer, with the lock released around it.  Returns
  // whether anything ran.
  bool run_one_due(std::unique_lock<std::mutex>& lock);
  // Earliest timer or deferred deadline (max() when none); mutex_ held.
  [[nodiscard]] Clock::time_point next_wakeup() const;
  [[nodiscard]] Clock::time_point steady(TimePoint t) const;

  // ---- ReliableLink::Port: the parts both threaded runtimes share ----
  void arm_retry(std::size_t slot, ChannelId channel,
                 TimePoint when) override;
  void deliver(std::size_t slot, ChannelId channel, Message&& message,
               std::uint64_t meta) override;

  ThreadedRuntime& host_;
  ProcessId id_;
  ProcessPtr process_;
  Rng rng_;
  // Set iff the runtime has a FaultPlan; touched only by this thread.
  std::optional<ReliableLink> link_;
  // Guards the timer table and whatever the derived worker queues for its
  // thread from other threads.
  std::mutex mutex_;
  std::atomic<bool> stopping_{false};  // set under mutex_
  std::thread thread_;

 private:
  // Pending timers ordered by deadline; TimerId breaks ties.  The index
  // maps a timer id back to its deadline so cancel_timer erases the exact
  // key instead of scanning.
  std::map<std::pair<Clock::time_point, std::uint32_t>, TimerId> timers_;
  std::unordered_map<std::uint32_t, Clock::time_point> timer_deadline_;
  std::multimap<Clock::time_point, std::function<void()>> deferred_;
  std::size_t batch_deliveries_ = 0;
};

class ThreadedRuntime {
 public:
  ThreadedRuntime(const ThreadedRuntime&) = delete;
  ThreadedRuntime& operator=(const ThreadedRuntime&) = delete;

  // Post a closure to run on `target`'s thread, in process context,
  // serialized with its handlers.  The cross-thread injection point used by
  // the debugger session.
  void post(ProcessId target, WorkerCore::Closure action);

  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] Process& process(ProcessId id);
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }
  [[nodiscard]] TimePoint now() const;

  // Sleep-poll `condition` (evaluated on the caller's thread) until it
  // holds or `timeout` elapses.
  static bool wait_until(const std::function<bool()>& condition,
                         Duration timeout,
                         std::chrono::microseconds poll =
                             std::chrono::microseconds(200));

 protected:
  ThreadedRuntime(Topology topology, const char* substrate);
  ~ThreadedRuntime();

  // One W per process, each with a fork of the seed's generator.
  template <class W, class R>
  void spawn_workers(R& runtime, std::vector<ProcessPtr> processes,
                     std::uint64_t seed) {
    DDBG_ASSERT(processes.size() == topology_.num_processes(),
                "one Process per topology process required");
    Rng root(seed);
    workers_.reserve(processes.size());
    for (std::size_t i = 0; i < processes.size(); ++i) {
      workers_.push_back(std::make_unique<W>(
          runtime, ProcessId(static_cast<std::uint32_t>(i)),
          std::move(processes[i]), root.fork()));
    }
  }
  void start_workers();

  Topology topology_;
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<WorkerCore>> workers_;
  // Per-runtime (not static): ids restart at 1 for every instance, so runs
  // are deterministic per instance and long test suites cannot wrap.
  std::atomic<std::uint64_t> next_message_id_{1};
  std::atomic<std::uint32_t> next_timer_id_{1};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  WorkerCore::Clock::time_point epoch_;

 private:
  friend class WorkerCore;
};

}  // namespace ddbg
