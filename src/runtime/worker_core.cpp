#include "runtime/worker_core.hpp"

#include "common/logging.hpp"
#include "net/transport_hooks.hpp"

namespace ddbg {

// ---------------------------------------------------------------------------
// WorkerCore
// ---------------------------------------------------------------------------

WorkerCore::WorkerCore(ThreadedRuntime& host, ProcessId id, ProcessPtr process,
                       Rng rng, const FaultPlan* faults,
                       const ReliableConfig& reliable, ReplaySink* replay)
    : host_(host),
      id_(id),
      process_(std::move(process)),
      rng_(rng) {
  if (faults != nullptr) {
    link_.emplace(host.topology_.out_channels(id),
                  host.topology_.in_channels(id), *faults, reliable,
                  host.metrics_, replay);
  }
}

WorkerCore::~WorkerCore() = default;

void WorkerCore::start() {
  thread_ = std::thread([this] { run(); });
}

void WorkerCore::request_stop() {
  {
    std::lock_guard<std::mutex> guard{mutex_};
    stopping_ = true;
  }
  wake();
}

void WorkerCore::join() {
  if (thread_.joinable()) thread_.join();
}

TimePoint WorkerCore::now() const { return host_.now(); }

const Topology& WorkerCore::topology() const { return host_.topology_; }

obs::MetricsRegistry* WorkerCore::metrics() const { return &host_.metrics_; }

void WorkerCore::send(ChannelId channel, Message message) {
  DDBG_ASSERT(host_.topology_.channel(channel).source == id_,
              "process may only send on its own outgoing channels");
  if (message.message_id == 0) {
    message.message_id = host_.next_message_id_.fetch_add(1);
  }
  transmit(channel, std::move(message));
}

TimerId WorkerCore::set_timer(Duration delay) {
  const TimerId id(host_.next_timer_id_.fetch_add(1));
  const auto deadline = Clock::now() + std::chrono::nanoseconds(delay.ns);
  {
    std::lock_guard<std::mutex> guard{mutex_};
    timers_.emplace(std::make_pair(deadline, id.value()), id);
    timer_deadline_.emplace(id.value(), deadline);
  }
  wake();
  return id;
}

void WorkerCore::cancel_timer(TimerId timer) {
  std::lock_guard<std::mutex> guard{mutex_};
  const auto it = timer_deadline_.find(timer.value());
  if (it == timer_deadline_.end()) return;  // already fired or cancelled
  timers_.erase(std::make_pair(it->second, timer.value()));
  timer_deadline_.erase(it);
}

void WorkerCore::deliver_message(ChannelId channel, Message message,
                                 std::uint32_t wire_bytes) {
  ++batch_deliveries_;
  host_.metrics_.on_deliver(channel.value(), traffic_class(message.kind),
                            wire_bytes);
  process_->on_message(*this, channel, std::move(message));
}

void WorkerCore::end_delivery_batch() {
  if (batch_deliveries_ == 0) return;
  host_.metrics_.on_deliver_batch(batch_deliveries_);
  batch_deliveries_ = 0;
}

void WorkerCore::defer(Clock::time_point when, std::function<void()> action) {
  deferred_.emplace(when, std::move(action));
}

bool WorkerCore::run_one_due(std::unique_lock<std::mutex>& lock) {
  const auto now = Clock::now();
  if (!deferred_.empty() && deferred_.begin()->first <= now) {
    std::function<void()> action = std::move(deferred_.begin()->second);
    deferred_.erase(deferred_.begin());
    lock.unlock();
    action();
    lock.lock();
    return true;
  }
  if (!timers_.empty() && timers_.begin()->first.first <= now) {
    const TimerId due = timers_.begin()->second;
    timer_deadline_.erase(due.value());
    timers_.erase(timers_.begin());
    lock.unlock();
    process_->on_timer(*this, due);
    lock.lock();
    return true;
  }
  return false;
}

WorkerCore::Clock::time_point WorkerCore::next_wakeup() const {
  auto wakeup = Clock::time_point::max();
  if (!timers_.empty()) wakeup = timers_.begin()->first.first;
  if (!deferred_.empty() && deferred_.begin()->first < wakeup) {
    wakeup = deferred_.begin()->first;
  }
  return wakeup;
}

WorkerCore::Clock::time_point WorkerCore::steady(TimePoint t) const {
  return host_.epoch_ + std::chrono::nanoseconds(t.ns);
}

void WorkerCore::arm_retry(std::size_t slot, ChannelId /*channel*/,
                           TimePoint when) {
  defer(steady(when), [this, slot] { link_->on_retry(*this, slot, now()); });
}

void WorkerCore::deliver(std::size_t /*slot*/, ChannelId channel,
                         Message&& message, std::uint64_t meta) {
  deliver_message(channel, std::move(message),
                  static_cast<std::uint32_t>(meta));
}

// ---------------------------------------------------------------------------
// ThreadedRuntime
// ---------------------------------------------------------------------------

ThreadedRuntime::ThreadedRuntime(Topology topology, const char* substrate)
    : topology_(std::move(topology)),
      metrics_(substrate, topology_.num_processes(), channel_meta(topology_)),
      epoch_(WorkerCore::Clock::now()) {}

ThreadedRuntime::~ThreadedRuntime() = default;

void ThreadedRuntime::start_workers() {
  epoch_ = WorkerCore::Clock::now();
  for (auto& worker : workers_) worker->start();
}

void ThreadedRuntime::post(ProcessId target, WorkerCore::Closure action) {
  DDBG_ASSERT(target.value() < workers_.size(), "unknown process");
  workers_[target.value()]->push_closure(std::move(action));
}

Process& ThreadedRuntime::process(ProcessId id) {
  DDBG_ASSERT(id.value() < workers_.size(), "unknown process");
  return workers_[id.value()]->process();
}

TimePoint ThreadedRuntime::now() const {
  return TimePoint{std::chrono::duration_cast<std::chrono::nanoseconds>(
                       WorkerCore::Clock::now() - epoch_)
                       .count()};
}

bool ThreadedRuntime::wait_until(const std::function<bool()>& condition,
                                 Duration timeout,
                                 std::chrono::microseconds poll) {
  const auto deadline =
      WorkerCore::Clock::now() + std::chrono::nanoseconds(timeout.ns);
  while (!condition()) {
    if (WorkerCore::Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(poll);
  }
  return true;
}

}  // namespace ddbg
