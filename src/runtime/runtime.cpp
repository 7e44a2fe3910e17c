#include "runtime/runtime.hpp"

#include <chrono>
#include <deque>
#include <future>
#include <map>
#include <unordered_map>
#include <utility>

#include "common/buffer_pool.hpp"
#include "common/logging.hpp"
#include "common/serialization.hpp"

namespace ddbg {

namespace {
using SteadyClock = std::chrono::steady_clock;

// Replay-log annotation for transport-level nondeterminism (fault draws,
// reconnects, resyncs).  Diagnostic provenance only — the null check keeps
// unrecorded runs untouched.
void annotate(const std::shared_ptr<ReplaySink>& sink, std::uint8_t kind,
              ChannelId channel, std::uint64_t detail) {
  if (sink != nullptr) sink->record_annotation(kind, channel, detail);
}
}  // namespace

// ---------------------------------------------------------------------------
// Worker: one process, its inbox, its timers and its thread.
// ---------------------------------------------------------------------------

class ThreadProcessContext;

class Runtime::Worker {
 public:
  Worker(Runtime& runtime, ProcessId id, ProcessPtr process, Rng rng);
  ~Worker();

  void start();
  void stop();

  void push_delivery(ChannelId channel, Message message,
                     std::uint32_t wire_bytes);
  void push_closure(std::function<void(ProcessContext&, Process&)> action);

  // ---- reliability layer (runtime_.config_.faults only) ----
  // Sender-side state (rel_send_, attempt counters, retry arming) is owned
  // by this worker's thread: do_send runs on it, acks and internal
  // deadlines are dispatched on it.  Receiver-side state (rel_recv_, ack
  // attempt counters) is owned by the destination worker's thread.
  std::uint64_t rel_stage(ChannelId channel, Message message,
                          std::uint32_t wire_bytes);
  void rel_transmit(ChannelId channel, std::uint64_t seq);
  void rel_check_retries(ChannelId channel);
  void push_rel_frame(ChannelId channel, std::uint64_t seq, Message message,
                      std::uint32_t wire_bytes);
  void push_ack(ChannelId channel, std::uint64_t cum_ack);

  TimerId add_timer(Duration delay);
  void cancel_timer(TimerId timer);

  [[nodiscard]] Process& process() { return *process_; }
  [[nodiscard]] Runtime& runtime() { return runtime_; }
  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  // Encode-buffer pool for sends issued from this worker's thread; only
  // that thread may touch it.
  [[nodiscard]] BufferPool& pool() { return pool_; }

 private:
  struct Item {
    // kRelFrame: a reliability data frame arriving at this worker's
    // receiver; kAck: a cumulative ack arriving back at this worker's
    // sender; kInternal: a deadline-fired reliability action (retransmit
    // check, delayed frame/ack, reconnect resync).
    enum class Kind {
      kDeliver,
      kClosure,
      kTimer,
      kRelFrame,
      kAck,
      kInternal,
    } kind;
    ChannelId channel;
    Message message;
    std::uint32_t wire_bytes = 0;
    std::uint64_t rel_seq = 0;  // kRelFrame: data seq; kAck: cum ack
    std::function<void(ProcessContext&, Process&)> closure;
    std::function<void()> fn;
    TimerId timer;
  };

  void thread_main();
  void rel_arm_retry(ChannelId channel);
  void rel_deliver_frame(ChannelId channel, std::uint64_t seq,
                         Duration extra);
  void rel_on_frame(Item& item, std::size_t& deliveries);
  void schedule_internal(SteadyClock::time_point when,
                         std::function<void()> fn);
  // Fills `out` with the next runnable work: the whole inbox swapped out
  // under one lock acquisition (from_inbox=true), or a single due timer.
  // Blocks until work arrives; returns false when the worker is stopping.
  bool next_batch(std::deque<Item>& out, bool& from_inbox);

  Runtime& runtime_;
  ProcessId id_;
  ProcessPtr process_;
  Rng rng_;
  std::unique_ptr<ThreadProcessContext> context_;
  BufferPool pool_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Item> inbox_;
  // Pending timers ordered by deadline; TimerId breaks ties.  The index
  // maps a timer id back to its deadline so cancel_timer erases the exact
  // map key instead of scanning.
  std::map<std::pair<SteadyClock::time_point, std::uint32_t>, TimerId>
      timers_;
  std::unordered_map<std::uint32_t, SteadyClock::time_point> timer_deadline_;
  // Deadline-fired reliability actions; inserted under mutex_, executed on
  // this worker's thread.
  std::multimap<SteadyClock::time_point, std::function<void()>> internal_;
  bool stopping_ = false;

  // Reliability state, indexed by channel id; sized only when a FaultPlan
  // is configured.  Each worker touches only its own channels' slots.
  std::vector<ReliableSender> rel_send_;      // this worker's out-channels
  std::vector<ReliableReceiver> rel_recv_;    // this worker's in-channels
  std::vector<std::uint64_t> attempts_;       // out: data fault stream
  std::vector<std::uint64_t> ack_attempts_;   // in: ack fault stream
  std::vector<SteadyClock::time_point> retry_arm_;  // earliest armed check
  std::vector<char> reconnect_pending_;
  // Scratch reused by every retry check and every arriving frame.
  std::vector<std::uint64_t> due_;
  std::vector<ReliableReceiver::Delivery> released_;

  std::thread thread_;
};

class ThreadProcessContext final : public ProcessContext {
 public:
  explicit ThreadProcessContext(Runtime::Worker& worker) : worker_(worker) {}

  [[nodiscard]] ProcessId self() const override { return worker_.id(); }
  [[nodiscard]] TimePoint now() const override {
    return worker_.runtime().now();
  }
  [[nodiscard]] const Topology& topology() const override {
    return worker_.runtime().topology();
  }

  void send(ChannelId channel, Message message) override {
    worker_.runtime().do_send(worker_.id(), channel, std::move(message));
  }

  TimerId set_timer(Duration delay) override {
    return worker_.add_timer(delay);
  }
  void cancel_timer(TimerId timer) override { worker_.cancel_timer(timer); }

  [[nodiscard]] Rng& rng() override { return worker_.rng(); }

  [[nodiscard]] obs::MetricsRegistry* metrics() const override {
    return &worker_.runtime().metrics();
  }

  void stop_self() override {
    // No dedicated bookkeeping: a "stopped" process simply schedules no
    // further timers; its thread keeps serving messages so markers flow.
  }

 private:
  Runtime::Worker& worker_;
};

Runtime::Worker::Worker(Runtime& runtime, ProcessId id, ProcessPtr process,
                        Rng rng)
    : runtime_(runtime), id_(id), process_(std::move(process)), rng_(rng) {
  context_ = std::make_unique<ThreadProcessContext>(*this);
  if (runtime_.config_.faults) {
    const std::size_t n = runtime_.topology_.num_channels();
    rel_send_.assign(n, ReliableSender(runtime_.config_.reliable));
    rel_recv_.assign(n, ReliableReceiver());
    attempts_.assign(n, 0);
    ack_attempts_.assign(n, 0);
    retry_arm_.assign(n, SteadyClock::time_point::max());
    reconnect_pending_.assign(n, 0);
  }
}

Runtime::Worker::~Worker() { stop(); }

void Runtime::Worker::start() {
  thread_ = std::thread([this] { thread_main(); });
}

void Runtime::Worker::stop() {
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (stopping_) {
      // Already stopping; still need to join below if joinable.
    }
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Runtime::Worker::push_delivery(ChannelId channel, Message message,
                                    std::uint32_t wire_bytes) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (stopping_) return;
    Item item;
    item.kind = Item::Kind::kDeliver;
    item.channel = channel;
    item.message = std::move(message);
    item.wire_bytes = wire_bytes;
    inbox_.push_back(std::move(item));
    depth = inbox_.size();
  }
  runtime_.metrics_.observe_queue_depth(id_.value(), depth);
  cv_.notify_one();
}

void Runtime::Worker::push_closure(
    std::function<void(ProcessContext&, Process&)> action) {
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (stopping_) return;
    Item item;
    item.kind = Item::Kind::kClosure;
    item.closure = std::move(action);
    inbox_.push_back(std::move(item));
  }
  cv_.notify_one();
}

TimerId Runtime::Worker::add_timer(Duration delay) {
  const TimerId id(runtime_.next_timer_id_.fetch_add(1));
  const auto deadline =
      SteadyClock::now() + std::chrono::nanoseconds(delay.ns);
  {
    std::lock_guard<std::mutex> guard{mutex_};
    timers_.emplace(std::make_pair(deadline, id.value()), id);
    timer_deadline_.emplace(id.value(), deadline);
  }
  cv_.notify_one();
  return id;
}

void Runtime::Worker::cancel_timer(TimerId timer) {
  std::lock_guard<std::mutex> guard{mutex_};
  const auto it = timer_deadline_.find(timer.value());
  if (it == timer_deadline_.end()) return;  // already fired or cancelled
  timers_.erase(std::make_pair(it->second, timer.value()));
  timer_deadline_.erase(it);
}

bool Runtime::Worker::next_batch(std::deque<Item>& out, bool& from_inbox) {
  std::unique_lock<std::mutex> lock{mutex_};
  while (true) {
    if (stopping_) return false;
    if (!inbox_.empty()) {
      // Swap the whole inbox out: the batch dispatches lock-free while
      // senders refill a fresh deque.  Messages keep priority over due
      // timers, exactly as the one-item-per-lock loop behaved.
      out.swap(inbox_);
      from_inbox = true;
      return true;
    }
    const auto now = SteadyClock::now();
    // Internal reliability deadlines (retransmit checks, delayed frames)
    // fire with the same priority as process timers.
    if (!internal_.empty() && internal_.begin()->first <= now) {
      Item item;
      item.kind = Item::Kind::kInternal;
      item.fn = std::move(internal_.begin()->second);
      internal_.erase(internal_.begin());
      out.push_back(std::move(item));
      from_inbox = false;
      return true;
    }
    if (!timers_.empty() && timers_.begin()->first.first <= now) {
      Item item;
      item.kind = Item::Kind::kTimer;
      item.timer = timers_.begin()->second;
      timer_deadline_.erase(item.timer.value());
      timers_.erase(timers_.begin());
      out.push_back(std::move(item));
      from_inbox = false;
      return true;
    }
    auto deadline = SteadyClock::time_point::max();
    if (!timers_.empty()) deadline = timers_.begin()->first.first;
    if (!internal_.empty() && internal_.begin()->first < deadline) {
      deadline = internal_.begin()->first;
    }
    if (deadline != SteadyClock::time_point::max()) {
      cv_.wait_until(lock, deadline);
    } else {
      cv_.wait(lock);
    }
  }
}

void Runtime::Worker::thread_main() {
  process_->on_start(*context_);
  std::deque<Item> batch;
  bool from_inbox = false;
  while (next_batch(batch, from_inbox)) {
    std::size_t deliveries = 0;
    for (Item& item : batch) {
      switch (item.kind) {
        case Item::Kind::kDeliver: {
          ++deliveries;
          runtime_.metrics_.on_deliver(item.channel.value(),
                                       traffic_class(item.message.kind),
                                       item.wire_bytes);
          process_->on_message(*context_, item.channel,
                               std::move(item.message));
          break;
        }
        case Item::Kind::kClosure:
          item.closure(*context_, *process_);
          break;
        case Item::Kind::kTimer:
          process_->on_timer(*context_, item.timer);
          break;
        case Item::Kind::kRelFrame:
          rel_on_frame(item, deliveries);
          break;
        case Item::Kind::kAck:
          rel_send_[item.channel.value()].ack(item.rel_seq);
          rel_arm_retry(item.channel);
          break;
        case Item::Kind::kInternal:
          item.fn();
          break;
      }
    }
    if (from_inbox && deliveries > 0) {
      runtime_.metrics_.on_deliver_batch(deliveries);
    }
    batch.clear();
  }
}

// ---------------------------------------------------------------------------
// Worker: reliability layer
// ---------------------------------------------------------------------------

void Runtime::Worker::schedule_internal(SteadyClock::time_point when,
                                        std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (stopping_) return;
    internal_.emplace(when, std::move(fn));
  }
  cv_.notify_one();
}

std::uint64_t Runtime::Worker::rel_stage(ChannelId channel, Message message,
                                         std::uint32_t wire_bytes) {
  return rel_send_[channel.value()].stage(std::move(message), wire_bytes,
                                          runtime_.now());
}

void Runtime::Worker::rel_transmit(ChannelId channel, std::uint64_t seq) {
  const std::size_t c = channel.value();
  if (rel_send_[c].peek(seq) == nullptr) return;  // acked meanwhile
  const std::uint64_t attempt = attempts_[c]++;
  const FaultDecision fault =
      runtime_.config_.faults->decide(channel, attempt);
  switch (fault.kind) {
    case FaultKind::kDrop:
    case FaultKind::kPartition:
      runtime_.metrics_.on_fault(fault_index(fault.kind));
      annotate(runtime_.config_.replay,
               static_cast<std::uint8_t>(fault_index(fault.kind)), channel,
               attempt);
      break;  // frame vanishes; the retransmit timer recovers
    case FaultKind::kReset: {
      runtime_.metrics_.on_fault(fault_index(fault.kind));
      runtime_.metrics_.on_channel_down();
      annotate(runtime_.config_.replay,
               static_cast<std::uint8_t>(fault_index(fault.kind)), channel,
               attempt);
      // The frame is lost with the "connection"; after a redial delay,
      // resync replays the whole unacked window.
      if (reconnect_pending_[c] != 0) break;
      reconnect_pending_[c] = 1;
      const auto redial =
          SteadyClock::now() +
          std::chrono::nanoseconds(runtime_.config_.reliable.rto_initial.ns);
      schedule_internal(redial, [this, channel] {
        const std::size_t cc = channel.value();
        reconnect_pending_[cc] = 0;
        runtime_.metrics_.on_reconnect();
        annotate(runtime_.config_.replay, kReplayAnnotationReconnect, channel,
                 0);
        const std::size_t replayed =
            rel_send_[cc].mark_all_due(runtime_.now());
        runtime_.metrics_.on_resync_replayed(replayed);
        annotate(runtime_.config_.replay, kReplayAnnotationResync, channel,
                 replayed);
        rel_check_retries(channel);
      });
      break;
    }
    case FaultKind::kDuplicate:
      runtime_.metrics_.on_fault(fault_index(fault.kind));
      annotate(runtime_.config_.replay,
               static_cast<std::uint8_t>(fault_index(fault.kind)), channel,
               attempt);
      rel_deliver_frame(channel, seq, Duration{0});
      rel_deliver_frame(channel, seq, Duration{0});
      break;
    case FaultKind::kReorder:
    case FaultKind::kDelay:
      runtime_.metrics_.on_fault(fault_index(fault.kind));
      annotate(runtime_.config_.replay,
               static_cast<std::uint8_t>(fault_index(fault.kind)), channel,
               attempt);
      rel_deliver_frame(channel, seq, fault.extra_delay);
      break;
    case FaultKind::kNone:
      rel_deliver_frame(channel, seq, Duration{0});
      break;
  }
  rel_arm_retry(channel);
}

void Runtime::Worker::rel_deliver_frame(ChannelId channel, std::uint64_t seq,
                                        Duration extra) {
  const std::size_t c = channel.value();
  const ReliableSender::Staged* staged = rel_send_[c].peek(seq);
  if (staged == nullptr) return;
  Worker& dest =
      *runtime_.workers_[runtime_.topology_.channel(channel).destination
                             .value()];
  // Frame contents are fixed at transmission time: copy now even for a
  // delayed frame, so an ack retiring the window entry cannot invalidate
  // the closure.
  Message copy = staged->message;
  const auto wire_bytes = static_cast<std::uint32_t>(staged->meta);
  if (extra.ns <= 0) {
    dest.push_rel_frame(channel, seq, std::move(copy), wire_bytes);
    return;
  }
  const auto when = SteadyClock::now() + std::chrono::nanoseconds(extra.ns);
  schedule_internal(when, [&dest, channel, seq, copy = std::move(copy),
                           wire_bytes]() mutable {
    dest.push_rel_frame(channel, seq, std::move(copy), wire_bytes);
  });
}

void Runtime::Worker::rel_check_retries(ChannelId channel) {
  const std::size_t c = channel.value();
  retry_arm_[c] = SteadyClock::time_point::max();
  rel_send_[c].due(runtime_.now(), due_);
  for (const std::uint64_t seq : due_) {
    runtime_.metrics_.on_retransmit();
    rel_transmit(channel, seq);
  }
  rel_arm_retry(channel);
}

void Runtime::Worker::rel_arm_retry(ChannelId channel) {
  const std::size_t c = channel.value();
  const auto deadline = rel_send_[c].next_deadline();
  if (!deadline.has_value()) return;
  const auto when =
      runtime_.epoch_ + std::chrono::nanoseconds(deadline->ns);
  if (retry_arm_[c] <= when) return;  // an earlier check covers this
  retry_arm_[c] = when;
  schedule_internal(when, [this, channel] { rel_check_retries(channel); });
}

void Runtime::Worker::push_rel_frame(ChannelId channel, std::uint64_t seq,
                                     Message message,
                                     std::uint32_t wire_bytes) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (stopping_) return;
    Item item;
    item.kind = Item::Kind::kRelFrame;
    item.channel = channel;
    item.rel_seq = seq;
    item.message = std::move(message);
    item.wire_bytes = wire_bytes;
    inbox_.push_back(std::move(item));
    depth = inbox_.size();
  }
  runtime_.metrics_.observe_queue_depth(id_.value(), depth);
  cv_.notify_one();
}

void Runtime::Worker::push_ack(ChannelId channel, std::uint64_t cum_ack) {
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (stopping_) return;
    Item item;
    item.kind = Item::Kind::kAck;
    item.channel = channel;
    item.rel_seq = cum_ack;
    inbox_.push_back(std::move(item));
  }
  cv_.notify_one();
}

void Runtime::Worker::rel_on_frame(Item& item, std::size_t& deliveries) {
  const std::size_t c = item.channel.value();
  released_.clear();
  const auto accept = rel_recv_[c].on_frame(
      item.rel_seq, std::move(item.message), item.wire_bytes, released_);
  if (accept == ReliableReceiver::Accept::kDuplicate) {
    runtime_.metrics_.on_dup_suppressed();
  }
  for (auto& delivery : released_) {
    ++deliveries;
    runtime_.metrics_.on_deliver(c, traffic_class(delivery.message.kind),
                                 static_cast<std::uint32_t>(delivery.meta));
    process_->on_message(*context_, item.channel,
                         std::move(delivery.message));
  }
  // Ack every arrival, duplicates included: a re-ack is what stops the
  // sender retransmitting a frame whose ack was lost.
  const std::uint64_t attempt = ack_attempts_[c]++;
  const FaultDecision fault =
      runtime_.config_.faults->decide_ack(item.channel, attempt);
  if (fault.kind == FaultKind::kDrop) {
    runtime_.metrics_.on_fault(fault_index(fault.kind));
    annotate(runtime_.config_.replay,
             static_cast<std::uint8_t>(fault_index(fault.kind)), item.channel,
             attempt);
    return;
  }
  Worker& src =
      *runtime_.workers_[runtime_.topology_.channel(item.channel).source
                             .value()];
  const std::uint64_t cum = rel_recv_[c].cum_ack();
  if (fault.kind == FaultKind::kDelay) {
    runtime_.metrics_.on_fault(fault_index(fault.kind));
    annotate(runtime_.config_.replay,
             static_cast<std::uint8_t>(fault_index(fault.kind)), item.channel,
             attempt);
    const auto when =
        SteadyClock::now() + std::chrono::nanoseconds(fault.extra_delay.ns);
    const ChannelId ch = item.channel;
    schedule_internal(when,
                      [&src, ch, cum] { src.push_ack(ch, cum); });
    return;
  }
  src.push_ack(item.channel, cum);
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(Topology topology, std::vector<ProcessPtr> processes,
                 RuntimeConfig config)
    : topology_(std::move(topology)),
      config_(config),
      metrics_("threads", topology_.num_processes(),
               channel_meta(topology_)) {
  DDBG_ASSERT(processes.size() == topology_.num_processes(),
              "one Process per topology process required");
  Rng root(config_.seed);
  workers_.reserve(processes.size());
  for (std::size_t i = 0; i < processes.size(); ++i) {
    workers_.push_back(std::make_unique<Worker>(
        *this, ProcessId(static_cast<std::uint32_t>(i)),
        std::move(processes[i]), root.fork()));
  }
  epoch_ = SteadyClock::now();
}

Runtime::~Runtime() { shutdown(); }

void Runtime::start() {
  DDBG_ASSERT(!started_.exchange(true), "Runtime::start called twice");
  epoch_ = SteadyClock::now();
  for (auto& worker : workers_) worker->start();
}

void Runtime::shutdown() {
  if (stopped_.exchange(true)) return;
  for (auto& worker : workers_) worker->stop();
}

void Runtime::post(ProcessId target,
                   std::function<void(ProcessContext&, Process&)> action) {
  DDBG_ASSERT(target.value() < workers_.size(), "unknown process");
  workers_[target.value()]->push_closure(std::move(action));
}

bool Runtime::call(ProcessId target,
                   std::function<void(ProcessContext&, Process&)> action,
                   Duration timeout) {
  auto done = std::make_shared<std::promise<void>>();
  auto future = done->get_future();
  post(target, [action = std::move(action), done](ProcessContext& ctx,
                                                  Process& process) {
    action(ctx, process);
    done->set_value();
  });
  return future.wait_for(std::chrono::nanoseconds(timeout.ns)) ==
         std::future_status::ready;
}

bool Runtime::wait_until(const std::function<bool()>& condition,
                         Duration timeout) {
  const auto deadline =
      SteadyClock::now() + std::chrono::nanoseconds(timeout.ns);
  while (!condition()) {
    if (SteadyClock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

Process& Runtime::process(ProcessId id) {
  DDBG_ASSERT(id.value() < workers_.size(), "unknown process");
  return workers_[id.value()]->process();
}

TimePoint Runtime::now() const {
  const auto elapsed = SteadyClock::now() - epoch_;
  return TimePoint{
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()};
}

void Runtime::do_send(ProcessId sender, ChannelId channel, Message message) {
  const ChannelSpec& spec = topology_.channel(channel);
  DDBG_ASSERT(spec.source == sender,
              "process may only send on its own outgoing channels");
  if (message.message_id == 0) {
    message.message_id = next_message_id_.fetch_add(1);
  }
  // Wire-size accounting encodes into the sending worker's pooled buffer
  // (do_send runs on the sender's thread), so steady-state sends allocate
  // nothing.
  std::uint32_t wire_bytes = 0;
  {
    BufferPool::Lease lease = workers_[sender.value()]->pool().acquire();
    metrics_.on_pool_acquire(lease.reused());
    ByteWriter writer(lease.bytes());
    message.encode(writer);
    wire_bytes = static_cast<std::uint32_t>(writer.size());
  }
  metrics_.on_send(channel.value(), traffic_class(message.kind), wire_bytes);
  if (config_.faults) {
    // Lossy transport: stage in the sending worker's retransmit window
    // (do_send runs on the sender's thread) and transmit under the fault
    // plan; the destination's receiver restores FIFO exactly-once order.
    Worker& src = *workers_[sender.value()];
    const std::uint64_t seq =
        src.rel_stage(channel, std::move(message), wire_bytes);
    src.rel_transmit(channel, seq);
    return;
  }
  workers_[spec.destination.value()]->push_delivery(channel,
                                                    std::move(message),
                                                    wire_bytes);
}

}  // namespace ddbg
