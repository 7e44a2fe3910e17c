#include "runtime/runtime.hpp"

#include <condition_variable>
#include <deque>
#include <future>
#include <utility>

#include "common/logging.hpp"
#include "net/transport_hooks.hpp"

namespace ddbg {

// ---------------------------------------------------------------------------
// Worker: one process, its inbox and its thread.
// ---------------------------------------------------------------------------

class Runtime::Worker final : public WorkerCore {
 public:
  Worker(Runtime& runtime, ProcessId id, ProcessPtr process, Rng rng)
      : WorkerCore(runtime, id, std::move(process), rng,
                   runtime.config_.faults.get(), runtime.config_.reliable,
                   runtime.config_.replay.get()),
        runtime_(runtime) {}
  ~Worker() override {
    request_stop();
    join();
  }

  void push_closure(Closure action) override {
    push(Item::Kind::kClosure, {}, {}, 0, 0, std::move(action));
  }
  // A nonzero `rel_seq` makes this a reliability data frame for the link
  // (data sequences start at 1).
  void push_delivery(ChannelId channel, Message message,
                     std::uint32_t wire_bytes, std::uint64_t rel_seq = 0) {
    push(rel_seq == 0 ? Item::Kind::kDeliver : Item::Kind::kRelFrame, channel,
         std::move(message), wire_bytes, rel_seq, {});
  }
  void push_ack(ChannelId channel, std::uint64_t cum_ack) {
    push(Item::Kind::kAck, channel, {}, 0, cum_ack, {});
  }

 private:
  // Inbox items, run in arrival order.  kRelFrame: a reliability data frame
  // for this worker's link; kAck: a cumulative ack back at its sender side.
  struct Item {
    enum class Kind { kDeliver, kClosure, kRelFrame, kAck };
    Kind kind = Kind::kDeliver;
    ChannelId channel;
    Message message;
    std::uint32_t wire_bytes = 0;
    std::uint64_t rel_seq = 0;  // kRelFrame: data seq; kAck: cum ack
    Closure closure;
  };

  void run() override;
  void transmit(ChannelId channel, Message message) override;
  void wake() override { cv_.notify_one(); }
  void push(Item::Kind kind, ChannelId channel, Message message,
            std::uint32_t wire_bytes, std::uint64_t rel_seq, Closure closure);
  // Swaps the whole inbox into `out` under one lock acquisition, firing
  // due timers and internal deadlines while it waits for one.  Returns
  // false when the worker is stopping.
  bool next_batch(std::deque<Item>& out);

  // ---- ReliableLink::Port: frames and acks become inbox items ----
  void transmit_data(std::size_t slot, ChannelId channel, std::uint64_t seq,
                     const ReliableSender::Staged& staged,
                     std::uint64_t attempt, Duration extra,
                     bool copy) override;
  void transmit_ack(std::size_t slot, ChannelId channel,
                    std::uint64_t cum_ack, std::uint64_t attempt,
                    Duration extra) override;
  void lose_connection(std::size_t slot, ChannelId channel,
                       TimePoint resync_at) override;

  Runtime& runtime_;
  std::condition_variable cv_;
  std::deque<Item> inbox_;
};

void Runtime::Worker::push(Item::Kind kind, ChannelId channel,
                           Message message, std::uint32_t wire_bytes,
                           std::uint64_t rel_seq, Closure closure) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (stopping_) return;
    Item& item = inbox_.emplace_back();
    item.kind = kind;
    item.channel = channel;
    item.message = std::move(message);
    item.wire_bytes = wire_bytes;
    item.rel_seq = rel_seq;
    item.closure = std::move(closure);
    depth = inbox_.size();
  }
  if (kind == Item::Kind::kDeliver || kind == Item::Kind::kRelFrame) {
    runtime_.metrics_.observe_queue_depth(id_.value(), depth);
  }
  cv_.notify_one();
}

bool Runtime::Worker::next_batch(std::deque<Item>& out) {
  std::unique_lock<std::mutex> lock{mutex_};
  while (!stopping_) {
    if (!inbox_.empty()) {
      // Swap the whole inbox out: the batch dispatches lock-free while
      // senders refill a fresh deque.  Messages keep priority over due
      // timers.
      out.swap(inbox_);
      return true;
    }
    if (run_one_due(lock)) continue;
    const auto wakeup = next_wakeup();
    if (wakeup != Clock::time_point::max()) {
      cv_.wait_until(lock, wakeup);
    } else {
      cv_.wait(lock);
    }
  }
  return false;
}

void Runtime::Worker::run() {
  process_->on_start(*this);
  std::deque<Item> batch;
  while (next_batch(batch)) {
    for (Item& item : batch) {
      switch (item.kind) {
        case Item::Kind::kDeliver:
          deliver_message(item.channel, std::move(item.message),
                          item.wire_bytes);
          break;
        case Item::Kind::kClosure:
          item.closure(*this, *process_);
          break;
        case Item::Kind::kRelFrame: {
          const std::uint32_t slot = runtime_.topology_.in_slot(item.channel);
          link_->receive(*this, slot, item.rel_seq, std::move(item.message),
                         item.wire_bytes);
          link_->acknowledge(*this, slot);
          break;
        }
        case Item::Kind::kAck:
          link_->on_ack(runtime_.topology_.out_slot(item.channel),
                        item.rel_seq);
          break;
      }
    }
    end_delivery_batch();
    batch.clear();
  }
}

void Runtime::Worker::transmit(ChannelId channel, Message message) {
  const auto wire_bytes = static_cast<std::uint32_t>(message.encoded_size());
  runtime_.metrics_.on_send(channel.value(), traffic_class(message.kind),
                            wire_bytes);
  if (link_) {
    link_->send(*this, runtime_.topology_.out_slot(channel),
                std::move(message), wire_bytes, now());
    return;
  }
  runtime_.worker(runtime_.topology_.channel(channel).destination)
      .push_delivery(channel, std::move(message), wire_bytes);
}

void Runtime::Worker::transmit_data(std::size_t /*slot*/, ChannelId channel,
                                    std::uint64_t seq,
                                    const ReliableSender::Staged& staged,
                                    std::uint64_t /*attempt*/, Duration extra,
                                    bool /*copy*/) {
  Worker& dest =
      runtime_.worker(runtime_.topology_.channel(channel).destination);
  // Frame contents are fixed at transmission time: copy now even for a
  // delayed frame, so an ack retiring the window entry cannot invalidate
  // it.
  Message copy = staged.message;
  const auto wire_bytes = static_cast<std::uint32_t>(staged.meta);
  if (extra.ns <= 0) {
    dest.push_delivery(channel, std::move(copy), wire_bytes, seq);
    return;
  }
  defer(Clock::now() + std::chrono::nanoseconds(extra.ns),
        [&dest, channel, seq, copy = std::move(copy), wire_bytes]() mutable {
          dest.push_delivery(channel, std::move(copy), wire_bytes, seq);
        });
}

void Runtime::Worker::transmit_ack(std::size_t /*slot*/, ChannelId channel,
                                   std::uint64_t cum_ack,
                                   std::uint64_t /*attempt*/,
                                   Duration extra) {
  Worker& src = runtime_.worker(runtime_.topology_.channel(channel).source);
  if (extra.ns <= 0) {
    src.push_ack(channel, cum_ack);
    return;
  }
  defer(Clock::now() + std::chrono::nanoseconds(extra.ns),
        [&src, channel, cum_ack] { src.push_ack(channel, cum_ack); });
}

void Runtime::Worker::lose_connection(std::size_t slot, ChannelId /*channel*/,
                                      TimePoint resync_at) {
  // An in-memory "connection" comes back after the modeled redial delay.
  defer(steady(resync_at),
        [this, slot] { link_->resync(*this, slot, now()); });
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(Topology topology, std::vector<ProcessPtr> processes,
                 RuntimeConfig config)
    : ThreadedRuntime(std::move(topology), "threads"),
      config_(std::move(config)) {
  spawn_workers<Worker>(*this, std::move(processes), config_.seed);
}

Runtime::~Runtime() { shutdown(); }

Runtime::Worker& Runtime::worker(ProcessId p) {
  return static_cast<Worker&>(*workers_[p.value()]);
}

void Runtime::start() {
  DDBG_ASSERT(!started_.exchange(true), "Runtime::start called twice");
  start_workers();
}

void Runtime::shutdown() {
  if (stopped_.exchange(true)) return;
  for (auto& worker : workers_) {
    worker->request_stop();
    worker->join();
  }
}

bool Runtime::call(ProcessId target, WorkerCore::Closure action,
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

}  // namespace ddbg
