#include "sim/simulation.hpp"

#include <utility>

#include "common/logging.hpp"
#include "common/serialization.hpp"

namespace ddbg {

namespace {

// Transport message ids (assigned to marker/control messages the debug
// shims did not pre-stamp) are per-channel streams: bit 63 tags them apart
// from shim ids, the channel sits above a 32-bit per-channel counter.
[[nodiscard]] std::uint64_t transport_message_id(ChannelId channel,
                                                 std::uint64_t seq) {
  DDBG_ASSERT(seq < (1ULL << 32), "per-channel message stream exhausted");
  return (1ULL << 63) | (static_cast<std::uint64_t>(channel.value()) << 32) |
         seq;
}

}  // namespace

// ProcessContext implementation bound to one simulated process.  The
// engine re-binds `at` (the dispatching event's virtual time) before each
// handler invocation.
class SimProcessContext final : public ProcessContext {
 public:
  SimProcessContext(Simulation& sim, ProcessId self, Rng& rng)
      : sim_(sim), self_(self), rng_(rng) {}

  void bind_dispatch(TimePoint at) { at_ = at; }

  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] TimePoint now() const override { return at_; }
  [[nodiscard]] const Topology& topology() const override {
    return sim_.topology();
  }

  void send(ChannelId channel, Message message) override {
    sim_.do_send(self_, at_, channel, std::move(message));
  }

  TimerId set_timer(Duration delay) override {
    return sim_.do_set_timer(self_, at_, delay);
  }

  void cancel_timer(TimerId timer) override {
    sim_.cancelled_timers_[self_.value()].insert(timer);
  }

  [[nodiscard]] Rng& rng() override { return rng_; }

  [[nodiscard]] obs::MetricsRegistry* metrics() const override {
    return &sim_.metrics_;
  }

  void stop_self() override { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

 private:
  Simulation& sim_;
  ProcessId self_;
  Rng& rng_;
  TimePoint at_{0};
  bool stopped_ = false;
};

// The simulator's side of the reliability driver: frames, acks, retry
// checks and resyncs become events timed from the dispatching event's
// virtual time, for process `self` (the channel source on the sender side,
// the destination on the receiver side).  Built on the stack per driver
// call; slots are channel ids.
class SimLinkPort final : public ReliableLink::Port {
 public:
  SimLinkPort(Simulation& sim, ProcessId self, TimePoint at)
      : sim_(sim), self_(self), at_(at) {}

  void transmit_data(std::size_t /*slot*/, ChannelId channel,
                     std::uint64_t seq, const ReliableSender::Staged& staged,
                     std::uint64_t attempt, Duration extra,
                     bool copy) override {
    // A duplicate's copy rides a delay drawn from the ack stream's key
    // space, so it is independent of (and often overtakes) the original.
    const Duration delay =
        copy ? sim_.sample_latency(channel, attempt ^ 0x8000000000000000ULL)
             : sim_.sample_latency(channel, attempt) + extra;
    Simulation::Event event = make(Simulation::Event::Kind::kRelFrame,
                                   at_ + delay, channel,
                                   sim_.topology_.channel(channel).destination);
    event.rel_seq = seq;
    event.wire_bytes = static_cast<std::uint32_t>(staged.meta);
    sim_.push_parcel(event, staged.message);
  }

  void transmit_ack(std::size_t /*slot*/, ChannelId channel,
                    std::uint64_t cum_ack, std::uint64_t attempt,
                    Duration extra) override {
    const Duration delay =
        sim_.sample_latency(channel, attempt ^ 0x4000000000000000ULL) + extra;
    Simulation::Event event =
        make(Simulation::Event::Kind::kRelAck, at_ + delay, channel,
             sim_.topology_.channel(channel).source);
    event.rel_seq = cum_ack;
    sim_.push_event(event);
  }

  // Reconnection is a delayed resync: sender-side work, so it rides a
  // kRelRestore event targeting the channel source.
  void lose_connection(std::size_t /*slot*/, ChannelId channel,
                       TimePoint resync_at) override {
    sim_.push_event(make(Simulation::Event::Kind::kRelRestore, resync_at,
                         channel, self_));
  }

  void arm_retry(std::size_t /*slot*/, ChannelId channel,
                 TimePoint when) override {
    sim_.push_event(
        make(Simulation::Event::Kind::kRelRetry, when, channel, self_));
  }

  void deliver(std::size_t /*slot*/, ChannelId channel, Message&& message,
               std::uint64_t meta) override {
    sim_.release_delivery(at_, channel, self_, std::move(message),
                          static_cast<std::uint32_t>(meta));
  }

 private:
  [[nodiscard]] static Simulation::Event make(Simulation::Event::Kind kind,
                                              TimePoint when,
                                              ChannelId channel,
                                              ProcessId target) {
    Simulation::Event event;
    event.when = when;
    event.kind = kind;
    event.target = target;
    event.channel = channel;
    return event;
  }

  Simulation& sim_;
  ProcessId self_;
  TimePoint at_;
};

Simulation::Simulation(Topology topology, std::vector<ProcessPtr> processes,
                       SimulationConfig config)
    : topology_(std::move(topology)),
      processes_(std::move(processes)),
      config_(std::move(config)),
      rng_(config_.seed),
      metrics_("sim", topology_.num_processes(), channel_meta(topology_)) {
  DDBG_ASSERT(processes_.size() == topology_.num_processes(),
              "one Process per topology process required");
  if (!config_.latency) {
    config_.latency = uniform_latency(Duration::millis(1), Duration::millis(5));
  }
  process_rngs_.reserve(processes_.size());
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    process_rngs_.push_back(rng_.fork());
  }
  contexts_.reserve(processes_.size());
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    contexts_.push_back(std::make_unique<SimProcessContext>(
        *this, ProcessId(static_cast<std::uint32_t>(i)), process_rngs_[i]));
  }
  channel_msg_seq_.assign(topology_.num_channels(), 0);
  process_timer_seq_.assign(processes_.size(), 0);
  cancelled_timers_.resize(processes_.size());
  channel_clear_time_.assign(topology_.num_channels(), TimePoint{0});
  channel_in_flight_.assign(topology_.num_channels(), 0);
  channel_send_seq_.assign(topology_.num_channels(), 0);
  if (config_.faults) {
    std::vector<ChannelId> channels;
    channels.reserve(topology_.num_channels());
    for (const ChannelSpec& spec : topology_.channels()) {
      channels.push_back(spec.id);
    }
    link_.emplace(channels, channels, *config_.faults, config_.reliable,
                  metrics_, nullptr);
  }

  // Schedule on_start for every process at t=0, in id order.
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    Event event;
    event.when = TimePoint{0};
    event.kind = Event::Kind::kStart;
    event.target = ProcessId(static_cast<std::uint32_t>(i));
    push_event(event);
  }
}

Simulation::~Simulation() = default;

Process& Simulation::process(ProcessId id) {
  DDBG_ASSERT(id.value() < processes_.size(), "unknown process");
  return *processes_[id.value()];
}

std::size_t Simulation::in_flight(ChannelId channel) const {
  DDBG_ASSERT(channel.value() < channel_in_flight_.size(), "unknown channel");
  return channel_in_flight_[channel.value()];
}

std::size_t Simulation::total_in_flight() const {
  std::size_t total = 0;
  for (const std::size_t n : channel_in_flight_) total += n;
  return total;
}

void Simulation::push_event(Event event) {
  event.seq = next_seq_++;
  queue_.push(event);
}

void Simulation::push_parcel(Event event, Message message) {
  event.slot = parcels_.put(std::move(message));
  push_event(event);
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  const Event event = queue_.pop();
  DDBG_ASSERT(event.when >= now_, "simulation time went backwards");
  now_ = event.when;
  dispatch(event);
  ++events_processed_;
  return true;
}

bool Simulation::run_until_quiescent() {
  while (!queue_.empty()) {
    if (queue_.top_when() > config_.max_time) return false;
    step();
  }
  return true;
}

void Simulation::run_until(TimePoint until) {
  while (!queue_.empty() && queue_.top_when() <= until) step();
  if (now_ < until) now_ = until;
}

bool Simulation::run_until_condition(const std::function<bool()>& condition,
                                     TimePoint deadline) {
  if (condition()) return true;
  while (!queue_.empty() && queue_.top_when() <= deadline) {
    step();
    if (condition()) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Event injection and dispatch.
// ---------------------------------------------------------------------------

void Simulation::preload_channel(ChannelId channel, Bytes payload) {
  DDBG_ASSERT(events_processed_ == 0,
              "preload_channel must run before the simulation starts");
  DDBG_ASSERT(channel.value() < topology_.num_channels(), "unknown channel");
  const ChannelSpec& spec = topology_.channel(channel);
  Message message = Message::application(std::move(payload));
  message.message_id =
      transport_message_id(channel, ++channel_msg_seq_[channel.value()]);
  ++channel_in_flight_[channel.value()];
  std::uint32_t wire_bytes = 0;
  {
    BufferPool::Lease lease = pool_.acquire();
    metrics_.on_pool_acquire(lease.reused());
    ByteWriter writer(lease.bytes());
    message.encode(writer);
    wire_bytes = static_cast<std::uint32_t>(writer.size());
  }

  Event event;
  // Delivered at t=0 after the on_start events (which were queued first),
  // in preload order.
  event.when = TimePoint{0};
  event.kind = Event::Kind::kDeliver;
  event.target = spec.destination;
  event.channel = channel;
  event.wire_bytes = wire_bytes;
  push_parcel(event, std::move(message));
}

void Simulation::schedule_call(TimePoint when, std::function<void()> action) {
  DDBG_ASSERT(when >= now_, "cannot schedule in the past");
  Event event;
  event.when = when;
  event.kind = Event::Kind::kCall;
  event.slot = calls_.put(Call{std::move(action), {}});
  push_event(event);
}

void Simulation::post(ProcessId target,
                      std::function<void(ProcessContext&, Process&)> action) {
  Event event;
  event.when = now_;
  event.kind = Event::Kind::kClosure;
  event.target = target;
  event.slot = calls_.put(Call{{}, std::move(action)});
  push_event(event);
}

void Simulation::dispatch(const Event& event) {
  const TimePoint at = event.when;
  const auto context_for = [&](ProcessId p) -> SimProcessContext& {
    auto& ctx = static_cast<SimProcessContext&>(*contexts_[p.value()]);
    ctx.bind_dispatch(at);
    return ctx;
  };
  switch (event.kind) {
    case Event::Kind::kStart: {
      auto& ctx = context_for(event.target);
      processes_[event.target.value()]->on_start(ctx);
      break;
    }
    case Event::Kind::kDeliver: {
      const std::size_t c = event.channel.value();
      Message message = parcels_.take(event.slot);
      metrics_.on_deliver(c, traffic_class(message.kind), event.wire_bytes);
      // Event-at-a-time delivery: every batch is a single message, kept in
      // the counters so the parity invariant (batch messages == deliveries)
      // holds across all three runtimes.
      metrics_.on_deliver_batch(1);
      DDBG_ASSERT(channel_in_flight_[c] > 0, "delivery without a send");
      --channel_in_flight_[c];
      if (observer_ != nullptr) {
        observer_->on_deliver(at, event.channel, message);
      }
      auto& ctx = context_for(event.target);
      processes_[event.target.value()]->on_message(ctx, event.channel,
                                                   std::move(message));
      break;
    }
    case Event::Kind::kTimer: {
      if (cancelled_timers_[event.target.value()].erase(event.timer) > 0) {
        break;
      }
      auto& ctx = context_for(event.target);
      processes_[event.target.value()]->on_timer(ctx, event.timer);
      break;
    }
    case Event::Kind::kCall: {
      // Taken out first: the call may queue more calls (resizing the slab),
      // and its captures are released as soon as it returns.
      const Call call = calls_.take(event.slot);
      call.call();
      break;
    }
    case Event::Kind::kClosure: {
      const Call call = calls_.take(event.slot);
      auto& ctx = context_for(event.target);
      call.closure(ctx, *processes_[event.target.value()]);
      break;
    }
    case Event::Kind::kRelFrame: {
      SimLinkPort port(*this, event.target, at);
      link_->receive(port, event.channel.value(), event.rel_seq,
                     parcels_.take(event.slot), event.wire_bytes);
      link_->acknowledge(port, event.channel.value());
      break;
    }
    case Event::Kind::kRelAck:
      link_->on_ack(event.channel.value(), event.rel_seq);
      break;
    case Event::Kind::kRelRetry: {
      SimLinkPort port(*this, event.target, at);
      link_->on_retry(port, event.channel.value(), at);
      break;
    }
    case Event::Kind::kRelRestore: {
      SimLinkPort port(*this, event.target, at);
      link_->resync(port, event.channel.value(), at);
      break;
    }
  }
}

std::uint32_t Simulation::encoded_wire_bytes(const Message& message) {
  // Wire-size accounting encodes into a pooled buffer so steady-state
  // sends allocate nothing.
  BufferPool::Lease lease = pool_.acquire();
  metrics_.on_pool_acquire(lease.reused());
  ByteWriter writer(lease.bytes());
  message.encode(writer);
  return static_cast<std::uint32_t>(writer.size());
}

void Simulation::do_send(ProcessId sender, TimePoint at, ChannelId channel,
                         Message message) {
  const ChannelSpec& spec = topology_.channel(channel);
  DDBG_ASSERT(spec.source == sender,
              "process may only send on its own outgoing channels");
  // Debug shims pre-assign globally unique ids so traces can pair sends
  // with receives; everything else (markers, control) gets a transport id
  // from the channel's own deterministic stream.
  if (message.message_id == 0) {
    message.message_id =
        transport_message_id(channel, ++channel_msg_seq_[channel.value()]);
  }

  const std::uint32_t wire_bytes = encoded_wire_bytes(message);
  metrics_.on_send(channel.value(), traffic_class(message.kind), wire_bytes);
  if (observer_ != nullptr) observer_->on_send(at, channel, message);
  ++channel_in_flight_[channel.value()];
  metrics_.observe_backlog(channel.value(),
                           channel_in_flight_[channel.value()]);

  if (link_) {
    // Lossy transport: the link stages the message and subjects each
    // transmission attempt to the fault plan.  In-order release is the
    // receiver's job, so no FIFO floor here.
    SimLinkPort port(*this, sender, at);
    link_->send(port, channel.value(), std::move(message), wire_bytes, at);
    return;
  }

  // Latency is drawn from a stateless per-message stream keyed by
  // (seed, channel, per-channel sequence number) rather than a shared
  // generator.  Two runs that execute identical prefixes therefore see
  // identical delays for the shared prefix even if they diverge later —
  // the property the S_h == S_r equivalence experiment rests on.
  const std::uint64_t seq = channel_send_seq_[channel.value()]++;
  const Duration delay = sample_latency(channel, seq);
  TimePoint deliver_at = at + delay;
  // FIFO enforcement: never deliver before a previously sent message on the
  // same channel.
  TimePoint& clear_time = channel_clear_time_[channel.value()];
  if (deliver_at < clear_time) deliver_at = clear_time;
  clear_time = deliver_at;

  Event event;
  event.when = deliver_at;
  event.kind = Event::Kind::kDeliver;
  event.target = spec.destination;
  event.channel = channel;
  event.wire_bytes = wire_bytes;
  push_parcel(event, std::move(message));
}

Duration Simulation::sample_latency(ChannelId channel, std::uint64_t key) {
  Rng latency_rng(config_.seed ^
                  (static_cast<std::uint64_t>(channel.value()) + 1) *
                      0x9e3779b97f4a7c15ULL ^
                  (key + 1) * 0xc2b2ae3d27d4eb4fULL);
  const Duration delay = config_.latency->sample(channel, latency_rng);
  DDBG_ASSERT(delay.ns >= 0, "latency must be non-negative");
  return delay;
}

void Simulation::release_delivery(TimePoint at, ChannelId channel,
                                  ProcessId target, Message message,
                                  std::uint32_t wire_bytes) {
  const std::size_t c = channel.value();
  metrics_.on_deliver(c, traffic_class(message.kind), wire_bytes);
  metrics_.on_deliver_batch(1);
  DDBG_ASSERT(channel_in_flight_[c] > 0, "release without a send");
  --channel_in_flight_[c];
  if (observer_ != nullptr) observer_->on_deliver(at, channel, message);
  auto& ctx = static_cast<SimProcessContext&>(*contexts_[target.value()]);
  ctx.bind_dispatch(at);
  processes_[target.value()]->on_message(ctx, channel, std::move(message));
}

TimerId Simulation::do_set_timer(ProcessId owner, TimePoint at,
                                 Duration delay) {
  DDBG_ASSERT(delay.ns >= 0, "timer delay must be non-negative");
  // Timer ids are per-process streams packed as (owner << 20 | seq).
  DDBG_ASSERT(owner.value() < (1u << 12) - 1, "too many processes for "
              "packed timer ids");
  const std::uint32_t seq = ++process_timer_seq_[owner.value()];
  DDBG_ASSERT(seq < (1u << 20), "per-process timer stream exhausted");
  const TimerId id((owner.value() << 20) | seq);
  Event event;
  event.when = at + delay;
  event.kind = Event::Kind::kTimer;
  event.target = owner;
  event.timer = id;
  push_event(event);
  return id;
}

}  // namespace ddbg
