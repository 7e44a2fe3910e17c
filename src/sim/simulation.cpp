#include "sim/simulation.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"
#include "common/serialization.hpp"

namespace ddbg {

namespace {

// Provisional sequence ids for in-window children live above every real
// seq the run can assign; within one lane they increase in creation order,
// which equals true-seq order for same-lane comparisons (DESIGN.md).
constexpr std::uint64_t kProvisionalBase = 1ULL << 63;

// Transport message ids (assigned to marker/control messages the debug
// shims did not pre-stamp) are per-channel streams: bit 63 tags them apart
// from shim ids, the channel sits above a 32-bit per-channel counter.  The
// id depends only on the channel's own send order, so the sequential and
// parallel engines agree on every id — and therefore on every wire size.
[[nodiscard]] std::uint64_t transport_message_id(ChannelId channel,
                                                 std::uint64_t seq) {
  DDBG_ASSERT(seq < (1ULL << 32), "per-channel message stream exhausted");
  return (1ULL << 63) | (static_cast<std::uint64_t>(channel.value()) << 32) |
         seq;
}

}  // namespace

// ProcessContext implementation bound to one simulated process.  The
// engine re-binds `at` (the dispatching event's virtual time) and `lane`
// (the staging lane of the worker running the dispatch; null on every
// sequential path) before each handler invocation.
class SimProcessContext final : public ProcessContext {
 public:
  SimProcessContext(Simulation& sim, ProcessId self, Rng& rng)
      : sim_(sim), self_(self), rng_(rng) {}

  void bind_dispatch(TimePoint at, Simulation::Lane* lane) {
    at_ = at;
    lane_ = lane;
  }

  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] TimePoint now() const override { return at_; }
  [[nodiscard]] const Topology& topology() const override {
    return sim_.topology();
  }

  void send(ChannelId channel, Message message) override {
    sim_.do_send(lane_, self_, at_, channel, std::move(message));
  }

  TimerId set_timer(Duration delay) override {
    return sim_.do_set_timer(lane_, self_, at_, delay);
  }

  void cancel_timer(TimerId timer) override {
    sim_.cancelled_timers_[self_.value()].insert(timer);
  }

  void run_ordered(std::function<void()> fn) override {
    sim_.run_ordered_effect(lane_, std::move(fn));
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
  Simulation::Lane* lane_ = nullptr;
  bool stopped_ = false;
};

// The simulator's side of the reliability driver: frames, acks, retry
// checks and resyncs become events timed from the dispatching event's
// virtual time, on the dispatching worker's lane, for process `self` (the
// channel source on the sender side, the destination on the receiver
// side).  Built on the stack per driver call; slots are channel ids.
class SimLinkPort final : public ReliableLink::Port {
 public:
  SimLinkPort(Simulation& sim, Simulation::Lane* lane, ProcessId self,
              TimePoint at)
      : sim_(sim), lane_(lane), self_(self), at_(at) {}

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
    sim_.emit_parcel(lane_, event, staged.message);
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
    sim_.emit_child(lane_, event);
  }

  // Reconnection is a delayed resync: sender-side work, so it rides a
  // kRelRestore event targeting the channel source, never a serial barrier.
  void lose_connection(std::size_t /*slot*/, ChannelId channel,
                       TimePoint resync_at) override {
    sim_.emit_child(lane_, make(Simulation::Event::Kind::kRelRestore,
                                resync_at, channel, self_));
  }

  void arm_retry(std::size_t /*slot*/, ChannelId channel,
                 TimePoint when) override {
    sim_.emit_child(lane_, make(Simulation::Event::Kind::kRelRetry, when,
                                channel, self_));
  }

  void deliver(std::size_t /*slot*/, ChannelId channel, Message&& message,
               std::uint64_t meta) override {
    sim_.release_delivery(lane_, at_, channel, self_, std::move(message),
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
  Simulation::Lane* lane_;
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

std::uint32_t Simulation::effective_workers() const {
  if (config_.workers <= 1) return 1;
  if (config_.latency->min_latency().ns <= 0) return 1;  // no lookahead
  return std::min(config_.workers, topology_.num_processes());
}

void Simulation::push_event(Event event) {
  event.seq = next_seq_++;
  queue_.push(event);
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  const Event event = queue_.pop();
  DDBG_ASSERT(event.when >= now_, "simulation time went backwards");
  now_ = event.when;
  dispatch(nullptr, event);
  ++events_processed_;
  return true;
}

bool Simulation::run_until_quiescent() {
  if (effective_workers() > 1) {
    run_parallel(config_.max_time);
    return queue_.empty();
  }
  while (!queue_.empty()) {
    if (queue_.top_when() > config_.max_time) return false;
    step();
  }
  return true;
}

void Simulation::run_until(TimePoint until) {
  if (effective_workers() > 1) {
    run_parallel(until);
  } else {
    while (!queue_.empty() && queue_.top_when() <= until) step();
  }
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
// Parallel engine.
//
// One iteration handles either a serial barrier event (kCall/kClosure: the
// harness poking the run; it may touch anything, so nothing else is in
// flight) or one conservative window [T0, T0 + min_latency).  Every event
// already queued inside the window is extracted and routed to the worker
// that owns its target process; the lookahead guarantees no event inside
// the window can *create* work for another worker inside the same window,
// so each worker can dispatch its shard in local (when, seq) order without
// synchronization.  Effects whose order is observable — queue pushes (seq
// assignment), in-flight/backlog accounting, pool hit/miss accounting,
// observer callbacks, run_ordered notifications — are staged per dispatched
// event and replayed at commit in the exact order the sequential loop would
// have produced, which is what makes the two modes byte-identical.
// ---------------------------------------------------------------------------

void Simulation::run_parallel(TimePoint until) {
  const std::uint32_t workers = effective_workers();
  if (lanes_.size() != workers) {
    DDBG_ASSERT(lanes_.empty(), "worker count is fixed once lanes exist");
    for (std::size_t i = 0; i < workers; ++i) {
      lanes_.emplace_back();
      lanes_.back().index = i;
    }
    pool_threads_ = std::make_unique<WorkerPool>(workers);
  }
  const Duration delta = config_.latency->min_latency();
  std::vector<Event> batch;
  while (!queue_.empty() && queue_.top_when() <= until) {
    const Event& top = queue_.top();
    if (top.kind == Event::Kind::kCall || top.kind == Event::Kind::kClosure) {
      step();  // serial barrier: runs alone, exactly like the sequential loop
      continue;
    }
    const TimePoint t0 = top.when;
    TimePoint window_end = t0 + delta;
    if (window_end.ns > until.ns + 1) window_end = TimePoint{until.ns + 1};

    // Extract the window's batch, stopping short of any barrier event.
    batch.clear();
    TimePoint horizon = window_end;
    while (!queue_.empty()) {
      const Event& head = queue_.top();
      if (head.when >= window_end) break;
      if (head.kind == Event::Kind::kCall ||
          head.kind == Event::Kind::kClosure) {
        // Children born at or after the barrier must dispatch after it.
        horizon = head.when;
        break;
      }
      batch.push_back(queue_.pop());
    }
    DDBG_ASSERT(!batch.empty(), "window extracted no events");

    if (batch.size() == 1) {
      // Degenerate window: the barrier machinery would only add overhead,
      // and serial dispatch is definitionally sequential-equivalent.
      const Event event = batch.front();
      DDBG_ASSERT(event.when >= now_, "simulation time went backwards");
      now_ = event.when;
      dispatch(nullptr, event);
      ++events_processed_;
      continue;
    }

    for (const Event& event : batch) {
      lanes_[owner_of(event.target)].heap.push(event);
    }
    for (Lane& lane : lanes_) {
      lane.horizon = horizon;
      lane.next_provisional = 0;
    }
    window_active_ = true;
    pool_threads_->run([this](std::size_t i) { drain_lane(lanes_[i]); });
    window_active_ = false;
    commit_window();
  }
}

void Simulation::drain_lane(Lane& lane) {
  while (!lane.heap.empty()) {
    const Event event = lane.heap.pop();
    if (lane.recorded == lane.records.size()) lane.records.emplace_back();
    ExecRecord& record = lane.records[lane.recorded++];
    record.when = event.when;
    record.seq = event.seq;
    record.provisional = event.seq >= kProvisionalBase;
    lane.current = &record;
    dispatch(&lane, event);
    lane.current = nullptr;
  }
}

void Simulation::commit_window() {
  // Workers only detached their parcels; the slab is the coordinator's
  // again, so free those slots before commit parks the window's children.
  for (Lane& lane : lanes_) {
    for (const std::uint32_t slot : lane.freed_parcels) {
      parcels_.release(slot);
    }
    lane.freed_parcels.clear();
  }
  while (true) {
    // K-way merge of the lanes' record streams by (when, true seq).  A
    // provisional head's true seq is always already bound: its parent
    // replayed earlier in the same stream.
    Lane* best = nullptr;
    TimePoint best_when{0};
    std::uint64_t best_seq = 0;
    for (Lane& lane : lanes_) {
      if (lane.committed == lane.recorded) continue;
      const ExecRecord& head = lane.records[lane.committed];
      std::uint64_t seq = head.seq;
      if (head.provisional) {
        const std::uint64_t k = head.seq - kProvisionalBase;
        DDBG_ASSERT(k < lane.bound_seq.size(),
                    "in-window child replayed before its parent");
        seq = lane.bound_seq[k];
      }
      if (best == nullptr || head.when < best_when ||
          (head.when == best_when && seq < best_seq)) {
        best = &lane;
        best_when = head.when;
        best_seq = seq;
      }
    }
    if (best == nullptr) break;
    ExecRecord& record = best->records[best->committed++];
    DDBG_ASSERT(record.when >= now_, "simulation time went backwards");
    now_ = record.when;
    for (Effect& effect : record.effects) {
      switch (effect.kind) {
        case Effect::Kind::kPoolAcquire: {
          // Mirrors the sequential send path's acquire/release exactly, so
          // the hit/miss split in the metrics comes out identical.
          BufferPool::Lease lease = pool_.acquire();
          metrics_.on_pool_acquire(lease.reused());
          break;
        }
        case Effect::Kind::kSendFlight: {
          const std::size_t c = effect.channel.value();
          ++channel_in_flight_[c];
          metrics_.observe_backlog(c, channel_in_flight_[c]);
          break;
        }
        case Effect::Kind::kDeliverFlight: {
          const std::size_t c = effect.channel.value();
          DDBG_ASSERT(channel_in_flight_[c] > 0, "delivery without a send");
          --channel_in_flight_[c];
          break;
        }
        case Effect::Kind::kObserverSend:
          observer_->on_send(effect.at, effect.channel, effect.message);
          break;
        case Effect::Kind::kObserverDeliver:
          observer_->on_deliver(effect.at, effect.channel, effect.message);
          break;
        case Effect::Kind::kDeferred:
          effect.fn();
          break;
        case Effect::Kind::kChild:
          if (is_parcel(effect.child.kind)) {
            effect.child.slot = parcels_.put(std::move(effect.message));
          }
          push_event(effect.child);
          break;
        case Effect::Kind::kChildLocal:
          DDBG_ASSERT(effect.provisional - kProvisionalBase ==
                          best->bound_seq.size(),
                      "provisional ids bind in creation order");
          best->bound_seq.push_back(next_seq_++);
          break;
      }
    }
    record.effects.clear();  // keeps the capacity for the next window
    ++events_processed_;
  }
  for (Lane& lane : lanes_) {
    lane.recorded = 0;
    lane.committed = 0;
    lane.bound_seq.clear();
  }
}

void Simulation::emit_child(Lane* lane, Event event) {
  if (lane == nullptr || lane->current == nullptr) {
    push_event(event);
    return;
  }
  Effect& effect = lane->current->effects.emplace_back();
  if (event.when < lane->horizon) {
    // In-window child: dispatched by this worker within the window.  The
    // lookahead bound makes cross-worker children impossible here — only
    // same-process work (timers, retransmit checks, reconnect resyncs) can
    // land inside the window.
    DDBG_ASSERT(owner_of(event.target) == lane->index,
                "lookahead violation: in-window child crosses workers "
                "(latency model's min_latency() is not a lower bound?)");
    DDBG_ASSERT(event.kind != Event::Kind::kCall &&
                    event.kind != Event::Kind::kClosure,
                "barrier events cannot be created during a window");
    event.seq = kProvisionalBase + lane->next_provisional++;
    effect.kind = Effect::Kind::kChildLocal;
    effect.provisional = event.seq;
    lane->heap.push(event);
    return;
  }
  effect.kind = Effect::Kind::kChild;
  effect.child = event;
}

void Simulation::emit_parcel(Lane* lane, Event event, Message message) {
  if (lane == nullptr || lane->current == nullptr) {
    event.slot = parcels_.put(std::move(message));
    push_event(event);
    return;
  }
  // Delivery and frame delays are at least min_latency(), which bounds the
  // window, so a parcel never lands inside the window that sent it.  It
  // travels in its staged kChild effect and commit parks it: workers never
  // put into the slab, so it cannot resize under a concurrent detach.
  DDBG_ASSERT(event.when >= lane->horizon,
              "lookahead violation: message delivered inside its window");
  Effect& effect = lane->current->effects.emplace_back();
  effect.kind = Effect::Kind::kChild;
  effect.child = event;
  effect.message = std::move(message);
}

Message Simulation::take_parcel(Lane* lane, std::uint32_t slot) {
  if (lane == nullptr || lane->current == nullptr) return parcels_.take(slot);
  lane->freed_parcels.push_back(slot);
  return parcels_.detach(slot);
}

void Simulation::run_ordered_effect(Lane* lane, std::function<void()> fn) {
  if (lane == nullptr || lane->current == nullptr) {
    fn();
    return;
  }
  Effect effect;
  effect.kind = Effect::Kind::kDeferred;
  effect.fn = std::move(fn);
  lane->current->effects.push_back(std::move(effect));
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
  emit_parcel(nullptr, event, std::move(message));
}

void Simulation::schedule_call(TimePoint when, std::function<void()> action) {
  DDBG_ASSERT(when >= now_, "cannot schedule in the past");
  DDBG_ASSERT(!window_active_, "cannot inject calls during a parallel window");
  Event event;
  event.when = when;
  event.kind = Event::Kind::kCall;
  event.slot = calls_.put(Call{std::move(action), {}});
  push_event(event);
}

void Simulation::post(ProcessId target,
                      std::function<void(ProcessContext&, Process&)> action) {
  DDBG_ASSERT(!window_active_, "cannot post closures during a parallel window");
  Event event;
  event.when = now_;
  event.kind = Event::Kind::kClosure;
  event.target = target;
  event.slot = calls_.put(Call{{}, std::move(action)});
  push_event(event);
}

void Simulation::dispatch(Lane* lane, const Event& event) {
  const TimePoint at = event.when;
  const auto context_for = [&](ProcessId p) -> SimProcessContext& {
    auto& ctx = static_cast<SimProcessContext&>(*contexts_[p.value()]);
    ctx.bind_dispatch(at, lane);
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
      Message message = take_parcel(lane, event.slot);
      metrics_.on_deliver(c, traffic_class(message.kind), event.wire_bytes);
      // Event-at-a-time delivery: every batch is a single message, kept in
      // the counters so the parity invariant (batch messages == deliveries)
      // holds across all three runtimes.
      metrics_.on_deliver_batch(1);
      if (lane != nullptr && lane->current != nullptr) {
        Effect flight;
        flight.kind = Effect::Kind::kDeliverFlight;
        flight.channel = event.channel;
        lane->current->effects.push_back(std::move(flight));
        if (observer_ != nullptr) {
          Effect obs;
          obs.kind = Effect::Kind::kObserverDeliver;
          obs.channel = event.channel;
          obs.at = at;
          obs.message = message;
          lane->current->effects.push_back(std::move(obs));
        }
      } else {
        DDBG_ASSERT(channel_in_flight_[c] > 0, "delivery without a send");
        --channel_in_flight_[c];
        if (observer_ != nullptr) {
          observer_->on_deliver(at, event.channel, message);
        }
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
      DDBG_ASSERT(lane == nullptr, "barrier events dispatch serially");
      // Taken out first: the call may queue more calls (resizing the slab),
      // and its captures are released as soon as it returns.
      const Call call = calls_.take(event.slot);
      call.call();
      break;
    }
    case Event::Kind::kClosure: {
      DDBG_ASSERT(lane == nullptr, "barrier events dispatch serially");
      const Call call = calls_.take(event.slot);
      auto& ctx = context_for(event.target);
      call.closure(ctx, *processes_[event.target.value()]);
      break;
    }
    case Event::Kind::kRelFrame: {
      SimLinkPort port(*this, lane, event.target, at);
      link_->receive(port, event.channel.value(), event.rel_seq,
                     take_parcel(lane, event.slot), event.wire_bytes);
      link_->acknowledge(port, event.channel.value());
      break;
    }
    case Event::Kind::kRelAck:
      link_->on_ack(event.channel.value(), event.rel_seq);
      break;
    case Event::Kind::kRelRetry: {
      SimLinkPort port(*this, lane, event.target, at);
      link_->on_retry(port, event.channel.value(), at);
      break;
    }
    case Event::Kind::kRelRestore: {
      SimLinkPort port(*this, lane, event.target, at);
      link_->resync(port, event.channel.value(), at);
      break;
    }
  }
}

std::uint32_t Simulation::encoded_wire_bytes(Lane* lane,
                                             const Message& message) {
  // Wire-size accounting encodes into a pooled buffer so steady-state
  // sends allocate nothing.  The pool itself is coordinator state, so a
  // staging worker encodes into its lane scratch buffer and stages one
  // acquire for the commit replay to account.
  if (lane != nullptr && lane->current != nullptr) {
    Effect effect;
    effect.kind = Effect::Kind::kPoolAcquire;
    lane->current->effects.push_back(std::move(effect));
    lane->scratch.clear();
    ByteWriter writer(lane->scratch);
    message.encode(writer);
    return static_cast<std::uint32_t>(writer.size());
  }
  BufferPool::Lease lease = pool_.acquire();
  metrics_.on_pool_acquire(lease.reused());
  ByteWriter writer(lease.bytes());
  message.encode(writer);
  return static_cast<std::uint32_t>(writer.size());
}

void Simulation::do_send(Lane* lane, ProcessId sender, TimePoint at,
                         ChannelId channel, Message message) {
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

  const std::uint32_t wire_bytes = encoded_wire_bytes(lane, message);
  metrics_.on_send(channel.value(), traffic_class(message.kind), wire_bytes);
  if (lane != nullptr && lane->current != nullptr) {
    if (observer_ != nullptr) {
      Effect obs;
      obs.kind = Effect::Kind::kObserverSend;
      obs.channel = channel;
      obs.at = at;
      obs.message = message;
      lane->current->effects.push_back(std::move(obs));
    }
    Effect flight;
    flight.kind = Effect::Kind::kSendFlight;
    flight.channel = channel;
    lane->current->effects.push_back(std::move(flight));
  } else {
    if (observer_ != nullptr) observer_->on_send(at, channel, message);
    ++channel_in_flight_[channel.value()];
    metrics_.observe_backlog(channel.value(),
                             channel_in_flight_[channel.value()]);
  }

  if (link_) {
    // Lossy transport: the link stages the message and subjects each
    // transmission attempt to the fault plan.  In-order release is the
    // receiver's job, so no FIFO floor here.
    SimLinkPort port(*this, lane, sender, at);
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
  emit_parcel(lane, event, std::move(message));
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

void Simulation::release_delivery(Lane* lane, TimePoint at, ChannelId channel,
                                  ProcessId target, Message message,
                                  std::uint32_t wire_bytes) {
  const std::size_t c = channel.value();
  metrics_.on_deliver(c, traffic_class(message.kind), wire_bytes);
  metrics_.on_deliver_batch(1);
  if (lane != nullptr && lane->current != nullptr) {
    Effect flight;
    flight.kind = Effect::Kind::kDeliverFlight;
    flight.channel = channel;
    lane->current->effects.push_back(std::move(flight));
    if (observer_ != nullptr) {
      Effect obs;
      obs.kind = Effect::Kind::kObserverDeliver;
      obs.channel = channel;
      obs.at = at;
      obs.message = message;
      lane->current->effects.push_back(std::move(obs));
    }
  } else {
    DDBG_ASSERT(channel_in_flight_[c] > 0, "release without a send");
    --channel_in_flight_[c];
    if (observer_ != nullptr) observer_->on_deliver(at, channel, message);
  }
  auto& ctx = static_cast<SimProcessContext&>(*contexts_[target.value()]);
  ctx.bind_dispatch(at, lane);
  processes_[target.value()]->on_message(ctx, channel, std::move(message));
}

TimerId Simulation::do_set_timer(Lane* lane, ProcessId owner, TimePoint at,
                                 Duration delay) {
  DDBG_ASSERT(delay.ns >= 0, "timer delay must be non-negative");
  // Timer ids are per-process streams packed as (owner << 20 | seq): like
  // transport message ids, they depend only on the owner's own call order,
  // never on the global interleaving.
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
  emit_child(lane, event);
  return id;
}

}  // namespace ddbg
