#include "core/debug_shim.hpp"

#include <utility>

#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace ddbg {

namespace {

// Arm / notify latency spans are keyed by (breakpoint, process) so the
// debugger's span_begin at arm time pairs with this shim's span_end.
std::uint64_t bp_span_key(BreakpointId bp, ProcessId p) {
  return obs::MetricsRegistry::key(bp.value(), p.value());
}

}  // namespace

// Context handed to the *user* process: interposes on sends (clock
// stamping, send events) and forwards everything else.
class DebugShim::ShimContext final : public ProcessContext {
 public:
  explicit ShimContext(DebugShim& shim) : shim_(shim) {}

  void bind(ProcessContext* outer) { outer_ = outer; }

  [[nodiscard]] ProcessId self() const override { return shim_.self_; }
  [[nodiscard]] TimePoint now() const override { return outer_->now(); }
  [[nodiscard]] const Topology& topology() const override {
    return outer_->topology();
  }

  void send(ChannelId channel, Message message) override {
    // User code sends application messages only; anything else is the
    // debugging system's business.
    DDBG_ASSERT(message.kind == MessageKind::kApplication,
                "user processes may only send application messages");
    if (shim_.options_.stamp_vector_clocks) {
      shim_.vclock_.tick(shim_.self_);
      message.vclock = shim_.vclock_;
    }
    message.lamport = shim_.lamport_.on_send();
    message.message_id = shim_.next_message_id();

    LocalEvent event;
    event.kind = LocalEventKind::kMessageSent;
    event.channel = channel;
    event.value = static_cast<std::int64_t>(message.payload.size());
    event.message_id = message.message_id;
    event.lamport = message.lamport;
    event.vclock = shim_.vclock_;

    outer_->send(channel, std::move(message));
    // Event emitted after the message is on the wire: if the send completes
    // a Linked Predicate, the halt markers (sent at end of handler) follow
    // the message on every channel.
    shim_.emit_event(std::move(event));
  }

  TimerId set_timer(Duration delay) override {
    return shim_.interpose_set_timer(*outer_, delay);
  }
  void cancel_timer(TimerId timer) override {
    shim_.interpose_cancel_timer(*outer_, timer);
  }
  [[nodiscard]] Rng& rng() override { return outer_->rng(); }
  [[nodiscard]] obs::MetricsRegistry* metrics() const override {
    return outer_->metrics();
  }

  void stop_self() override {
    LocalEvent event;
    event.kind = LocalEventKind::kProcessTerminated;
    event.lamport = shim_.lamport_.tick();
    if (shim_.options_.stamp_vector_clocks) {
      shim_.vclock_.tick(shim_.self_);
    }
    event.vclock = shim_.vclock_;
    shim_.emit_event(std::move(event));
    outer_->stop_self();
  }

 private:
  DebugShim& shim_;
  ProcessContext* outer_ = nullptr;
};

DebugShim::DebugShim(ProcessId self, ProcessPtr user, Options options)
    : self_(self),
      user_(std::move(user)),
      options_(std::move(options)),
      detector_(self,
                LinkedPredicateDetector::Callbacks{
                    [this](BreakpointId bp, const LocalEvent& event,
                           bool monitor) {
                      pending_triggers_.push_back(
                          PendingTrigger{bp, event.describe(), monitor});
                    },
                    [this](ProcessId target, BreakpointId bp,
                           const LinkedPredicate& rest,
                           std::uint32_t stage_index, bool monitor) {
                      pending_forwards_.push_back(PendingForward{
                          target, bp, rest, stage_index, monitor});
                    },
                    [this](BreakpointId bp, std::uint32_t term_index,
                           const LocalEvent&) {
                      pending_notifies_.push_back(
                          PendingNotify{bp, term_index});
                    }}) {
  DDBG_ASSERT(user_ != nullptr, "DebugShim needs a user process");
  shim_ctx_ = std::make_unique<ShimContext>(*this);
  if (auto* debuggable = dynamic_cast<Debuggable*>(user_.get())) {
    debuggable->attach_debug(this);
  }
}

DebugShim::DebugShim(ProcessId self, ProcessPtr user)
    : DebugShim(self, std::move(user), Options{}) {}

DebugShim::~DebugShim() = default;

std::uint64_t DebugShim::next_message_id() {
  // Globally unique without coordination: high bits carry the sender.
  return (static_cast<std::uint64_t>(self_.value()) + 1) << 40 |
         ++send_counter_;
}

ProcessSnapshot DebugShim::capture_state() const {
  ProcessSnapshot snapshot;
  snapshot.process = self_;
  snapshot.state = user_->snapshot_state();
  snapshot.description = user_->describe_state();
  snapshot.vclock = vclock_;
  return snapshot;
}

void DebugShim::bind(ProcessContext& ctx) {
  current_ctx_ = &ctx;
  shim_ctx_->bind(&ctx);
}

void DebugShim::on_start(ProcessContext& ctx) {
  bind(ctx);
  topology_ = &ctx.topology();
  DDBG_ASSERT(ctx.self() == self_, "shim bound to the wrong process slot");

  const bool suppress = options_.suppress_redundant_markers;
  halting_.emplace(
      self_, topology_,
      HaltingEngine::Callbacks{
          [this] { return capture_state(); },
          [this](HaltId wave, const std::vector<ProcessId>&) {
            if (options_.on_halted) options_.on_halted(wave);
          },
          [this](const ProcessSnapshot& snapshot) {
            DDBG_ASSERT(current_ctx_ != nullptr,
                        "halt completion outside a handler");
            if (topology_->has_debugger()) {
              send_to_debugger(*current_ctx_,
                               Command::halt_report(
                                   self_, halting_->last_halt_id(), snapshot));
            }
            if (options_.local_halt_report) {
              options_.local_halt_report(self_, halting_->last_halt_id(),
                                         snapshot);
            }
          }},
      suppress);
  recording_.emplace(self_, topology_, suppress);
  delivery_ordinals_.assign(topology_->in_channels(self_).size(), 0);

  {
    LocalEvent event;
    event.kind = LocalEventKind::kProcessStarted;
    event.lamport = lamport_.tick();
    if (options_.stamp_vector_clocks) vclock_.tick(self_);
    event.vclock = vclock_;
    emit_event(std::move(event));
  }
  for (const ChannelId c : topology_->out_channels(self_)) {
    if (topology_->channel(c).is_control) continue;
    LocalEvent event;
    event.kind = LocalEventKind::kChannelCreated;
    event.channel = c;
    event.lamport = lamport_.tick();
    if (options_.stamp_vector_clocks) vclock_.tick(self_);
    event.vclock = vclock_;
    emit_event(std::move(event));
  }

  user_->on_start(*shim_ctx_);
  flush_pending(ctx);
  current_ctx_ = nullptr;
}

void DebugShim::on_message(ProcessContext& ctx, ChannelId in,
                           Message message) {
  bind(ctx);
  dispatch(ctx, in, std::move(message));
  flush_pending(ctx);
  current_ctx_ = nullptr;
}

void DebugShim::on_timer(ProcessContext& ctx, TimerId timer) {
  bind(ctx);
  if (!halting_->intercept_timer(timer)) {
    fire_user_timer(timer);
    flush_pending(ctx);
  }
  current_ctx_ = nullptr;
}

TimerId DebugShim::interpose_set_timer(ProcessContext& outer, Duration delay) {
  if (options_.replay_gate) {
    // Replay: the timer never reaches the substrate — the driver fires it
    // by creation ordinal.  Hand back the recorded run's TimerId so user
    // state that stores timer ids reproduces byte-for-byte; synthetic ids
    // past the script's end keep a divergent replay running.
    const std::uint64_t ordinal = timers_created_++;
    const TimerId id =
        ordinal < timer_script_.size()
            ? timer_script_[ordinal]
            : TimerId(0x80000000U + static_cast<std::uint32_t>(ordinal));
    created_timers_.push_back(id);
    timer_ordinal_by_id_[id.value()] = ordinal;
    return id;
  }
  const TimerId id = outer.set_timer(delay);
  if (options_.replay_record != nullptr) {
    const std::uint64_t ordinal = timers_created_++;
    options_.replay_record->record_timer_set(self_, ordinal, id);
    timer_ordinal_by_id_[id.value()] = ordinal;
  }
  return id;
}

void DebugShim::interpose_cancel_timer(ProcessContext& outer, TimerId timer) {
  if (options_.replay_gate) {
    auto it = timer_ordinal_by_id_.find(timer.value());
    if (it != timer_ordinal_by_id_.end()) {
      cancelled_timer_ordinals_.insert(it->second);
      timer_ordinal_by_id_.erase(it);
    }
    return;
  }
  if (options_.replay_record != nullptr) {
    timer_ordinal_by_id_.erase(timer.value());
  }
  outer.cancel_timer(timer);
}

void DebugShim::fire_user_timer(TimerId timer) {
  if (options_.replay_record != nullptr) {
    auto it = timer_ordinal_by_id_.find(timer.value());
    if (it != timer_ordinal_by_id_.end()) {
      options_.replay_record->record_timer_fire(self_, it->second);
      timer_ordinal_by_id_.erase(it);
    }
  }
  user_->on_timer(*shim_ctx_, timer);
}

void DebugShim::dispatch(ProcessContext& ctx, ChannelId in, Message message) {
  // Control traffic bypasses everything: a halted process still listens to
  // its debugger (section 2.2.3).
  if (message.kind == MessageKind::kControl) {
    auto command = Command::decode(message.payload);
    if (!command.ok()) {
      DDBG_ERROR() << to_string(self_)
                   << " bad control message: " << command.error().to_string();
      return;
    }
    handle_control(ctx, command.value());
    return;
  }

  if (message.kind == MessageKind::kHaltMarker) {
    DDBG_ASSERT(message.halt.has_value(), "halt marker without data");
    // Always the engine's call — including a marker for a *later* wave
    // while still halted in the current one, which the engine adopts in
    // place (overlapping initiators must converge on the newest wave, not
    // leave its markers wedged in the channel until resume).
    halting_->on_halt_marker(ctx, in, *message.halt);
    // Replay: everything still gated was logically in its channel when the
    // marker closed it — drain it into the engine's channel-state record.
    maybe_flush_gate();
    return;
  }

  // Everything else is application-era traffic: while halted it stays in
  // the channel (the halting engine buffers it and records channel state).
  if (halting_->intercept_message(in, message)) return;

  // Replay gate: hold application deliveries until the driver releases
  // them in the logged order.  Markers pass through — their interleaving
  // is re-derived, not logged (see replay_log.hpp).
  if (options_.replay_gate && !gate_release_in_progress_ &&
      message.kind == MessageKind::kApplication) {
    gate_.emplace_back(in, std::move(message));
    return;
  }

  switch (message.kind) {
    case MessageKind::kSnapshotMarker: {
      DDBG_ASSERT(message.snapshot.has_value(), "snapshot marker w/o data");
      const std::uint64_t id = message.snapshot->snapshot_id;
      if (recording_->on_marker(in, id, [&](bool from_control) {
            start_recording(ctx, id, from_control);
          })) {
        finish_recording(ctx);
      }
      return;
    }
    case MessageKind::kPredicateMarker: {
      DDBG_ASSERT(message.predicate.has_value(), "predicate marker w/o data");
      auto lp = LinkedPredicate::decode_from_bytes(
          message.predicate->encoded_predicate);
      if (!lp.ok()) {
        DDBG_ERROR() << to_string(self_)
                     << " bad predicate marker: " << lp.error().to_string();
        return;
      }
      if (!lp.value().first().involves(self_)) {
        DDBG_WARN() << to_string(self_)
                    << " received predicate marker not involving it";
        return;
      }
      detector_.arm(message.predicate->breakpoint, std::move(lp).value(),
                    message.predicate->stage_index,
                    message.predicate->monitor);
      note_armed(ctx, message.predicate->breakpoint);
      return;
    }
    case MessageKind::kApplication: {
      // The delivery ordinal counts messages actually handed to the user
      // handler on this channel — the replay schedule's unit.
      const std::uint64_t delivery_ordinal =
          delivery_ordinals_[topology_->in_slot(in)]++;
      if (options_.replay_record != nullptr) {
        options_.replay_record->record_delivery(
            self_, in, delivery_ordinal,
            replay_payload_hash(message.payload), message.payload.size());
      }
      recording_->record(in, message.payload);
      if (options_.stamp_vector_clocks) {
        vclock_.on_receive(self_, message.vclock);
      }
      const std::uint64_t receive_lamport =
          lamport_.on_receive(message.lamport);

      LocalEvent event;
      event.kind = LocalEventKind::kMessageReceived;
      event.channel = in;
      event.value = static_cast<std::int64_t>(message.payload.size());
      event.message_id = message.message_id;
      event.lamport = receive_lamport;
      event.vclock = vclock_;

      // The receive event precedes the state changes it causes, so it is
      // emitted before the handler runs (any halting it triggers is
      // deferred to the end of the handler regardless, so the captured
      // state still reflects the completed receive).
      emit_event(std::move(event));
      user_->on_message(*shim_ctx_, in, std::move(message));
      return;
    }
    default:
      DDBG_WARN() << to_string(self_) << " unhandled message kind";
  }
}

void DebugShim::handle_control(ProcessContext& ctx, const Command& command) {
  switch (command.kind) {
    case CommandKind::kArmPredicate: {
      auto lp = LinkedPredicate::decode_from_bytes(command.predicate);
      if (!lp.ok()) {
        DDBG_ERROR() << to_string(self_)
                     << " bad arm_predicate: " << lp.error().to_string();
        return;
      }
      detector_.arm(command.breakpoint, std::move(lp).value(),
                    command.stage_index, command.monitor);
      note_armed(ctx, command.breakpoint);
      return;
    }
    case CommandKind::kArmNotify: {
      ByteReader reader(command.predicate);
      auto sp = SimplePredicate::decode(reader);
      if (!sp.ok()) {
        DDBG_ERROR() << to_string(self_)
                     << " bad arm_notify: " << sp.error().to_string();
        return;
      }
      detector_.arm_notify(command.breakpoint, std::move(sp).value(),
                           command.stage_index);
      note_armed(ctx, command.breakpoint);
      return;
    }
    case CommandKind::kDisarmBreakpoint:
      detector_.disarm(command.breakpoint);
      return;
    case CommandKind::kResume:
      if (halted() && halting_->last_halt_id() == command.wave_id) {
        do_resume(ctx, command.wave_id);
      }
      return;
    case CommandKind::kQueryState:
      send_to_debugger(ctx, Command::state_report(self_, capture_state()));
      return;
    default:
      DDBG_WARN() << to_string(self_) << " unexpected control command "
                  << to_string(command.kind);
  }
}

void DebugShim::do_resume(ProcessContext& ctx, std::uint64_t wave) {
  HaltingEngine::ResumeData data = halting_->resume();
  if (options_.on_resumed) options_.on_resumed(HaltId(wave));

  // Replay everything that stayed "in the channels" while halted, in
  // arrival order, through the normal dispatch paths.  A halt marker for a
  // later wave will halt us again mid-replay; the rest of the buffer is
  // then re-buffered by the engine, preserving order.
  for (auto& [channel, message] : data.messages) {
    dispatch(ctx, channel, std::move(message));
  }
  for (const TimerId timer : data.timers) {
    if (halting_->intercept_timer(timer)) continue;
    fire_user_timer(timer);
  }
}

void DebugShim::note_armed(ProcessContext& ctx, BreakpointId bp) {
  if (auto* m = ctx.metrics()) {
    m->span_end(obs::Span::kArm, bp_span_key(bp, self_), ctx.now());
  }
  if (options_.on_armed) options_.on_armed(self_, bp);
}

void DebugShim::event(std::string_view name, std::int64_t value) {
  LocalEvent event;
  event.kind = LocalEventKind::kUserEvent;
  event.name = std::string(name);
  event.value = value;
  event.lamport = lamport_.tick();
  if (options_.stamp_vector_clocks) vclock_.tick(self_);
  event.vclock = vclock_;
  emit_event(std::move(event));
}

void DebugShim::enter_procedure(std::string_view name) {
  LocalEvent event;
  event.kind = LocalEventKind::kProcedureEntered;
  event.name = std::string(name);
  event.lamport = lamport_.tick();
  if (options_.stamp_vector_clocks) vclock_.tick(self_);
  event.vclock = vclock_;
  emit_event(std::move(event));
}

void DebugShim::set_var(std::string_view name, std::int64_t value) {
  vars_[std::string(name)] = value;
  LocalEvent event;
  event.kind = LocalEventKind::kStateChange;
  event.name = std::string(name);
  event.value = value;
  event.lamport = lamport_.tick();
  if (options_.stamp_vector_clocks) vclock_.tick(self_);
  event.vclock = vclock_;
  emit_event(std::move(event));
}

std::int64_t DebugShim::var(const std::string& name) const {
  auto it = vars_.find(name);
  return it != vars_.end() ? it->second : 0;
}

void DebugShim::emit_event(LocalEvent event) {
  event.process = self_;
  event.local_seq = local_seq_++;
  if (current_ctx_ != nullptr) event.when = current_ctx_->now();
  if (options_.trace_sink) options_.trace_sink(event);
  detector_.on_local_event(event);
}

void DebugShim::flush_pending(ProcessContext& ctx) {
  // Notifications and hit reports go out before halt markers so the
  // debugger learns *why* before it sees the wave arrive.
  for (const PendingNotify& notify : pending_notifies_) {
    send_to_debugger(
        ctx, Command::notify_satisfied(self_, notify.bp, notify.term_index));
  }
  pending_notifies_.clear();

  auto forwards = std::move(pending_forwards_);
  pending_forwards_.clear();
  for (PendingForward& forward : forwards) {
    if (forward.target == self_) {
      // Next DP is (also) local: re-arm directly.
      detector_.arm(forward.bp, std::move(forward.rest), forward.stage_index,
                    forward.monitor);
      continue;
    }
    const Bytes encoded = forward.rest.encode_to_bytes();
    const std::optional<ChannelId> channel =
        options_.route_markers_via_debugger && topology_->has_debugger()
            ? std::optional<ChannelId>{}
            : topology_->channel_between(self_, forward.target);
    if (channel) {
      ctx.send(*channel,
               Message::predicate_marker(forward.bp, encoded,
                                         forward.stage_index,
                                         forward.monitor));
    } else if (topology_->has_debugger()) {
      send_to_debugger(ctx, Command::route_marker(self_, forward.target,
                                                  forward.bp, encoded,
                                                  forward.stage_index,
                                                  forward.monitor));
    } else {
      DDBG_WARN() << to_string(self_) << " cannot route predicate marker to "
                  << to_string(forward.target)
                  << " (no channel, no debugger)";
    }
  }

  auto triggers = std::move(pending_triggers_);
  pending_triggers_.clear();
  for (PendingTrigger& trigger : triggers) {
    // Trace predicate-hit -> debugger-notified latency; the matching
    // span_end runs when the debugger records the hit.
    if (auto* m = ctx.metrics()) {
      m->span_begin(obs::Span::kBreakpointNotify,
                    bp_span_key(trigger.bp, self_), ctx.now());
    }
    send_to_debugger(
        ctx, Command::breakpoint_hit(self_, trigger.bp, trigger.description));
    // Halting breakpoints initiate the Halting Algorithm (a no-op if a
    // concurrent trigger or an incoming marker already halted us);
    // monitor-mode chains only report — the debugger re-arms them.
    if (!trigger.monitor) {
      halting_->initiate(ctx);
      maybe_flush_gate();
    }
  }
}

void DebugShim::send_to_debugger(ProcessContext& ctx, const Command& command) {
  if (!topology_->has_debugger()) return;
  ctx.send(topology_->control_from(self_), Message::control(command.encode()));
}

void DebugShim::initiate_halt(ProcessContext& ctx) {
  bind(ctx);
  halting_->initiate(ctx);
  maybe_flush_gate();
  current_ctx_ = nullptr;
}

void DebugShim::maybe_flush_gate() {
  if (!options_.replay_gate || !halting_.has_value() || !halting_->halted() ||
      gate_.empty()) {
    return;
  }
  // Halt entry: every gated message is still logically in its channel (the
  // per-channel FIFO simulator delivered it before this wave's marker).
  // Hand the backlog to the halting engine in arrival order — it becomes
  // the recorded channel state of the cut and is redelivered on resume,
  // exactly what Lemma 2.2 credits to the channels.
  std::deque<std::pair<ChannelId, Message>> pending = std::move(gate_);
  gate_.clear();
  for (auto& [channel, message] : pending) {
    const bool buffered = halting_->intercept_message(channel, message);
    DDBG_ASSERT(buffered, "gate flushed while not halted");
  }
}

std::size_t DebugShim::replay_gate_depth(ChannelId in) const {
  std::size_t depth = 0;
  for (const auto& [channel, message] : gate_) {
    if (channel == in) ++depth;
  }
  return depth;
}

void DebugShim::replay_preload_timer_ids(std::vector<TimerId> ids) {
  timer_script_ = std::move(ids);
}

bool DebugShim::replay_release(ProcessContext& ctx, ChannelId in,
                               std::uint64_t ordinal,
                               std::uint64_t expected_hash) {
  auto it = gate_.begin();
  while (it != gate_.end() && it->first != in) ++it;
  if (it == gate_.end()) return false;
  Message message = std::move(it->second);
  gate_.erase(it);

  if (delivery_ordinals_[topology_->in_slot(in)] != ordinal ||
      replay_payload_hash(message.payload) != expected_hash) {
    if (auto* m = ctx.metrics()) m->on_replay_divergence();
  }

  bind(ctx);
  gate_release_in_progress_ = true;
  dispatch(ctx, in, std::move(message));
  gate_release_in_progress_ = false;
  flush_pending(ctx);
  if (auto* m = ctx.metrics()) m->on_replay_delivery_replayed();
  current_ctx_ = nullptr;
  return true;
}

bool DebugShim::replay_fire_timer(ProcessContext& ctx, std::uint64_t ordinal) {
  if (ordinal >= created_timers_.size() ||
      cancelled_timer_ordinals_.count(ordinal) != 0) {
    if (auto* m = ctx.metrics()) m->on_replay_divergence();
    return false;
  }
  const TimerId timer = created_timers_[ordinal];
  bind(ctx);
  if (!halting_->intercept_timer(timer)) {
    fire_user_timer(timer);
    flush_pending(ctx);
  }
  if (auto* m = ctx.metrics()) m->on_replay_timer_replayed();
  current_ctx_ = nullptr;
  return true;
}

void DebugShim::initiate_snapshot(ProcessContext& ctx) {
  bind(ctx);
  if (!recording_->active()) {
    start_recording(ctx, recording_->id() + 1, /*from_control=*/false);
    if (recording_->complete()) finish_recording(ctx);  // no in-channels
  }
  current_ctx_ = nullptr;
}

void DebugShim::start_recording(ProcessContext& ctx, std::uint64_t id,
                                bool from_control) {
  // A newer wave restarts a recording still in progress: the state is
  // captured again and the older wave's remaining markers are stale.
  recording_->snapshot() = capture_state();
  recording_->begin(ctx, id, from_control);
  recording_->send_markers(ctx, Message::snapshot_marker(id));
}

void DebugShim::finish_recording(ProcessContext& ctx) {
  recording_->end();
  const std::uint64_t wave = recording_->id();
  const ProcessSnapshot& snapshot = recording_->snapshot();
  if (topology_->has_debugger()) {
    send_to_debugger(ctx, Command::snapshot_report(self_, wave, snapshot));
  }
  if (options_.local_snapshot_report) {
    options_.local_snapshot_report(self_, wave, snapshot);
  }
}

std::vector<ProcessPtr> wrap_in_shims(const Topology& topology,
                                      std::vector<ProcessPtr> users,
                                      DebugShim::Options options) {
  DDBG_ASSERT(users.size() == topology.num_user_processes(),
              "one user process per non-debugger topology slot");
  std::vector<ProcessPtr> wrapped;
  wrapped.reserve(users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    wrapped.push_back(std::make_unique<DebugShim>(
        ProcessId(static_cast<std::uint32_t>(i)), std::move(users[i]),
        options));
  }
  return wrapped;
}

std::vector<ProcessPtr> wrap_in_shims(const Topology& topology,
                                      std::vector<ProcessPtr> users) {
  return wrap_in_shims(topology, std::move(users), DebugShim::Options{});
}

}  // namespace ddbg
