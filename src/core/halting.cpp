#include "core/halting.hpp"

#include "common/logging.hpp"

namespace ddbg {

HaltingEngine::HaltingEngine(ProcessId self, const Topology* topology,
                             Callbacks callbacks, bool suppress_control_echo)
    : self_(self),
      callbacks_(std::move(callbacks)),
      wave_(self, topology, suppress_control_echo) {
  DDBG_ASSERT(callbacks_.capture_state != nullptr,
              "HaltingEngine needs a capture_state callback");
}

void HaltingEngine::initiate(ProcessContext& ctx) {
  if (halted()) return;  // a process can halt only once per wave
  // Marker-Sending Rule: increment last_halt_id, then Halt Routine.
  // Spontaneous: nobody halted before us, so the path is empty.
  halt_routine(ctx, wave_.id() + 1, /*from_control=*/false, {});
  if (wave_.complete()) report_complete();  // no incoming channels
}

void HaltingEngine::on_halt_marker(ProcessContext& ctx, ChannelId in,
                                   const HaltMarkerData& data) {
  const std::uint64_t id = data.halt_id.value();
  if (wave_.on_marker(in, id, [&](bool from_control) {
        halt_routine(ctx, id, from_control, data.halt_path);
      })) {
    report_complete();
  }
}

void HaltingEngine::halt_routine(ProcessContext& ctx, std::uint64_t id,
                                 bool from_control,
                                 const std::vector<ProcessId>& path) {
  if (halted()) {
    // Overlapping waves: a second initiator raced the first.  The process
    // state is unchanged — it was captured when we halted and nothing has
    // run since — so it stands for the new wave too; only the wave restarts.
    // Everything buffered while halted is still logically in its channel,
    // so it seeds the new wave's channel states (Lemma 2.2: those messages
    // arrive before the new wave's markers).
    wave_.begin(ctx, id, from_control);
    for (const auto& [channel, message] : buffered_) {
      if (message.kind == MessageKind::kApplication) {
        wave_.record(channel, message.payload);
      }
    }
  } else {
    wave_.snapshot() = callbacks_.capture_state();
    wave_.begin(ctx, id, from_control);
  }
  wave_.snapshot().halt_path = path;
  std::vector<ProcessId> forwarded = path;
  forwarded.push_back(self_);
  wave_.send_markers(ctx,
                     Message::halt_marker(HaltId(id), std::move(forwarded)));
  if (callbacks_.on_halt) {
    callbacks_.on_halt(HaltId(id), wave_.snapshot().halt_path);
  }
}

void HaltingEngine::report_complete() {
  if (callbacks_.on_complete) callbacks_.on_complete(wave_.snapshot());
}

bool HaltingEngine::intercept_message(ChannelId in, Message&& message) {
  if (!halted()) return false;
  DDBG_ASSERT(message.kind != MessageKind::kControl,
              "control messages must bypass the halting engine");
  // Application messages arriving before this channel's marker are part of
  // the channel's recorded state (Lemma 2.2).
  if (message.kind == MessageKind::kApplication) {
    wave_.record(in, message.payload);
  }
  // Everything that arrives while halted stays logically in the channel and
  // is replayed on resume.
  buffered_.emplace_back(in, std::move(message));
  return true;
}

bool HaltingEngine::intercept_timer(TimerId timer) {
  if (!halted()) return false;
  buffered_timers_.push_back(timer);
  return true;
}

HaltingEngine::ResumeData HaltingEngine::resume() {
  DDBG_ASSERT(halted(), "resume() while running");
  ResumeData data;
  data.messages = std::move(buffered_);
  data.timers = std::move(buffered_timers_);
  buffered_.clear();
  buffered_timers_.clear();
  wave_.end();
  wave_.snapshot() = ProcessSnapshot{};
  return data;
}

const ProcessSnapshot& HaltingEngine::snapshot() const {
  DDBG_ASSERT(halted(), "snapshot() while running");
  return wave_.snapshot();
}

}  // namespace ddbg
