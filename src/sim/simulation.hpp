// Deterministic discrete-event simulation of a distributed program.
//
// Processes, channels and delays from the paper's model (section 2.1):
// reliable, in-order, unbounded channels with unpredictable per-message
// latency.  Everything is driven from a single event queue ordered by
// (virtual time, sequence number), so a run is a pure function of
// (topology, processes, latency model, seed) — which is what lets the
// equivalence experiment (E1) execute the *same* computation once under the
// C&L recorder and once under the Halting Algorithm and compare states.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/fault_plan.hpp"
#include "net/process.hpp"
#include "net/reliable_link.hpp"
#include "net/topology.hpp"
#include "net/transport_hooks.hpp"
#include "sim/event_heap.hpp"
#include "sim/latency_model.hpp"
#include "sim/slab.hpp"

namespace ddbg {

class SimProcessContext;

struct SimulationConfig {
  std::uint64_t seed = 1;
  // Applied to every channel; defaults to uniform 1..5ms.
  std::unique_ptr<LatencyModel> latency;
  // Hard stop for run_until_quiescent, to bound runaway programs.
  TimePoint max_time{Duration::seconds(3600).ns};
  // Fault adversary.  When set, every transmission attempt consults the
  // plan and the reliability layer (seq/ack/retransmit, net/reliable.hpp)
  // re-establishes exactly-once FIFO delivery underneath the processes.
  // When null (the default) the ideal-channel fast path runs untouched.
  std::shared_ptr<FaultPlan> faults;
  // Retransmit timing when `faults` is set.
  ReliableConfig reliable;
};

class Simulation {
 public:
  // One Process per Topology process id, in id order.
  Simulation(Topology topology, std::vector<ProcessPtr> processes,
             SimulationConfig config = {});
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // ---- execution ----
  // Process events until the queue is empty or max_time is reached.
  // Returns true if the run quiesced (queue drained).
  bool run_until_quiescent();
  // Process events with time <= until.
  void run_until(TimePoint until);
  void run_for(Duration d) { run_until(now() + d); }
  // Process a single event; returns false if the queue is empty.
  bool step();

  // Run until `condition()` holds (checked after every event) or
  // `deadline`; returns whether the condition held.
  bool run_until_condition(const std::function<bool()>& condition,
                           TimePoint deadline);

  // ---- external injection ----
  // Place an application message into a channel before the run starts, as
  // if it had been sent earlier and were still in flight — how a restored
  // global state's recorded channel contents are re-materialized.  Must be
  // called before any events are processed; preserves call order per
  // channel.
  void preload_channel(ChannelId channel, Bytes payload);
  // Execute `action` at virtual time `when` (>= now) in the simulation
  // loop.  This is how test harnesses and the debugger session script
  // interactions with a deterministic run.
  void schedule_call(TimePoint when, std::function<void()> action);
  // Post a closure to run as a process-context event for `target`.
  void post(ProcessId target,
            std::function<void(ProcessContext&, Process&)> action);

  // ---- queries ----
  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] Process& process(ProcessId id);
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }
  [[nodiscard]] std::size_t in_flight(ChannelId channel) const;
  [[nodiscard]] std::size_t total_in_flight() const;
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }
  void set_observer(TransportObserver* observer) { observer_ = observer; }

 private:
  friend class SimProcessContext;
  friend class SimLinkPort;

  // A queued event: a small, trivially copyable key, so the heap holds it
  // by value.  What an event carries beyond its key is parked in a slab
  // under `slot` and moved out at dispatch: the Message of a kDeliver (a
  // parcel), the function of a kCall/kClosure.
  struct Event {
    TimePoint when;
    std::uint64_t seq = 0;      // tie-breaker: FIFO among same-time events
    std::uint64_t rel_seq = 0;  // kRelFrame: data seq
    // kRelFrame/kRelRetry/kRelRestore exist only under a FaultPlan: a data
    // frame arriving at the destination's ReliableLink, an armed retransmit
    // check, and a post-reset reconnect resync.  A frame carries no copy of
    // its message: a wanted arrival moves the staged message out of the
    // sender's window.  Acks are not events (see PendingAck).
    enum class Kind : std::uint8_t {
      kStart,
      kDeliver,
      kTimer,
      kCall,
      kClosure,
      kRelFrame,
      kRelRetry,
      kRelRestore,
    } kind = Kind::kStart;
    // The process whose state the event touches; set for every kind except
    // kCall.  Rel-sender events (kRelRetry/kRelRestore) target the channel
    // source, frames target the destination.
    ProcessId target;
    ChannelId channel;
    // kDeliver: wire-encoded size, computed once at send time so delivery
    // accounting does not re-encode the message.
    std::uint32_t wire_bytes = 0;
    // Slab slot: parcels_ for kDeliver, calls_ for kCall/kClosure.
    std::uint32_t slot = 0;
    TimerId timer;
  };

  // A cumulative ack on its way back to a channel's source.  It takes a
  // sequence number from the event counter, as the event it replaces did,
  // so every event keeps its (when, seq); but it is never queued.  Right
  // before each sender-side link call on its channel, every recorded ack
  // that precedes the dispatching event in (when, seq) order is applied.
  // Only the sender's window reads acks, so the sender sees exactly the
  // acks it would have seen as events.
  struct PendingAck {
    TimePoint when;
    std::uint64_t seq = 0;
    std::uint64_t cum_ack = 0;
  };
  static_assert(std::is_trivially_copyable_v<Event>);

  // The function of a kCall (call) or kClosure (closure) event.
  struct Call {
    std::function<void()> call;
    std::function<void(ProcessContext&, Process&)> closure;
  };

  void push_event(Event event);
  // push_event for a kDeliver event carrying `message`.
  void push_parcel(Event event, Message&& message);
  void dispatch(const Event& event);
  // Record an ack arriving back at `channel`'s source at `when`.
  void record_ack(ChannelId channel, TimePoint when, std::uint64_t cum_ack);
  // Apply to `channel`'s sender every recorded ack that precedes the
  // dispatching event.
  void apply_acks(ChannelId channel);
  // A run stopping at `bound` has passed every ack at or before it: move
  // the clock to the latest such ack, where the ack's event would have
  // left it.
  void settle_acks(TimePoint bound);
  void do_send(ProcessId sender, TimePoint at, ChannelId channel,
               Message&& message);
  TimerId do_set_timer(ProcessId owner, TimePoint at, Duration delay);

  [[nodiscard]] Duration sample_latency(ChannelId channel, std::uint64_t key);
  void release_delivery(TimePoint at, ChannelId channel, ProcessId target,
                        Message&& message, std::uint32_t wire_bytes);

  Topology topology_;
  std::vector<ProcessPtr> processes_;
  std::vector<SimProcessContext> contexts_;  // by process id, one block
  SimulationConfig config_;
  Rng rng_;
  std::vector<Rng> process_rngs_;

  EventHeap<Event> queue_;
  // Bodies of queued events.
  Slab<Message> parcels_;
  Slab<Call> calls_;
  TimePoint now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatch_seq_ = 0;  // seq of the event being dispatched
  // Transport message ids are per-channel streams (bit 63 tags them apart
  // from the debug shims' per-process ids).  They size the wire encoding,
  // so they show in metrics JSON and replay logs.
  std::vector<std::uint64_t> channel_msg_seq_;
  // Timer ids are per-process streams.
  std::vector<std::uint32_t> process_timer_seq_;
  std::vector<std::unordered_set<TimerId>> cancelled_timers_;

  // Per-channel bookkeeping: last scheduled delivery time (FIFO enforcement)
  // and current in-flight count.
  std::vector<TimePoint> channel_clear_time_;
  std::vector<std::size_t> channel_in_flight_;
  // Per-channel send counts, keying the stateless latency streams.
  std::vector<std::uint64_t> channel_send_seq_;

  // The reliability driver, set iff config_.faults.  One link drives every
  // channel, with the channel id as both its out and in slot, so the
  // per-channel state stays in flat arrays (per-process links measured
  // ~8% slower on the chaos tier benchmark).
  std::optional<ReliableLink> link_;
  // Acks not yet applied, by channel, in recording order; sized on the
  // first ack, so set-up allocates nothing for them.  ack_horizon_ is the
  // latest `when` ever recorded.
  std::vector<std::vector<PendingAck>> acks_;
  TimePoint ack_horizon_{0};

  obs::MetricsRegistry metrics_;
  TransportObserver* observer_ = nullptr;
  std::uint64_t events_processed_ = 0;
};

}  // namespace ddbg
