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

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/fault_plan.hpp"
#include "net/process.hpp"
#include "net/reliable_link.hpp"
#include "net/topology.hpp"
#include "net/transport_hooks.hpp"
#include "sim/latency_model.hpp"
#include "sim/slab.hpp"

namespace ddbg {

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
  // under `slot` and moved out at dispatch: the Message of a
  // kDeliver/kRelFrame (a parcel), the function of a kCall/kClosure.
  struct Event {
    TimePoint when;
    std::uint64_t seq = 0;      // tie-breaker: FIFO among same-time events
    std::uint64_t rel_seq = 0;  // kRelFrame: data seq; kRelAck: cum ack
    // kRelFrame/kRelAck/kRelRetry/kRelRestore exist only under a
    // FaultPlan: a data frame arriving at the destination's ReliableLink, a
    // cumulative ack arriving back at the source's, an armed retransmit
    // check, and a post-reset reconnect resync.
    enum class Kind : std::uint8_t {
      kStart,
      kDeliver,
      kTimer,
      kCall,
      kClosure,
      kRelFrame,
      kRelAck,
      kRelRetry,
      kRelRestore,
    } kind = Kind::kStart;
    // The process whose state the event touches; set for every kind except
    // kCall.  Rel-sender events (kRelAck/kRelRetry/kRelRestore) target the
    // channel source, frames target the destination.
    ProcessId target;
    ChannelId channel;
    // Wire-encoded size, computed once at send time so delivery accounting
    // does not re-encode the message.
    std::uint32_t wire_bytes = 0;
    // Slab slot: parcels_ for kDeliver/kRelFrame, calls_ for kCall/kClosure.
    std::uint32_t slot = 0;
    TimerId timer;
  };
  static_assert(std::is_trivially_copyable_v<Event>);

  // The function of a kCall (call) or kClosure (closure) event.
  struct Call {
    std::function<void()> call;
    std::function<void(ProcessContext&, Process&)> closure;
  };

  // (when, seq) min-heap of events; an event's when/seq must not change
  // while it is queued.
  class EventHeap {
   public:
    [[nodiscard]] bool empty() const { return events_.empty(); }
    [[nodiscard]] const Event& top() const { return events_.front(); }
    [[nodiscard]] TimePoint top_when() const { return events_.front().when; }
    void push(const Event& event) {
      events_.push_back(event);
      std::push_heap(events_.begin(), events_.end(), Later{});
    }
    Event pop() {
      std::pop_heap(events_.begin(), events_.end(), Later{});
      const Event event = events_.back();
      events_.pop_back();
      return event;
    }

   private:
    struct Later {
      bool operator()(const Event& a, const Event& b) const {
        if (a.when != b.when) return a.when > b.when;
        return a.seq > b.seq;
      }
    };
    std::vector<Event> events_;
  };

  void push_event(Event event);
  // push_event for a kDeliver/kRelFrame event carrying `message`.
  void push_parcel(Event event, Message message);
  void dispatch(const Event& event);
  void do_send(ProcessId sender, TimePoint at, ChannelId channel,
               Message message);
  TimerId do_set_timer(ProcessId owner, TimePoint at, Duration delay);

  [[nodiscard]] Duration sample_latency(ChannelId channel, std::uint64_t key);
  void release_delivery(TimePoint at, ChannelId channel, ProcessId target,
                        Message message, std::uint32_t wire_bytes);
  [[nodiscard]] std::uint32_t encoded_wire_bytes(const Message& message);

  Topology topology_;
  std::vector<ProcessPtr> processes_;
  std::vector<std::unique_ptr<ProcessContext>> contexts_;
  SimulationConfig config_;
  Rng rng_;
  std::vector<Rng> process_rngs_;

  EventHeap queue_;
  // Bodies of queued events.
  Slab<Message> parcels_;
  Slab<Call> calls_;
  TimePoint now_{0};
  std::uint64_t next_seq_ = 0;
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

  obs::MetricsRegistry metrics_;
  // Wire-size accounting encodes every sent message; the pool keeps that
  // from allocating per send.
  BufferPool pool_;
  TransportObserver* observer_ = nullptr;
  std::uint64_t events_processed_ = 0;
};

}  // namespace ddbg
