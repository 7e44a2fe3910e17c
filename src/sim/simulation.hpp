// Deterministic discrete-event simulation of a distributed program.
//
// Processes, channels and delays from the paper's model (section 2.1):
// reliable, in-order, unbounded channels with unpredictable per-message
// latency.  Everything is driven from a single event queue ordered by
// (virtual time, sequence number), so a run is a pure function of
// (topology, processes, latency model, seed) — which is what lets the
// equivalence experiment (E1) execute the *same* computation once under the
// C&L recorder and once under the Halting Algorithm and compare states.
//
// With config.workers > 1 the engine executes conservatively windowed
// parallel DES: processes are partitioned across a worker pool, each window
// spans less than the latency model's min_latency() (the lookahead — no
// message sent inside a window can be delivered inside it), workers dispatch
// their shard of the window's events while staging every externally ordered
// effect, and the coordinator commits the window by replaying the staged
// effects in exact (virtual_time, tie_seq) order.  Sequence numbers, message
// ids, metrics, observer callbacks and run_ordered notifications all come
// out byte-identical to the sequential engine — same seed, same trace, on
// any worker count.  See DESIGN.md "Parallel simulation".
#pragma once

#include <algorithm>
#include <deque>
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
#include "common/worker_pool.hpp"
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
  // Worker threads for run_until / run_until_quiescent.  1 (the default)
  // is the classic sequential loop.  More than 1 enables the windowed
  // parallel engine; results are byte-identical either way.  Falls back to
  // sequential when the latency model's min_latency() is zero (no
  // lookahead) or there are fewer processes than workers would help with.
  std::uint32_t workers = 1;
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
  // Process a single event; returns false if the queue is empty.  Always
  // sequential (single-event granularity has no window to parallelize).
  bool step();

  // Run until `condition()` holds (checked after every event) or
  // `deadline`; returns whether the condition held.  Sequential: the
  // per-event condition check is the point.
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
  // interactions with a deterministic run.  Calls are serial barriers for
  // the parallel engine: the window ends before one runs.
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
  // Worker count the engine actually uses (1 when the parallel mode cannot
  // apply: workers <= 1, no lookahead, or a single process).
  [[nodiscard]] std::uint32_t effective_workers() const;

  void set_observer(TransportObserver* observer) { observer_ = observer; }

 private:
  friend class SimProcessContext;
  friend class SimLinkPort;

  // A queued event: a small, trivially copyable key, so the heaps, the
  // window batch and staged children hold it by value.  What an event
  // carries beyond its key is parked in a slab under `slot` and moved out at
  // dispatch: the Message of a kDeliver/kRelFrame (a parcel), the function
  // of a kCall/kClosure.
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
    // kCall.  This is the parallel partition key: rel-sender events
    // (kRelAck/kRelRetry/kRelRestore) target the channel source, frames
    // target the destination.
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

  [[nodiscard]] static bool is_parcel(Event::Kind kind) {
    return kind == Event::Kind::kDeliver || kind == Event::Kind::kRelFrame;
  }

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

  // One staged side effect of a worker-dispatched event, replayed by the
  // coordinator at window commit in exact sequential order.  Effects whose
  // result is order-independent (pure counter adds) are not staged; see
  // DESIGN.md for the split.
  struct Effect {
    enum class Kind : std::uint8_t {
      kPoolAcquire,      // one pooled-buffer acquire (hit/miss accounting)
      kSendFlight,       // ++in_flight + backlog watermark on `channel`
      kDeliverFlight,    // --in_flight on `channel`
      kObserverSend,     // observer_->on_send(at, channel, message)
      kObserverDeliver,  // observer_->on_deliver(at, channel, message)
      kDeferred,         // run_ordered() notification
      kChild,            // queue `child` (a parcel parks `message`) with the
                         // next sequential seq
      kChildLocal,       // bind provisional id to the next sequential seq
    };
    Kind kind;
    ChannelId channel{};
    TimePoint at{};
    Message message{};
    std::function<void()> fn{};
    Event child{};
    std::uint64_t provisional = 0;
  };

  // Everything one worker-dispatched event did, in program order.
  struct ExecRecord {
    TimePoint when;
    std::uint64_t seq = 0;     // true seq, or provisional id
    bool provisional = false;  // seq is provisional (in-window child)
    std::vector<Effect> effects;
  };

  // Per-worker staging lane.  Touched only by its worker between the
  // window barriers, and only by the coordinator outside them.
  struct Lane {
    std::size_t index = 0;
    // Events assigned to this worker for the current window, (when, seq)
    // min-heap.  In-window children of local events join with provisional
    // seqs, which preserve the true relative order (see DESIGN.md).
    EventHeap heap;
    // records[0, recorded) are this window's, in dispatch order; commit
    // consumes them from `committed`.  Records outlive the window so their
    // effect vectors keep their capacity.
    std::vector<ExecRecord> records;
    std::size_t recorded = 0;
    std::size_t committed = 0;
    ExecRecord* current = nullptr;  // non-null only while dispatching
    TimePoint horizon{0};           // dispatch-locally bound (exclusive)
    std::uint64_t next_provisional = 0;
    // Commit-time binding of provisional child ids to true seqs, indexed by
    // provisional id - kProvisionalBase.
    std::vector<std::uint64_t> bound_seq;
    // Parcel slots this worker's dispatches moved out of; commit frees them.
    std::vector<std::uint32_t> freed_parcels;
    Bytes scratch;  // wire-size encoding buffer (pool_ is coordinator-only)
  };

  void push_event(Event event);
  // Route a freshly created event: sequential push (lane == nullptr or no
  // dispatch in progress), local in-window dispatch, or staged for commit.
  void emit_child(Lane* lane, Event event);
  // emit_child for a kDeliver/kRelFrame event carrying `message`.
  void emit_parcel(Lane* lane, Event event, Message message);
  // Move a parcel's message out of its slot.
  Message take_parcel(Lane* lane, std::uint32_t slot);
  void dispatch(Lane* lane, const Event& event);
  void do_send(Lane* lane, ProcessId sender, TimePoint at, ChannelId channel,
               Message message);
  TimerId do_set_timer(Lane* lane, ProcessId owner, TimePoint at,
                       Duration delay);
  void run_ordered_effect(Lane* lane, std::function<void()> fn);

  // ---- parallel engine ----
  // Executes one scheduling unit with `until` inclusive: either a single
  // serial barrier event (kCall/kClosure) or one conservative window.
  // Returns false when no event at or before `until` remains.
  void run_parallel(TimePoint until);
  // Worker body: dispatch this lane's shard in local (when, seq) order.
  void drain_lane(Lane& lane);
  // Replay the window's staged effects in global (when, true seq) order.
  void commit_window();
  [[nodiscard]] std::size_t owner_of(ProcessId p) const {
    return p.value() % lanes_.size();
  }

  [[nodiscard]] Duration sample_latency(ChannelId channel, std::uint64_t key);
  void release_delivery(Lane* lane, TimePoint at, ChannelId channel,
                        ProcessId target, Message message,
                        std::uint32_t wire_bytes);
  [[nodiscard]] std::uint32_t encoded_wire_bytes(Lane* lane,
                                                 const Message& message);

  Topology topology_;
  std::vector<ProcessPtr> processes_;
  std::vector<std::unique_ptr<ProcessContext>> contexts_;
  SimulationConfig config_;
  Rng rng_;
  std::vector<Rng> process_rngs_;

  EventHeap queue_;
  // Bodies of queued events.  Coordinator-owned: during a parallel window
  // workers only detach their own events' distinct parcel slots, and
  // children created there are parked at commit.
  Slab<Message> parcels_;
  Slab<Call> calls_;
  TimePoint now_{0};
  std::uint64_t next_seq_ = 0;
  // Transport message ids are per-channel streams (bit 63 tags them apart
  // from the debug shims' per-process ids): the id depends only on the
  // channel's own send order, never on the global interleaving, so the
  // sequential and parallel engines assign identical ids.
  std::vector<std::uint64_t> channel_msg_seq_;
  // Timer ids are per-process streams for the same reason.
  std::vector<std::uint32_t> process_timer_seq_;
  std::vector<std::unordered_set<TimerId>> cancelled_timers_;

  // Per-channel bookkeeping: last scheduled delivery time (FIFO enforcement)
  // and current in-flight count.  clear_time / send_seq are only ever
  // touched from the channel source's dispatch context (single worker);
  // in_flight is commit/coordinator state.
  std::vector<TimePoint> channel_clear_time_;
  std::vector<std::size_t> channel_in_flight_;
  // Per-channel send counts, keying the stateless latency streams.
  std::vector<std::uint64_t> channel_send_seq_;

  // The reliability driver, set iff config_.faults.  One link drives every
  // channel, with the channel id as both its out and in slot, so the
  // per-channel state stays in flat arrays (per-process links measured
  // ~8% slower on the chaos tier benchmark).  An out slot is touched only
  // from its channel source's dispatch context, an in slot only from its
  // destination's: sender-side events target the source, frames the
  // destination.
  std::optional<ReliableLink> link_;

  // Parallel engine state; lanes_ is sized on first parallel run (deque:
  // lanes hold move-only staging state and never relocate).
  std::deque<Lane> lanes_;
  std::unique_ptr<WorkerPool> pool_threads_;
  bool window_active_ = false;  // worker phase in progress (asserts)

  obs::MetricsRegistry metrics_;
  // Wire-size accounting encodes every sent message; the pool keeps that
  // from allocating per send.  Coordinator-only, like the queue: workers
  // stage a kPoolAcquire effect and encode into their lane scratch buffer
  // instead, so commit replays the exact sequential hit/miss stream.
  BufferPool pool_;
  TransportObserver* observer_ = nullptr;
  std::uint64_t events_processed_ = 0;
};

}  // namespace ddbg
