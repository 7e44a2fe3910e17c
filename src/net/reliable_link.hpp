// ReliableLink: the one driver of section 2.1's reliable FIFO channels.
//
// net/reliable.hpp holds the pure per-channel machines (a retransmit window,
// a resequencing receiver).  This driver makes every decision around them,
// once for all three substrates: which fault each transmission attempt
// meets, when a frame is retransmitted, when a retransmit check is armed,
// how a reset is answered (one resync per outage, replaying the whole
// unacked window), when an ack goes back, and what is counted in the
// metrics and annotated in the replay log.
//
// A substrate supplies only the mechanics, through a Port passed to each
// call: move a data frame, move an ack, drop a connection, wake the link at
// a time, and hand a released message to the process.  The simulator binds
// its dispatch lane and virtual time into a stack Port; the threaded
// runtimes' workers are their own Port.
//
// A link drives a set of channels, each through an out slot (its sender
// side) and/or an in slot (its receiver side).  Each threaded worker has one
// link over its process's endpoint slots (Topology::out_slot / in_slot);
// the simulator has one link over every channel, slot = channel id.  An
// out slot is touched only from its channel source's execution context and
// an in slot only from its destination's, so the link needs no lock; its
// retry and release scratch buffers are per thread, so the one a call uses
// is always warm.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "net/fault_plan.hpp"
#include "net/message.hpp"
#include "net/reliable.hpp"

namespace ddbg {

class ReplaySink;
namespace obs {
class MetricsRegistry;
}  // namespace obs

class ReliableLink {
 public:
  // Every call names the endpoint slot and, for convenience, the channel
  // in it.
  class Port {
   public:
    // One physical attempt at carrying data frame `seq` on out-slot
    // `slot`.  `attempt` is the channel's fault-stream index, `extra` the
    // fault plan's added in-flight time, and `copy` marks the second frame
    // of a duplicate fault (sent just before the original).  The threaded
    // runtimes copy or encode `staged`; the simulator carries only `seq`
    // and reads the message in place on arrival (receive_in_place).
    virtual void transmit_data(std::size_t slot, ChannelId channel,
                               std::uint64_t seq,
                               const ReliableSender::Staged& staged,
                               std::uint64_t attempt, Duration extra,
                               bool copy) = 0;
    // Cumulative ack for in-slot `slot`, back to the channel's source.
    virtual void transmit_ack(std::size_t slot, ChannelId channel,
                              std::uint64_t cum_ack, std::uint64_t attempt,
                              Duration extra) = 0;
    // A reset fault took down out-slot `slot`'s connection.  The substrate
    // calls resync(slot) once the channel is back: at `resync_at` where it
    // models reconnection as a delay, or when its redial completes.
    virtual void lose_connection(std::size_t slot, ChannelId channel,
                                 TimePoint resync_at) = 0;
    // Call on_retry(slot) at `when`.
    virtual void arm_retry(std::size_t slot, ChannelId channel,
                           TimePoint when) = 0;
    // A message released in order on in-slot `slot`.
    virtual void deliver(std::size_t slot, ChannelId channel,
                         Message&& message, std::uint64_t meta) = 0;

   protected:
    ~Port() = default;
  };

  // `out` and `in` list the channels by slot; `replay` may be null (no
  // annotations).
  ReliableLink(std::span<const ChannelId> out, std::span<const ChannelId> in,
               const FaultPlan& plan, ReliableConfig config,
               obs::MetricsRegistry& metrics, ReplaySink* replay);

  // ---- sender side, by out slot ----
  // Stage `message` (with an opaque caller word, e.g. its wire size) and
  // make the first transmission attempt.
  void send(Port& port, std::size_t slot, Message&& message,
            std::uint64_t meta, TimePoint now);
  // A cumulative ack arrived.
  void on_ack(std::size_t slot, std::uint64_t cum_ack);
  // The retry armed through Port::arm_retry is due.
  void on_retry(Port& port, std::size_t slot, TimePoint now);
  // The connection is back: replay the whole unacked window.
  void resync(Port& port, std::size_t slot, TimePoint now);
  // The staged frame `seq`, or nullptr once acked (a delayed attempt that
  // fires after its ack is simply not sent).
  [[nodiscard]] const ReliableSender::Staged* peek(std::size_t slot,
                                                   std::uint64_t seq) const {
    return out_[slot].sender.peek(seq);
  }

  // ---- receiver side, by in slot ----
  // A data frame arrived: suppress a duplicate, hold an early arrival, or
  // deliver it and every held successor it unblocks.
  void receive(Port& port, std::size_t slot, std::uint64_t seq,
               Message&& message, std::uint64_t meta);
  // The same for a frame that carries no copy of its message, on a link
  // whose out slot and in slot `slot` are one channel (the simulator's).
  // A wanted frame moves the staged message out of the sender's window; an
  // unwanted one is a duplicate and needs no content.  The window cannot
  // have dropped a wanted frame's entry: only an ack retires it, and no ack
  // covers a seq before its first wanted arrival.
  void receive_in_place(Port& port, std::size_t slot, std::uint64_t seq);
  // Send the cumulative ack for in-slot `slot`.  Every arrival is acked,
  // duplicates included — a re-ack is what stops the sender retransmitting
  // a frame whose ack was lost — but a substrate may coalesce the acks of
  // one receive batch into one.
  void acknowledge(Port& port, std::size_t slot);

 private:
  struct Out {
    ReliableSender sender;
    std::uint64_t attempts = 0;  // data fault stream
    ChannelId channel;
    bool retry_armed = false;
    bool reconnect_pending = false;
  };
  struct In {
    ReliableReceiver receiver;
    std::uint64_t ack_attempts = 0;  // ack fault stream
    ChannelId channel;
  };

  void transmit(Port& port, std::size_t slot, std::uint64_t seq,
                TimePoint now);
  void retransmit_due(Port& port, std::size_t slot, TimePoint now);
  void arm(Port& port, std::size_t slot, TimePoint now);
  void annotate(std::uint8_t kind, ChannelId channel, std::uint64_t detail);

  std::vector<Out> out_;
  std::vector<In> in_;
  const FaultPlan* plan_;
  obs::MetricsRegistry* metrics_;
  ReplaySink* replay_;
  Duration redial_;  // modeled reconnect delay after a reset
};

}  // namespace ddbg
