// Reliable-channel recovery: exactly-once FIFO delivery over a lossy
// transport.
//
// Section 2.1 of the paper assumes channels are reliable, FIFO and
// unbounded, and every algorithm above the transport (halting waves,
// C&L recording, linked-predicate marker chains) leans on that.  When the
// transport underneath is allowed to drop, duplicate, reorder or reset
// (net/fault_plan.hpp), this layer re-establishes the axioms:
//
//   * ReliableSender stamps every message with a per-channel sequence
//     number and keeps it in a retransmit queue until cumulatively acked,
//     with exponential backoff up to a cap;
//   * ReliableReceiver suppresses duplicates and releases messages in
//     sequence order, holding early arrivals until the gap fills;
//   * RelHeader is the wire header piggybacked on byte-stream frames
//     (sequence number out, cumulative ack back).
//
// Both machines are pure state — no I/O, no clocks, no locks.  Each
// runtime drives them from its own send/deliver path and timer source, so
// one implementation serves the simulator and both threaded runtimes (and
// the unit tests exercise loss patterns no real socket would produce on
// demand).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/serialization.hpp"
#include "common/time.hpp"
#include "net/message.hpp"

namespace ddbg {

struct ReliableConfig {
  // First retransmit fires this long after the original send.
  Duration rto_initial = Duration::millis(25);
  // Backoff doubles per retransmit of the same message, capped here.
  Duration rto_max = Duration::millis(400);
};

class ReliableSender {
 public:
  explicit ReliableSender(ReliableConfig config = {}) : config_(config) {}

  // A message and an opaque caller word carried alongside it (the runtimes
  // stash the wire size so retransmissions and late releases account bytes
  // without re-encoding).
  struct Staged {
    Message message;
    std::uint64_t meta = 0;
  };

  // Track `message` until cumulatively acked.  Returns its sequence number
  // (data sequences start at 1; 0 never names a message).
  std::uint64_t stage(Message&& message, std::uint64_t meta, TimePoint now);

  // Cumulative ack: retires every entry with seq <= cum_ack.  Returns how
  // many entries were retired.
  std::size_t ack(std::uint64_t cum_ack);

  // Replace the contents of `out` with the sequence numbers due for
  // retransmission at `now`, ascending.  Each returned entry has its backoff
  // doubled (up to the cap) and its deadline pushed out, so calling again
  // immediately returns nothing.  `out` is caller-owned so a retry check
  // reuses one buffer instead of allocating.
  void due(TimePoint now, std::vector<std::uint64_t>& out);

  // Make every unacked entry due immediately (reconnect resync: the new
  // connection replays the whole window).  Returns how many entries there
  // were.
  std::size_t mark_all_due(TimePoint now);

  // Earliest retransmit deadline among unacked entries, if any.
  [[nodiscard]] std::optional<TimePoint> next_deadline() const;

  // The staged message for `seq`, or nullptr if already acked or never
  // staged.  The pointer is valid until the next stage() or ack().
  [[nodiscard]] const Staged* peek(std::uint64_t seq) const;
  // Same, writable: a receiver in the same address space moves the message
  // out on its first wanted arrival (ReliableLink::receive_in_place).
  [[nodiscard]] Staged* peek(std::uint64_t seq) {
    return const_cast<Staged*>(std::as_const(*this).peek(seq));
  }

  [[nodiscard]] std::size_t unacked() const { return window_.size() - head_; }
  [[nodiscard]] std::uint64_t last_staged() const { return next_seq_ - 1; }
  [[nodiscard]] std::uint64_t cum_acked() const { return acked_; }

 private:
  struct Entry {
    std::uint64_t seq = 0;
    Staged staged;
    TimePoint next_retry{0};
    Duration rto{0};
  };

  ReliableConfig config_;
  // Unacked entries are window_[head_..], consecutive seqs ascending, so
  // peek is an offset from the head.  Acks advance head_; the retired
  // prefix is dropped when the window empties or once it is at least half
  // the vector, so the storage is reused instead of allocated per message.
  std::vector<Entry> window_;
  std::size_t head_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t acked_ = 0;
};

class ReliableReceiver {
 public:
  enum class Accept : std::uint8_t {
    kDelivered,  // in order: released (possibly with buffered successors)
    kDuplicate,  // seq already delivered once — suppressed
    kBuffered,   // early arrival: held until the gap fills
  };

  struct Delivery {
    std::uint64_t seq = 0;
    Message message;
    std::uint64_t meta = 0;
  };

  // Whether frame `seq` would be delivered or held rather than suppressed
  // as a duplicate: not yet delivered and not already held.
  [[nodiscard]] bool wants(std::uint64_t seq) const {
    return seq >= expected_ && held_.count(seq) == 0;
  }

  // Feed one arriving data frame.  Messages that become deliverable (the
  // frame itself and any buffered run it unblocks) are appended to `out`
  // in sequence order.
  Accept on_frame(std::uint64_t seq, Message message, std::uint64_t meta,
                  std::vector<Delivery>& out);

  // Highest sequence number below which everything has been delivered.
  [[nodiscard]] std::uint64_t cum_ack() const { return expected_ - 1; }
  [[nodiscard]] std::size_t held() const { return held_.size(); }

 private:
  std::uint64_t expected_ = 1;  // next in-order seq
  std::map<std::uint64_t, Delivery> held_;
};

// Wire header for reliable byte-stream frames, written between the length
// prefix and the encoded message.  Data frames carry (seq, cum_ack); ack
// frames carry only cum_ack and no message body.
struct RelHeader {
  static constexpr std::uint8_t kData = 1;
  static constexpr std::uint8_t kAck = 2;

  std::uint8_t tag = kData;
  std::uint64_t seq = 0;      // data frames: channel sequence number
  std::uint64_t cum_ack = 0;  // receiver's cumulative ack (piggybacked)

  void encode(ByteWriter& writer) const;
  [[nodiscard]] static Result<RelHeader> decode(ByteReader& reader);
};

// Encoded RelHeader size: tag (1) + seq (8) + cum_ack (8).
inline constexpr std::size_t kRelHeaderSize = 17;

}  // namespace ddbg
