// One node of the debugger tier: the root `d` or an aggregator (see
// Topology::with_debugger_tree).
//
// Every tier node speaks the same protocol:
// - A halt or snapshot marker of a newer wave is adopted and forwarded to
//   the parent and the children (a halt marker with this node's name
//   appended to its path, section 2.2.4); older and current waves are
//   ignored.  Like `d`, a tier node "never really halts" (section 2.2.3).
// - A downward command (is_downward) arrives from the parent and is routed
//   by its `target`: to the child that covers that user, or to every child
//   for an invalid target.  The encoded bytes are re-sent unchanged, so a
//   user receives the same command bytes under a flat debugger and a tier.
// - An upward command arrives from a child.  Reports carry encoded
//   snapshot records (Command::records) that fill a Fragment, one slot per
//   user, full once it covers this node's user range.  Records are never
//   decoded on the way: an aggregator splices its full fragment into one
//   report in process-id order, and d keeps a completed wave as one
//   GlobalState::encode_snapshots() buffer.
//
// Halting is C&L recording plus "halt" (Lemma 2.1), so the two kinds of
// wave share one table, indexed by kind.  Adopting a wave (or, at d,
// starting one) opens its entry, and a report is collected only into an
// open wave of its kind.  Control channels are FIFO and a node forwards a
// wave's marker before it sends any report of that wave, so every node
// adopts a wave before its reports arrive: a report for a wave this node
// never adopted, or whose fragment is already full, is logged and dropped.
//
// Direction comes from the channel: a downward command from a child, or an
// upward one from the parent, is logged and dropped.  So is an upward
// command that names a user outside the sending child's subtree, or a
// marker route to a user that does not exist.  Hostile control input is
// never trusted further than the child it came from.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "core/commands.hpp"
#include "net/process.hpp"

namespace ddbg {

class TierNode : public Process {
 public:
  void on_message(ProcessContext& ctx, ChannelId in, Message message) final;

  // Markers this node sent to its children (experiment accounting).
  [[nodiscard]] std::uint64_t markers_forwarded() const {
    return markers_forwarded_.load();
  }

 protected:
  // The kind of a marker wave: halting, or C&L recording.
  enum class Wave : std::uint8_t { kHalt, kSnapshot };

  // One wave's S_h (or S_r) fragment while it assembles: a slot per user
  // below this node, holding that user's encoded record in a shared arena.
  // A user's later record replaces its earlier one.  The slot index is
  // sized by the first report, so a node allocates nothing before one.
  class Fragment {
   public:
    // Whether `bytes` more record bytes keep every offset in 32 bits.
    [[nodiscard]] bool fits(std::size_t bytes) const {
      return bytes <= UINT32_MAX - arena_.size();
    }
    // Stores `record` (which fits) in `slot` of `users`.
    void put(std::size_t users, std::size_t slot,
             std::span<const std::uint8_t> record);
    [[nodiscard]] bool has(std::size_t slot) const {
      return slot < slots_.size() && slots_[slot].size != 0;
    }
    [[nodiscard]] bool full() const {
      return !slots_.empty() && filled_ == slots_.size();
    }
    // Appends every record to `report`, in slot (process-id) order;
    // `user_lo` is the process id of slot 0.
    void splice_into(Command& report, std::uint32_t user_lo) const;
    // The records in slot order behind their count: exactly
    // GlobalState::encode_snapshots() of the decoded fragment, in a buffer
    // of exactly that size.
    [[nodiscard]] Bytes encode_snapshots() const;

   private:
    struct Slot {
      std::uint32_t offset = 0;
      std::uint32_t size = 0;  // 0: not reported (a record is never empty)
    };
    Bytes arena_;
    std::vector<Slot> slots_;
    std::size_t filled_ = 0;
  };

  // One wave this node adopted or started.
  struct WaveEntry {
    TimePoint started_at{};
    TimePoint completed_at{};              // d only
    Fragment fragment;                     // the records collected so far
    std::shared_ptr<const Bytes> encoded;  // d only: S_h, once complete
  };
  // The waves of one kind: the last adopted id and every open wave.  A
  // full wave leaves the table unless its hook stored `encoded` (d keeps
  // its completed waves; an aggregator forgets a shipped one).
  struct WaveTable {
    std::uint64_t last_id = 0;
    std::map<std::uint64_t, WaveEntry> entries;
  };

  // Binds the node's position in the tier; call from on_start.
  void bind(ProcessContext& ctx);

  // Wave-id adoption: true when `id` is newer than the last adopted wave of
  // its kind, which it then becomes, and opens its entry.
  virtual bool adopt(ProcessContext& ctx, Wave kind, std::uint64_t id);
  // Adopts wave `id` and forwards its marker (a halt marker with `path`
  // plus this node's name) to the parent and the children, skipping
  // `origin`, the tier node it came from.
  void join(ProcessContext& ctx, ProcessId origin, Wave kind,
            std::uint64_t id, std::span<const ProcessId> path);
  // Collects a report into its open wave, or logs and drops it.
  virtual void collect(ProcessContext& ctx, Wave kind, const Command& report);
  // Wave `id`'s fragment covers this node's users.
  virtual void on_full(ProcessContext& ctx, Wave kind, std::uint64_t id,
                       WaveEntry& entry) = 0;
  // Any other control command that passed validation.  `message` still
  // holds the encoded bytes, for relays that forward them verbatim.
  virtual void handle_command(ProcessContext& ctx, ChannelId in,
                              Message& message, Command command) = 0;

  // Sends encoded command bytes down toward `target` (every user when the
  // target is invalid).
  void send_down(ProcessContext& ctx, ProcessId target, Bytes encoded);
  // Whether user `p` lies in the subtree of the child that sent on `in`.
  [[nodiscard]] bool covers(ChannelId in, ProcessId p) const;

  [[nodiscard]] WaveTable& table(Wave kind) {
    return tables_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] const WaveTable& table(Wave kind) const {
    return tables_[static_cast<std::size_t>(kind)];
  }
  // Wave `id`'s entry, or null.
  [[nodiscard]] const WaveEntry* find(Wave kind, std::uint64_t id) const {
    const auto it = table(kind).entries.find(id);
    return it == table(kind).entries.end() ? nullptr : &it->second;
  }

  const Topology* topology_ = nullptr;  // bound in on_start
  ProcessId self_;
  ProcessId parent_;      // invalid at the root
  ChannelId up_channel_;  // control channel to the parent; invalid at root
  std::vector<ProcessId> children_;
  std::uint32_t user_lo_ = 0;  // [user_lo_, user_hi_): users below this node
  std::uint32_t user_hi_ = 0;

 private:
  // Why a control command arriving on `in` must be dropped (wrong
  // direction, or naming a user outside the sender's subtree), or null.
  [[nodiscard]] const char* fault(ChannelId in, const Command& command) const;

  std::array<WaveTable, 2> tables_;  // indexed by Wave
  std::atomic<std::uint64_t> markers_forwarded_{0};
};

}  // namespace ddbg
