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
// - An upward command arrives from a child.  Reports carry a list of
//   snapshots that merge into a fragment, complete once it covers this
//   node's user range.
//
// Direction comes from the channel: a downward command from a child, or an
// upward one from the parent, is logged and dropped.  So is an upward
// command that names a user outside the sending child's subtree, or a
// marker route to a user that does not exist.  Hostile control input is
// never trusted further than the child it came from.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "core/commands.hpp"
#include "core/global_state.hpp"
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
  enum class Wave : std::uint8_t { kHalt, kSnapshot };

  // Binds the node's position in the tier; call from on_start.
  void bind(ProcessContext& ctx);

  // Wave-id adoption: true when `id` is newer than the last adopted wave of
  // its kind, which it then becomes.
  virtual bool adopt(ProcessContext& ctx, Wave wave, std::uint64_t id);
  // A control command that passed validation.  `message` still holds the
  // encoded bytes, for relays that forward them verbatim.
  virtual void handle_command(ProcessContext& ctx, ChannelId in,
                              Message& message, Command command) = 0;

  // Sends encoded command bytes down toward `target` (every user when the
  // target is invalid).
  void send_down(ProcessContext& ctx, ProcessId target, Bytes encoded);
  // Moves `reports` into `fragment`; true once it covers this node's users.
  [[nodiscard]] bool merge(GlobalState& fragment,
                           std::vector<ProcessSnapshot>& reports) const;
  // Whether user `p` lies in the subtree of the child that sent on `in`.
  [[nodiscard]] bool covers(ChannelId in, ProcessId p) const;

  const Topology* topology_ = nullptr;  // bound in on_start
  ProcessId self_;
  ProcessId parent_;      // invalid at the root
  ChannelId up_channel_;  // control channel to the parent; invalid at root
  std::vector<ProcessId> children_;
  std::uint32_t user_lo_ = 0;  // [user_lo_, user_hi_): users below this node
  std::uint32_t user_hi_ = 0;
  std::uint64_t last_halt_id_ = 0;
  std::uint64_t last_snapshot_id_ = 0;
  std::atomic<std::uint64_t> markers_forwarded_{0};

 private:
  // Broadcasts a wave marker to the parent and the children, skipping the
  // tier node it came from.
  void forward_wave(ProcessContext& ctx, ProcessId origin,
                    const Message& marker);
  // Why a control command arriving on `in` must be dropped (wrong
  // direction, or naming a user outside the sender's subtree), or null.
  [[nodiscard]] const char* fault(ChannelId in, const Command& command) const;
};

}  // namespace ddbg
