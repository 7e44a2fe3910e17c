// Process/channel graphs (the paper's figure 1), generators for the shapes
// used in the experiments, and the strong-connectivity check on which the
// *basic* halting algorithm depends (section 2.2.2: "The C&L Algorithm
// avoids this problem by assuming that the processes are strongly
// connected").
//
// with_debugger() realizes the extended model of section 2.2.3 / figure 3:
// an extra debugger process `d` with a control channel to and from every
// user process, which makes any topology strongly connected.
//
// with_debugger_tree() generalizes that single `d` into a spanning tree of
// aggregator processes (broadcast/convergecast in the style of Aspnes'
// notes): every user process keeps exactly one control channel pair, but it
// now leads to a leaf aggregator instead of the root, so no single process
// owns O(n) control channels.  The root of the tier plays the paper's `d`.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"

namespace ddbg {

struct ChannelSpec {
  ChannelId id;
  ProcessId source;
  ProcessId destination;
  // Control channels connect the debugger process with user processes and
  // carry only debugger traffic; see section 2.2.3.
  bool is_control = false;
};

class Topology {
 public:
  Topology() = default;
  explicit Topology(std::uint32_t num_processes);

  // ---- construction ----
  ProcessId add_process();
  ChannelId add_channel(ProcessId source, ProcessId destination,
                        bool is_control = false);

  // Returns a copy of this topology extended with a debugger process that
  // has one control channel to and one from every existing process.
  [[nodiscard]] Topology with_debugger() const;

  // Returns a copy of this topology extended with a debugger *tier*: user
  // processes are grouped `fanout` at a time under leaf aggregators, those
  // aggregators under higher aggregators, until a single root remains.  The
  // root is the debugger process; every non-root process has exactly one
  // control channel to and one from its tier parent.  Requires fanout >= 2.
  [[nodiscard]] Topology with_debugger_tree(std::uint32_t fanout) const;

  // ---- queries ----
  [[nodiscard]] std::uint32_t num_processes() const {
    return static_cast<std::uint32_t>(out_channels_.size());
  }
  // Number of processes excluding the debugger (== num_processes() when
  // there is no debugger).
  [[nodiscard]] std::uint32_t num_user_processes() const;

  [[nodiscard]] std::size_t num_channels() const { return channels_.size(); }
  [[nodiscard]] const ChannelSpec& channel(ChannelId id) const;
  [[nodiscard]] std::span<const ChannelSpec> channels() const {
    return channels_;
  }

  [[nodiscard]] std::span<const ChannelId> out_channels(ProcessId p) const;
  [[nodiscard]] std::span<const ChannelId> in_channels(ProcessId p) const;

  // Endpoint slots (section 2.1: each process has a fixed, ordered set of
  // in- and out-channels): in_channels(channel(c).destination)[in_slot(c)]
  // == c and out_channels(channel(c).source)[out_slot(c)] == c, so every
  // per-channel table a process keeps is a plain vector indexed by slot.
  [[nodiscard]] std::uint32_t in_slot(ChannelId c) const {
    DDBG_ASSERT(c.value() < in_slot_.size(), "unknown channel id");
    return in_slot_[c.value()];
  }
  [[nodiscard]] std::uint32_t out_slot(ChannelId c) const {
    DDBG_ASSERT(c.value() < out_slot_.size(), "unknown channel id");
    return out_slot_[c.value()];
  }
  // Checked forms for ids that may be foreign or hostile (wire input): the
  // slot of `c` among p's in-channels (out-channels), or nullopt when `c`
  // is out of range or does not end (start) at p.
  [[nodiscard]] std::optional<std::uint32_t> find_in_slot(ProcessId p,
                                                          ChannelId c) const {
    return find_slot(in_channels_, in_slot_, p, c);
  }
  [[nodiscard]] std::optional<std::uint32_t> find_out_slot(ProcessId p,
                                                           ChannelId c) const {
    return find_slot(out_channels_, out_slot_, p, c);
  }

  // First (non-control) channel from source to destination, if any.
  [[nodiscard]] std::optional<ChannelId> channel_between(
      ProcessId source, ProcessId destination) const;

  [[nodiscard]] bool has_debugger() const { return debugger_.valid(); }
  [[nodiscard]] ProcessId debugger_id() const { return debugger_; }
  [[nodiscard]] bool is_debugger(ProcessId p) const {
    return has_debugger() && p == debugger_;
  }
  // Control channel from p's tier parent to p / from p to its tier parent.
  // With a flat debugger the parent of every user process is the debugger
  // itself, so these keep their original meaning.
  [[nodiscard]] ChannelId control_to(ProcessId p) const;
  [[nodiscard]] ChannelId control_from(ProcessId p) const;

  // ---- debugger tier queries ----
  // Number of debugger-tier processes (aggregators + root); 1 for a flat
  // debugger, 0 without one.
  [[nodiscard]] std::uint32_t num_tier_processes() const { return num_tier_; }
  [[nodiscard]] std::uint32_t num_aggregators() const {
    return num_tier_ > 0 ? num_tier_ - 1 : 0;
  }
  // Tier processes are appended after the user processes, root last.
  [[nodiscard]] bool is_aggregator(ProcessId p) const {
    return has_debugger() && p != debugger_ &&
           p.value() >= num_user_processes();
  }
  // Fan-out the tier was built with; 0 for a flat with_debugger() topology.
  [[nodiscard]] std::uint32_t tier_fanout() const { return tier_fanout_; }
  // Tier parent of p (the debugger itself in flat mode); invalid for the
  // root.  Defined for every process once a debugger exists.
  [[nodiscard]] ProcessId tier_parent(ProcessId p) const;
  // Direct tier children of p (empty for user processes).  For a flat
  // debugger the root's children are all user processes, in id order.
  [[nodiscard]] std::span<const ProcessId> tier_children(ProcessId p) const;
  // Contiguous half-open range [lo, hi) of user process ids covered by p's
  // subtree ([p, p+1) for a user process itself).
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> tier_user_range(
      ProcessId p) const;

  [[nodiscard]] std::vector<ProcessId> process_ids() const;
  [[nodiscard]] std::vector<ProcessId> user_process_ids() const;

  // Tarjan's strongly-connected-components algorithm over all channels.
  [[nodiscard]] bool strongly_connected() const;
  [[nodiscard]] std::size_t num_strongly_connected_components() const;

  [[nodiscard]] std::string describe() const;

  // ---- generators (user processes only; call with_debugger() to extend) ----
  // Unidirectional ring p0 -> p1 -> ... -> p(n-1) -> p0.
  [[nodiscard]] static Topology ring(std::uint32_t n);
  // Bidirectional star centered on p0.
  [[nodiscard]] static Topology star(std::uint32_t n);
  // Acyclic pipeline p0 -> p1 -> ... -> p(n-1): the paper's figure 2
  // producer-consumer shape generalized.
  [[nodiscard]] static Topology pipeline(std::uint32_t n);
  // Rooted tree with fan-out `branching`, every edge bidirectional (parent
  // <-> child), so the result is strongly connected.  The hierarchical
  // shape for the scale sweeps: diameter O(log n) at O(n) channels.
  [[nodiscard]] static Topology tree(std::uint32_t n,
                                     std::uint32_t branching = 2);
  // All ordered pairs connected.
  [[nodiscard]] static Topology complete(std::uint32_t n);
  // Random strongly-connected digraph: a random ring through all processes
  // plus `extra_edges` distinct random edges.
  [[nodiscard]] static Topology random_strongly_connected(
      std::uint32_t n, std::uint32_t extra_edges, Rng& rng);
  // Random digraph where each ordered pair gets a channel with probability
  // `edge_probability` (may be disconnected; used for SCC tests).
  [[nodiscard]] static Topology random(std::uint32_t n,
                                       double edge_probability, Rng& rng);

 private:
  // Sizes the tier metadata vectors once the debugger (tier) processes have
  // been appended; callers then fill parents/children/ranges.
  void init_tier_metadata();
  // Membership is checked against p's own channel list rather than the
  // channel table, so a lookup touches the dense slot array and p's list.
  [[nodiscard]] static std::optional<std::uint32_t> find_slot(
      const std::vector<std::vector<ChannelId>>& lists,
      const std::vector<std::uint32_t>& slots, ProcessId p, ChannelId c) {
    if (c.value() >= slots.size() || p.value() >= lists.size()) {
      return std::nullopt;
    }
    const std::uint32_t slot = slots[c.value()];
    const std::vector<ChannelId>& list = lists[p.value()];
    if (slot >= list.size() || list[slot] != c) return std::nullopt;
    return slot;
  }

  std::vector<ChannelSpec> channels_;
  std::vector<std::vector<ChannelId>> out_channels_;
  std::vector<std::vector<ChannelId>> in_channels_;
  // By channel id: its index in in_channels_[destination] /
  // out_channels_[source].
  std::vector<std::uint32_t> in_slot_;
  std::vector<std::uint32_t> out_slot_;
  // First data (non-control) channel per ordered (source, destination)
  // pair, so channel_between is O(1) instead of an out-degree scan — on a
  // complete graph at N=1024 that scan is 1023 entries per lookup.  Lookup
  // only; nothing ever iterates this map, so its hash order cannot leak
  // into any output.
  std::unordered_map<std::uint64_t, ChannelId> data_channel_index_;
  ProcessId debugger_;
  // For each non-root process: control channels to/from its tier parent
  // (the debugger itself when the tier is flat).
  std::vector<ChannelId> control_to_;
  std::vector<ChannelId> control_from_;
  // Debugger-tier shape; see with_debugger_tree().  All vectors are indexed
  // by process id and sized num_processes() once a debugger exists.
  std::uint32_t num_tier_ = 0;
  std::uint32_t tier_fanout_ = 0;
  std::vector<ProcessId> tier_parent_;
  std::vector<std::vector<ProcessId>> tier_children_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tier_user_range_;
};

}  // namespace ddbg
