// An interior node of the debugger tier (see Topology::with_debugger_tree).
//
// The paper's single debugger process `d` owns one control channel pair per
// user process, so adopting a wave costs O(n) sends from one process and
// collecting the halted state costs O(n) receives into one process.  The
// tier splits both: markers and downward commands travel down the spanning
// tree, and reports convergecast back up.  An aggregator is a TierNode
// that collects its subtree's snapshot records into the fragment of each
// wave it adopted and, once every user below it has reported, splices them
// into one report under the same kind a user sends and forgets the wave.
// It relays the other upward commands verbatim.
#pragma once

#include <cstdint>

#include "debugger/tier_node.hpp"

namespace ddbg {

class AggregatorProcess final : public TierNode {
 public:
  AggregatorProcess() = default;

  void on_start(ProcessContext& ctx) override;
  [[nodiscard]] std::string describe_state() const override {
    return "aggregator";
  }
  // Waves adopted and not yet shipped (halt and snapshot).  Not
  // synchronized: read it from the aggregator's own context or a
  // simulation.
  [[nodiscard]] std::size_t fragments_in_progress() const {
    return table(Wave::kHalt).entries.size() +
           table(Wave::kSnapshot).entries.size();
  }

 private:
  void on_full(ProcessContext& ctx, Wave kind, std::uint64_t id,
               WaveEntry& entry) override;
  void handle_command(ProcessContext& ctx, ChannelId in, Message& message,
                      Command command) override;
};

}  // namespace ddbg
