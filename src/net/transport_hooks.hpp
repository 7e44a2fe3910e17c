// Observation hooks shared by the runtimes.
//
// Both the simulator and the threaded runtimes report message sends and
// deliveries through a TransportObserver so the analysis layer (traces,
// statistics, in-flight accounting for the naive-halt experiment) works
// identically on either substrate.
//
// Cumulative accounting lives in obs::MetricsRegistry (src/obs); this
// header provides the glue between it and the network layer: the
// traffic-class and fault-kind correspondences and the channel-metadata
// extraction the registries are constructed from.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "net/fault_plan.hpp"
#include "net/message.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"

namespace ddbg {

class TransportObserver {
 public:
  virtual ~TransportObserver() = default;

  virtual void on_send(TimePoint when, ChannelId channel,
                       const Message& message) = 0;
  virtual void on_deliver(TimePoint when, ChannelId channel,
                          const Message& message) = 0;
};

// obs::MetricsRegistry indexes traffic classes by the MessageKind tag; the
// obs layer deliberately does not include network headers, so pin the
// correspondence here.
static_assert(static_cast<std::size_t>(MessageKind::kApplication) == 0 &&
                  static_cast<std::size_t>(MessageKind::kHaltMarker) == 1 &&
                  static_cast<std::size_t>(MessageKind::kSnapshotMarker) == 2 &&
                  static_cast<std::size_t>(MessageKind::kPredicateMarker) ==
                      3 &&
                  static_cast<std::size_t>(MessageKind::kControl) == 4 &&
                  obs::kNumTrafficClasses == 5,
              "obs traffic classes must mirror MessageKind");

[[nodiscard]] constexpr std::uint8_t traffic_class(MessageKind kind) {
  return static_cast<std::uint8_t>(kind);
}

// Messages of `kind` sent, from a registry's totals.
[[nodiscard]] inline std::uint64_t sent_count(const obs::TotalsSnapshot& totals,
                                              MessageKind kind) {
  return totals.sent[traffic_class(kind)];
}

// Likewise, obs indexes its faults_injected slots by fault_index(FaultKind)
// without depending on net/fault_plan.hpp; pin that correspondence too.
static_assert(fault_index(FaultKind::kDrop) == 0 &&
                  fault_index(FaultKind::kDuplicate) == 1 &&
                  fault_index(FaultKind::kReorder) == 2 &&
                  fault_index(FaultKind::kDelay) == 3 &&
                  fault_index(FaultKind::kPartition) == 4 &&
                  fault_index(FaultKind::kReset) == 5 &&
                  kNumFaultKinds == obs::kNumFaultKinds,
              "obs fault-kind slots must mirror FaultKind");

// Per-channel metadata for a MetricsRegistry covering `topology`.
[[nodiscard]] inline std::vector<obs::ChannelMeta> channel_meta(
    const Topology& topology) {
  std::vector<obs::ChannelMeta> meta;
  meta.reserve(topology.num_channels());
  for (const ChannelSpec& spec : topology.channels()) {
    meta.push_back(obs::ChannelMeta{spec.source.value(),
                                    spec.destination.value(),
                                    spec.is_control});
  }
  return meta;
}

}  // namespace ddbg
