// Test utilities: a fake ProcessContext that records sends, for unit-testing
// the per-process engines without a runtime.
#pragma once

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/commands.hpp"
#include "net/process.hpp"

namespace ddbg::testing {

// A report of `kind` carrying every snapshot of `snapshots` in order: an
// aggregator's subtree, or (empty) a malformed one.
inline Command report_of(CommandKind kind, ProcessId reporter,
                         std::uint64_t wave,
                         const std::vector<ProcessSnapshot>& snapshots) {
  Command command;
  command.kind = kind;
  command.reporter = reporter;
  command.wave_id = wave;
  for (const ProcessSnapshot& snapshot : snapshots) {
    command.add_report(snapshot);
  }
  return command;
}

class FakeContext final : public ProcessContext {
 public:
  FakeContext(ProcessId self, const Topology* topology)
      : self_(self), topology_(topology), rng_(7) {}

  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] TimePoint now() const override { return now_; }
  [[nodiscard]] const Topology& topology() const override {
    return *topology_;
  }

  void send(ChannelId channel, Message message) override {
    sent.emplace_back(channel, std::move(message));
  }

  TimerId set_timer(Duration delay) override {
    timers.push_back(delay);
    return TimerId(static_cast<std::uint32_t>(timers.size()));
  }
  void cancel_timer(TimerId timer) override { cancelled.push_back(timer); }
  [[nodiscard]] Rng& rng() override { return rng_; }
  void stop_self() override { stopped = true; }
  [[nodiscard]] obs::MetricsRegistry* metrics() const override {
    return registry;
  }

  void advance(Duration d) { now_ = now_ + d; }

  // Sent halt markers only, in order.
  [[nodiscard]] std::vector<std::pair<ChannelId, HaltMarkerData>>
  halt_markers() const {
    std::vector<std::pair<ChannelId, HaltMarkerData>> markers;
    for (const auto& [channel, message] : sent) {
      if (message.kind == MessageKind::kHaltMarker) {
        markers.emplace_back(channel, *message.halt);
      }
    }
    return markers;
  }

  std::vector<std::pair<ChannelId, Message>> sent;
  std::vector<Duration> timers;
  std::vector<TimerId> cancelled;
  bool stopped = false;
  // Metrics sink handed to the code under test; null means none.
  obs::MetricsRegistry* registry = nullptr;

 private:
  ProcessId self_;
  const Topology* topology_;
  Rng rng_;
  TimePoint now_{0};
};

}  // namespace ddbg::testing
