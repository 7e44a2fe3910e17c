#include "debugger/aggregator.hpp"

#include <utility>

#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace ddbg {

void AggregatorProcess::on_start(ProcessContext& ctx) {
  DDBG_ASSERT(ctx.topology().is_aggregator(ctx.self()),
              "AggregatorProcess must occupy an aggregator slot");
  bind(ctx);
}

void AggregatorProcess::handle_command(ProcessContext& ctx, ChannelId /*in*/,
                                       Message& message, Command command) {
  if (is_downward(command.kind)) {
    send_down(ctx, command.target, std::move(message.payload));
    return;
  }
  const bool halt = command.kind == CommandKind::kHaltReport;
  if (!halt && command.kind != CommandKind::kSnapshotReport) {
    // Upward relay: already encoded, forward the payload untouched.
    ctx.send(up_channel_, Message::control(std::move(message.payload)));
    return;
  }
  auto& frags = halt ? halt_frags_ : snapshot_frags_;
  const auto it = frags.try_emplace(command.wave_id).first;
  if (!collect(it->second, command)) return;
  Command up;
  up.kind = command.kind;
  up.reporter = self_;
  up.wave_id = command.wave_id;
  it->second.splice_into(up, user_lo_);
  frags.erase(it);  // shipped: only in-progress waves keep a fragment
  ctx.send(up_channel_, Message::control(up.encode()));
  if (obs::MetricsRegistry* m = ctx.metrics()) m->on_ack_aggregated();
}

}  // namespace ddbg
