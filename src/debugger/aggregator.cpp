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

void AggregatorProcess::on_full(ProcessContext& ctx, Wave kind,
                                std::uint64_t id, WaveEntry& entry) {
  Command up;
  up.kind = kind == Wave::kHalt ? CommandKind::kHaltReport
                                : CommandKind::kSnapshotReport;
  up.reporter = self_;
  up.wave_id = id;
  entry.fragment.splice_into(up, user_lo_);
  entry.fragment = Fragment();  // shipped: free it before encoding the copy
  ctx.send(up_channel_, Message::control(up.encode()));
  if (obs::MetricsRegistry* m = ctx.metrics()) m->on_ack_aggregated();
}

void AggregatorProcess::handle_command(ProcessContext& ctx, ChannelId /*in*/,
                                       Message& message, Command command) {
  if (is_downward(command.kind)) {
    send_down(ctx, command.target, std::move(message.payload));
  } else {
    // Upward relay: already encoded, forward the payload untouched.
    ctx.send(up_channel_, Message::control(std::move(message.payload)));
  }
}

}  // namespace ddbg
