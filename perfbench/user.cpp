#include "user.hpp"

#include <string>

#include "tracing.hpp"

namespace perfbench {

using ddbg::ByteReader;
using ddbg::ByteWriter;
using ddbg::Bytes;
using ddbg::ChannelId;
using ddbg::Message;
using ddbg::ProcessContext;

namespace {
constexpr std::uint64_t kLatencyEvery = 64;
constexpr std::size_t kMaxLatencySamples = 1 << 16;
}  // namespace

std::uint64_t Probe::deliveries() const {
  std::uint64_t total = 0;
  for (const BenchUser* user : users) total += user->delivered();
  return total;
}

std::vector<double> Probe::latency_samples_us() const {
  std::vector<double> all;
  for (const BenchUser* user : users) {
    const auto& samples = user->latency_samples_us();
    all.insert(all.end(), samples.begin(), samples.end());
  }
  return all;
}

bool decode_user_state(const Bytes& bytes, UserState& out) {
  ByteReader reader(bytes);
  auto sent = reader.u64();
  auto received = reader.u64();
  auto violations = reader.u64();
  auto marks = reader.u64();
  if (!sent.ok() || !received.ok() || !violations.ok() || !marks.ok()) {
    return false;
  }
  out = UserState{sent.value(), received.value(), violations.value(),
                  marks.value()};
  return true;
}

bool decode_payload_seq(const Bytes& payload, std::uint64_t& seq) {
  ByteReader reader(payload);
  auto value = reader.u64();
  if (!value.ok()) return false;
  seq = value.value();
  return true;
}

BenchUser::BenchUser(UserConfig config, Probe& probe)
    : config_(config), probe_(probe) {
  latency_us_.reserve(kMaxLatencySamples);
}

void BenchUser::on_start(ProcessContext& ctx) {
  SpanScope span(probe_.tracer, SpanKind::kUser);
  const ddbg::Topology& topology = ctx.topology();
  for (const ChannelId c : topology.out_channels(ctx.self())) {
    if (!topology.channel(c).is_control) out_.push_back(c);
  }
  out_seq_.assign(out_.size(), 0);
  std::size_t in_degree = 0;
  for (const ChannelId c : topology.in_channels(ctx.self())) {
    if (!topology.channel(c).is_control) ++in_degree;
  }
  in_next_.assign(in_degree, 0);
  if (out_.empty()) return;
  if (config_.mode == UserConfig::Mode::kGossip) {
    ctx.set_timer(config_.interval);
    return;
  }
  for (std::uint32_t i = 0; i < config_.tokens; ++i) send_one(ctx);
}

void BenchUser::send_one(ProcessContext& ctx) {
  const std::size_t pick =
      out_.size() == 1 ? 0 : ctx.rng().next_below(out_.size());
  ByteWriter writer;
  writer.u64(out_seq_[pick]++);
  writer.u64(static_cast<std::uint64_t>(ctx.now().ns));
  ++state_.sent;
  SpanScope span(probe_.tracer, SpanKind::kShimSendPath);
  ctx.send(out_[pick], Message::application(std::move(writer).take()));
}

void BenchUser::maybe_mark(ProcessContext& ctx) {
  if (++since_mark_ < config_.mark_every) return;
  since_mark_ = 0;
  const std::uint64_t seq = ++state_.marks;
  Stamp& stamp = marks_[seq % kMarkRing];
  stamp.runtime_ns.store(ctx.now().ns, std::memory_order_relaxed);
  const bool stamp_cpu =
      probe_.cpu_stamp_user.load(std::memory_order_relaxed) ==
      static_cast<std::int64_t>(ctx.self().value());
  stamp.cpu_ns.store(stamp_cpu ? process_cpu_ns() : 0,
                     std::memory_order_relaxed);
  stamp.seq.store(seq, std::memory_order_release);
  SpanScope span(probe_.tracer, SpanKind::kShimEvent);
  debug().event("mark", static_cast<std::int64_t>(seq));
}

BenchUser::MarkStamp BenchUser::mark_stamp(std::uint64_t seq) const {
  const Stamp& stamp = marks_[seq % kMarkRing];
  if (stamp.seq.load(std::memory_order_acquire) != seq) return {};
  return MarkStamp{stamp.runtime_ns.load(std::memory_order_relaxed),
                   stamp.cpu_ns.load(std::memory_order_relaxed)};
}

void BenchUser::on_message(ProcessContext& ctx, ChannelId in,
                           Message message) {
  SpanScope span(probe_.tracer, SpanKind::kUser);
  ByteReader reader(message.payload);
  const auto seq = reader.u64();
  const auto sent_at = reader.u64();
  std::uint64_t& expected = in_next_[probe_.in_pos[in.value()]];
  if (!seq.ok() || !sent_at.ok() || seq.value() != expected) {
    ++state_.fifo_violations;
  }
  expected = seq.ok() ? seq.value() + 1 : expected + 1;
  ++state_.received;
  const std::uint64_t delivered =
      delivered_.load(std::memory_order_relaxed) + 1;
  delivered_.store(delivered, std::memory_order_relaxed);

  const std::int64_t now = ctx.now().ns;
  if (probe_.watch_resume.load(std::memory_order_relaxed)) {
    bool watching = true;
    if (probe_.watch_resume.compare_exchange_strong(watching, false)) {
      probe_.first_delivery_ns.store(now, std::memory_order_relaxed);
      probe_.first_delivery_cpu_ns.store(process_cpu_ns(),
                                         std::memory_order_release);
    }
  }
  if (delivered % kLatencyEvery == 0 && sent_at.ok() &&
      latency_us_.size() < kMaxLatencySamples &&
      static_cast<std::int64_t>(sent_at.value()) >=
          probe_.latency_epoch_ns.load(std::memory_order_relaxed)) {
    latency_us_.push_back(
        static_cast<double>(now - static_cast<std::int64_t>(sent_at.value())) /
        1e3);
  }

  if (config_.mode == UserConfig::Mode::kFlood) {
    send_one(ctx);
    maybe_mark(ctx);
  }
}

void BenchUser::on_timer(ProcessContext& ctx, ddbg::TimerId) {
  SpanScope span(probe_.tracer, SpanKind::kUser);
  send_one(ctx);
  maybe_mark(ctx);
  ctx.set_timer(config_.interval);
}

Bytes BenchUser::snapshot_state() const {
  ByteWriter writer;
  writer.u64(state_.sent);
  writer.u64(state_.received);
  writer.u64(state_.fifo_violations);
  writer.u64(state_.marks);
  return std::move(writer).take();
}

std::string BenchUser::describe_state() const {
  return "sent=" + std::to_string(state_.sent) +
         " received=" + std::to_string(state_.received);
}

std::vector<ddbg::ProcessPtr> make_users(const ddbg::Topology& users,
                                         const UserConfig& config,
                                         Probe& probe) {
  std::vector<ddbg::ProcessPtr> out;
  probe.users.clear();
  for (std::uint32_t i = 0; i < users.num_processes(); ++i) {
    auto user = std::make_unique<BenchUser>(config, probe);
    probe.users.push_back(user.get());
    out.push_back(std::move(user));
  }
  return out;
}

void index_channels(const ddbg::Topology& topology, Probe& probe) {
  probe.out_pos.assign(topology.num_channels(), 0);
  probe.in_pos.assign(topology.num_channels(), 0);
  for (const ddbg::ProcessId p : topology.process_ids()) {
    std::uint32_t pos = 0;
    for (const ChannelId c : topology.out_channels(p)) {
      if (!topology.channel(c).is_control) probe.out_pos[c.value()] = pos++;
    }
    pos = 0;
    for (const ChannelId c : topology.in_channels(p)) {
      if (!topology.channel(c).is_control) probe.in_pos[c.value()] = pos++;
    }
  }
}

}  // namespace perfbench
