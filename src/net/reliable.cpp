#include "net/reliable.hpp"

#include "common/logging.hpp"

namespace ddbg {

std::uint64_t ReliableSender::stage(Message&& message, std::uint64_t meta,
                                    TimePoint now) {
  const Duration rto = config_.rto_initial;
  return window_
      .emplace_back(next_seq_++, Staged{std::move(message), meta}, now + rto,
                    rto)
      .seq;
}

std::size_t ReliableSender::ack(std::uint64_t cum_ack) {
  const std::size_t first = head_;
  while (head_ < window_.size() && window_[head_].seq <= cum_ack) ++head_;
  const std::size_t retired = head_ - first;
  if (head_ == window_.size()) {
    window_.clear();
    head_ = 0;
  } else if (2 * head_ >= window_.size()) {
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  if (cum_ack > acked_) acked_ = cum_ack;
  return retired;
}

void ReliableSender::due(TimePoint now, std::vector<std::uint64_t>& out) {
  out.clear();
  for (std::size_t i = head_; i < window_.size(); ++i) {
    Entry& entry = window_[i];
    if (entry.next_retry > now) continue;
    out.push_back(entry.seq);
    entry.rto = entry.rto * 2;
    if (entry.rto > config_.rto_max) entry.rto = config_.rto_max;
    entry.next_retry = now + entry.rto;
  }
}

std::size_t ReliableSender::mark_all_due(TimePoint now) {
  for (std::size_t i = head_; i < window_.size(); ++i) {
    window_[i].next_retry = now;
  }
  return unacked();
}

std::optional<TimePoint> ReliableSender::next_deadline() const {
  std::optional<TimePoint> earliest;
  for (std::size_t i = head_; i < window_.size(); ++i) {
    const TimePoint next = window_[i].next_retry;
    if (!earliest.has_value() || next < *earliest) earliest = next;
  }
  return earliest;
}

const ReliableSender::Staged* ReliableSender::peek(std::uint64_t seq) const {
  if (head_ == window_.size()) return nullptr;
  const std::uint64_t first = window_[head_].seq;
  if (seq < first || seq - first >= window_.size() - head_) return nullptr;
  return &window_[head_ + (seq - first)].staged;
}

ReliableReceiver::Accept ReliableReceiver::on_frame(
    std::uint64_t seq, Message message, std::uint64_t meta,
    std::vector<Delivery>& out) {
  if (!wants(seq)) return Accept::kDuplicate;
  if (seq > expected_) {
    held_.emplace(seq, Delivery{seq, std::move(message), meta});
    return Accept::kBuffered;
  }
  out.push_back(Delivery{seq, std::move(message), meta});
  ++expected_;
  // Release the buffered run this frame unblocked.
  auto it = held_.begin();
  while (it != held_.end() && it->first == expected_) {
    out.push_back(std::move(it->second));
    it = held_.erase(it);
    ++expected_;
  }
  return Accept::kDelivered;
}

void RelHeader::encode(ByteWriter& writer) const {
  writer.u8(tag);
  writer.u64(seq);
  writer.u64(cum_ack);
}

Result<RelHeader> RelHeader::decode(ByteReader& reader) {
  RelHeader header;
  auto tag = reader.u8();
  if (!tag.ok()) return tag.error();
  header.tag = tag.value();
  if (header.tag != kData && header.tag != kAck) {
    return Error(ErrorCode::kParseError, "reliable frame: bad tag");
  }
  auto seq = reader.u64();
  if (!seq.ok()) return seq.error();
  header.seq = seq.value();
  auto cum_ack = reader.u64();
  if (!cum_ack.ok()) return cum_ack.error();
  header.cum_ack = cum_ack.value();
  return header;
}

}  // namespace ddbg
