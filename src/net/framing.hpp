// Length-prefixed framing for byte-stream transports.
//
// The wire format is a 4-byte little-endian body length followed by the
// encoded message.  Senders build frames in place (begin_frame reserves
// the prefix, end_frame patches it once the body is encoded after it), so
// frames are encoded straight into a connection's output buffer, back to
// back, with no body->frame copy.
//
// Receivers feed raw socket bytes into a FrameParser, which yields one
// complete frame body at a time.  A frame length above the sanity cap
// marks the stream corrupt and stops parsing: a flipped length byte near
// UINT32_MAX must not silently grow the receive buffer toward 4 GiB while
// the channel wedges — the caller drops the connection instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>

#include "common/serialization.hpp"

namespace ddbg {

inline constexpr std::size_t kFrameHeaderSize = 4;
// Largest frame body a receiver accepts.  Generous for debugger traffic
// (snapshots included) while catching corrupt lengths early.
inline constexpr std::uint32_t kMaxFrameLen = 64u * 1024 * 1024;

// Append a frame-header placeholder to `out`; returns its offset for
// end_frame.  The body is whatever the caller appends afterwards.
inline std::size_t begin_frame(Bytes& out) {
  const std::size_t header_at = out.size();
  out.resize(header_at + kFrameHeaderSize);
  return header_at;
}

// Patch the placeholder with the length of the body appended since
// begin_frame.
inline void end_frame(Bytes& out, std::size_t header_at) {
  const auto body_len =
      static_cast<std::uint32_t>(out.size() - header_at - kFrameHeaderSize);
  std::memcpy(out.data() + header_at, &body_len, sizeof(body_len));
}

// Incremental frame reassembly over an append-only byte stream.  Consumed
// bytes are compacted away lazily (only when the parser runs dry), so a
// burst of frames in one recv is parsed without shifting the buffer once
// per frame.
class FrameParser {
 public:
  explicit FrameParser(std::uint32_t max_frame_len = kMaxFrameLen)
      : max_frame_len_(max_frame_len) {}

  void append(std::span<const std::uint8_t> data) {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
  }

  // The next complete frame body, or nullopt when more bytes are needed or
  // the stream is corrupt.  The span points into the parser's buffer and is
  // invalidated by the next append() or next() call.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> next() {
    if (corrupt_) return std::nullopt;
    if (buffer_.size() - offset_ < kFrameHeaderSize) {
      compact();
      return std::nullopt;
    }
    std::uint32_t body_len = 0;
    std::memcpy(&body_len, buffer_.data() + offset_, sizeof(body_len));
    if (body_len > max_frame_len_) {
      corrupt_ = true;
      rejected_frame_len_ = body_len;
      return std::nullopt;
    }
    if (buffer_.size() - offset_ - kFrameHeaderSize < body_len) {
      compact();
      return std::nullopt;
    }
    const std::span<const std::uint8_t> body(
        buffer_.data() + offset_ + kFrameHeaderSize, body_len);
    offset_ += kFrameHeaderSize + body_len;
    return body;
  }

  // Corrupt streams stay corrupt: the transport must drop the connection.
  [[nodiscard]] bool corrupt() const { return corrupt_; }
  [[nodiscard]] std::uint32_t rejected_frame_len() const {
    return rejected_frame_len_;
  }
  [[nodiscard]] std::size_t buffered_bytes() const {
    return buffer_.size() - offset_;
  }

 private:
  void compact() {
    if (offset_ == 0) return;
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
    offset_ = 0;
  }

  std::uint32_t max_frame_len_;
  Bytes buffer_;
  std::size_t offset_ = 0;
  bool corrupt_ = false;
  std::uint32_t rejected_frame_len_ = 0;
};

}  // namespace ddbg
