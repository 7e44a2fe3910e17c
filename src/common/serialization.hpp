// Byte-oriented serialization for messages and debugger commands.
//
// The wire format is simple and explicit: little-endian fixed-width
// integers, LEB128 varints for counts, length-prefixed strings.  Every
// payload that crosses a channel in this library is encoded through
// ByteWriter and decoded through ByteReader, which does strict bounds
// checking and reports malformed input through Result rather than UB.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace ddbg {

using Bytes = std::vector<std::uint8_t>;

// Bytes ByteWriter::varint(v) appends: one per started 7-bit group.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

class ByteWriter {
 public:
  ByteWriter() = default;
  // Encode into an existing buffer, appending after its current contents
  // (e.g. a connection's output buffer whose open frame already holds a
  // length-prefix placeholder).
  // The writer must not outlive `external`; take() is owning-mode only.
  explicit ByteWriter(Bytes& external) : out_(&external) {}

  void u8(std::uint8_t v) { buf().push_back(v); }

  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  // Unsigned LEB128.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf().push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf().push_back(static_cast<std::uint8_t>(v));
  }

  void str(std::string_view s) {
    varint(s.size());
    buf().insert(buf().end(), s.begin(), s.end());
  }

  void bytes(std::span<const std::uint8_t> data) {
    varint(data.size());
    raw(data);
  }

  // Already-encoded bytes, appended as they are (no length prefix).
  void raw(std::span<const std::uint8_t> data) {
    buf().insert(buf().end(), data.begin(), data.end());
  }

  [[nodiscard]] Bytes take() && { return std::move(own_); }
  [[nodiscard]] const Bytes& buffer() const {
    return out_ != nullptr ? *out_ : own_;
  }
  // In external mode this includes whatever the buffer held before the
  // writer was attached.
  [[nodiscard]] std::size_t size() const { return buffer().size(); }

 private:
  [[nodiscard]] Bytes& buf() { return out_ != nullptr ? *out_ : own_; }

  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf().push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes own_;
  Bytes* out_ = nullptr;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] Result<std::uint8_t> u8() {
    if (pos_ + 1 > data_.size()) return underflow("u8");
    return data_[pos_++];
  }

  [[nodiscard]] Result<std::uint16_t> u16() { return read_le<std::uint16_t>(); }
  [[nodiscard]] Result<std::uint32_t> u32() { return read_le<std::uint32_t>(); }
  [[nodiscard]] Result<std::uint64_t> u64() { return read_le<std::uint64_t>(); }

  [[nodiscard]] Result<std::int64_t> i64() {
    auto r = u64();
    if (!r.ok()) return r.error();
    return static_cast<std::int64_t>(r.value());
  }

  [[nodiscard]] Result<double> f64() {
    auto r = u64();
    if (!r.ok()) return r.error();
    double v;
    std::uint64_t bits = r.value();
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  [[nodiscard]] Result<std::uint64_t> varint() {
    std::uint64_t result = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= data_.size()) return underflow("varint");
      if (shift >= 64) {
        return Error(ErrorCode::kParseError, "varint too long");
      }
      const std::uint8_t byte = data_[pos_++];
      if (shift == 63 && (byte & 0x7e) != 0) {
        // Tenth byte: only its low bit lands inside a u64.  Shifting the
        // rest away would silently accept a value that doesn't round-trip.
        return Error(ErrorCode::kParseError, "varint overflows 64 bits");
      }
      result |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return result;
      shift += 7;
    }
  }

  [[nodiscard]] Result<std::string> str() {
    auto len = varint();
    if (!len.ok()) return len.error();
    // Compare against remaining(): `pos_ + len` wraps for lengths near
    // UINT64_MAX and would pass the check.
    if (len.value() > remaining()) return underflow("str");
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_),
                    len.value());
    pos_ += len.value();
    return out;
  }

  [[nodiscard]] Result<Bytes> bytes() {
    auto data = view();
    if (!data.ok()) return data.error();
    return Bytes(data.value().begin(), data.value().end());
  }

  // What bytes() reads, as a view into the input: no allocation.
  [[nodiscard]] Result<std::span<const std::uint8_t>> view() {
    auto len = varint();
    if (!len.ok()) return len.error();
    if (len.value() > remaining()) return underflow("bytes");
    const auto out = data_.subspan(pos_, len.value());
    pos_ += len.value();
    return out;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  // Bytes read so far.
  [[nodiscard]] std::size_t position() const { return pos_; }

  // Read an element count and validate it against the remaining buffer
  // (every element occupies at least one byte), so malicious counts cannot
  // drive huge allocations before the per-element reads fail.
  [[nodiscard]] Result<std::uint64_t> count() {
    auto n = varint();
    if (!n.ok()) return n.error();
    if (n.value() > remaining()) {
      return Error(ErrorCode::kParseError, "count exceeds buffer");
    }
    return n;
  }

 private:
  template <typename T>
  Result<T> read_le() {
    if (sizeof(T) > remaining()) return underflow("fixed int");
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  Error underflow(const char* what) const {
    return Error(ErrorCode::kParseError,
                 std::string("buffer underflow reading ") + what);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace ddbg
