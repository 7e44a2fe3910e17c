// Vector clocks and the happened-before partial order.
//
// The paper's distributed breakpoints are defined over events "that can be
// partially ordered" (section 3).  Vector clocks characterize that order
// exactly: VC(a) < VC(b) iff a happened-before b.  The debug shim
// piggybacks a vector clock on every application message (this is debug
// instrumentation, not part of the halting algorithm), which lets the
// analysis layer verify that halted cuts are consistent and classify
// conjunctive-predicate time pairs into ordered-SCP / unordered-SCP
// (section 3.5, figure 4).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/serialization.hpp"

namespace ddbg {

enum class CausalOrder {
  kBefore,      // a happened-before b
  kAfter,       // b happened-before a
  kEqual,       // identical clocks
  kConcurrent,  // no ordering (the paper's "unordered")
};

[[nodiscard]] constexpr const char* to_string(CausalOrder order) {
  switch (order) {
    case CausalOrder::kBefore: return "before";
    case CausalOrder::kAfter: return "after";
    case CausalOrder::kEqual: return "equal";
    case CausalOrder::kConcurrent: return "concurrent";
  }
  return "?";
}

class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(std::size_t num_processes)
      : counts_(num_processes, 0) {}

  [[nodiscard]] std::size_t size() const { return counts_.size(); }
  [[nodiscard]] bool empty() const { return counts_.empty(); }

  [[nodiscard]] std::uint64_t at(ProcessId p) const {
    return p.value() < counts_.size() ? counts_[p.value()] : 0;
  }

  // Tick the local component for an event at process `self`.
  void tick(ProcessId self) {
    ensure_size(self.value() + 1);
    ++counts_[self.value()];
  }

  // Component-wise max merge (receive rule), without the local tick.
  void merge(const VectorClock& other) {
    ensure_size(other.counts_.size());
    for (std::size_t i = 0; i < other.counts_.size(); ++i) {
      if (other.counts_[i] > counts_[i]) counts_[i] = other.counts_[i];
    }
  }

  // The full receive rule: merge then tick.
  void on_receive(ProcessId self, const VectorClock& message_clock) {
    merge(message_clock);
    tick(self);
  }

  [[nodiscard]] CausalOrder compare(const VectorClock& other) const;

  // True iff this clock happened-before (strictly) `other`.
  [[nodiscard]] bool before(const VectorClock& other) const {
    return compare(other) == CausalOrder::kBefore;
  }
  [[nodiscard]] bool concurrent_with(const VectorClock& other) const {
    return compare(other) == CausalOrder::kConcurrent;
  }

  friend bool operator==(const VectorClock& a, const VectorClock& b) {
    return a.compare(b) == CausalOrder::kEqual;
  }

  void encode(ByteWriter& writer) const;
  [[nodiscard]] static Result<VectorClock> decode(ByteReader& reader);
  // Bytes encode() appends, computed without encoding.
  [[nodiscard]] std::size_t encoded_size() const;

  [[nodiscard]] std::string to_string() const;

 private:
  void ensure_size(std::size_t n) {
    if (counts_.size() < n) counts_.resize(n, 0);
  }

  std::vector<std::uint64_t> counts_;
};

}  // namespace ddbg
