// Breakpoint predicates (section 3 of the paper).
//
//   Simple Predicate (SP)       — one process's behaviour or state
//   Disjunctive Predicate (DP)  — SP [∨ SP]…, satisfied when any SP is
//   Linked Predicate (LP)       — DP [→ DP]…, a happened-before chain;
//                                 DPi → DPj means the regular expression
//                                 DPi [Σ−DPj] DPj (section 3.4)
//   Conjunctive Predicate (CP)  — SP [∧ SP]…, with the ordered-SCP
//                                 interpretation compiled to LPs and the
//                                 unordered interpretation gathered at the
//                                 debugger (section 3.5)
//
// The (SP)^i repetition shorthand of section 3.5 is represented as a stage
// repeat count and expanded into consecutive stages.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/serialization.hpp"
#include "core/event.hpp"

namespace ddbg {

enum class CompareOp : std::uint8_t {
  kNone = 0,  // no value comparison; any occurrence matches
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

[[nodiscard]] constexpr const char* to_string(CompareOp op) {
  switch (op) {
    case CompareOp::kNone: return "";
    case CompareOp::kEq: return "==";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

[[nodiscard]] bool compare_values(std::int64_t lhs, CompareOp op,
                                  std::int64_t rhs);

// A predicate local to one process.
struct SimplePredicate {
  ProcessId process;
  LocalEventKind kind = LocalEventKind::kUserEvent;
  // Name filter for user events / procedures / variables; empty matches any.
  std::string name;
  // Optional value comparison (variables: new value; user events: value).
  CompareOp op = CompareOp::kNone;
  std::int64_t value = 0;
  // Optional channel filter for message events.
  ChannelId channel_filter;

  // Does this SP match a local event on its process?
  [[nodiscard]] bool matches(const LocalEvent& event) const;

  void encode(ByteWriter& writer) const;
  [[nodiscard]] static Result<SimplePredicate> decode(ByteReader& reader);
  [[nodiscard]] std::string describe() const;

  // ---- convenience constructors ----
  [[nodiscard]] static SimplePredicate user_event(ProcessId p,
                                                  std::string name);
  [[nodiscard]] static SimplePredicate procedure_entered(ProcessId p,
                                                         std::string name);
  [[nodiscard]] static SimplePredicate var_compare(ProcessId p,
                                                   std::string name,
                                                   CompareOp op,
                                                   std::int64_t value);
  [[nodiscard]] static SimplePredicate message_sent(ProcessId p);
  [[nodiscard]] static SimplePredicate message_received(ProcessId p);
  [[nodiscard]] static SimplePredicate process_terminated(ProcessId p);
};

// SP [∨ SP]…
struct DisjunctivePredicate {
  std::vector<SimplePredicate> alternatives;

  [[nodiscard]] bool matches(const LocalEvent& event) const;
  // Distinct processes that must watch for this DP.
  [[nodiscard]] std::vector<ProcessId> involved_processes() const;
  // The SPs local to one process (the shim arms only those).
  [[nodiscard]] bool involves(ProcessId p) const;

  void encode(ByteWriter& writer) const;
  [[nodiscard]] static Result<DisjunctivePredicate> decode(ByteReader& reader);
  [[nodiscard]] std::string describe() const;
};

// DP [→ DP]… with per-stage repeat counts.
struct LinkedPredicate {
  struct Stage {
    DisjunctivePredicate dp;
    std::uint32_t repeat = 1;  // (DP)^repeat shorthand
  };

  std::vector<Stage> stages;

  // Most stages an LP may expand to.  The debugger ships LPs expanded, and
  // every forwarded predicate marker carries the whole remainder, so this
  // bounds arm-command and marker sizes and the debugger's memory.  The
  // parser and DebuggerProcess::set_breakpoint enforce it.
  static constexpr std::size_t kMaxDepth = 256;

  [[nodiscard]] bool empty() const { return stages.empty(); }
  // Expand repeat counts into consecutive repeat-1 stages.
  [[nodiscard]] LinkedPredicate expanded() const;
  // The LP with the first stage removed (the "newLP" of section 3.6).
  // Must be called on an expanded LP.
  [[nodiscard]] LinkedPredicate rest() const;
  [[nodiscard]] const DisjunctivePredicate& first() const;
  // Total number of stages after expansion.
  [[nodiscard]] std::size_t depth() const;

  void encode(ByteWriter& writer) const;
  [[nodiscard]] static Result<LinkedPredicate> decode(ByteReader& reader);
  [[nodiscard]] Bytes encode_to_bytes() const;
  [[nodiscard]] static Result<LinkedPredicate> decode_from_bytes(
      std::span<const std::uint8_t> data);
  [[nodiscard]] std::string describe() const;

  [[nodiscard]] static LinkedPredicate single(DisjunctivePredicate dp);
  [[nodiscard]] static LinkedPredicate chain(
      std::vector<DisjunctivePredicate> dps);
};

// SP [∧ SP]…
struct ConjunctivePredicate {
  std::vector<SimplePredicate> terms;

  [[nodiscard]] std::vector<ProcessId> involved_processes() const;

  // Ordered-SCP interpretation (section 3.5): one LP per permutation of the
  // terms; the breakpoint fires when any permutation's chain completes.
  // Fails for more than `kMaxOrderedTerms` terms (factorial blow-up).
  static constexpr std::size_t kMaxOrderedTerms = 5;
  [[nodiscard]] Result<std::vector<LinkedPredicate>> compile_ordered() const;

  void encode(ByteWriter& writer) const;
  [[nodiscard]] static Result<ConjunctivePredicate> decode(ByteReader& reader);
  [[nodiscard]] std::string describe() const;
};

// How a conjunctive breakpoint should be interpreted (section 3.5).
enum class ConjunctionMode : std::uint8_t {
  kOrdered = 0,    // detectable: compiled to Linked Predicates
  kUnordered = 1,  // best-effort gather at the debugger (provably late)
};

// What satisfaction of a breakpoint does.  kHalt is the paper's breakpoint
// proper; kMonitor turns the same detection machinery into the EDL-style
// abstract-event recognizer of section 4 (Bates & Wileden): the debugger
// records the occurrence and re-arms the chain instead of halting.
enum class BreakpointAction : std::uint8_t {
  kHalt = 0,
  kMonitor = 1,
};

// A complete breakpoint specification as registered with the debugger.
struct BreakpointSpec {
  enum class Kind : std::uint8_t {
    kLinked = 0,       // covers SP and DP as single-stage LPs
    kConjunctive = 1,
  };

  Kind kind = Kind::kLinked;
  LinkedPredicate linked;
  ConjunctivePredicate conjunctive;
  ConjunctionMode mode = ConjunctionMode::kOrdered;
  BreakpointAction action = BreakpointAction::kHalt;

  void encode(ByteWriter& writer) const;
  [[nodiscard]] static Result<BreakpointSpec> decode(ByteReader& reader);
  [[nodiscard]] std::string describe() const;
};

}  // namespace ddbg
