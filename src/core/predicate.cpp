#include "core/predicate.hpp"

#include <algorithm>
#include <sstream>

namespace ddbg {

bool compare_values(std::int64_t lhs, CompareOp op, std::int64_t rhs) {
  switch (op) {
    case CompareOp::kNone: return true;
    case CompareOp::kEq: return lhs == rhs;
    case CompareOp::kNe: return lhs != rhs;
    case CompareOp::kLt: return lhs < rhs;
    case CompareOp::kLe: return lhs <= rhs;
    case CompareOp::kGt: return lhs > rhs;
    case CompareOp::kGe: return lhs >= rhs;
  }
  return false;
}

// ---------------------------------------------------------------------------
// SimplePredicate
// ---------------------------------------------------------------------------

bool SimplePredicate::matches(const LocalEvent& event) const {
  if (event.process != process) return false;
  if (event.kind != kind) return false;
  if (!name.empty() && event.name != name) return false;
  if (channel_filter.valid() && event.channel != channel_filter) return false;
  if (op != CompareOp::kNone && !compare_values(event.value, op, value)) {
    return false;
  }
  return true;
}

void SimplePredicate::encode(ByteWriter& writer) const {
  writer.varint(process.value());
  writer.u8(static_cast<std::uint8_t>(kind));
  writer.str(name);
  writer.u8(static_cast<std::uint8_t>(op));
  writer.i64(value);
  writer.u32(channel_filter.valid() ? channel_filter.value()
                                    : ChannelId::kInvalid);
}

Result<SimplePredicate> SimplePredicate::decode(ByteReader& reader) {
  SimplePredicate sp;
  auto process = reader.varint();
  if (!process.ok()) return process.error();
  sp.process = ProcessId(static_cast<std::uint32_t>(process.value()));

  auto kind = reader.u8();
  if (!kind.ok()) return kind.error();
  if (kind.value() > static_cast<std::uint8_t>(LocalEventKind::kChannelDestroyed)) {
    return Error(ErrorCode::kParseError, "bad event kind");
  }
  sp.kind = static_cast<LocalEventKind>(kind.value());

  auto name = reader.str();
  if (!name.ok()) return name.error();
  sp.name = std::move(name).value();

  auto op = reader.u8();
  if (!op.ok()) return op.error();
  if (op.value() > static_cast<std::uint8_t>(CompareOp::kGe)) {
    return Error(ErrorCode::kParseError, "bad compare op");
  }
  sp.op = static_cast<CompareOp>(op.value());

  auto value = reader.i64();
  if (!value.ok()) return value.error();
  sp.value = value.value();

  auto channel = reader.u32();
  if (!channel.ok()) return channel.error();
  sp.channel_filter = ChannelId(channel.value());
  return sp;
}

std::string SimplePredicate::describe() const {
  std::ostringstream out;
  out << to_string(process) << ':';
  switch (kind) {
    case LocalEventKind::kUserEvent:
      out << "event(" << name << ")";
      break;
    case LocalEventKind::kProcedureEntered:
      out << "enter(" << name << ")";
      break;
    case LocalEventKind::kStateChange:
      out << name;
      break;
    case LocalEventKind::kMessageSent:
      out << "sent";
      if (channel_filter.valid()) out << '(' << channel_filter.value() << ')';
      break;
    case LocalEventKind::kMessageReceived:
      out << "recv";
      if (channel_filter.valid()) out << '(' << channel_filter.value() << ')';
      break;
    case LocalEventKind::kProcessStarted:
      out << "started";
      break;
    case LocalEventKind::kProcessTerminated:
      out << "terminated";
      break;
    case LocalEventKind::kChannelCreated:
      out << "channel_created";
      break;
    case LocalEventKind::kChannelDestroyed:
      out << "channel_destroyed";
      break;
  }
  if (op != CompareOp::kNone) out << to_string(op) << value;
  return out.str();
}

SimplePredicate SimplePredicate::user_event(ProcessId p, std::string name) {
  SimplePredicate sp;
  sp.process = p;
  sp.kind = LocalEventKind::kUserEvent;
  sp.name = std::move(name);
  return sp;
}

SimplePredicate SimplePredicate::procedure_entered(ProcessId p,
                                                   std::string name) {
  SimplePredicate sp;
  sp.process = p;
  sp.kind = LocalEventKind::kProcedureEntered;
  sp.name = std::move(name);
  return sp;
}

SimplePredicate SimplePredicate::var_compare(ProcessId p, std::string name,
                                             CompareOp op,
                                             std::int64_t value) {
  SimplePredicate sp;
  sp.process = p;
  sp.kind = LocalEventKind::kStateChange;
  sp.name = std::move(name);
  sp.op = op;
  sp.value = value;
  return sp;
}

SimplePredicate SimplePredicate::message_sent(ProcessId p) {
  SimplePredicate sp;
  sp.process = p;
  sp.kind = LocalEventKind::kMessageSent;
  return sp;
}

SimplePredicate SimplePredicate::message_received(ProcessId p) {
  SimplePredicate sp;
  sp.process = p;
  sp.kind = LocalEventKind::kMessageReceived;
  return sp;
}

SimplePredicate SimplePredicate::process_terminated(ProcessId p) {
  SimplePredicate sp;
  sp.process = p;
  sp.kind = LocalEventKind::kProcessTerminated;
  return sp;
}

// ---------------------------------------------------------------------------
// DisjunctivePredicate
// ---------------------------------------------------------------------------

bool DisjunctivePredicate::matches(const LocalEvent& event) const {
  return std::any_of(alternatives.begin(), alternatives.end(),
                     [&](const SimplePredicate& sp) {
                       return sp.matches(event);
                     });
}

std::vector<ProcessId> DisjunctivePredicate::involved_processes() const {
  std::vector<ProcessId> processes;
  for (const SimplePredicate& sp : alternatives) {
    if (std::find(processes.begin(), processes.end(), sp.process) ==
        processes.end()) {
      processes.push_back(sp.process);
    }
  }
  return processes;
}

bool DisjunctivePredicate::involves(ProcessId p) const {
  return std::any_of(alternatives.begin(), alternatives.end(),
                     [&](const SimplePredicate& sp) {
                       return sp.process == p;
                     });
}

void DisjunctivePredicate::encode(ByteWriter& writer) const {
  writer.varint(alternatives.size());
  for (const SimplePredicate& sp : alternatives) sp.encode(writer);
}

Result<DisjunctivePredicate> DisjunctivePredicate::decode(ByteReader& reader) {
  auto n = reader.count();
  if (!n.ok()) return n.error();
  DisjunctivePredicate dp;
  dp.alternatives.reserve(n.value());
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    auto sp = SimplePredicate::decode(reader);
    if (!sp.ok()) return sp.error();
    dp.alternatives.push_back(std::move(sp).value());
  }
  return dp;
}

std::string DisjunctivePredicate::describe() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < alternatives.size(); ++i) {
    if (i != 0) out << " | ";
    out << alternatives[i].describe();
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// LinkedPredicate
// ---------------------------------------------------------------------------

LinkedPredicate LinkedPredicate::expanded() const {
  LinkedPredicate out;
  for (const Stage& stage : stages) {
    DDBG_ASSERT(stage.repeat >= 1, "stage repeat must be >= 1");
    for (std::uint32_t i = 0; i < stage.repeat; ++i) {
      out.stages.push_back(Stage{stage.dp, 1});
    }
  }
  return out;
}

LinkedPredicate LinkedPredicate::rest() const {
  DDBG_ASSERT(!stages.empty(), "rest() on empty LinkedPredicate");
  DDBG_ASSERT(stages.front().repeat == 1, "rest() requires an expanded LP");
  LinkedPredicate out;
  out.stages.assign(stages.begin() + 1, stages.end());
  return out;
}

const DisjunctivePredicate& LinkedPredicate::first() const {
  DDBG_ASSERT(!stages.empty(), "first() on empty LinkedPredicate");
  return stages.front().dp;
}

std::size_t LinkedPredicate::depth() const {
  std::size_t total = 0;
  for (const Stage& stage : stages) total += stage.repeat;
  return total;
}

void LinkedPredicate::encode(ByteWriter& writer) const {
  writer.varint(stages.size());
  for (const Stage& stage : stages) {
    stage.dp.encode(writer);
    writer.varint(stage.repeat);
  }
}

Result<LinkedPredicate> LinkedPredicate::decode(ByteReader& reader) {
  auto n = reader.count();
  if (!n.ok()) return n.error();
  LinkedPredicate lp;
  lp.stages.reserve(n.value());
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    auto dp = DisjunctivePredicate::decode(reader);
    if (!dp.ok()) return dp.error();
    auto repeat = reader.varint();
    if (!repeat.ok()) return repeat.error();
    if (repeat.value() == 0 || repeat.value() > UINT32_MAX) {
      return Error(ErrorCode::kParseError,
                   "stage repeat must be in [1, 2^32 - 1]");
    }
    lp.stages.push_back(Stage{std::move(dp).value(),
                              static_cast<std::uint32_t>(repeat.value())});
  }
  return lp;
}

Bytes LinkedPredicate::encode_to_bytes() const {
  ByteWriter writer;
  encode(writer);
  return std::move(writer).take();
}

Result<LinkedPredicate> LinkedPredicate::decode_from_bytes(
    std::span<const std::uint8_t> data) {
  ByteReader reader(data);
  auto lp = decode(reader);
  if (!lp.ok()) return lp.error();
  if (!reader.exhausted()) {
    return Error(ErrorCode::kParseError, "trailing bytes after LP");
  }
  return lp;
}

std::string LinkedPredicate::describe() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i != 0) out << " -> ";
    const bool needs_parens =
        stages[i].repeat > 1 || stages[i].dp.alternatives.size() > 1;
    if (needs_parens) out << '(';
    out << stages[i].dp.describe();
    if (needs_parens) out << ')';
    if (stages[i].repeat > 1) out << '^' << stages[i].repeat;
  }
  return out.str();
}

LinkedPredicate LinkedPredicate::single(DisjunctivePredicate dp) {
  LinkedPredicate lp;
  lp.stages.push_back(Stage{std::move(dp), 1});
  return lp;
}

LinkedPredicate LinkedPredicate::chain(std::vector<DisjunctivePredicate> dps) {
  LinkedPredicate lp;
  lp.stages.reserve(dps.size());
  for (auto& dp : dps) lp.stages.push_back(Stage{std::move(dp), 1});
  return lp;
}

// ---------------------------------------------------------------------------
// ConjunctivePredicate
// ---------------------------------------------------------------------------

std::vector<ProcessId> ConjunctivePredicate::involved_processes() const {
  std::vector<ProcessId> processes;
  for (const SimplePredicate& sp : terms) {
    if (std::find(processes.begin(), processes.end(), sp.process) ==
        processes.end()) {
      processes.push_back(sp.process);
    }
  }
  return processes;
}

Result<std::vector<LinkedPredicate>> ConjunctivePredicate::compile_ordered()
    const {
  if (terms.empty()) {
    return Error(ErrorCode::kInvalidArgument, "empty conjunction");
  }
  if (terms.size() > kMaxOrderedTerms) {
    return Error(ErrorCode::kInvalidArgument,
                 "too many conjunction terms for ordered compilation");
  }
  std::vector<std::size_t> order(terms.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<LinkedPredicate> out;
  do {
    LinkedPredicate lp;
    for (const std::size_t index : order) {
      DisjunctivePredicate dp;
      dp.alternatives.push_back(terms[index]);
      lp.stages.push_back(LinkedPredicate::Stage{std::move(dp), 1});
    }
    out.push_back(std::move(lp));
  } while (std::next_permutation(order.begin(), order.end()));
  return out;
}

void ConjunctivePredicate::encode(ByteWriter& writer) const {
  writer.varint(terms.size());
  for (const SimplePredicate& sp : terms) sp.encode(writer);
}

Result<ConjunctivePredicate> ConjunctivePredicate::decode(ByteReader& reader) {
  auto n = reader.count();
  if (!n.ok()) return n.error();
  ConjunctivePredicate cp;
  cp.terms.reserve(n.value());
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    auto sp = SimplePredicate::decode(reader);
    if (!sp.ok()) return sp.error();
    cp.terms.push_back(std::move(sp).value());
  }
  return cp;
}

std::string ConjunctivePredicate::describe() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (i != 0) out << " & ";
    out << terms[i].describe();
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// BreakpointSpec
// ---------------------------------------------------------------------------

void BreakpointSpec::encode(ByteWriter& writer) const {
  writer.u8(static_cast<std::uint8_t>(kind));
  if (kind == Kind::kLinked) {
    linked.encode(writer);
  } else {
    conjunctive.encode(writer);
    writer.u8(static_cast<std::uint8_t>(mode));
  }
  writer.u8(static_cast<std::uint8_t>(action));
}

Result<BreakpointSpec> BreakpointSpec::decode(ByteReader& reader) {
  auto kind = reader.u8();
  if (!kind.ok()) return kind.error();
  BreakpointSpec spec;
  if (kind.value() == static_cast<std::uint8_t>(Kind::kLinked)) {
    spec.kind = Kind::kLinked;
    auto lp = LinkedPredicate::decode(reader);
    if (!lp.ok()) return lp.error();
    spec.linked = std::move(lp).value();
  } else if (kind.value() == static_cast<std::uint8_t>(Kind::kConjunctive)) {
    spec.kind = Kind::kConjunctive;
    auto cp = ConjunctivePredicate::decode(reader);
    if (!cp.ok()) return cp.error();
    spec.conjunctive = std::move(cp).value();
    auto mode = reader.u8();
    if (!mode.ok()) return mode.error();
    if (mode.value() > static_cast<std::uint8_t>(ConjunctionMode::kUnordered)) {
      return Error(ErrorCode::kParseError, "bad conjunction mode");
    }
    spec.mode = static_cast<ConjunctionMode>(mode.value());
  } else {
    return Error(ErrorCode::kParseError, "bad breakpoint kind");
  }
  auto action = reader.u8();
  if (!action.ok()) return action.error();
  if (action.value() > static_cast<std::uint8_t>(BreakpointAction::kMonitor)) {
    return Error(ErrorCode::kParseError, "bad breakpoint action");
  }
  spec.action = static_cast<BreakpointAction>(action.value());
  return spec;
}

std::string BreakpointSpec::describe() const {
  std::string out;
  if (kind == Kind::kLinked) {
    out = linked.describe();
  } else {
    out = conjunctive.describe();
    out += mode == ConjunctionMode::kOrdered ? " [ordered]" : " [unordered]";
  }
  if (action == BreakpointAction::kMonitor) out += " [monitor]";
  return out;
}

}  // namespace ddbg
