// Unit tests for the breakpoint text-language parser.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/predicate_parser.hpp"

namespace ddbg {
namespace {

TEST(Parser, SimpleUserEvent) {
  auto spec = parse_breakpoint("p0:event(token)");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().kind, BreakpointSpec::Kind::kLinked);
  ASSERT_EQ(spec.value().linked.stages.size(), 1u);
  const auto& sp = spec.value().linked.first().alternatives.at(0);
  EXPECT_EQ(sp.process, ProcessId(0));
  EXPECT_EQ(sp.kind, LocalEventKind::kUserEvent);
  EXPECT_EQ(sp.name, "token");
}

TEST(Parser, ProcedureEntry) {
  auto spec = parse_breakpoint("p3:enter(handle_request)");
  ASSERT_TRUE(spec.ok());
  const auto& sp = spec.value().linked.first().alternatives.at(0);
  EXPECT_EQ(sp.process, ProcessId(3));
  EXPECT_EQ(sp.kind, LocalEventKind::kProcedureEntered);
  EXPECT_EQ(sp.name, "handle_request");
}

TEST(Parser, BuiltinEventKinds) {
  const struct {
    const char* text;
    LocalEventKind kind;
  } cases[] = {
      {"p0:sent", LocalEventKind::kMessageSent},
      {"p0:recv", LocalEventKind::kMessageReceived},
      {"p0:started", LocalEventKind::kProcessStarted},
      {"p0:terminated", LocalEventKind::kProcessTerminated},
  };
  for (const auto& c : cases) {
    auto spec = parse_breakpoint(c.text);
    ASSERT_TRUE(spec.ok()) << c.text;
    EXPECT_EQ(spec.value().linked.first().alternatives.at(0).kind, c.kind)
        << c.text;
  }
}

TEST(Parser, VarComparisons) {
  auto spec = parse_breakpoint("p1:balance<=42");
  ASSERT_TRUE(spec.ok());
  const auto& sp = spec.value().linked.first().alternatives.at(0);
  EXPECT_EQ(sp.kind, LocalEventKind::kStateChange);
  EXPECT_EQ(sp.name, "balance");
  EXPECT_EQ(sp.op, CompareOp::kLe);
  EXPECT_EQ(sp.value, 42);
}

TEST(Parser, AllComparisonOps) {
  const struct {
    const char* text;
    CompareOp op;
  } cases[] = {
      {"p0:x==1", CompareOp::kEq}, {"p0:x!=1", CompareOp::kNe},
      {"p0:x<1", CompareOp::kLt},  {"p0:x<=1", CompareOp::kLe},
      {"p0:x>1", CompareOp::kGt},  {"p0:x>=1", CompareOp::kGe},
  };
  for (const auto& c : cases) {
    auto spec = parse_breakpoint(c.text);
    ASSERT_TRUE(spec.ok()) << c.text;
    EXPECT_EQ(spec.value().linked.first().alternatives.at(0).op, c.op)
        << c.text;
  }
}

TEST(Parser, Disjunction) {
  auto spec = parse_breakpoint("p0:event(a) | p1:event(b) | p2:recv");
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec.value().linked.stages.size(), 1u);
  EXPECT_EQ(spec.value().linked.first().alternatives.size(), 3u);
}

TEST(Parser, LinkedChain) {
  auto spec = parse_breakpoint("p0:event(a) -> p1:event(b) -> p2:event(c)");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().linked.stages.size(), 3u);
  EXPECT_EQ(spec.value().linked.depth(), 3u);
}

TEST(Parser, RepetitionWithParens) {
  auto spec = parse_breakpoint("p0:event(a) -> (p1:event(b))^3");
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec.value().linked.stages.size(), 2u);
  EXPECT_EQ(spec.value().linked.stages[1].repeat, 3u);
  EXPECT_EQ(spec.value().linked.depth(), 4u);
}

TEST(Parser, GroupedDisjunctionWithRepetition) {
  auto spec = parse_breakpoint("(p0:event(a) | p1:event(b))^2 -> p2:recv");
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec.value().linked.stages.size(), 2u);
  EXPECT_EQ(spec.value().linked.stages[0].repeat, 2u);
  EXPECT_EQ(spec.value().linked.stages[0].dp.alternatives.size(), 2u);
}

TEST(Parser, ConjunctionDefaultsOrdered) {
  auto spec = parse_breakpoint("p0:x==7 & p1:y==9");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().kind, BreakpointSpec::Kind::kConjunctive);
  EXPECT_EQ(spec.value().mode, ConjunctionMode::kOrdered);
  EXPECT_EQ(spec.value().conjunctive.terms.size(), 2u);
}

TEST(Parser, ConjunctionUnorderedMode) {
  auto spec = parse_breakpoint("p0:x==7 & p1:y==9 [unordered]");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().mode, ConjunctionMode::kUnordered);
}

TEST(Parser, ConjunctionExplicitOrderedMode) {
  auto spec = parse_breakpoint("p0:x==7 & p1:y==9 [ordered]");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().mode, ConjunctionMode::kOrdered);
}

TEST(Parser, MonitorModifierOnLinked) {
  auto spec = parse_breakpoint("p0:event(a) -> p1:event(b) [monitor]");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().action, BreakpointAction::kMonitor);
  EXPECT_EQ(spec.value().kind, BreakpointSpec::Kind::kLinked);
}

TEST(Parser, MonitorModifierOnConjunction) {
  auto spec = parse_breakpoint("p0:x==1 & p1:y==2 [unordered] [monitor]");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().mode, ConjunctionMode::kUnordered);
  EXPECT_EQ(spec.value().action, BreakpointAction::kMonitor);
}

TEST(Parser, HaltModifierIsDefaultAndExplicit) {
  auto implicit = parse_breakpoint("p0:event(a)");
  ASSERT_TRUE(implicit.ok());
  EXPECT_EQ(implicit.value().action, BreakpointAction::kHalt);
  auto explicit_halt = parse_breakpoint("p0:event(a) [halt]");
  ASSERT_TRUE(explicit_halt.ok());
  EXPECT_EQ(explicit_halt.value().action, BreakpointAction::kHalt);
}

TEST(Parser, OrderedModifierRejectedOnLinked) {
  EXPECT_FALSE(parse_breakpoint("p0:event(a) [ordered]").ok());
  EXPECT_FALSE(parse_breakpoint("p0:event(a) -> p1:recv [unordered]").ok());
}

TEST(Parser, VariableNamedLikeKeyword) {
  // "sent" followed by a comparison is a watched variable, not the
  // message-sent event.
  auto spec = parse_breakpoint("p0:sent>=5");
  ASSERT_TRUE(spec.ok());
  const auto& sp = spec.value().linked.first().alternatives.at(0);
  EXPECT_EQ(sp.kind, LocalEventKind::kStateChange);
  EXPECT_EQ(sp.name, "sent");
  EXPECT_EQ(sp.op, CompareOp::kGe);
}

TEST(Parser, ChannelFilterOnMessageEvents) {
  auto sent = parse_breakpoint("p0:sent(3)");
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(sent.value().linked.first().alternatives.at(0).channel_filter,
            ChannelId(3));
  auto recv = parse_breakpoint("p1:recv(0)");
  ASSERT_TRUE(recv.ok());
  EXPECT_EQ(recv.value().linked.first().alternatives.at(0).channel_filter,
            ChannelId(0));
  // Round trip through describe.
  EXPECT_EQ(parse_breakpoint(sent.value().describe()).value().describe(),
            sent.value().describe());
  // Malformed filters.
  EXPECT_FALSE(parse_breakpoint("p0:sent(").ok());
  EXPECT_FALSE(parse_breakpoint("p0:sent(x)").ok());
}

TEST(Parser, NegativeComparisonValue) {
  auto spec = parse_breakpoint("p1:balance<-10");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().linked.first().alternatives.at(0).value, -10);
}

TEST(Parser, WhitespaceInsensitive) {
  auto spec = parse_breakpoint("  p0:event(a)->p1:event(b)  ");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().linked.stages.size(), 2u);
}

TEST(Parser, DescribeRoundTrip) {
  // parse(describe(parse(x))) == parse(x) for a representative sample.
  const char* samples[] = {
      "p0:event(token)",
      "p0:event(a) | p1:event(b)",
      "p0:event(a) -> (p1:event(b))^2 -> p2:recv",
      "p1:balance<0",
  };
  for (const char* text : samples) {
    auto first = parse_breakpoint(text);
    ASSERT_TRUE(first.ok()) << text;
    auto second = parse_breakpoint(first.value().describe());
    ASSERT_TRUE(second.ok()) << first.value().describe();
    EXPECT_EQ(first.value().describe(), second.value().describe());
  }
}

TEST(Parser, Errors) {
  const char* bad[] = {
      "",                      // empty
      "p0",                    // missing predicate
      "p0:",                   // missing predicate body
      "q0:event(a)",           // bad process name
      "p:event(a)",            // missing process number
      "p0:event(",             // unterminated
      "p0:event(a) ->",        // dangling arrow
      "p0:x=7",                // single '=' is not an operator
      "p0:x==",                // missing value
      "p0:event(a) | ",        // dangling pipe
      "p0:event(a) & ",        // dangling amp
      "p0:x==1 & p1:y==2 [sideways]",  // unknown mode
      "(p0:event(a))^0",       // zero repetition
      "p0:event(a) extra",     // trailing tokens
      "p0:event(a) @ p1:recv", // bad character
  };
  for (const char* text : bad) {
    auto spec = parse_breakpoint(text);
    EXPECT_FALSE(spec.ok()) << "should not parse: '" << text << "'";
    if (!spec.ok()) {
      EXPECT_EQ(spec.error().code(), ErrorCode::kParseError) << text;
    }
  }
}

TEST(Parser, MalformedBoundaryCorpus) {
  // Inputs at the edges of the grammar: empty, truncated constructs, and
  // integer literals near/past the representable ranges.  Every one must
  // come back as a clean parse error — never wrap, never UB.
  const char* bad[] = {
      "",                                   // empty input
      "p0:event(",                          // unterminated event(
      "-> p0:recv",                         // stray leading arrow
      "p0:recv ->",                         // stray trailing arrow
      "p0:x==9223372036854775808",          // INT64_MAX + 1
      "p0:x==99999999999999999999999999",   // way past 2^63
      "p0:x<-9223372036854775809",          // below INT64_MIN
      "(p0:recv)^9223372036854775808",      // overflowing repetition count
      "(p0:recv)^0",                        // zero repetition
      "(p0:recv)^1000000 -> (p1:recv)^1000000",  // 2M stages once expanded
      "(p0:recv)^200 -> (p1:recv)^57",      // kMaxDepth + 1 stages in total
      "p4294967296:recv",                   // process id past 2^32 - 1
      "p99999999999999999999:recv",         // process id past 2^64
      "p0:sent(4294967296)",                // channel id past 2^32 - 1
  };
  for (const char* text : bad) {
    auto spec = parse_breakpoint(text);
    ASSERT_FALSE(spec.ok()) << "should not parse: '" << text << "'";
    EXPECT_EQ(spec.error().code(), ErrorCode::kParseError) << text;
  }
}

TEST(Parser, IntegerBoundaryValuesStillAccepted) {
  // The exact extremes of the representable range must keep parsing.
  auto max = parse_breakpoint("p0:x==9223372036854775807");  // INT64_MAX
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max.value().linked.first().alternatives.at(0).value,
            std::numeric_limits<std::int64_t>::max());
  auto near_min = parse_breakpoint("p0:x==-9223372036854775807");
  ASSERT_TRUE(near_min.ok());
  EXPECT_EQ(near_min.value().linked.first().alternatives.at(0).value,
            -std::numeric_limits<std::int64_t>::max());
  auto big_proc = parse_breakpoint("p4294967295:recv");
  ASSERT_TRUE(big_proc.ok());
  // An LP expanding to exactly kMaxDepth stages.
  auto deepest = parse_breakpoint("(p0:recv)^200 -> (p1:recv)^56");
  ASSERT_TRUE(deepest.ok());
  EXPECT_EQ(deepest.value().linked.depth(), LinkedPredicate::kMaxDepth);
}

TEST(Parser, ErrorsCarryColumnPositions) {
  // Frontends print "syntax error at column k" pointing at the offending
  // character; 1-based columns.
  const struct {
    const char* text;
    const char* expect;  // substring of the error message
  } cases[] = {
      {"", "column 1"},
      {"p0:event(a) @ p1:recv", "column 13"},
      {"p0:x==99999999999999999999", "column 7"},
      {"p0:event(a) ->", "column 15"},
      {"q0:event(a)", "column 1"},
      {"p0:event(a) [sideways]", "column 14"},
  };
  for (const auto& c : cases) {
    auto spec = parse_breakpoint(c.text);
    ASSERT_FALSE(spec.ok()) << c.text;
    EXPECT_NE(spec.error().message().find("syntax error at column"),
              std::string::npos)
        << c.text << " -> " << spec.error().message();
    EXPECT_NE(spec.error().message().find(c.expect), std::string::npos)
        << c.text << " -> " << spec.error().message();
  }
}

TEST(Parser, SingleTermConjunctionRejected) {
  // '&' requires at least two terms; a lone atom is a linked predicate.
  auto one = parse_breakpoint("p0:x==1 &");
  EXPECT_FALSE(one.ok());
}

TEST(Parser, ParseLinkedOnlyRejectsConjunction) {
  EXPECT_TRUE(parse_linked_predicate("p0:event(a) -> p1:recv").ok());
  EXPECT_FALSE(parse_linked_predicate("p0:x==1 & p1:y==2").ok());
}

TEST(Parser, LargeProcessNumber) {
  auto spec = parse_breakpoint("p123:event(x)");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().linked.first().alternatives.at(0).process,
            ProcessId(123));
}

}  // namespace
}  // namespace ddbg
