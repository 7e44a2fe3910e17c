#include "core/predicate_parser.hpp"

#include <cctype>
#include <limits>
#include <string>
#include <vector>

namespace ddbg {

namespace {

enum class TokenKind {
  kIdent,
  kInt,
  kColon,
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kCaret,
  kPipe,
  kAmp,
  kArrow,
  kCompare,  // text holds the operator
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  std::int64_t number = 0;
  // Byte offset of the token's first character in the input, so parse
  // errors can say *where* ("syntax error at column k", 1-based).
  std::size_t pos = 0;
};

// All parse diagnostics carry a 1-based column so interactive frontends can
// point at the offending character.
Error parse_error_at(std::size_t pos, const std::string& detail) {
  return Error(ErrorCode::kParseError, "syntax error at column " +
                                           std::to_string(pos + 1) + ": " +
                                           detail);
}

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Result<std::vector<Token>> tokenize() {
    std::vector<Token> tokens;
    while (true) {
      skip_space();
      if (pos_ >= input_.size()) break;
      const char c = input_[pos_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        tokens.push_back(ident());
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        auto tok = integer();
        if (!tok.ok()) return tok.error();
        tokens.push_back(std::move(tok).value());
      } else {
        auto tok = symbol();
        if (!tok.ok()) return tok.error();
        tokens.push_back(std::move(tok).value());
      }
    }
    tokens.push_back(Token{TokenKind::kEnd, "", 0, input_.size()});
    return tokens;
  }

 private:
  void skip_space() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  Token ident() {
    const std::size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '_')) {
      ++pos_;
    }
    return Token{TokenKind::kIdent,
                 std::string(input_.substr(start, pos_ - start)), 0, start};
  }

  Result<Token> integer() {
    std::int64_t value = 0;
    const std::size_t start = pos_;
    while (pos_ < input_.size() &&
           std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
      const std::int64_t digit = input_[pos_] - '0';
      // Guard *before* multiplying: a 19-digit literal can exceed
      // INT64_MAX mid-accumulation, and signed overflow is UB, not a
      // wrapped value we could range-check afterwards.
      if (value > (std::numeric_limits<std::int64_t>::max() - digit) / 10) {
        return parse_error_at(start, "integer literal out of range");
      }
      value = value * 10 + digit;
      ++pos_;
    }
    return Token{TokenKind::kInt, "", value, start};
  }

  Result<Token> symbol() {
    const std::size_t start = pos_;
    const char c = input_[pos_];
    const char next = pos_ + 1 < input_.size() ? input_[pos_ + 1] : '\0';
    auto two = [&](TokenKind kind, const char* text) {
      pos_ += 2;
      return Token{kind, text, 0, start};
    };
    auto one = [&](TokenKind kind, const char* text) {
      pos_ += 1;
      return Token{kind, text, 0, start};
    };
    switch (c) {
      case ':': return one(TokenKind::kColon, ":");
      case '(': return one(TokenKind::kLParen, "(");
      case ')': return one(TokenKind::kRParen, ")");
      case '[': return one(TokenKind::kLBracket, "[");
      case ']': return one(TokenKind::kRBracket, "]");
      case '^': return one(TokenKind::kCaret, "^");
      case '|': return one(TokenKind::kPipe, "|");
      case '&': return one(TokenKind::kAmp, "&");
      case '-': {
        if (next == '>') return two(TokenKind::kArrow, "->");
        if (std::isdigit(static_cast<unsigned char>(next))) {
          ++pos_;  // consume '-'
          auto tok = integer();
          if (!tok.ok()) return tok.error();
          Token negated = std::move(tok).value();
          negated.number = -negated.number;
          negated.pos = start;
          return negated;
        }
        break;
      }
      case '=':
        if (next == '=') return two(TokenKind::kCompare, "==");
        break;
      case '!':
        if (next == '=') return two(TokenKind::kCompare, "!=");
        break;
      case '<':
        if (next == '=') return two(TokenKind::kCompare, "<=");
        return one(TokenKind::kCompare, "<");
      case '>':
        if (next == '=') return two(TokenKind::kCompare, ">=");
        return one(TokenKind::kCompare, ">");
      default: break;
    }
    return parse_error_at(start,
                          std::string("unexpected character '") + c + "'");
  }

  std::string_view input_;
  std::size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<BreakpointSpec> parse_breakpoint() {
    // A conjunction is `atom & atom ...` — detect by looking ahead for '&'
    // at nesting depth 0.
    if (contains_top_level_amp()) return parse_conjunction();
    auto lp = parse_linked();
    if (!lp.ok()) return lp.error();
    BreakpointSpec spec;
    spec.kind = BreakpointSpec::Kind::kLinked;
    spec.linked = std::move(lp).value();
    if (auto s = parse_suffixes(spec); !s.ok()) return s.error();
    if (auto s = expect(TokenKind::kEnd); !s.ok()) return s.error();
    return spec;
  }

  Result<LinkedPredicate> parse_linked_only() {
    auto lp = parse_linked();
    if (!lp.ok()) return lp.error();
    if (auto s = expect(TokenKind::kEnd); !s.ok()) return s.error();
    return lp;
  }

 private:
  [[nodiscard]] const Token& peek() const { return tokens_[pos_]; }

  Token consume() { return tokens_[pos_++]; }

  [[nodiscard]] bool match(TokenKind kind) {
    if (peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status expect(TokenKind kind) {
    if (peek().kind != kind) {
      if (peek().kind == TokenKind::kEnd) {
        return parse_error_at(peek().pos, "unexpected end of input");
      }
      return parse_error_at(peek().pos,
                            "unexpected token '" + peek().text + "'");
    }
    ++pos_;
    return Status::ok_status();
  }

  [[nodiscard]] bool contains_top_level_amp() const {
    int depth = 0;
    for (const Token& tok : tokens_) {
      if (tok.kind == TokenKind::kLParen) ++depth;
      if (tok.kind == TokenKind::kRParen) --depth;
      if (tok.kind == TokenKind::kAmp && depth == 0) return true;
    }
    return false;
  }

  Result<BreakpointSpec> parse_conjunction() {
    ConjunctivePredicate cp;
    while (true) {
      auto sp = parse_atom();
      if (!sp.ok()) return sp.error();
      cp.terms.push_back(std::move(sp).value());
      if (!match(TokenKind::kAmp)) break;
    }
    if (cp.terms.size() < 2) {
      return parse_error_at(peek().pos,
                            "conjunction needs at least two terms");
    }
    BreakpointSpec spec;
    spec.kind = BreakpointSpec::Kind::kConjunctive;
    spec.conjunctive = std::move(cp);
    if (auto s = parse_suffixes(spec); !s.ok()) return s.error();
    if (auto s = expect(TokenKind::kEnd); !s.ok()) return s.error();
    return spec;
  }

  // Zero or more bracketed modifiers: [ordered] / [unordered] (conjunction
  // interpretation, section 3.5) and [monitor] / [halt] (action).
  Status parse_suffixes(BreakpointSpec& spec) {
    while (match(TokenKind::kLBracket)) {
      if (peek().kind != TokenKind::kIdent) {
        return parse_error_at(peek().pos, "expected modifier after '['");
      }
      const Token mod = consume();
      const std::string& name = mod.text;
      if (name == "unordered" || name == "ordered") {
        if (spec.kind != BreakpointSpec::Kind::kConjunctive) {
          return parse_error_at(mod.pos,
                                "'" + name + "' applies only to conjunctions");
        }
        spec.mode = name == "unordered" ? ConjunctionMode::kUnordered
                                        : ConjunctionMode::kOrdered;
      } else if (name == "monitor") {
        spec.action = BreakpointAction::kMonitor;
      } else if (name == "halt") {
        spec.action = BreakpointAction::kHalt;
      } else {
        return parse_error_at(mod.pos, "unknown modifier '" + name + "'");
      }
      if (auto s = expect(TokenKind::kRBracket); !s.ok()) return s.error();
    }
    return Status::ok_status();
  }

  Result<LinkedPredicate> parse_linked() {
    LinkedPredicate lp;
    std::size_t depth = 0;
    while (true) {
      const std::size_t stage_pos = peek().pos;
      auto stage = parse_stage();
      if (!stage.ok()) return stage.error();
      depth += stage.value().repeat;
      if (depth > LinkedPredicate::kMaxDepth) {
        return parse_error_at(
            stage_pos, "linked predicate expands past " +
                           std::to_string(LinkedPredicate::kMaxDepth) +
                           " stages");
      }
      lp.stages.push_back(std::move(stage).value());
      if (!match(TokenKind::kArrow)) break;
    }
    return lp;
  }

  Result<LinkedPredicate::Stage> parse_stage() {
    if (match(TokenKind::kLParen)) {
      auto dp = parse_dp();
      if (!dp.ok()) return dp.error();
      if (auto s = expect(TokenKind::kRParen); !s.ok()) return s.error();
      std::uint32_t repeat = 1;
      if (match(TokenKind::kCaret)) {
        if (peek().kind != TokenKind::kInt) {
          return parse_error_at(peek().pos, "expected count after '^'");
        }
        const Token count_tok = consume();
        const std::int64_t count = count_tok.number;
        if (count < 1 ||
            count > static_cast<std::int64_t>(LinkedPredicate::kMaxDepth)) {
          return parse_error_at(count_tok.pos, "repetition out of range");
        }
        repeat = static_cast<std::uint32_t>(count);
      }
      return LinkedPredicate::Stage{std::move(dp).value(), repeat};
    }
    auto dp = parse_dp();
    if (!dp.ok()) return dp.error();
    return LinkedPredicate::Stage{std::move(dp).value(), 1};
  }

  Result<DisjunctivePredicate> parse_dp() {
    DisjunctivePredicate dp;
    while (true) {
      auto sp = parse_atom();
      if (!sp.ok()) return sp.error();
      dp.alternatives.push_back(std::move(sp).value());
      if (!match(TokenKind::kPipe)) break;
    }
    return dp;
  }

  Result<SimplePredicate> parse_atom() {
    // PROC ":" sp, where PROC is an identifier like "p3".
    if (peek().kind != TokenKind::kIdent) {
      if (peek().kind == TokenKind::kEnd) {
        return parse_error_at(peek().pos,
                              "expected process name (e.g. p0)");
      }
      return parse_error_at(peek().pos,
                            "expected process name (e.g. p0), got '" +
                                peek().text + "'");
    }
    const Token proc_tok = consume();
    const std::string& proc = proc_tok.text;
    if (proc.size() < 2 || proc[0] != 'p') {
      return parse_error_at(proc_tok.pos,
                            "process name must look like p<N>: '" + proc +
                                "'");
    }
    std::uint64_t proc_num = 0;
    for (std::size_t i = 1; i < proc.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(proc[i]))) {
        return parse_error_at(proc_tok.pos,
                              "process name must look like p<N>: '" + proc +
                                  "'");
      }
      proc_num = proc_num * 10 + static_cast<std::uint64_t>(proc[i] - '0');
      // Process ids are 32-bit; bail before a long digit run wraps the
      // accumulator (also caps the loop so 64-bit overflow is unreachable).
      if (proc_num > std::numeric_limits<std::uint32_t>::max()) {
        return parse_error_at(proc_tok.pos,
                              "process number out of range: '" + proc + "'");
      }
    }
    const ProcessId process(static_cast<std::uint32_t>(proc_num));
    if (auto s = expect(TokenKind::kColon); !s.ok()) return s.error();

    if (peek().kind != TokenKind::kIdent) {
      if (peek().kind == TokenKind::kEnd) {
        return parse_error_at(peek().pos, "expected predicate after ':'");
      }
      return parse_error_at(peek().pos, "expected predicate after ':', got '" +
                                            peek().text + "'");
    }
    const std::string word = consume().text;

    // A comparison after the name means it is a watched variable, even if
    // it collides with a keyword (e.g. a variable named "sent").
    const bool is_comparison = peek().kind == TokenKind::kCompare;

    // "sent" / "recv" accept an optional channel filter: p0:recv(3).
    auto parse_channel_filter = [this](SimplePredicate sp)
        -> Result<SimplePredicate> {
      if (!match(TokenKind::kLParen)) return sp;
      if (peek().kind != TokenKind::kInt) {
        return parse_error_at(peek().pos,
                              "expected channel number inside ()");
      }
      const Token channel_tok = consume();
      const std::int64_t channel = channel_tok.number;
      if (channel < 0 ||
          channel > std::numeric_limits<std::uint32_t>::max()) {
        return parse_error_at(channel_tok.pos, "channel number out of range");
      }
      sp.channel_filter = ChannelId(static_cast<std::uint32_t>(channel));
      if (auto s = expect(TokenKind::kRParen); !s.ok()) return s.error();
      return sp;
    };

    if (!is_comparison && word == "sent") {
      return parse_channel_filter(SimplePredicate::message_sent(process));
    }
    if (!is_comparison && word == "recv") {
      return parse_channel_filter(SimplePredicate::message_received(process));
    }
    if (!is_comparison && word == "terminated") {
      return SimplePredicate::process_terminated(process);
    }
    if (!is_comparison && word == "started") {
      SimplePredicate sp;
      sp.process = process;
      sp.kind = LocalEventKind::kProcessStarted;
      return sp;
    }
    if (!is_comparison && (word == "event" || word == "enter")) {
      if (auto s = expect(TokenKind::kLParen); !s.ok()) return s.error();
      if (peek().kind != TokenKind::kIdent) {
        return parse_error_at(peek().pos, "expected name inside ()");
      }
      const std::string name = consume().text;
      if (auto s = expect(TokenKind::kRParen); !s.ok()) return s.error();
      return word == "event"
                 ? SimplePredicate::user_event(process, name)
                 : SimplePredicate::procedure_entered(process, name);
    }
    // Otherwise a watched-variable comparison: IDENT CMP INT.
    if (peek().kind != TokenKind::kCompare) {
      return parse_error_at(peek().pos,
                            "expected comparison after variable '" + word +
                                "'");
    }
    const std::string op_text = consume().text;
    CompareOp op = CompareOp::kNone;
    if (op_text == "==") op = CompareOp::kEq;
    else if (op_text == "!=") op = CompareOp::kNe;
    else if (op_text == "<") op = CompareOp::kLt;
    else if (op_text == "<=") op = CompareOp::kLe;
    else if (op_text == ">") op = CompareOp::kGt;
    else if (op_text == ">=") op = CompareOp::kGe;
    if (peek().kind != TokenKind::kInt) {
      return parse_error_at(peek().pos,
                            "expected integer after '" + op_text + "'");
    }
    const std::int64_t value = consume().number;
    return SimplePredicate::var_compare(process, word, op, value);
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<BreakpointSpec> parse_breakpoint(std::string_view text) {
  auto tokens = Lexer(text).tokenize();
  if (!tokens.ok()) return tokens.error();
  return Parser(std::move(tokens).value()).parse_breakpoint();
}

Result<LinkedPredicate> parse_linked_predicate(std::string_view text) {
  auto tokens = Lexer(text).tokenize();
  if (!tokens.ok()) return tokens.error();
  return Parser(std::move(tokens).value()).parse_linked_only();
}

}  // namespace ddbg
