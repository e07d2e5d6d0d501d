#include "src/logic/parser.h"

#include <cctype>
#include <cstdlib>
#include <vector>

#include "src/logic/builder.h"

namespace rwl::logic {
namespace {

// Token kinds produced by the lexer.
enum class Tok {
  kEnd,
  kIdent,     // variable or symbol name
  kNumber,
  kLParen,    // (
  kRParen,    // )
  kLBracket,  // [
  kRBracket,  // ]
  kComma,
  kDot,
  kSemicolon,
  kBang,      // !
  kAmp,       // &
  kPipe,      // |
  kImplies,   // =>
  kIff,       // <=>
  kEqual,     // =
  kNotEqual,  // !=
  kApproxEq,  // ~=
  kApproxLeq, // <~
  kApproxGeq, // >~
  kEqEq,      // ==
  kLeq,       // <=
  kGeq,       // >=
  kPlus,
  kMinus,
  kStar,
  kHash,      // #
  kUnderscore,
  kError,
};

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;
  double number = 0.0;
  size_t offset = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) { Advance(); }

  const Token& Peek() const { return current_; }

  Token Take() {
    Token t = current_;
    Advance();
    return t;
  }

 private:
  void Advance() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
    // Line comments: "//" to end of line.
    if (pos_ + 1 < input_.size() && input_[pos_] == '/' &&
        input_[pos_ + 1] == '/') {
      while (pos_ < input_.size() && input_[pos_] != '\n') ++pos_;
      Advance();
      return;
    }
    current_ = Token();
    current_.offset = pos_;
    if (pos_ >= input_.size()) {
      current_.kind = Tok::kEnd;
      return;
    }
    char c = input_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '_' || input_[pos_] == '\'')) {
        ++pos_;
      }
      current_.kind = Tok::kIdent;
      current_.text = std::string(input_.substr(start, pos_ - start));
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      while (pos_ < input_.size() &&
             (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '.')) {
        ++pos_;
      }
      // Don't swallow a trailing '.' that is actually a quantifier dot;
      // numbers never end in '.' in this grammar.
      if (input_[pos_ - 1] == '.') --pos_;
      current_.kind = Tok::kNumber;
      std::string text(input_.substr(start, pos_ - start));
      current_.number = std::strtod(text.c_str(), nullptr);
      current_.text = text;
      return;
    }
    auto two = [&](char a, char b) {
      return c == a && pos_ + 1 < input_.size() && input_[pos_ + 1] == b;
    };
    auto three = [&](char a, char b, char d) {
      return c == a && pos_ + 2 < input_.size() && input_[pos_ + 1] == b &&
             input_[pos_ + 2] == d;
    };
    if (three('<', '=', '>')) {
      current_.kind = Tok::kIff;
      pos_ += 3;
      return;
    }
    if (two('=', '>')) { current_.kind = Tok::kImplies; pos_ += 2; return; }
    if (two('=', '=')) { current_.kind = Tok::kEqEq; pos_ += 2; return; }
    if (two('<', '=')) { current_.kind = Tok::kLeq; pos_ += 2; return; }
    if (two('>', '=')) { current_.kind = Tok::kGeq; pos_ += 2; return; }
    if (two('~', '=')) { current_.kind = Tok::kApproxEq; pos_ += 2; return; }
    if (two('<', '~')) { current_.kind = Tok::kApproxLeq; pos_ += 2; return; }
    if (two('>', '~')) { current_.kind = Tok::kApproxGeq; pos_ += 2; return; }
    if (two('!', '=')) { current_.kind = Tok::kNotEqual; pos_ += 2; return; }
    switch (c) {
      case '(': current_.kind = Tok::kLParen; break;
      case ')': current_.kind = Tok::kRParen; break;
      case '[': current_.kind = Tok::kLBracket; break;
      case ']': current_.kind = Tok::kRBracket; break;
      case ',': current_.kind = Tok::kComma; break;
      case '.': current_.kind = Tok::kDot; break;
      case ';': current_.kind = Tok::kSemicolon; break;
      case '!': current_.kind = Tok::kBang; break;
      case '&': current_.kind = Tok::kAmp; break;
      case '|': current_.kind = Tok::kPipe; break;
      case '=': current_.kind = Tok::kEqual; break;
      case '+': current_.kind = Tok::kPlus; break;
      case '-': current_.kind = Tok::kMinus; break;
      case '*': current_.kind = Tok::kStar; break;
      case '#': current_.kind = Tok::kHash; break;
      default:
        current_.kind = Tok::kError;
        current_.text = std::string(1, c);
        break;
    }
    ++pos_;
  }

  std::string_view input_;
  size_t pos_ = 0;
  Token current_;
};

bool IsUpper(const std::string& s) {
  return !s.empty() && std::isupper(static_cast<unsigned char>(s[0]));
}

// Deepest nesting the parser accepts.  Each nested construct is a
// recursive call here and in every later pass over the tree, so one bound
// at the boundary keeps a hostile line from overflowing the stack.  Flat
// chains (a & b & c ...) are loops, not nesting.
constexpr int kMaxNesting = 500;
// Work bound: primaries parsed before the parser gives up.  A '(' is read
// as a formula and, failing that, again as an expression, so parentheses
// nested inside proportions re-read their contents exponentially often;
// the bound stops a short hostile line in well under a second.
constexpr size_t kMaxPrimaries = size_t{1} << 20;
constexpr size_t kPrimariesPerByte = 64;

class Parser {
 public:
  explicit Parser(std::string_view input)
      : lexer_(input),
        primaries_left_(kMaxPrimaries + kPrimariesPerByte * input.size()) {}

  FormulaPtr Parse(std::string* error, size_t* error_offset) {
    FormulaPtr f = ParseIff();
    if (f == nullptr || !error_.empty()) {
      *error = error_.empty() ? "parse error" : error_;
      *error_offset = error_offset_;
      return nullptr;
    }
    if (lexer_.Peek().kind != Tok::kEnd) {
      *error = "unexpected trailing input";
      *error_offset = lexer_.Peek().offset;
      return nullptr;
    }
    return f;
  }

 private:
  FormulaPtr Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message;
      error_offset_ = lexer_.Peek().offset;
    }
    return nullptr;
  }

  // Runs `parse` one nesting level down: for the operand of '!', a
  // quantifier body, the inside of a parenthesis or proportion, a function
  // argument, or the right side of '=>'.
  template <typename ParseFn>
  auto Nested(ParseFn parse) -> decltype(parse()) {
    if (depth_ == kMaxNesting) {
      gave_up_ = true;
      Fail("formula nests deeper than " + std::to_string(kMaxNesting) +
           " levels");
      return nullptr;
    }
    ++depth_;
    auto result = parse();
    --depth_;
    return result;
  }

  bool Expect(Tok kind, const char* what) {
    if (lexer_.Peek().kind != kind) {
      Fail(std::string("expected ") + what);
      return false;
    }
    lexer_.Take();
    return true;
  }

  // iff := implies ('<=>' implies)*        (left associative)
  FormulaPtr ParseIff() {
    FormulaPtr lhs = ParseImplies();
    if (lhs == nullptr) return nullptr;
    while (lexer_.Peek().kind == Tok::kIff) {
      lexer_.Take();
      FormulaPtr rhs = ParseImplies();
      if (rhs == nullptr) return nullptr;
      lhs = Formula::Iff(lhs, rhs);
    }
    return lhs;
  }

  // implies := or ('=>' implies)?          (right associative)
  FormulaPtr ParseImplies() {
    FormulaPtr lhs = ParseOr();
    if (lhs == nullptr) return nullptr;
    if (lexer_.Peek().kind == Tok::kImplies) {
      lexer_.Take();
      FormulaPtr rhs = Nested([&] { return ParseImplies(); });
      if (rhs == nullptr) return nullptr;
      return Formula::Implies(lhs, rhs);
    }
    return lhs;
  }

  FormulaPtr ParseOr() {
    FormulaPtr lhs = ParseAnd();
    if (lhs == nullptr) return nullptr;
    while (lexer_.Peek().kind == Tok::kPipe) {
      lexer_.Take();
      FormulaPtr rhs = ParseAnd();
      if (rhs == nullptr) return nullptr;
      lhs = Formula::Or(lhs, rhs);
    }
    return lhs;
  }

  FormulaPtr ParseAnd() {
    FormulaPtr lhs = ParseUnary();
    if (lhs == nullptr) return nullptr;
    while (lexer_.Peek().kind == Tok::kAmp) {
      lexer_.Take();
      FormulaPtr rhs = ParseUnary();
      if (rhs == nullptr) return nullptr;
      lhs = Formula::And(lhs, rhs);
    }
    return lhs;
  }

  FormulaPtr ParseUnary() {
    const Token& t = lexer_.Peek();
    if (t.kind == Tok::kBang) {
      lexer_.Take();
      FormulaPtr body = Nested([&] { return ParseUnary(); });
      if (body == nullptr) return nullptr;
      return Formula::Not(body);
    }
    if (t.kind == Tok::kIdent && (t.text == "forall" || t.text == "exists")) {
      bool is_forall = t.text == "forall";
      lexer_.Take();
      bool unique = false;
      if (!is_forall && lexer_.Peek().kind == Tok::kBang) {
        lexer_.Take();
        unique = true;
      }
      if (lexer_.Peek().kind != Tok::kIdent) return Fail("expected variable");
      std::string var = lexer_.Take().text;
      if (!Expect(Tok::kDot, "'.' after quantified variable")) return nullptr;
      FormulaPtr body = Nested([&] { return ParseUnary(); });
      if (body == nullptr) return nullptr;
      if (is_forall) return Formula::ForAll(var, body);
      if (!unique) return Formula::Exists(var, body);
      return ExistsUnique(var, body);
    }
    return ParsePrimary();
  }

  // primary := 'true' | 'false' | '(' iff ')' | atom | term (=|!=) term
  //          | compare-formula starting with an expression
  FormulaPtr ParsePrimary() {
    if (primaries_left_ == 0) {
      gave_up_ = true;
      return Fail("formula too complex to parse");
    }
    --primaries_left_;
    const Token& t = lexer_.Peek();
    if (t.kind == Tok::kIdent && t.text == "true") {
      lexer_.Take();
      return Formula::True();
    }
    if (t.kind == Tok::kIdent && t.text == "false") {
      lexer_.Take();
      return Formula::False();
    }
    if (t.kind == Tok::kLParen) {
      // Either a parenthesized formula or a parenthesized proportion
      // expression opening a comparison (e.g. "((a + b) ~= 0.5)").  Try the
      // formula reading first; on failure, rewind and parse a comparison.
      Lexer saved = lexer_;
      std::string saved_error = error_;
      size_t saved_offset = error_offset_;
      lexer_.Take();
      FormulaPtr inner = Nested([&] { return ParseIff(); });
      if (inner != nullptr && lexer_.Peek().kind == Tok::kRParen) {
        lexer_.Take();
        return inner;
      }
      // A limit hit reads the same either way: keep its error, no retry.
      if (gave_up_) return nullptr;
      lexer_ = saved;
      error_ = saved_error;
      error_offset_ = saved_offset;
      return ParseCompare();
    }
    if (t.kind == Tok::kHash || t.kind == Tok::kNumber) {
      return ParseCompare();
    }
    if (t.kind == Tok::kIdent) {
      // term (=|!=) term, or an atom.
      TermPtr lhs = ParseTerm();
      if (lhs == nullptr) return nullptr;
      if (lexer_.Peek().kind == Tok::kEqual) {
        lexer_.Take();
        TermPtr rhs = ParseTerm();
        if (rhs == nullptr) return nullptr;
        return Formula::Equal(lhs, rhs);
      }
      if (lexer_.Peek().kind == Tok::kNotEqual) {
        lexer_.Take();
        TermPtr rhs = ParseTerm();
        if (rhs == nullptr) return nullptr;
        return Formula::Not(Formula::Equal(lhs, rhs));
      }
      // Must be an atom: an upper-case application (or bare proposition).
      if (lhs->kind() == Term::Kind::kApply) {
        return Formula::Atom(lhs->name(), lhs->args());
      }
      return Fail("variable '" + lhs->name() + "' used as a formula");
    }
    return Fail("expected a formula");
  }

  // compare := expr op expr, where op carries an optional _i tolerance index.
  FormulaPtr ParseCompare() {
    ExprPtr lhs = ParseExpr();
    if (lhs == nullptr) return nullptr;
    Tok op_tok = lexer_.Peek().kind;
    CompareOp op;
    switch (op_tok) {
      case Tok::kApproxEq: op = CompareOp::kApproxEq; break;
      case Tok::kApproxLeq: op = CompareOp::kApproxLeq; break;
      case Tok::kApproxGeq: op = CompareOp::kApproxGeq; break;
      case Tok::kEqEq: op = CompareOp::kEq; break;
      case Tok::kLeq: op = CompareOp::kLeq; break;
      case Tok::kGeq: op = CompareOp::kGeq; break;
      default:
        Fail("expected a comparison operator");
        return nullptr;
    }
    lexer_.Take();
    int tolerance_index = 1;
    // Optional tolerance subscript: _<int> immediately after ~=, <~, >~.
    if (IsApproximate(op) && lexer_.Peek().kind == Tok::kIdent &&
        lexer_.Peek().text[0] == '_') {
      std::string sub = lexer_.Take().text.substr(1);
      tolerance_index = std::atoi(sub.c_str());
      if (tolerance_index <= 0) return Fail("bad tolerance subscript");
    }
    ExprPtr rhs = ParseExpr();
    if (rhs == nullptr) return nullptr;
    return Formula::Compare(lhs, op, rhs, tolerance_index);
  }

  // expr := mul (('+'|'-') mul)*
  ExprPtr ParseExpr() {
    ExprPtr lhs = ParseMul();
    if (lhs == nullptr) return nullptr;
    while (lexer_.Peek().kind == Tok::kPlus ||
           lexer_.Peek().kind == Tok::kMinus) {
      bool add = lexer_.Take().kind == Tok::kPlus;
      ExprPtr rhs = ParseMul();
      if (rhs == nullptr) return nullptr;
      lhs = add ? Expr::Add(lhs, rhs) : Expr::Sub(lhs, rhs);
    }
    return lhs;
  }

  ExprPtr ParseMul() {
    ExprPtr lhs = ParseExprPrimary();
    if (lhs == nullptr) return nullptr;
    while (lexer_.Peek().kind == Tok::kStar) {
      lexer_.Take();
      ExprPtr rhs = ParseExprPrimary();
      if (rhs == nullptr) return nullptr;
      lhs = Expr::Mul(lhs, rhs);
    }
    return lhs;
  }

  // expr-primary := number | '#' '(' formula (';' formula)? ')' '[' vars ']'
  //               | '(' expr ')'
  ExprPtr ParseExprPrimary() {
    const Token& t = lexer_.Peek();
    if (t.kind == Tok::kNumber) {
      return Expr::Constant(lexer_.Take().number);
    }
    if (t.kind == Tok::kLParen) {
      lexer_.Take();
      ExprPtr inner = Nested([&] { return ParseExpr(); });
      if (inner == nullptr) return nullptr;
      if (!Expect(Tok::kRParen, "')'")) return nullptr;
      return inner;
    }
    if (t.kind == Tok::kHash) {
      lexer_.Take();
      if (!Expect(Tok::kLParen, "'(' after '#'")) return nullptr;
      FormulaPtr body = Nested([&] { return ParseIff(); });
      if (body == nullptr) return nullptr;
      FormulaPtr cond;
      if (lexer_.Peek().kind == Tok::kSemicolon) {
        lexer_.Take();
        cond = Nested([&] { return ParseIff(); });
        if (cond == nullptr) return nullptr;
      }
      if (!Expect(Tok::kRParen, "')'")) return nullptr;
      if (!Expect(Tok::kLBracket, "'[' before proportion variables")) {
        return nullptr;
      }
      std::vector<std::string> vars;
      while (true) {
        if (lexer_.Peek().kind != Tok::kIdent) {
          Fail("expected proportion variable");
          return nullptr;
        }
        vars.push_back(lexer_.Take().text);
        if (lexer_.Peek().kind == Tok::kComma) {
          lexer_.Take();
          continue;
        }
        break;
      }
      if (!Expect(Tok::kRBracket, "']'")) return nullptr;
      if (cond == nullptr) return Expr::Proportion(body, vars);
      return Expr::Conditional(body, cond, vars);
    }
    Fail("expected a proportion expression");
    return nullptr;
  }

  // term := ident ('(' term (',' term)* ')')?
  TermPtr ParseTerm() {
    if (lexer_.Peek().kind != Tok::kIdent) {
      Fail("expected a term");
      return nullptr;
    }
    Token name = lexer_.Take();
    if (lexer_.Peek().kind == Tok::kLParen) {
      lexer_.Take();
      std::vector<TermPtr> args;
      while (true) {
        TermPtr arg = Nested([&] { return ParseTerm(); });
        if (arg == nullptr) return nullptr;
        args.push_back(arg);
        if (lexer_.Peek().kind == Tok::kComma) {
          lexer_.Take();
          continue;
        }
        break;
      }
      if (!Expect(Tok::kRParen, "')'")) return nullptr;
      return Term::Apply(name.text, std::move(args));
    }
    if (IsUpper(name.text)) return Term::Constant(name.text);
    return Term::Variable(name.text);
  }

  Lexer lexer_;
  std::string error_;
  size_t error_offset_ = 0;
  size_t primaries_left_;
  int depth_ = 0;
  bool gave_up_ = false;
};

}  // namespace

ParseResult ParseFormula(std::string_view input) {
  Parser parser(input);
  ParseResult result;
  result.formula = parser.Parse(&result.error, &result.error_offset);
  if (result.formula != nullptr) result.error.clear();
  return result;
}

ParseResult ParseKnowledgeBase(std::string_view input) {
  // The whole text is a single conjunction: formulas separated by newlines.
  // We simply parse each non-comment, non-empty line and conjoin.
  ParseResult result;
  std::vector<FormulaPtr> conjuncts;
  size_t line_start = 0;
  while (line_start <= input.size()) {
    size_t line_end = input.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = input.size();
    std::string_view line = input.substr(line_start, line_end - line_start);
    // Trim.
    size_t b = line.find_first_not_of(" \t\r");
    if (b != std::string_view::npos) {
      std::string_view body = line.substr(b);
      if (body.size() >= 2 && body.substr(0, 2) == "//") {
        // comment line
      } else {
        ParseResult one = ParseFormula(body);
        if (!one.ok()) {
          one.error_offset += line_start + b;
          return one;
        }
        conjuncts.push_back(one.formula);
      }
    }
    if (line_end == input.size()) break;
    line_start = line_end + 1;
  }
  result.formula = Formula::AndAll(conjuncts);
  return result;
}

}  // namespace rwl::logic
