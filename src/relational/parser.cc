#include "relational/parser.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <vector>

#include "common/string_util.h"

namespace explain3d {

namespace {

/// Deepest nesting the parser descends into, and tallest tree it builds.
/// SQL text is request input, and everything downstream of the parser —
/// evaluation, planning, rendering, even destruction — recurses over the
/// tree, so one hostile query could otherwise exhaust the stack. The
/// bound counts nesting (parentheses, NOT, unary minus, subqueries) and
/// left-deep operator chains (a + a + ...; FROM a, b, ...) alike.
constexpr int kMaxSqlDepth = 256;

enum class TokKind {
  kEnd,
  kIdent,
  kNumber,
  kString,
  kSymbol,  // punctuation / operators
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   // identifier (original case), symbol, or string body
  double number = 0;
  bool is_int = false;
  int64_t int_value = 0;
  size_t pos = 0;  // byte offset, for error messages
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : in_(input) {}

  Status Tokenize(std::vector<Token>* out) {
    size_t i = 0;
    while (i < in_.size()) {
      char c = in_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      Token tok;
      tok.pos = i;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < in_.size() &&
               (std::isalnum(static_cast<unsigned char>(in_[j])) ||
                in_[j] == '_')) {
          ++j;
        }
        tok.kind = TokKind::kIdent;
        tok.text = in_.substr(i, j - i);
        i = j;
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '.' && i + 1 < in_.size() &&
                  std::isdigit(static_cast<unsigned char>(in_[i + 1])))) {
        size_t j = i;
        bool has_dot = false;
        while (j < in_.size() &&
               (std::isdigit(static_cast<unsigned char>(in_[j])) ||
                (in_[j] == '.' && !has_dot))) {
          if (in_[j] == '.') has_dot = true;
          ++j;
        }
        tok.kind = TokKind::kNumber;
        std::string num = in_.substr(i, j - i);
        if (has_dot) {
          tok.number = std::strtod(num.c_str(), nullptr);
          tok.is_int = false;
        } else {
          tok.int_value = std::strtoll(num.c_str(), nullptr, 10);
          tok.number = static_cast<double>(tok.int_value);
          tok.is_int = true;
        }
        i = j;
      } else if (c == '\'' || c == '"') {
        char quote = c;
        size_t j = i + 1;
        std::string body;
        bool closed = false;
        while (j < in_.size()) {
          if (in_[j] == quote) {
            if (j + 1 < in_.size() && in_[j + 1] == quote) {
              body += quote;  // doubled quote escapes itself
              j += 2;
              continue;
            }
            closed = true;
            ++j;
            break;
          }
          body += in_[j++];
        }
        if (!closed) {
          return Status::ParseError(StrFormat(
              "unterminated string literal at offset %zu", i));
        }
        tok.kind = TokKind::kString;
        tok.text = std::move(body);
        i = j;
      } else {
        // Multi-char operators first.
        static const char* kTwoChar[] = {"<>", "<=", ">=", "!="};
        bool matched = false;
        for (const char* op : kTwoChar) {
          if (in_.compare(i, 2, op) == 0) {
            tok.kind = TokKind::kSymbol;
            tok.text = op;
            i += 2;
            matched = true;
            break;
          }
        }
        if (!matched) {
          static const std::string kSingles = "(),.*=<>+-/;";
          if (kSingles.find(c) == std::string::npos) {
            return Status::ParseError(
                StrFormat("unexpected character '%c' at offset %zu", c, i));
          }
          tok.kind = TokKind::kSymbol;
          tok.text = std::string(1, c);
          ++i;
        }
      }
      out->push_back(std::move(tok));
    }
    Token end;
    end.kind = TokKind::kEnd;
    end.pos = in_.size();
    out->push_back(end);
    return Status::OK();
  }

 private:
  const std::string& in_;
};

/// Recursive-descent parser over the token stream. Two counters keep it
/// within kMaxSqlDepth: `depth_` counts the grammar rules currently
/// nested (each one a recursion), and `height_` is the height of the
/// subtree the last rule returned, so a chain loop can price each node
/// it adds without walking the tree.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  Result<SelectStmtPtr> ParseSelectStatement() {
    E3D_ASSIGN_OR_RETURN(SelectStmtPtr stmt, ParseSelect());
    // Allow a trailing semicolon.
    if (PeekSymbol(";")) Advance();
    if (Peek().kind != TokKind::kEnd) {
      return Err("trailing input after statement");
    }
    return stmt;
  }

  Result<ExprPtr> ParseStandaloneExpression() {
    E3D_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (Peek().kind != TokKind::kEnd) {
      return Status(StatusCode::kParseError,
                    "trailing input after expression");
    }
    return e;
  }

 private:
  // --- token helpers -----------------------------------------------------
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& Advance() { return toks_[pos_++]; }

  bool PeekKeyword(const char* kw) const {
    const Token& t = Peek();
    return t.kind == TokKind::kIdent && IEq(t.text, kw);
  }
  bool AcceptKeyword(const char* kw) {
    if (PeekKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool PeekSymbol(const char* sym) const {
    const Token& t = Peek();
    return t.kind == TokKind::kSymbol && t.text == sym;
  }
  bool AcceptSymbol(const char* sym) {
    if (PeekSymbol(sym)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectSymbol(const char* sym) {
    if (!AcceptSymbol(sym)) {
      return Status::ParseError(StrFormat("expected '%s' at offset %zu", sym,
                                          Peek().pos));
    }
    return Status::OK();
  }
  Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) {
      return Status::ParseError(
          StrFormat("expected %s at offset %zu", kw, Peek().pos));
    }
    return Status::OK();
  }

  static bool IEq(const std::string& a, const char* b) {
    size_t n = 0;
    for (; b[n]; ++n) {
      if (n >= a.size() ||
          std::tolower(static_cast<unsigned char>(a[n])) !=
              std::tolower(static_cast<unsigned char>(b[n]))) {
        return false;
      }
    }
    return n == a.size();
  }

  static bool IsKeywordText(const std::string& s) {
    static const char* kKeywords[] = {
        "select", "distinct", "from",  "where", "group", "by",   "join",
        "on",     "and",      "or",    "not",   "in",    "like", "is",
        "null",   "exists",   "count", "sum",   "avg",   "max",  "min",
        "as"};
    for (const char* kw : kKeywords) {
      if (IEq(s, kw)) return true;
    }
    return false;
  }

  Status Err(const std::string& msg) const {
    return Status::ParseError(
        StrFormat("%s at offset %zu", msg.c_str(), Peek().pos));
  }

  Status TooDeep() const {
    return Err(StrFormat("query nested deeper than %d levels", kMaxSqlDepth));
  }

  /// One nested grammar rule; fails once kMaxSqlDepth rules are open.
  class Nest {
   public:
    explicit Nest(Parser* p) : p_(p) { ++p_->depth_; }
    ~Nest() { --p_->depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;
    Status Check() const {
      return p_->depth_ > kMaxSqlDepth ? p_->TooDeep() : Status::OK();
    }

   private:
    Parser* p_;
  };

  /// Records `height` as the height of `node`, the subtree a rule is
  /// returning, and fails once it passes kMaxSqlDepth.
  template <typename T>
  Result<T> Built(T node, int height) {
    if (height > kMaxSqlDepth) return TooDeep();
    height_ = height;
    return node;
  }

  // --- grammar ------------------------------------------------------------
  Result<SelectStmtPtr> ParseSelect() {
    Nest nest(this);
    E3D_RETURN_IF_ERROR(nest.Check());
    E3D_RETURN_IF_ERROR(ExpectKeyword("select"));
    auto stmt = std::make_shared<SelectStmt>();
    stmt->distinct = AcceptKeyword("distinct");
    int height = 0;
    do {
      E3D_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      height = std::max(height, height_);
      stmt->items.push_back(std::move(item));
    } while (AcceptSymbol(","));
    E3D_RETURN_IF_ERROR(ExpectKeyword("from"));
    E3D_ASSIGN_OR_RETURN(stmt->from, ParseTableRef());
    height = std::max(height, height_);
    if (AcceptKeyword("where")) {
      E3D_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
      height = std::max(height, height_);
    }
    if (AcceptKeyword("group")) {
      E3D_RETURN_IF_ERROR(ExpectKeyword("by"));
      do {
        E3D_ASSIGN_OR_RETURN(std::string name, ParseColumnName());
        stmt->group_by.push_back(std::move(name));
      } while (AcceptSymbol(","));
    }
    return Built(SelectStmtPtr(stmt), height + 1);
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    height_ = 0;  // COUNT(*) parses no expression
    AggFunc agg = AggFunc::kNone;
    if (PeekKeyword("count")) agg = AggFunc::kCount;
    else if (PeekKeyword("sum")) agg = AggFunc::kSum;
    else if (PeekKeyword("avg")) agg = AggFunc::kAvg;
    else if (PeekKeyword("max")) agg = AggFunc::kMax;
    else if (PeekKeyword("min")) agg = AggFunc::kMin;

    if (agg != AggFunc::kNone && Peek(1).kind == TokKind::kSymbol &&
        Peek(1).text == "(") {
      Advance();  // aggregate keyword
      Advance();  // '('
      item.agg = agg;
      if (AcceptSymbol("*")) {
        if (agg != AggFunc::kCount) {
          return Status(StatusCode::kParseError, "only COUNT accepts '*'");
        }
        item.star = true;
      } else {
        E3D_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      }
      E3D_RETURN_IF_ERROR(ExpectSymbol(")"));
    } else if (PeekSymbol("*")) {
      return Status(StatusCode::kUnsupported,
                    "SELECT * is not supported; name the columns");
    } else {
      E3D_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    }
    if (AcceptKeyword("as")) {
      if (Peek().kind != TokKind::kIdent) return Err("expected alias");
      item.alias = Advance().text;
    }
    return item;
  }

  Result<std::string> ParseColumnName() {
    if (Peek().kind != TokKind::kIdent) {
      return Status(StatusCode::kParseError, "expected column name");
    }
    std::string name = Advance().text;
    if (AcceptSymbol(".")) {
      if (Peek().kind != TokKind::kIdent) {
        return Status(StatusCode::kParseError,
                      "expected column after '.'");
      }
      name += "." + Advance().text;
    }
    return name;
  }

  Result<std::shared_ptr<const TableRef>> ParseTableRef() {
    E3D_ASSIGN_OR_RETURN(std::shared_ptr<const TableRef> left,
                         ParseTablePrimary());
    for (;;) {
      const int left_height = height_;
      if (AcceptKeyword("join")) {
        E3D_ASSIGN_OR_RETURN(std::shared_ptr<const TableRef> right,
                             ParseTablePrimary());
        int height = std::max(left_height, height_);
        E3D_RETURN_IF_ERROR(ExpectKeyword("on"));
        E3D_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
        height = std::max(height, height_);
        E3D_ASSIGN_OR_RETURN(left,
                             Built(TableRef::Join(left, right, cond),
                                   height + 1));
      } else if (PeekSymbol(",")) {
        // Comma-join: only treat as a join when followed by a table
        // primary (an identifier or a parenthesized SELECT).
        Advance();
        E3D_ASSIGN_OR_RETURN(std::shared_ptr<const TableRef> right,
                             ParseTablePrimary());
        E3D_ASSIGN_OR_RETURN(
            left, Built(TableRef::Join(left, right, nullptr),
                        std::max(left_height, height_) + 1));
      } else {
        return left;
      }
    }
  }

  Result<std::shared_ptr<const TableRef>> ParseTablePrimary() {
    if (AcceptSymbol("(")) {
      E3D_ASSIGN_OR_RETURN(SelectStmtPtr sub, ParseSelect());
      E3D_RETURN_IF_ERROR(ExpectSymbol(")"));
      std::string alias;
      if (Peek().kind == TokKind::kIdent && !IsKeywordText(Peek().text)) {
        alias = Advance().text;
      }
      if (alias.empty()) {
        return Status(StatusCode::kParseError,
                      "FROM subquery requires an alias");
      }
      return Built(TableRef::Subquery(sub, alias), height_ + 1);
    }
    if (Peek().kind != TokKind::kIdent) return Err("expected table name");
    std::string name = Advance().text;
    std::string alias;
    if (Peek().kind == TokKind::kIdent && !IsKeywordText(Peek().text)) {
      alias = Advance().text;
    }
    return Built(TableRef::Base(name, alias), 1);
  }

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  /// `lhs op rhs` over two subtrees whose heights are `lhs_height` and
  /// height_ (the rhs was parsed last).
  Result<ExprPtr> BuiltBinary(BinaryOp op, ExprPtr lhs, int lhs_height,
                              ExprPtr rhs) {
    return Built(Expr::Binary(op, std::move(lhs), std::move(rhs)),
                 std::max(lhs_height, height_) + 1);
  }

  Result<ExprPtr> ParseOr() {
    E3D_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (AcceptKeyword("or")) {
      const int lhs_height = height_;
      E3D_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      E3D_ASSIGN_OR_RETURN(lhs,
                           BuiltBinary(BinaryOp::kOr, lhs, lhs_height, rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    E3D_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (AcceptKeyword("and")) {
      const int lhs_height = height_;
      E3D_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      E3D_ASSIGN_OR_RETURN(lhs,
                           BuiltBinary(BinaryOp::kAnd, lhs, lhs_height, rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (PeekKeyword("not") && !(Peek(1).kind == TokKind::kIdent &&
                                IEq(Peek(1).text, "exists"))) {
      Advance();
      Nest nest(this);
      E3D_RETURN_IF_ERROR(nest.Check());
      E3D_ASSIGN_OR_RETURN(ExprPtr inner, ParseNot());
      return Built(Expr::Unary(UnaryOp::kNot, inner), height_ + 1);
    }
    return ParsePredicate();
  }

  Result<ExprPtr> ParsePredicate() {
    // EXISTS / NOT EXISTS.
    bool not_exists = false;
    if (PeekKeyword("not") && Peek(1).kind == TokKind::kIdent &&
        IEq(Peek(1).text, "exists")) {
      Advance();
      not_exists = true;
    }
    if (AcceptKeyword("exists")) {
      E3D_RETURN_IF_ERROR(ExpectSymbol("("));
      E3D_ASSIGN_OR_RETURN(SelectStmtPtr sub, ParseSelect());
      E3D_RETURN_IF_ERROR(ExpectSymbol(")"));
      return Built(Expr::Exists(sub, not_exists), height_ + 1);
    }

    E3D_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    const int lhs_height = height_;

    // IS [NOT] NULL
    if (AcceptKeyword("is")) {
      bool neg = AcceptKeyword("not");
      E3D_RETURN_IF_ERROR(ExpectKeyword("null"));
      return Built(Expr::IsNull(lhs, neg), lhs_height + 1);
    }

    // [NOT] IN / [NOT] LIKE
    bool neg = false;
    if (PeekKeyword("not") && Peek(1).kind == TokKind::kIdent &&
        (IEq(Peek(1).text, "in") || IEq(Peek(1).text, "like"))) {
      Advance();
      neg = true;
    }
    if (AcceptKeyword("in")) {
      E3D_RETURN_IF_ERROR(ExpectSymbol("("));
      if (PeekKeyword("select")) {
        E3D_ASSIGN_OR_RETURN(SelectStmtPtr sub, ParseSelect());
        E3D_RETURN_IF_ERROR(ExpectSymbol(")"));
        return Built(Expr::InSubquery(lhs, sub, neg),
                     std::max(lhs_height, height_) + 1);
      }
      std::vector<Value> list;
      do {
        E3D_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        list.push_back(std::move(v));
      } while (AcceptSymbol(","));
      E3D_RETURN_IF_ERROR(ExpectSymbol(")"));
      return Built(Expr::InList(lhs, std::move(list), neg), lhs_height + 1);
    }
    if (AcceptKeyword("like")) {
      E3D_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      E3D_ASSIGN_OR_RETURN(ExprPtr like, BuiltBinary(BinaryOp::kLike, lhs,
                                                      lhs_height, rhs));
      if (!neg) return like;
      return Built(Expr::Unary(UnaryOp::kNot, like), height_ + 1);
    }
    if (neg) return Err("dangling NOT");

    // Comparison.
    struct CmpMap {
      const char* sym;
      BinaryOp op;
    };
    static const CmpMap kCmps[] = {
        {"=", BinaryOp::kEq},  {"<>", BinaryOp::kNe}, {"!=", BinaryOp::kNe},
        {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},
        {">", BinaryOp::kGt},
    };
    for (const CmpMap& cm : kCmps) {
      if (PeekSymbol(cm.sym)) {
        Advance();
        E3D_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        return BuiltBinary(cm.op, lhs, lhs_height, rhs);
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    E3D_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    for (;;) {
      BinaryOp op;
      if (AcceptSymbol("+")) {
        op = BinaryOp::kAdd;
      } else if (AcceptSymbol("-")) {
        op = BinaryOp::kSub;
      } else {
        return lhs;
      }
      const int lhs_height = height_;
      E3D_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      E3D_ASSIGN_OR_RETURN(lhs, BuiltBinary(op, lhs, lhs_height, rhs));
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    E3D_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    for (;;) {
      BinaryOp op;
      if (AcceptSymbol("*")) {
        op = BinaryOp::kMul;
      } else if (AcceptSymbol("/")) {
        op = BinaryOp::kDiv;
      } else {
        return lhs;
      }
      const int lhs_height = height_;
      E3D_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      E3D_ASSIGN_OR_RETURN(lhs, BuiltBinary(op, lhs, lhs_height, rhs));
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (AcceptSymbol("-")) {
      Nest nest(this);
      E3D_RETURN_IF_ERROR(nest.Check());
      E3D_ASSIGN_OR_RETURN(ExprPtr inner, ParseUnary());
      return Built(Expr::Unary(UnaryOp::kNeg, inner), height_ + 1);
    }
    return ParseAtom();
  }

  Result<Value> ParseLiteralValue() {
    const Token& t = Peek();
    if (t.kind == TokKind::kNumber) {
      Advance();
      if (t.is_int) return Value(t.int_value);
      return Value(t.number);
    }
    if (t.kind == TokKind::kString) {
      Advance();
      return Value(t.text);
    }
    if (PeekKeyword("null")) {
      Advance();
      return Value::Null();
    }
    if (PeekSymbol("-") && Peek(1).kind == TokKind::kNumber) {
      Advance();
      const Token& num = Advance();
      if (num.is_int) return Value(-num.int_value);
      return Value(-num.number);
    }
    return Status(StatusCode::kParseError, "expected literal");
  }

  Result<ExprPtr> ParseAtom() {
    const Token& t = Peek();
    if (t.kind == TokKind::kNumber || t.kind == TokKind::kString ||
        PeekKeyword("null")) {
      E3D_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
      return Built(Expr::Literal(std::move(v)), 1);
    }
    if (AcceptSymbol("(")) {
      Nest nest(this);
      E3D_RETURN_IF_ERROR(nest.Check());
      E3D_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      E3D_RETURN_IF_ERROR(ExpectSymbol(")"));
      return inner;
    }
    if (t.kind == TokKind::kIdent && !IsKeywordText(t.text)) {
      E3D_ASSIGN_OR_RETURN(std::string name, ParseColumnName());
      return Built(Expr::Column(std::move(name)), 1);
    }
    return Err("expected literal, column, or '('");
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
  int depth_ = 0;   ///< grammar rules currently nested
  int height_ = 0;  ///< height of the subtree the last rule returned
};

}  // namespace

Result<SelectStmtPtr> ParseSql(const std::string& sql) {
  std::vector<Token> toks;
  Lexer lexer(sql);
  Status st = lexer.Tokenize(&toks);
  if (!st.ok()) return st;
  Parser parser(std::move(toks));
  return parser.ParseSelectStatement();
}

Result<ExprPtr> ParseExpression(const std::string& text) {
  std::vector<Token> toks;
  Lexer lexer(text);
  Status st = lexer.Tokenize(&toks);
  if (!st.ok()) return st;
  Parser parser(std::move(toks));
  return parser.ParseStandaloneExpression();
}

}  // namespace explain3d
