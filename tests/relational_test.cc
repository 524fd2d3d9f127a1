// Relational engine tests: values, schemas, parser, executor, planner,
// CSV round-trips, and seeded fuzzing of the untrusted text inputs (SQL,
// expressions, CSV).
//
// The fuzz cases draw every input from Rng(seed); a failure names its
// seed and case. Replay one with EXPLAIN3D_FUZZ_SEED_BASE=<seed>
// EXPLAIN3D_FUZZ_SEEDS=1, and widen the sweep with EXPLAIN3D_FUZZ_SEEDS /
// EXPLAIN3D_FUZZ_CASES.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "relational/csv.h"
#include "relational/executor.h"
#include "relational/parser.h"
#include "relational/planner.h"

namespace explain3d {
namespace {

Database MakeDb() {
  Database db("test");
  Schema ms;
  ms.AddColumn(Column("id", DataType::kInt64));
  ms.AddColumn(Column("name", DataType::kString));
  ms.AddColumn(Column("score", DataType::kDouble));
  ms.AddColumn(Column("dept", DataType::kString));
  Table people("People", ms);
  people.AppendUnchecked({1, "alice", 3.5, "cs"});
  people.AppendUnchecked({2, "bob", 2.0, "cs"});
  people.AppendUnchecked({3, "carol", 4.0, "math"});
  people.AppendUnchecked({4, "dave", Value::Null(), "math"});
  db.PutTable(std::move(people));

  Schema ds;
  ds.AddColumn(Column("dept", DataType::kString));
  ds.AddColumn(Column("building", DataType::kString));
  Table depts("Depts", ds);
  depts.AppendUnchecked({"cs", "north"});
  depts.AppendUnchecked({"math", "south"});
  db.PutTable(std::move(depts));
  return db;
}

TEST(ValueTest, CompareAndHashSemantics) {
  EXPECT_EQ(Value(2).Compare(Value(2.0)), 0);
  EXPECT_LT(Value(1).Compare(Value(2)), 0);
  EXPECT_EQ(Value(2).Hash(), Value(2.0).Hash());
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Null().Compare(Value(0)), 0);   // NULL orders first
  EXPECT_LT(Value(5).Compare(Value("5")), 0);      // numbers before strings
  EXPECT_EQ(Value("ab").Compare(Value("ab")), 0);
}

TEST(ValueTest, NanEqualsNanAndSortsAfterEveryNumber) {
  const Value nan(std::nan(""));
  const Value neg_nan(-std::nan(""));
  const Value payload_nan(std::nan("7"));
  EXPECT_EQ(nan.Compare(neg_nan), 0);
  EXPECT_EQ(nan.Compare(payload_nan), 0);
  EXPECT_GT(nan.Compare(Value(1)), 0);
  EXPECT_GT(nan.Compare(Value(HUGE_VAL)), 0);
  EXPECT_LT(Value(-HUGE_VAL).Compare(nan), 0);
  EXPECT_LT(Value(2.0).Compare(nan), 0);
  EXPECT_GT(nan.Compare(Value::Null()), 0);  // NULL still orders first
  EXPECT_LT(nan.Compare(Value("a")), 0);     // strings still order last
  EXPECT_EQ(nan.Hash(), neg_nan.Hash());
  EXPECT_EQ(nan.Hash(), payload_nan.Hash());
  EXPECT_EQ(Value(-0.0).Compare(Value(0.0)), 0);
  EXPECT_EQ(Value(-0.0).Hash(), Value(0.0).Hash());
  EXPECT_EQ(Value(-0.0).Hash(), Value(0).Hash());
}

// k = [1, NaN, 2, 3, NaN, 1, 4]; the NaNs arrive through the CSV parse
// path (ParseValueAs → strtod accepts "nan").
Database NanKeyDb() {
  Database db("nan");
  Schema s;
  s.AddColumn(Column("k", DataType::kDouble));
  Table t("T", s);
  for (const char* text : {"1", "nan", "2", "3", "nan", "1", "4"}) {
    t.AppendUnchecked({ParseValueAs(text, DataType::kDouble).value()});
  }
  db.PutTable(std::move(t));
  return db;
}

TEST(ExecutorTest, DistinctKeepsOneNanRowApartFromTheNumbers) {
  Database db = NanKeyDb();
  Executor exec(&db);
  Table distinct = exec.ExecuteSql("SELECT DISTINCT k FROM T").value();
  ASSERT_EQ(distinct.num_rows(), 5u);
  // Sorted: the numbers ascending, then NaN.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(distinct.row(i)[0].AsDouble(), static_cast<double>(i + 1));
  }
  EXPECT_TRUE(std::isnan(distinct.row(4)[0].AsDouble()));
}

TEST(ExecutorTest, GroupByPutsNanRowsInTheirOwnGroup) {
  Database db = NanKeyDb();
  Executor exec(&db);
  Table grouped =
      exec.ExecuteSql("SELECT k, COUNT(k) AS n FROM T GROUP BY k").value();
  ASSERT_EQ(grouped.num_rows(), 5u);
  std::vector<int64_t> counts;
  for (size_t i = 0; i < grouped.num_rows(); ++i) {
    counts.push_back(grouped.Get(i, "n").AsInt64());
  }
  EXPECT_EQ(counts, (std::vector<int64_t>{2, 1, 1, 1, 2}));
  EXPECT_EQ(grouped.Get(0, "k").AsDouble(), 1.0);
  EXPECT_TRUE(std::isnan(grouped.Get(4, "k").AsDouble()));
}

TEST(ValueTest, ParseValueAsTypes) {
  EXPECT_EQ(ParseValueAs("42", DataType::kInt64).value().AsInt64(), 42);
  EXPECT_DOUBLE_EQ(ParseValueAs("2.5", DataType::kDouble).value().AsDouble(),
                   2.5);
  EXPECT_TRUE(ParseValueAs("", DataType::kInt64).value().is_null());
  EXPECT_FALSE(ParseValueAs("4x", DataType::kInt64).ok());
}

TEST(SchemaTest, QualifiedAndSuffixResolution) {
  Schema s;
  s.AddColumn(Column("People.id", DataType::kInt64));
  s.AddColumn(Column("Depts.dept", DataType::kString));
  s.AddColumn(Column("People.dept", DataType::kString));
  EXPECT_EQ(s.Resolve("People.id").value(), 0u);
  EXPECT_EQ(s.Resolve("id").value(), 0u);  // unique suffix
  EXPECT_FALSE(s.Resolve("dept").ok());    // ambiguous suffix
  EXPECT_EQ(s.Resolve("people.DEPT").value(), 2u);  // case-insensitive
}

TEST(ParserTest, ParsesAggregatesJoinsAndPredicates) {
  auto stmt = ParseSql(
                  "SELECT SUM(score) FROM People JOIN Depts ON "
                  "People.dept = Depts.dept WHERE score >= 2 AND "
                  "name LIKE 'a%' OR dept IN ('cs', 'math')")
                  .value();
  EXPECT_TRUE(stmt->HasAggregate());
  EXPECT_EQ(stmt->from->kind, TableRef::Kind::kJoin);
  EXPECT_NE(stmt->where, nullptr);
}

TEST(ParserTest, RejectsMalformedSql) {
  EXPECT_FALSE(ParseSql("SELECT FROM x").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t").ok());  // unsupported star
  EXPECT_FALSE(ParseSql("FROBNICATE").ok());
}

TEST(ParserTest, RoundTripsThroughToSql) {
  const char* sql =
      "SELECT COUNT(id) FROM People WHERE dept = 'cs' AND score > 1";
  auto stmt = ParseSql(sql).value();
  auto again = ParseSql(stmt->ToSql()).value();
  EXPECT_EQ(stmt->ToSql(), again->ToSql());
}

TEST(ExecutorTest, CountSumAvgMaxMin) {
  Database db = MakeDb();
  Executor exec(&db);
  EXPECT_EQ(exec.ExecuteScalarSql("SELECT COUNT(id) FROM People")
                .value().AsInt64(), 4);
  // COUNT(attr) skips NULLs.
  EXPECT_EQ(exec.ExecuteScalarSql("SELECT COUNT(score) FROM People")
                .value().AsInt64(), 3);
  EXPECT_DOUBLE_EQ(exec.ExecuteScalarSql("SELECT SUM(score) FROM People")
                       .value().AsDouble(), 9.5);
  EXPECT_DOUBLE_EQ(exec.ExecuteScalarSql("SELECT AVG(score) FROM People")
                       .value().AsDouble(), 9.5 / 3);
  EXPECT_DOUBLE_EQ(exec.ExecuteScalarSql("SELECT MAX(score) FROM People")
                       .value().AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(exec.ExecuteScalarSql("SELECT MIN(score) FROM People")
                       .value().AsDouble(), 2.0);
}

TEST(ExecutorTest, HashJoinMatchesCommaJoin) {
  Database db = MakeDb();
  Executor exec(&db);
  auto a = exec.ExecuteSql(
               "SELECT name, building FROM People JOIN Depts ON "
               "People.dept = Depts.dept WHERE score > 2")
               .value();
  auto b = exec.ExecuteSql(
               "SELECT name, building FROM People, Depts WHERE "
               "People.dept = Depts.dept AND score > 2")
               .value();
  EXPECT_EQ(a.num_rows(), 2u);
  EXPECT_EQ(a.num_rows(), b.num_rows());
}

TEST(ExecutorTest, GroupByAndDistinct) {
  Database db = MakeDb();
  Executor exec(&db);
  auto grouped = exec.ExecuteSql(
                     "SELECT dept, COUNT(id) AS n FROM People GROUP BY dept")
                     .value();
  ASSERT_EQ(grouped.num_rows(), 2u);
  EXPECT_EQ(grouped.Get(0, "n").AsInt64(), 2);
  auto distinct =
      exec.ExecuteSql("SELECT DISTINCT dept FROM People").value();
  EXPECT_EQ(distinct.num_rows(), 2u);
}

TEST(ExecutorTest, SubqueriesInAndNotIn) {
  Database db = MakeDb();
  Executor exec(&db);
  auto in = exec.ExecuteSql(
                "SELECT name FROM People WHERE dept IN "
                "(SELECT dept FROM Depts WHERE building = 'north')")
                .value();
  EXPECT_EQ(in.num_rows(), 2u);
  auto not_in = exec.ExecuteSql(
                    "SELECT name FROM People WHERE dept NOT IN "
                    "(SELECT dept FROM Depts WHERE building = 'north')")
                    .value();
  EXPECT_EQ(not_in.num_rows(), 2u);
}

TEST(ExecutorTest, NullComparisonIsFalse) {
  Database db = MakeDb();
  Executor exec(&db);
  // dave's NULL score must not satisfy either branch.
  auto rows = exec.ExecuteSql(
                  "SELECT name FROM People WHERE score > 0 OR score <= 0")
                  .value();
  EXPECT_EQ(rows.num_rows(), 3u);
  auto isnull =
      exec.ExecuteSql("SELECT name FROM People WHERE score IS NULL")
          .value();
  ASSERT_EQ(isnull.num_rows(), 1u);
  EXPECT_EQ(isnull.row(0)[0].AsString(), "dave");
}

TEST(ExecutorTest, LikeMatching) {
  EXPECT_TRUE(SqlLikeMatch("Computer Science", "comp%"));
  EXPECT_TRUE(SqlLikeMatch("1954-06-11", "1954%"));
  EXPECT_TRUE(SqlLikeMatch("abc", "a_c"));
  EXPECT_FALSE(SqlLikeMatch("abc", "a_d"));
  EXPECT_FALSE(SqlLikeMatch("abc", "b%"));
}

TEST(PlannerTest, PushdownPreservesSemantics) {
  Database db = MakeDb();
  auto stmt = ParseSql(
                  "SELECT name FROM People, Depts WHERE "
                  "People.dept = Depts.dept AND building = 'south'")
                  .value();
  auto pushed = PushDownPredicates(db, *stmt).value();
  // The comma join must have received a condition.
  ASSERT_EQ(pushed->from->kind, TableRef::Kind::kJoin);
  EXPECT_NE(pushed->from->condition, nullptr);
  Executor exec(&db);
  auto rows = exec.Execute(*stmt).value();
  EXPECT_EQ(rows.num_rows(), 2u);
}

TEST(CsvTest, RoundTrip) {
  Database db = MakeDb();
  const Table& t = *db.GetTable("People").value();
  std::string text = ToCsv(t);
  Table back = ParseCsv("People", text).value();
  ASSERT_EQ(back.num_rows(), t.num_rows());
  ASSERT_EQ(back.num_columns(), t.num_columns());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      EXPECT_EQ(back.row(r)[c].Compare(t.row(r)[c]), 0) << r << "," << c;
    }
  }
}

TEST(CsvTest, QuotedFieldsAndEscapes) {
  Table t = ParseCsv("q",
                     "a:str,b:int\n"
                     "\"hello, world\",1\n"
                     "\"say \"\"hi\"\"\",2\n")
                .value();
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.row(0)[0].AsString(), "hello, world");
  EXPECT_EQ(t.row(1)[0].AsString(), "say \"hi\"");
}

// --- hostile SQL: the parser's depth bound ---------------------------------
//
// SQL text is request input. Each shape below nests or chains far past
// the parser's bound (256 levels); each must end in kParseError instead
// of exhausting the stack in the parser or in whatever walks the tree.

// t(x) holds 1, 2, 3; one(y) holds the single row 7.
Database MakeDeepDb() {
  Database db("deep");
  Schema ts;
  ts.AddColumn(Column("x", DataType::kInt64));
  Table t("t", ts);
  for (int64_t x : {1, 2, 3}) t.AppendUnchecked({Value(x)});
  db.PutTable(std::move(t));
  Schema os;
  os.AddColumn(Column("y", DataType::kInt64));
  Table one("one", os);
  one.AppendUnchecked({Value(int64_t{7})});
  db.PutTable(std::move(one));
  return db;
}

std::string Repeat(const std::string& s, size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (size_t i = 0; i < n; ++i) out += s;
  return out;
}

// The shapes, each `n` deep, and the value SUM gives within the bound.
enum class Shape {
  kParens,
  kNots,
  kMinuses,
  kSubqueries,
  kSumChain,
  kAndChain,
  kJoinChain,
};

std::string DeepSql(Shape shape, size_t n) {
  switch (shape) {
    case Shape::kParens:
      return "SELECT SUM(x) FROM t WHERE " + Repeat("(", n) + "x > 1" +
             Repeat(")", n);
    case Shape::kNots:
      return "SELECT SUM(x) FROM t WHERE " + Repeat("NOT ", n) + "x > 1";
    case Shape::kMinuses:
      return "SELECT SUM(" + Repeat("-", n) + "x) FROM t";
    case Shape::kSubqueries:
      return "SELECT SUM(x) FROM " + Repeat("(SELECT x FROM ", n) + "t" +
             Repeat(") s", n);
    case Shape::kSumChain:
      return "SELECT SUM(x" + Repeat(" + x", n - 1) + ") FROM t";
    case Shape::kAndChain:
      return "SELECT SUM(x) FROM t WHERE x > 0" + Repeat(" AND x > 0", n - 1);
    case Shape::kJoinChain: {
      std::string sql = "SELECT SUM(j0.y) FROM one j0";
      for (size_t i = 1; i < n; ++i) sql += ", one j" + std::to_string(i);
      return sql;
    }
  }
  return "";
}

double DeepSum(Shape shape, size_t n) {
  switch (shape) {
    case Shape::kParens:
      return 5;
    case Shape::kNots:
      return n % 2 == 0 ? 5 : 1;
    case Shape::kMinuses:
      return n % 2 == 0 ? 6 : -6;
    case Shape::kSubqueries:
    case Shape::kAndChain:
      return 6;
    case Shape::kSumChain:
      return 6.0 * static_cast<double>(n);
    case Shape::kJoinChain:
      return 7;
  }
  return 0;
}

// Parses `sql`, expecting the depth bound to refuse it. Should a parse
// succeed, the statement is executed too: that is where a too-deep tree
// used to crash.
void ExpectTooDeep(const std::string& sql) {
  Result<SelectStmtPtr> stmt = ParseSql(sql);
  Database db = MakeDeepDb();
  ASSERT_FALSE(stmt.ok()) << "parsed; executing: "
                          << Executor(&db).ExecuteScalar(*stmt.value())
                                 .status()
                                 .ToString();
  EXPECT_EQ(stmt.status().code(), StatusCode::kParseError);
  EXPECT_NE(stmt.status().message().find("nested deeper"), std::string::npos)
      << stmt.status().ToString();
}

TEST(ParserDepthTest, FiveThousandNestedParenthesesFailToParse) {
  ExpectTooDeep(DeepSql(Shape::kParens, 5000));
}

TEST(ParserDepthTest, HundredThousandNotsFailToParse) {
  ExpectTooDeep(DeepSql(Shape::kNots, 100000));
}

TEST(ParserDepthTest, HundredThousandUnaryMinusesFailToParse) {
  ExpectTooDeep(DeepSql(Shape::kMinuses, 100000));
}

TEST(ParserDepthTest, HundredThousandNestedFromSubqueriesFailToParse) {
  ExpectTooDeep(DeepSql(Shape::kSubqueries, 100000));
}

TEST(ParserDepthTest, HundredThousandTermSumChainFailsToParse) {
  ExpectTooDeep(DeepSql(Shape::kSumChain, 100000));
}

TEST(ParserDepthTest, LongAndAndJoinChainsFailToParse) {
  ExpectTooDeep(DeepSql(Shape::kAndChain, 100000));
  ExpectTooDeep(DeepSql(Shape::kJoinChain, 100000));
}

TEST(ParserDepthTest, StandaloneExpressionsAreBoundedToo) {
  for (const std::string& text : {
           Repeat("(", 5000) + "1" + Repeat(")", 5000),
           Repeat("NOT ", 100000) + "x > 1",
           Repeat("-", 100000) + "1",
           "1" + Repeat(" * 1", 100000),
       }) {
    Result<ExprPtr> e = ParseExpression(text);
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.status().code(), StatusCode::kParseError);
  }
}

TEST(ParserDepthTest, DeepQueriesWithinTheBoundParseAndExecute) {
  Database db = MakeDeepDb();
  Executor exec(&db);
  // A subquery level and a join level each add two nodes to the tree.
  const std::pair<Shape, size_t> cases[] = {
      {Shape::kParens, 200},    {Shape::kNots, 200},
      {Shape::kNots, 201},      {Shape::kMinuses, 200},
      {Shape::kMinuses, 201},   {Shape::kSubqueries, 100},
      {Shape::kSumChain, 200},  {Shape::kAndChain, 120},
      {Shape::kJoinChain, 120},
  };
  for (const auto& [shape, n] : cases) {
    SCOPED_TRACE(DeepSql(shape, 3) + " at depth " + std::to_string(n));
    Result<SelectStmtPtr> stmt = ParseSql(DeepSql(shape, n));
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    Result<Value> v = exec.ExecuteScalar(*stmt.value());
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(v.value().AsDouble(), DeepSum(shape, n));
    // Rendering walks the whole tree as well.
    EXPECT_FALSE(stmt.value()->ToSql().empty());
  }
}

// --- seeded fuzzing of the untrusted text inputs ----------------------------

size_t EnvSize(const char* name, size_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr) return fallback;
  long v = std::atol(s);
  return v > 0 ? static_cast<size_t>(v) : fallback;
}

// Runs `body(rng, seed, case)` over the configured seeds and cases.
template <typename Body>
void ForEachFuzzCase(size_t default_cases, Body body) {
  const size_t seeds = EnvSize("EXPLAIN3D_FUZZ_SEEDS", 4);
  const size_t base = EnvSize("EXPLAIN3D_FUZZ_SEED_BASE", 1);
  const size_t cases = EnvSize("EXPLAIN3D_FUZZ_CASES", default_cases);
  for (size_t seed = base; seed < base + seeds; ++seed) {
    Rng rng(seed);
    for (size_t k = 0; k < cases; ++k) {
      body(rng, seed, k);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

std::string Excerpt(const std::string& s) {
  return s.size() <= 200 ? s : s.substr(0, 200) + "...";
}

const char* const kSqlTokens[] = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "JOIN", "ON",
    "AND", "OR", "NOT", "IN", "LIKE", "IS", "NULL", "EXISTS", "COUNT",
    "SUM", "AVG", "MAX", "MIN", "AS", "People", "Depts", "p", "d", "id",
    "name", "score", "dept", "building", "x", "p.dept", "d.dept", "0",
    "1", "42", "-3", "2.5", ".5", "1e3", "'cs'", "'a%'", "''", "'it''s'",
    "\"q\"", "(", ")", "(", ")", ",", ".", "*", "=", "<", ">", "<=",
    ">=", "<>", "!=", "+", "-", "/", ";", "'open", "#", "\x01", "\xff",
};

// Token soup: a random token sequence, usually led by SELECT, and now and
// then wrapped in a deep run of openers (past the bound or not) that may
// or may not close.
std::string RandomSql(Rng& rng) {
  std::string sql = rng.Bernoulli(0.7) ? "SELECT " : "";
  const size_t n = static_cast<size_t>(rng.UniformInt(0, 40));
  const size_t vocab = sizeof(kSqlTokens) / sizeof(kSqlTokens[0]);
  for (size_t i = 0; i < n; ++i) {
    sql += kSqlTokens[rng.Index(vocab)];
    if (rng.Bernoulli(0.9)) sql += ' ';
  }
  if (rng.Bernoulli(0.05)) {
    const char* const openers[] = {"(", "NOT ", "-", "(SELECT x FROM ",
                                   "x + "};
    const size_t depth = static_cast<size_t>(rng.UniformInt(1, 600));
    std::string deep;
    for (size_t i = 0; i < depth; ++i) deep += openers[rng.Index(5)];
    deep += "x";
    if (rng.Bernoulli(0.5)) deep += Repeat(")", depth);
    sql = rng.Bernoulli(0.5) ? "SELECT SUM(x) FROM t WHERE " + deep
                             : sql + deep;
  }
  return sql;
}

TEST(SqlFuzzTest, RandomSqlEndsInAStatusNeverACrash) {
  Database db = MakeDeepDb();
  Executor exec(&db);
  ForEachFuzzCase(5000, [&](Rng& rng, size_t seed, size_t k) {
    const std::string sql = RandomSql(rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + " case " +
                 std::to_string(k) + ": " + Excerpt(sql));
    Result<SelectStmtPtr> stmt = ParseSql(sql);
    if (!stmt.ok()) {
      const StatusCode code = stmt.status().code();
      EXPECT_TRUE(code == StatusCode::kParseError ||
                  code == StatusCode::kUnsupported)
          << stmt.status().ToString();
      return;
    }
    // A parsed statement renders, and runs against a small database
    // unless its FROM clause multiplies tables (a cross product of many
    // copies would only measure the machine).
    const std::string rendered = stmt.value()->ToSql();
    EXPECT_FALSE(rendered.empty());
    if (stmt.value()->from->kind != TableRef::Kind::kJoin) {
      exec.Execute(*stmt.value()).status();
    }
  });
}

TEST(SqlFuzzTest, RandomExpressionsEndInAStatusNeverACrash) {
  ForEachFuzzCase(5000, [&](Rng& rng, size_t seed, size_t k) {
    std::string text = RandomSql(rng);
    if (text.rfind("SELECT ", 0) == 0) text = text.substr(7);
    SCOPED_TRACE("seed " + std::to_string(seed) + " case " +
                 std::to_string(k) + ": " + Excerpt(text));
    Result<ExprPtr> e = ParseExpression(text);
    if (e.ok()) {
      EXPECT_FALSE(e.value()->ToString().empty());
    } else {
      EXPECT_EQ(e.status().code(), StatusCode::kParseError)
          << e.status().ToString();
    }
  });
}

const DataType kCsvTypes[] = {DataType::kInt64, DataType::kDouble,
                              DataType::kString};

const char* CsvSuffix(DataType t) {
  return t == DataType::kInt64 ? "int" : t == DataType::kDouble ? "real"
                                                                : "str";
}

TEST(CsvFuzzTest, RandomBytesUnderTypedHeadersEndInAStatus) {
  // Bytes a CSV reader must handle: separators, quotes, line ends, the
  // pieces of numbers, NUL, and bytes past ASCII.
  static const char kBytes[] = ",,\"\"\n\n\r 0123456789-+.eEnaif xyz\0\x80\xff";
  ForEachFuzzCase(3000, [&](Rng& rng, size_t seed, size_t k) {
    const size_t cols = static_cast<size_t>(rng.UniformInt(1, 4));
    std::vector<DataType> types;
    std::string text;
    for (size_t c = 0; c < cols; ++c) {
      types.push_back(kCsvTypes[rng.Index(3)]);
      text += (c > 0 ? ",c" : "c") + std::to_string(c) + ":" +
              CsvSuffix(types.back());
    }
    text += '\n';
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 120));
    for (size_t i = 0; i < n; ++i) {
      text += kBytes[rng.Index(sizeof(kBytes) - 1)];
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + " case " +
                 std::to_string(k));
    Result<Table> t = ParseCsv("f", text);
    if (!t.ok()) {
      EXPECT_EQ(t.status().code(), StatusCode::kParseError)
          << t.status().ToString();
      return;
    }
    ASSERT_EQ(t.value().num_columns(), cols);
    for (const Row& row : t.value().rows()) {
      ASSERT_EQ(row.size(), cols);
      for (size_t c = 0; c < cols; ++c) {
        EXPECT_TRUE(row[c].is_null() || row[c].type() == types[c])
            << "column " << c;
      }
    }
  });
}

// A random cell of type `type`, drawn across the whole value domain.
Value RandomCell(Rng& rng, DataType type) {
  static const char kChars[] = ",\"\n\r ab:\0\x80\xff";
  if (rng.Bernoulli(0.1)) return Value::Null();
  switch (type) {
    case DataType::kInt64:
      return rng.Bernoulli(0.5)
                 ? Value(static_cast<int64_t>(rng.NextU64()))
                 : Value(rng.UniformInt(-1000, 1000));
    case DataType::kDouble: {
      if (rng.Bernoulli(0.5)) return Value(rng.UniformDouble(-1e6, 1e6));
      uint64_t bits = rng.NextU64();
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Value(d);  // any bit pattern: NaN, inf, denormals, -0.0
    }
    default: {
      std::string s;
      const size_t len = static_cast<size_t>(rng.UniformInt(0, 12));
      for (size_t i = 0; i < len; ++i) {
        s += kChars[rng.Index(sizeof(kChars) - 1)];
      }
      return Value(s);
    }
  }
}

TEST(CsvFuzzTest, ToCsvParseCsvRoundTripsEveryValue) {
  ForEachFuzzCase(1000, [&](Rng& rng, size_t seed, size_t k) {
    const size_t cols = static_cast<size_t>(rng.UniformInt(1, 4));
    Schema schema;
    for (size_t c = 0; c < cols; ++c) {
      // Names read back trimmed (csv.h), so none starts or ends in a
      // space; separators, quotes and colons inside them must survive.
      schema.AddColumn(Column("c" + std::to_string(c) +
                                  (rng.Bernoulli(0.3) ? ", \":x" : ""),
                              kCsvTypes[rng.Index(3)]));
    }
    Table table("t", schema);
    const size_t rows = static_cast<size_t>(rng.UniformInt(0, 20));
    for (size_t r = 0; r < rows; ++r) {
      Row row;
      for (size_t c = 0; c < cols; ++c) {
        row.push_back(RandomCell(rng, schema.column(c).type));
      }
      table.AppendUnchecked(std::move(row));
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + " case " +
                 std::to_string(k));
    Result<Table> back = ParseCsv("t", ToCsv(table));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back.value().num_columns(), cols);
    ASSERT_EQ(back.value().num_rows(), rows);
    for (size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(back.value().schema().column(c).name, schema.column(c).name);
      EXPECT_EQ(back.value().schema().column(c).type, schema.column(c).type);
    }
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        const Value& want = table.row(r)[c];
        const Value& got = back.value().row(r)[c];
        SCOPED_TRACE("row " + std::to_string(r) + " column " +
                     std::to_string(c) + ": " + want.ToDisplayString());
        if (want.is_null() ||
            (want.type() == DataType::kString && want.AsString().empty())) {
          EXPECT_TRUE(got.is_null());  // CSV's one NULL: the empty cell
        } else if (want.type() == DataType::kDouble) {
          ASSERT_EQ(got.type(), DataType::kDouble);
          const double w = want.AsDouble(), g = got.AsDouble();
          if (std::isnan(w)) {
            EXPECT_TRUE(std::isnan(g));
          } else {
            EXPECT_EQ(std::memcmp(&w, &g, sizeof(w)), 0) << g;
          }
        } else {
          EXPECT_EQ(got.type(), want.type());
          EXPECT_EQ(got.Compare(want), 0) << got.ToDisplayString();
        }
      }
    }
  });
}

}  // namespace
}  // namespace explain3d
