// Relational engine tests: values, schemas, parser, executor, planner,
// CSV round-trips.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

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

}  // namespace
}  // namespace explain3d
