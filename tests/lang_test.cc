// KNNQL front-end tests: canonical parsing of all six query shapes,
// positioned diagnostics (bad token, unknown relation, k = 0,
// malformed numbers), the Parse(Unparse(spec)) == spec round-trip over
// randomized specs, and text-vs-programmatic equivalence through the
// QueryEngine (the CLI `query` path and the C++ API must return
// identical results).

#include <string>
#include <variant>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/random.h"
#include "src/engine/query_engine.h"
#include "src/lang/binder.h"
#include "src/lang/parser.h"
#include "src/lang/unparser.h"
#include "src/planner/optimizer.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using testing::MakeCity;
using testing::MakeClustered;
using testing::MakeUniform;

Catalog MakeLangCatalog() {
  Catalog catalog;
  IndexOptions options;
  options.block_capacity = 16;
  EXPECT_TRUE(
      catalog.AddRelation("uniform", MakeUniform(500, 11, 0), options).ok());
  EXPECT_TRUE(
      catalog.AddRelation("city", MakeCity(500, 12, 100000), options).ok());
  EXPECT_TRUE(catalog
                  .AddRelation("clustered", MakeClustered(3, 80, 13, 200000),
                               options)
                  .ok());
  return catalog;
}

/// Parses and binds exactly one query statement, the way both front
/// ends do (knnql::ParseStatement, then knnql::Bind). A null `catalog`
/// skips existence checks (syntax + shape only).
Result<QuerySpec> ParseQuery(const std::string& text,
                             const Catalog* catalog = nullptr) {
  auto statement = knnql::ParseStatement(text);
  if (!statement.ok()) return statement.status();
  const auto* query = std::get_if<knnql::Query>(&statement->body);
  if (query == nullptr) return Status::InvalidArgument("not a query");
  return knnql::Bind(*query, catalog);
}

/// Binds one parsed query statement without a catalog.
QuerySpec BindOf(const knnql::Statement& statement) {
  auto spec = knnql::Bind(std::get<knnql::Query>(statement.body), nullptr);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.ok() ? *spec : QuerySpec{};
}

/// Parses one statement without a catalog (syntax + shape only).
QuerySpec MustParse(const std::string& text) {
  auto spec = ParseQuery(text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString() << "\n  in: " << text;
  return spec.ok() ? *spec : QuerySpec{};
}

// --------------------------------------------------------- parsing

TEST(KnnqlParseTest, TwoSelects) {
  const QuerySpec spec = MustParse(
      "SELECT KNN(hotels, 5, AT(3, 4)) INTERSECT KNN(hotels, 8, "
      "AT(1.5, -2));");
  const TwoSelectsSpec expected{
      .relation = "hotels",
      .s1 = {.focal = {.id = -1, .x = 3, .y = 4}, .k = 5},
      .s2 = {.focal = {.id = -1, .x = 1.5, .y = -2}, .k = 8},
  };
  EXPECT_EQ(spec, QuerySpec(expected));
}

TEST(KnnqlParseTest, SelectInnerJoin) {
  const QuerySpec spec = MustParse(
      "JOIN KNN(mechanics, hotels, 3) WHERE INNER IN KNN(hotels, 10, "
      "AT(7, 9));");
  const SelectInnerJoinSpec expected{
      .outer = "mechanics",
      .inner = "hotels",
      .join_k = 3,
      .select = {.focal = {.id = -1, .x = 7, .y = 9}, .k = 10},
  };
  EXPECT_EQ(spec, QuerySpec(expected));
}

TEST(KnnqlParseTest, SelectOuterJoin) {
  const QuerySpec spec = MustParse(
      "JOIN KNN(mechanics, hotels, 3) WHERE OUTER IN KNN(mechanics, 4, "
      "AT(7, 9));");
  const SelectOuterJoinSpec expected{
      .outer = "mechanics",
      .inner = "hotels",
      .join_k = 3,
      .select = {.focal = {.id = -1, .x = 7, .y = 9}, .k = 4},
  };
  EXPECT_EQ(spec, QuerySpec(expected));
}

TEST(KnnqlParseTest, RangeInnerJoin) {
  const QuerySpec spec = MustParse(
      "JOIN KNN(trucks, depots, 2) WHERE INNER IN RANGE(0, 0, 100, 80);");
  const RangeInnerJoinSpec expected{
      .outer = "trucks",
      .inner = "depots",
      .join_k = 2,
      .range = BoundingBox(0, 0, 100, 80),
  };
  EXPECT_EQ(spec, QuerySpec(expected));
}

TEST(KnnqlParseTest, ChainedJoins) {
  const QuerySpec spec = MustParse(
      "JOIN KNN(depots, warehouses, 3) THEN KNN(warehouses, customers, "
      "5);");
  const ChainedJoinsSpec expected{
      .a = "depots",
      .b = "warehouses",
      .c = "customers",
      .k_ab = 3,
      .k_bc = 5,
  };
  EXPECT_EQ(spec, QuerySpec(expected));
}

TEST(KnnqlParseTest, UnchainedJoins) {
  const QuerySpec spec = MustParse(
      "JOIN KNN(depots, warehouses, 3) INTERSECT KNN(sites, warehouses, "
      "5);");
  const UnchainedJoinsSpec expected{
      .a = "depots",
      .b = "warehouses",
      .c = "sites",
      .k_ab = 3,
      .k_cb = 5,
  };
  EXPECT_EQ(spec, QuerySpec(expected));
}

TEST(KnnqlParseTest, KeywordsAreCaseInsensitiveAndCommentsSkip) {
  const QuerySpec spec = MustParse(
      "-- leading comment\n"
      "select knn(hotels, 5, at(3, 4))  -- trailing comment\n"
      "  Intersect KNN(hotels, 8, AT(1, 2))");  // No ';' at end of input.
  const TwoSelectsSpec expected{
      .relation = "hotels",
      .s1 = {.focal = {.id = -1, .x = 3, .y = 4}, .k = 5},
      .s2 = {.focal = {.id = -1, .x = 1, .y = 2}, .k = 8},
  };
  EXPECT_EQ(spec, QuerySpec(expected));
}

TEST(KnnqlParseTest, ExplainPrefixSetsTheStatementFlag) {
  auto script = knnql::ParseScript(
      "EXPLAIN SELECT KNN(h, 1, AT(0, 0)) INTERSECT KNN(h, 2, AT(1, 1));\n"
      "SELECT KNN(h, 1, AT(0, 0)) INTERSECT KNN(h, 2, AT(1, 1));");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_EQ(script->size(), 2u);
  EXPECT_TRUE((*script)[0].explain);
  EXPECT_FALSE((*script)[1].explain);
  EXPECT_EQ(BindOf((*script)[0]), BindOf((*script)[1]));
}

TEST(KnnqlParseTest, ExplainAnalyzeSetsBothFlags) {
  auto script = knnql::ParseScript(
      "EXPLAIN ANALYZE SELECT KNN(h, 1, AT(0, 0)) "
      "INTERSECT KNN(h, 2, AT(1, 1));\n"
      "EXPLAIN JOIN KNN(a, b, 3) WHERE INNER IN KNN(b, 5, AT(9, 9));");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_EQ(script->size(), 2u);
  EXPECT_TRUE((*script)[0].explain);  // ANALYZE implies EXPLAIN.
  EXPECT_TRUE((*script)[0].analyze);
  EXPECT_TRUE((*script)[1].explain);
  EXPECT_FALSE((*script)[1].analyze);

  // ANALYZE needs a plan just like EXPLAIN: DML is rejected.
  auto dml =
      knnql::ParseScript("EXPLAIN ANALYZE INSERT INTO city VALUES (1, 2);");
  ASSERT_FALSE(dml.ok());
  EXPECT_NE(dml.status().ToString().find("EXPLAIN applies to queries"),
            std::string::npos);
}

TEST(KnnqlParseTest, ScientificNotationAndSignedNumbers) {
  const QuerySpec spec = MustParse(
      "SELECT KNN(h, 1, AT(1.5e3, -2.25e-2)) INTERSECT KNN(h, 2, "
      "AT(+4, .5));");
  const auto& two = std::get<TwoSelectsSpec>(spec);
  EXPECT_DOUBLE_EQ(two.s1.focal.x, 1500.0);
  EXPECT_DOUBLE_EQ(two.s1.focal.y, -0.0225);
  EXPECT_DOUBLE_EQ(two.s2.focal.x, 4.0);
  EXPECT_DOUBLE_EQ(two.s2.focal.y, 0.5);
}

// ------------------------------------------------------------- DML

/// Parses one DML statement without a catalog (syntax + shape only).
knnql::DmlSpec MustParseDml(const std::string& text) {
  auto statement = knnql::ParseStatement(text);
  EXPECT_TRUE(statement.ok())
      << statement.status().ToString() << "\n  in: " << text;
  if (!statement.ok()) return {};
  auto spec = knnql::BindDml(statement->body, nullptr);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString() << "\n  in: " << text;
  return spec.ok() ? *spec : knnql::DmlSpec{};
}

TEST(KnnqlDmlParseTest, InsertDeleteLoad) {
  const knnql::DmlSpec insert =
      MustParseDml("INSERT INTO city VALUES (1.5, -2), (3, 4);");
  EXPECT_EQ(insert.kind, knnql::DmlSpec::Kind::kInsert);
  EXPECT_EQ(insert.relation, "city");
  ASSERT_EQ(insert.rows.size(), 2u);
  EXPECT_EQ(insert.rows[0], (Point{-1, 1.5, -2}));
  EXPECT_EQ(insert.rows[1], (Point{-1, 3, 4}));

  const knnql::DmlSpec del =
      MustParseDml("delete from city where id = -42;");
  EXPECT_EQ(del.kind, knnql::DmlSpec::Kind::kDelete);
  EXPECT_EQ(del.relation, "city");
  EXPECT_EQ(del.id, -42);

  const knnql::DmlSpec load =
      MustParseDml("LOAD city FROM 'data/points v2.csv';");
  EXPECT_EQ(load.kind, knnql::DmlSpec::Kind::kLoad);
  EXPECT_EQ(load.relation, "city");
  EXPECT_EQ(load.path, "data/points v2.csv");
}

TEST(KnnqlDmlParseTest, DmlBindsAgainstCatalog) {
  const Catalog catalog = MakeLangCatalog();
  auto statement =
      knnql::ParseStatement("INSERT INTO ghost VALUES (1, 2);");
  ASSERT_TRUE(statement.ok());
  auto bad = knnql::BindDml(statement->body, &catalog);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message().rfind("1:13: unknown relation", 0), 0u)
      << bad.status().message();

  // LOAD may create its relation: no existence check.
  auto load = knnql::ParseStatement("LOAD ghost FROM 'x.csv';");
  ASSERT_TRUE(load.ok());
  EXPECT_TRUE(knnql::BindDml(load->body, &catalog).ok());
}

TEST(KnnqlDmlUnparseTest, CanonicalTextRoundTrips) {
  knnql::DmlSpec insert;
  insert.kind = knnql::DmlSpec::Kind::kInsert;
  insert.relation = "city";
  insert.rows = {Point{-1, 1.5, -2}, Point{-1, 3, 4}};
  EXPECT_EQ(knnql::Unparse(insert),
            "INSERT INTO city VALUES (1.5, -2), (3, 4);");

  knnql::DmlSpec del;
  del.kind = knnql::DmlSpec::Kind::kDelete;
  del.relation = "city";
  del.id = 7;
  EXPECT_EQ(knnql::Unparse(del), "DELETE FROM city WHERE ID = 7;");

  knnql::DmlSpec load;
  load.kind = knnql::DmlSpec::Kind::kLoad;
  load.relation = "city";
  load.path = "p.bin";
  EXPECT_EQ(knnql::Unparse(load), "LOAD city FROM 'p.bin';");
}

// ----------------------------------------------------- diagnostics

/// Expects `text` to fail with a diagnostic starting "line:col:" and
/// containing `fragment`.
void ExpectErrorAt(const std::string& text, const std::string& position,
                   const std::string& fragment) {
  auto spec = ParseQuery(text);
  ASSERT_FALSE(spec.ok()) << "unexpectedly parsed: " << text;
  const std::string message = spec.status().message();
  EXPECT_EQ(message.rfind(position + ": ", 0), 0u)
      << "want position " << position << " in: " << message;
  EXPECT_NE(message.find(fragment), std::string::npos)
      << "want '" << fragment << "' in: " << message;
}

TEST(KnnqlDiagnosticsTest, BadToken) {
  ExpectErrorAt("SELECT KNN(h, 5, AT(1, 2)) ? KNN(h, 5, AT(1, 2));",
                "1:28", "unexpected character '?'");
  ExpectErrorAt("SELEC KNN(h, 5, AT(1, 2));", "1:1",
                "expected SELECT, JOIN, INSERT, DELETE or LOAD, got "
                "'SELEC'");
  ExpectErrorAt("SELECT KNN[h, 5, AT(1, 2));", "1:11",
                "unexpected character '['");
  ExpectErrorAt("SELECT KNN(h 5, AT(1, 2));", "1:14", "expected ','");
}

TEST(KnnqlDiagnosticsTest, MalformedNumbers) {
  ExpectErrorAt("SELECT KNN(h, 5, AT(3..0, 4)) INTERSECT KNN(h, 5, "
                "AT(1, 2));",
                "1:21", "malformed number '3..0'");
  ExpectErrorAt("SELECT KNN(h, 5, AT(12abc, 4)) INTERSECT KNN(h, 5, "
                "AT(1, 2));",
                "1:21", "malformed number '12abc'");
  ExpectErrorAt("SELECT KNN(h, 5, AT(4e, 4)) INTERSECT KNN(h, 5, "
                "AT(1, 2));",
                "1:21", "malformed number '4e'");
}

TEST(KnnqlDiagnosticsTest, KMustBePositiveInteger) {
  ExpectErrorAt("SELECT KNN(h, 0, AT(1, 2)) INTERSECT KNN(h, 5, AT(1, 2));",
                "1:15", "k must be > 0");
  ExpectErrorAt("SELECT KNN(h, 2.5, AT(1, 2)) INTERSECT KNN(h, 5, "
                "AT(1, 2));",
                "1:15", "k must be a positive integer");
  // The second k, on the second line, reports line 2.
  ExpectErrorAt("SELECT KNN(h, 5, AT(1, 2)) INTERSECT\n"
                "  KNN(h, 0, AT(1, 2));",
                "2:10", "k must be > 0");
}

TEST(KnnqlDiagnosticsTest, UnknownRelationReportsNamePosition) {
  const Catalog catalog = MakeLangCatalog();
  auto spec = ParseQuery(
      "SELECT KNN(nope, 5, AT(1, 2)) INTERSECT KNN(nope, 5, AT(1, 2));",
      &catalog);
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().message().rfind("1:12: unknown relation 'nope'",
                                          0),
            0u)
      << spec.status().message();

  // Multi-line scripts keep counting lines: positions are
  // script-absolute.
  auto script = knnql::ParseScript(
      "SELECT KNN(city, 5, AT(1, 2)) INTERSECT KNN(city, 5, AT(1, 2));\n"
      "JOIN KNN(city, missing, 3) THEN KNN(missing, uniform, 2);");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_EQ(script->size(), 2u);
  EXPECT_TRUE(
      knnql::Bind(std::get<knnql::Query>((*script)[0].body), &catalog).ok());
  auto second =
      knnql::Bind(std::get<knnql::Query>((*script)[1].body), &catalog);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().message().rfind(
                "2:16: unknown relation 'missing'", 0),
            0u)
      << second.status().message();
}

TEST(KnnqlDiagnosticsTest, ShapeConstraintViolations) {
  ExpectErrorAt(
      "SELECT KNN(a, 5, AT(1, 2)) INTERSECT KNN(b, 5, AT(1, 2));", "1:42",
      "both selects");
  ExpectErrorAt(
      "JOIN KNN(a, b, 3) WHERE INNER IN KNN(c, 5, AT(1, 2));", "1:38",
      "must name the join's inner relation 'b'");
  ExpectErrorAt(
      "JOIN KNN(a, b, 3) WHERE OUTER IN KNN(b, 5, AT(1, 2));", "1:38",
      "must name the join's outer relation 'a'");
  ExpectErrorAt("JOIN KNN(a, b, 3) THEN KNN(c, d, 2);", "1:28",
                "continues from the first join's inner relation 'b'");
  ExpectErrorAt("JOIN KNN(a, b, 3) INTERSECT KNN(c, d, 2);", "1:36",
                "intersect on a shared inner relation");
  ExpectErrorAt("JOIN KNN(a, b, 3) WHERE OUTER IN RANGE(0, 0, 1, 1);",
                "1:34", "RANGE selection applies to the INNER");
  ExpectErrorAt("JOIN KNN(a, b, 3) WHERE INNER IN RANGE(5, 0, 1, 1);",
                "1:34", "min,max");
  ExpectErrorAt("JOIN KNN(a, b, 3);", "1:18", "second predicate");
}

TEST(KnnqlDiagnosticsTest, MalformedDmlReportsPositions) {
  // INSERT
  ExpectErrorAt("INSERT city VALUES (1, 2);", "1:8", "expected INTO");
  ExpectErrorAt("INSERT INTO city (1, 2);", "1:18", "expected VALUES");
  ExpectErrorAt("INSERT INTO city VALUES (1 2);", "1:28", "expected ','");
  ExpectErrorAt("INSERT INTO city VALUES (1, 2x);", "1:29",
                "malformed number '2x'");
  ExpectErrorAt("INSERT INTO SELECT VALUES (1, 2);", "1:13",
                "expected a relation name");
  // DELETE
  ExpectErrorAt("DELETE FROM city WHERE ID = 2.5;", "1:29",
                "a point id must be an integer");
  ExpectErrorAt("DELETE FROM city WHERE OUTER = 1;", "1:24",
                "expected ID");
  ExpectErrorAt("DELETE city WHERE ID = 1;", "1:8", "expected FROM");
  // LOAD
  ExpectErrorAt("LOAD city FROM points;", "1:16",
                "expected a 'quoted' string");
  ExpectErrorAt("LOAD city FROM 'points.csv;", "1:16",
                "unterminated string literal");
  ExpectErrorAt("LOAD city FROM '';", "1:16", "non-empty file path");
  // EXPLAIN has no plan to show for DML.
  ExpectErrorAt("EXPLAIN INSERT INTO city VALUES (1, 2);", "1:9",
                "EXPLAIN applies to queries");
  ExpectErrorAt("EXPLAIN DELETE FROM city WHERE ID = 1;", "1:9",
                "EXPLAIN applies to queries");
}

TEST(KnnqlDiagnosticsTest, IncompleteInputIsDistinguishable) {
  for (const std::string text :
       {"SELECT KNN(h, 5,", "SELECT KNN(h, 5, AT(1, 2)) INTERSECT",
        "JOIN KNN(a, b, 3) WHERE", "EXPLAIN", "INSERT INTO h VALUES",
        "DELETE FROM h WHERE ID =", "LOAD h FROM"}) {
    auto spec = ParseQuery(text);
    ASSERT_FALSE(spec.ok()) << text;
    EXPECT_TRUE(knnql::IsIncompleteInput(spec.status())) << text;
  }
  // Real errors are NOT incomplete: more input would not fix them.
  auto spec = ParseQuery("SELECT KNN(h, 0, AT(1,");
  ASSERT_FALSE(spec.ok());
  EXPECT_FALSE(knnql::IsIncompleteInput(spec.status()));
}

TEST(KnnqlDiagnosticsTest, MissingSemicolonBetweenStatements) {
  auto script = knnql::ParseScript(
      "SELECT KNN(h, 5, AT(1, 2)) INTERSECT KNN(h, 5, AT(1, 2))\n"
      "SELECT KNN(h, 5, AT(1, 2)) INTERSECT KNN(h, 5, AT(1, 2));");
  ASSERT_FALSE(script.ok());
  EXPECT_EQ(script.status().message().rfind("2:1: expected ';'", 0), 0u)
      << script.status().message();
}

// ------------------------------------------------------ round trip

TEST(KnnqlUnparseTest, CanonicalText) {
  const TwoSelectsSpec two{
      .relation = "hotels",
      .s1 = {.focal = {.id = -1, .x = 3, .y = 4}, .k = 5},
      .s2 = {.focal = {.id = -1, .x = 1.5, .y = -2}, .k = 8},
  };
  EXPECT_EQ(knnql::Unparse(QuerySpec(two)),
            "SELECT KNN(hotels, 5, AT(3, 4)) INTERSECT KNN(hotels, 8, "
            "AT(1.5, -2));");

  const RangeInnerJoinSpec range{
      .outer = "trucks",
      .inner = "depots",
      .join_k = 2,
      .range = BoundingBox(0, 0.25, 100, 80),
  };
  EXPECT_EQ(knnql::Unparse(QuerySpec(range)),
            "JOIN KNN(trucks, depots, 2) WHERE INNER IN "
            "RANGE(0, 0.25, 100, 80);");
}

/// Random spec generation for the round-trip property. Coordinates mix
/// smooth values with full-precision doubles so the shortest-format /
/// strtod pipeline is exercised end to end.
class SpecGenerator {
 public:
  explicit SpecGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string Name() {
    static const char* kNames[] = {"hotels", "mech_2", "_depots", "B",
                                   "warehouses9"};
    return kNames[rng_.NextIndex(5)];
  }
  std::size_t K() { return 1 + rng_.NextIndex(64); }
  double Coord() {
    // Half "pretty" coordinates, half raw doubles with every bit used.
    if (rng_.Bernoulli(0.5)) {
      return static_cast<double>(rng_.UniformInt(-30000, 30000)) / 4.0;
    }
    return rng_.Uniform(-3.0e4, 3.0e4);
  }
  KnnPredicate Predicate() {
    return KnnPredicate{.focal = {.id = -1, .x = Coord(), .y = Coord()},
                        .k = K()};
  }

  QuerySpec Spec(int shape) {
    switch (shape) {
      case 0:
        return TwoSelectsSpec{
            .relation = Name(), .s1 = Predicate(), .s2 = Predicate()};
      case 1:
        return SelectInnerJoinSpec{.outer = Name(),
                                   .inner = Name(),
                                   .join_k = K(),
                                   .select = Predicate()};
      case 2:
        return SelectOuterJoinSpec{.outer = Name(),
                                   .inner = Name(),
                                   .join_k = K(),
                                   .select = Predicate()};
      case 3:
        return UnchainedJoinsSpec{.a = Name(),
                                  .b = Name(),
                                  .c = Name(),
                                  .k_ab = K(),
                                  .k_cb = K()};
      case 4:
        return ChainedJoinsSpec{.a = Name(),
                                .b = Name(),
                                .c = Name(),
                                .k_ab = K(),
                                .k_bc = K()};
      default: {
        const double x1 = Coord(), y1 = Coord();
        return RangeInnerJoinSpec{
            .outer = Name(),
            .inner = Name(),
            .join_k = K(),
            .range = BoundingBox(x1, y1, x1 + std::abs(Coord()),
                                 y1 + std::abs(Coord()))};
      }
    }
  }

  knnql::DmlSpec Dml(int shape) {
    knnql::DmlSpec spec;
    spec.relation = Name();
    switch (shape) {
      case 0: {
        spec.kind = knnql::DmlSpec::Kind::kInsert;
        const std::size_t rows = 1 + rng_.NextIndex(4);
        for (std::size_t i = 0; i < rows; ++i) {
          spec.rows.push_back(Point{.id = -1, .x = Coord(), .y = Coord()});
        }
        return spec;
      }
      case 1:
        spec.kind = knnql::DmlSpec::Kind::kDelete;
        spec.id = rng_.UniformInt(-1000000, 1000000);
        return spec;
      default: {
        spec.kind = knnql::DmlSpec::Kind::kLoad;
        static const char* kPaths[] = {"points.csv", "data/p.bin",
                                       "a b/c-d_e.csv", "/tmp/x.bin"};
        spec.path = kPaths[rng_.NextIndex(4)];
        return spec;
      }
    }
  }

 private:
  Rng rng_;
};

TEST(KnnqlRoundTripTest, ParseOfUnparseIsIdentityOnRandomSpecs) {
  SpecGenerator gen(20260729);
  for (int shape = 0; shape < 6; ++shape) {
    for (int i = 0; i < 80; ++i) {
      const QuerySpec spec = gen.Spec(shape);
      const std::string text = knnql::Unparse(spec);
      auto reparsed = ParseQuery(text);
      ASSERT_TRUE(reparsed.ok())
          << reparsed.status().ToString() << "\n  in: " << text;
      EXPECT_EQ(*reparsed, spec) << "round trip changed: " << text;
      // Canonical text is a fixed point: unparse(parse(text)) == text.
      EXPECT_EQ(knnql::Unparse(*reparsed), text);
    }
  }
}

TEST(KnnqlRoundTripTest, ParseOfUnparseIsIdentityOnRandomDml) {
  SpecGenerator gen(42);
  for (int shape = 0; shape < 3; ++shape) {
    for (int i = 0; i < 80; ++i) {
      const knnql::DmlSpec spec = gen.Dml(shape);
      const std::string text = knnql::Unparse(spec);
      auto statement = knnql::ParseStatement(text);
      ASSERT_TRUE(statement.ok())
          << statement.status().ToString() << "\n  in: " << text;
      auto reparsed = knnql::BindDml(statement->body, nullptr);
      ASSERT_TRUE(reparsed.ok())
          << reparsed.status().ToString() << "\n  in: " << text;
      EXPECT_EQ(*reparsed, spec) << "round trip changed: " << text;
      EXPECT_EQ(knnql::Unparse(*reparsed), text);
    }
  }
}

// --------------------------------------- engine-path equivalence

/// The acceptance criterion: a query written in KNNQL and executed via
/// the front ends' text path (ParseScript, BindQuery, Run) returns
/// results identical to the equivalent programmatic QuerySpec, for
/// every shape.
TEST(KnnqlEngineTest, TextAndProgrammaticPathsAgreeOnAllShapes) {
  QueryEngine engine(MakeLangCatalog());
  const std::vector<QuerySpec> specs = {
      TwoSelectsSpec{
          .relation = "city",
          .s1 = {.focal = {.id = -1, .x = 300, .y = 200}, .k = 7},
          .s2 = {.focal = {.id = -1, .x = 340, .y = 230}, .k = 12}},
      SelectInnerJoinSpec{
          .outer = "uniform",
          .inner = "city",
          .join_k = 3,
          .select = {.focal = {.id = -1, .x = 500, .y = 400}, .k = 9}},
      SelectOuterJoinSpec{
          .outer = "city",
          .inner = "uniform",
          .join_k = 2,
          .select = {.focal = {.id = -1, .x = 500, .y = 400}, .k = 9}},
      UnchainedJoinsSpec{.a = "uniform",
                         .b = "city",
                         .c = "clustered",
                         .k_ab = 2,
                         .k_cb = 3},
      ChainedJoinsSpec{.a = "clustered",
                       .b = "city",
                       .c = "uniform",
                       .k_ab = 2,
                       .k_bc = 2},
      RangeInnerJoinSpec{.outer = "uniform",
                         .inner = "city",
                         .join_k = 2,
                         .range = BoundingBox(200, 150, 600, 500)},
  };

  // Build one script holding all six statements...
  std::string script;
  for (const QuerySpec& spec : specs) {
    script += knnql::Unparse(spec);
    script += '\n';
  }
  auto parsed = knnql::ParseScript(script);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), specs.size());

  // ... and compare each statement against the programmatic path.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto bound = engine.BindQuery(std::get<knnql::Query>((*parsed)[i].body));
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    const EngineResult text = engine.Run(*bound);
    const EngineResult direct = engine.Run(specs[i]);
    ASSERT_TRUE(direct.ok()) << direct.status.ToString();
    ASSERT_TRUE(text.ok()) << text.status.ToString();
    EXPECT_EQ(text.output, direct.output)
        << "text path diverged for: " << knnql::Unparse(specs[i]);
    EXPECT_EQ(text.algorithm, direct.algorithm);
  }
}

TEST(KnnqlEngineTest, BindQueryReportsScriptPositions) {
  const QueryEngine engine(MakeLangCatalog());
  auto script = knnql::ParseScript(
      "SELECT KNN(city, 5, AT(1, 2)) INTERSECT KNN(city, 5, AT(1, 2));\n"
      "SELECT KNN(ghost, 5, AT(1, 2)) INTERSECT KNN(ghost, 5, "
      "AT(1, 2));");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_EQ(script->size(), 2u);
  EXPECT_TRUE(
      engine.BindQuery(std::get<knnql::Query>((*script)[0].body)).ok());
  auto spec = engine.BindQuery(std::get<knnql::Query>((*script)[1].body));
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().message().rfind("2:12: unknown relation", 0),
            0u)
      << spec.status().message();
}

TEST(KnnqlEngineTest, ExplainEchoesCanonicalQueryText) {
  const Catalog catalog = MakeLangCatalog();
  const ChainedJoinsSpec spec{.a = "clustered",
                              .b = "city",
                              .c = "uniform",
                              .k_ab = 2,
                              .k_bc = 3};
  const auto plan = Optimize(catalog, spec);
  ASSERT_TRUE(plan.ok());
  const std::string canonical = knnql::Unparse(QuerySpec(spec));
  EXPECT_NE(plan->Explain().find("Query: " + canonical), std::string::npos)
      << plan->Explain();
  // The echoed text parses back to the same spec: EXPLAIN output is
  // itself valid KNNQL.
  auto reparsed = ParseQuery(canonical, &catalog);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*reparsed, QuerySpec(spec));
}

}  // namespace
}  // namespace knnq
