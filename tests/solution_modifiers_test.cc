// Unit tests for core::FinishSolutions and core::LimitPushdownBound, the
// one solution-modifier finisher every federated path runs. The
// reference for each case is sparql::Evaluator's own modifier code
// (stable sort, then the window) applied to the same rows.

#include "core/solution_modifiers.h"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sparql/expr_eval.h"
#include "sparql/parser.h"

namespace lusail::core {
namespace {

using rdf::Term;

sparql::Query Parse(const std::string& text) {
  auto query = sparql::ParseQuery(text);
  EXPECT_TRUE(query.ok()) << text << ": " << query.status().ToString();
  return *query;
}

class SolutionModifiersTest : public ::testing::Test {
 protected:
  /// 60 rows (?row, ?k, ?v): ?row is the input position, ?k takes only
  /// four values (many ties), ?v is unbound on every fifth row.
  IdTable TiedRows() {
    IdTable table({"row", "k", "v"});
    for (int i = 0; i < 60; ++i) {
      Term v = Term::Iri("http://ex/v" + std::to_string(i % 9));
      table.AppendRow({dict_.Intern(Term::Integer(i)),
                       dict_.Intern(Term::Integer((i * 7) % 4)),
                       i % 5 == 0 ? rdf::kInvalidTermId : dict_.Intern(v)});
    }
    return table;
  }

  /// What the evaluator does after projection: decode, stable sort on
  /// the keys, cut the window, drop columns outside the SELECT list.
  sparql::ResultTable Reference(const IdTable& rows,
                                const sparql::Query& query) {
    sparql::ResultTable table = DecodeIdTable(rows, dict_);
    sparql::SortRows(&table, query.order_by);
    size_t begin = std::min<size_t>(query.offset.value_or(0),
                                    table.rows.size());
    size_t end = table.rows.size();
    if (query.limit.has_value()) {
      end = std::min<size_t>(end, begin + *query.limit);
    }
    table.rows.assign(table.rows.begin() + begin, table.rows.begin() + end);
    std::vector<size_t> keep;
    for (const sparql::Variable& v : query.EffectiveProjection()) {
      for (size_t c = 0; c < table.vars.size(); ++c) {
        if (table.vars[c] == v.name) keep.push_back(c);
      }
    }
    sparql::ResultTable out;
    for (size_t c : keep) out.vars.push_back(table.vars[c]);
    for (const auto& row : table.rows) {
      std::vector<std::optional<Term>> cells;
      for (size_t c : keep) cells.push_back(row[c]);
      out.rows.push_back(std::move(cells));
    }
    return out;
  }

  sparql::ResultTable Finish(const IdTable& rows, const std::string& text) {
    return DecodeIdTable(FinishSolutions(rows, Parse(text), &dict_), dict_);
  }

  TermDictionary dict_;
};

TEST_F(SolutionModifiersTest, TopKOnTiedKeysEqualsStableSortPlusWindow) {
  const IdTable rows = TiedRows();
  for (const char* order : {"?k", "DESC(?k)", "?v", "DESC(?v) ?k",
                            "?k DESC(?v)"}) {
    for (const char* window : {"LIMIT 1", "LIMIT 7", "LIMIT 7 OFFSET 5",
                               "OFFSET 50", "LIMIT 10 OFFSET 55",
                               "LIMIT 100", "OFFSET 70", "LIMIT 0", ""}) {
      const std::string text = std::string("SELECT ?row ?k ?v WHERE { ?row ") +
                               "<http://ex/p> ?k . } ORDER BY " + order +
                               " " + window;
      EXPECT_EQ(Finish(rows, text).rows, Reference(rows, Parse(text)).rows)
          << text;
    }
  }
}

TEST_F(SolutionModifiersTest, HiddenOrderKeyRidesAndIsDropped) {
  const IdTable rows = TiedRows();
  const std::string text =
      "SELECT ?row WHERE { ?row <http://ex/p> ?k . } "
      "ORDER BY DESC(?k) LIMIT 9 OFFSET 3";
  sparql::ResultTable finished = Finish(rows, text);
  EXPECT_EQ(finished.vars, std::vector<std::string>{"row"});
  EXPECT_EQ(finished.rows, Reference(rows, Parse(text)).rows);
}

TEST_F(SolutionModifiersTest, DistinctDoesNotCarryHiddenOrderKey) {
  // ?k has four values; ?v would widen the dedup set to many more.
  sparql::ResultTable finished = Finish(
      TiedRows(), "SELECT DISTINCT ?k WHERE { ?s <http://ex/p> ?k . } "
                  "ORDER BY ?v");
  EXPECT_EQ(finished.vars, std::vector<std::string>{"k"});
  EXPECT_EQ(finished.rows.size(), 4u);
  // A visible key still sorts the deduplicated rows.
  finished = Finish(TiedRows(),
                    "SELECT DISTINCT ?k WHERE { ?s <http://ex/p> ?k . } "
                    "ORDER BY DESC(?k) ?v");
  ASSERT_EQ(finished.rows.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(finished.rows[i][0], Term::Integer(3 - i));
  }
}

TEST_F(SolutionModifiersTest, CountsSkipUnboundCells) {
  const IdTable rows = TiedRows();
  auto count = [&](const std::string& agg) {
    sparql::ResultTable out = Finish(
        rows, "SELECT (" + agg + " AS ?c) WHERE { ?s <http://ex/p> ?v . }");
    EXPECT_EQ(out.vars, std::vector<std::string>{"c"});
    EXPECT_EQ(out.rows.size(), 1u);
    return out.rows[0][0]->lexical();
  };
  EXPECT_EQ(count("COUNT(*)"), "60");
  EXPECT_EQ(count("COUNT(?v)"), "48");
  EXPECT_EQ(count("COUNT(DISTINCT ?v)"), "9");
  EXPECT_EQ(count("COUNT(DISTINCT ?k)"), "4");
  EXPECT_EQ(count("COUNT(?absent)"), "0");
}

TEST_F(SolutionModifiersTest, AskIsZeroOrOneEmptyRow) {
  sparql::Query ask = Parse("ASK { ?s <http://ex/p> ?o . }");
  IdTable yes = FinishSolutions(TiedRows(), ask, &dict_);
  EXPECT_EQ(yes.NumVars(), 0u);
  EXPECT_EQ(yes.NumRows(), 1u);
  EXPECT_EQ(FinishSolutions(IdTable({"s", "o"}), ask, &dict_).NumRows(), 0u);
}

TEST_F(SolutionModifiersTest, LimitPushdownBoundOnlyWhenAnyRowsWillDo) {
  auto bound = [](const std::string& text) {
    return LimitPushdownBound(Parse(text));
  };
  const std::string body = " WHERE { ?s <http://ex/p> ?o . }";
  EXPECT_EQ(bound("SELECT ?s" + body + " LIMIT 5"), 5u);
  EXPECT_EQ(bound("SELECT ?s" + body + " LIMIT 5 OFFSET 3"), 8u);
  EXPECT_EQ(bound("SELECT ?s" + body), std::nullopt);
  EXPECT_EQ(bound("SELECT ?s" + body + " OFFSET 3"), std::nullopt);
  EXPECT_EQ(bound("SELECT DISTINCT ?s" + body + " LIMIT 5"), std::nullopt);
  EXPECT_EQ(bound("SELECT ?s" + body + " ORDER BY ?o LIMIT 5"),
            std::nullopt);
  EXPECT_EQ(bound("SELECT (COUNT(*) AS ?c)" + body + " LIMIT 5"),
            std::nullopt);
}

}  // namespace
}  // namespace lusail::core
