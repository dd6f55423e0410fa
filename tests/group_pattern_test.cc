// Unit tests for core::CombineGroup, the one group-pattern combiner every
// federated path runs after its BGP, for core::SemiJoinIds (FILTER
// [NOT] EXISTS) and for core::LimitCrossesBgp. Nested groups are served
// from canned tables keyed by their first predicate, so each case pins
// the combiner's own order and rules.

#include "core/group_pattern.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/solution_modifiers.h"
#include "sparql/parser.h"

namespace lusail::core {
namespace {

using rdf::Term;
using rdf::TermId;

constexpr TermId kU = rdf::kInvalidTermId;

class GroupPatternTest : public ::testing::Test {
 protected:
  TermId Id(const std::string& name) {
    return dict_.Intern(Term::Iri("http://ex/" + name));
  }

  sparql::GraphPattern Group(const std::string& body) {
    auto query = sparql::ParseQuery("PREFIX : <http://ex/>\nSELECT * WHERE " +
                                    body);
    EXPECT_TRUE(query.ok()) << body << ": " << query.status().ToString();
    return query->where;
  }

  /// Serves each nested group the canned table of its first predicate's
  /// local name, counting the calls.
  NestedGroupEval Canned() {
    return [this](const sparql::GraphPattern& block) -> Result<IdTable> {
      ++nested_calls_;
      const std::string& p = block.triples.at(0).p.term().lexical();
      return canned_.at(p.substr(p.rfind('/') + 1));
    };
  }

  /// The rows of `table` as "var=name,..." strings over `vars`, sorted.
  std::multiset<std::string> Rows(const IdTable& table,
                                  const std::vector<std::string>& vars) {
    std::multiset<std::string> rows;
    for (size_t r = 0; r < table.NumRows(); ++r) {
      std::string line;
      for (const std::string& v : vars) {
        int c = table.VarIndex(v);
        TermId id = c < 0 ? kU : table.At(r, static_cast<size_t>(c));
        std::string cell = "UNDEF";
        if (id != kU) {
          const std::string& lex = dict_.term(id).lexical();
          cell = lex.substr(lex.rfind('/') + 1);
        }
        line += v + "=" + cell + ",";
      }
      rows.insert(line);
    }
    return rows;
  }

  TermDictionary dict_;
  std::map<std::string, IdTable> canned_;
  int nested_calls_ = 0;
};

TEST_F(GroupPatternTest, SemiJoinUnboundSharedCellMatchesAnyValue) {
  IdTable left({"x", "y"});
  left.AppendRow({Id("x1"), Id("y1")});
  left.AppendRow({Id("x2"), kU});        // Unbound ?y: only ?x decides.
  left.AppendRow({Id("x3"), Id("y3")});
  IdTable right({"y", "x"});
  right.AppendRow({Id("y1"), Id("x1")});
  right.AppendRow({Id("y9"), Id("x2")});
  right.AppendRow({kU, Id("x3")});       // Unbound ?y matches y3.
  IdTable kept = SemiJoinIds(left, right, /*negated=*/false);
  EXPECT_EQ(kept.vars, left.vars);
  EXPECT_EQ(Rows(kept, {"x", "y"}),
            (std::multiset<std::string>{"x=x1,y=y1,", "x=x2,y=UNDEF,",
                                        "x=x3,y=y3,"}));
  right.Clear();
  right.vars = {"x", "y"};
  right.AppendRow({Id("x2"), Id("y2")});
  kept = SemiJoinIds(left, right, /*negated=*/false);
  EXPECT_EQ(Rows(kept, {"x", "y"}),
            (std::multiset<std::string>{"x=x2,y=UNDEF,"}));
}

TEST_F(GroupPatternTest, SemiJoinNegatedKeepsRowsWithoutAMatch) {
  IdTable left({"x"});
  for (const char* x : {"x1", "x2", "x3", "x2"}) left.AppendRow({Id(x)});
  IdTable right({"x", "a"});
  right.AppendRow({Id("x2"), Id("a1")});
  right.AppendRow({Id("x2"), Id("a2")});  // Two matches keep one row.
  EXPECT_EQ(Rows(SemiJoinIds(left, right, false), {"x"}),
            (std::multiset<std::string>{"x=x2,", "x=x2,"}));
  EXPECT_EQ(Rows(SemiJoinIds(left, right, true), {"x"}),
            (std::multiset<std::string>{"x=x1,", "x=x3,"}));
  // Input order survives.
  IdTable anti = SemiJoinIds(left, right, true);
  ASSERT_EQ(anti.NumRows(), 2u);
  EXPECT_EQ(anti.At(0, 0), Id("x1"));
  EXPECT_EQ(anti.At(1, 0), Id("x3"));
}

TEST_F(GroupPatternTest, SemiJoinWithoutSharedVarsAsksWhetherRightHasARow) {
  IdTable left({"x"});
  left.AppendRow({Id("x1")});
  left.AppendRow({Id("x2")});
  IdTable right({"a"});
  EXPECT_EQ(SemiJoinIds(left, right, false).NumRows(), 0u);
  EXPECT_EQ(SemiJoinIds(left, right, true).NumRows(), 2u);
  right.AppendRow({Id("a1")});
  EXPECT_EQ(SemiJoinIds(left, right, false).NumRows(), 2u);
  EXPECT_EQ(SemiJoinIds(left, right, true).NumRows(), 0u);
}

TEST_F(GroupPatternTest, ValuesJoinBeforeOptionalAndResidualFilters) {
  // { ?x :p ?o . OPTIONAL { ?x :q ?a } VALUES ?a { :nowhere }
  //   FILTER(?k = 1) VALUES ?k { 1 2 } }: both VALUES blocks join first,
  // so the OPTIONAL cannot overwrite ?a and the filter sees ?k.
  sparql::GraphPattern group = Group(
      "{ ?x :p ?o . OPTIONAL { ?x :q ?a } VALUES ?a { :nowhere } "
      "FILTER(?k = 1) VALUES ?k { 1 2 } }");
  IdTable bgp({"x", "o"});
  bgp.AppendRow({Id("x1"), Id("o1")});
  bgp.AppendRow({Id("x2"), Id("o2")});
  canned_["q"] = IdTable({"x", "a"});
  canned_["q"].AppendRow({Id("x1"), Id("a1")});
  auto out = CombineGroup(bgp, GroupTail::Of(group), Canned(), &dict_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->NumRows(), 2u);
  EXPECT_EQ(Rows(*out, {"x", "a"}),
            (std::multiset<std::string>{"x=x1,a=nowhere,",
                                        "x=x2,a=nowhere,"}));
  int k = out->VarIndex("k");
  ASSERT_GE(k, 0);
  for (size_t r = 0; r < out->NumRows(); ++r) {
    EXPECT_EQ(out->At(r, static_cast<size_t>(k)),
              dict_.Intern(Term::Integer(1)));
  }
}

TEST_F(GroupPatternTest, UnionOptionalThenExistsInOracleOrder) {
  sparql::GraphPattern group = Group(
      "{ ?x :p ?o . { ?x :a ?t } UNION { ?x :b ?t } "
      "OPTIONAL { ?t :c ?n } FILTER NOT EXISTS { ?x :d ?z } }");
  IdTable bgp({"x", "o"});
  for (const char* x : {"x1", "x2", "x3"}) bgp.AppendRow({Id(x), Id("o")});
  canned_["a"] = IdTable({"x", "t"});
  canned_["a"].AppendRow({Id("x1"), Id("t1")});
  canned_["b"] = IdTable({"x", "t"});
  canned_["b"].AppendRow({Id("x2"), Id("t2")});
  canned_["b"].AppendRow({Id("x3"), Id("t3")});
  canned_["c"] = IdTable({"t", "n"});
  canned_["c"].AppendRow({Id("t1"), Id("n1")});
  canned_["d"] = IdTable({"x", "z"});
  canned_["d"].AppendRow({Id("x3"), Id("z")});
  auto out = CombineGroup(bgp, GroupTail::Of(group), Canned(), &dict_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(Rows(*out, {"x", "t", "n"}),
            (std::multiset<std::string>{"x=x1,t=t1,n=n1,",
                                        "x=x2,t=t2,n=UNDEF,"}));
}

TEST_F(GroupPatternTest, GroupWithoutTriplesStartsFromTheUnitTable) {
  sparql::GraphPattern values_only = Group("{ VALUES ?k { :k1 :k2 } }");
  auto out = CombineGroup(UnitTable(), GroupTail::Of(values_only), Canned(),
                          &dict_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(Rows(*out, {"k"}),
            (std::multiset<std::string>{"k=k1,", "k=k2,"}));

  sparql::GraphPattern optional_only = Group("{ OPTIONAL { ?x :u ?y } }");
  canned_["u"] = IdTable({"x", "y"});
  canned_["u"].AppendRow({Id("x1"), Id("y1")});
  canned_["u"].AppendRow({Id("x2"), Id("y2")});
  out = CombineGroup(UnitTable(), GroupTail::Of(optional_only), Canned(),
                     &dict_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 2u);
}

TEST_F(GroupPatternTest, CorrelatedNestedGroupsAreUnsupported) {
  IdTable bgp({"x", "n"});
  bgp.AppendRow({Id("x1"), Id("n1")});
  canned_["a"] = IdTable({"x"});
  canned_["a"].AppendRow({Id("x1")});
  for (const char* body : {
           // A UNION alternative's FILTER reads ?n, bound outside it.
           "{ ?x :p ?n . { ?x :a ?t FILTER(?n != ?t) } UNION { ?x :a ?t } }",
           // So does an OPTIONAL body's.
           "{ ?x :p ?n . OPTIONAL { ?x :a ?t FILTER(?n != ?t) } }",
           // An EXISTS body's OPTIONAL would bind ?n on its own.
           "{ ?x :p ?n . FILTER EXISTS { ?x :a ?t OPTIONAL { ?t :b ?n } } }",
       }) {
    sparql::GraphPattern group = Group(body);
    nested_calls_ = 0;
    auto out = CombineGroup(bgp, GroupTail::Of(group), Canned(), &dict_);
    ASSERT_FALSE(out.ok()) << body;
    EXPECT_EQ(out.status().code(), StatusCode::kUnsupported) << body;
    EXPECT_EQ(nested_calls_, 0) << body;
  }
  // The same filter over a variable the nested group binds itself.
  sparql::GraphPattern bound =
      Group("{ ?x :p ?n . OPTIONAL { ?x :a ?t FILTER(?t != ?x) } }");
  auto out = CombineGroup(bgp, GroupTail::Of(bound), Canned(), &dict_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(nested_calls_, 1);
}

TEST_F(GroupPatternTest, EmptySolutionsEvaluateNoNestedGroup) {
  sparql::GraphPattern group = Group(
      "{ ?x :p ?o . { ?x :a ?t } UNION { ?x :a ?t } OPTIONAL { ?x :a ?t } "
      "FILTER EXISTS { ?x :a ?t } }");
  auto out = CombineGroup(IdTable({"x", "o"}), GroupTail::Of(group),
                          Canned(), &dict_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 0u);
  EXPECT_EQ(nested_calls_, 0);
}

TEST_F(GroupPatternTest, LimitCrossesBgpUnlessTheTailCanDropRows) {
  auto crosses = [this](const std::string& body) {
    sparql::GraphPattern group = Group(body);
    return LimitCrossesBgp(GroupTail::Of(group));
  };
  EXPECT_TRUE(crosses("{ ?x :p ?o }"));
  EXPECT_TRUE(crosses("{ ?x :p ?o OPTIONAL { ?x :q ?a } }"));
  EXPECT_FALSE(crosses("{ ?x :p ?o VALUES ?o { :o1 } }"));
  EXPECT_FALSE(crosses("{ ?x :p ?o { ?x :a ?t } UNION { ?x :b ?t } }"));
  EXPECT_FALSE(crosses("{ ?x :p ?o FILTER(?o != :o1) }"));
  EXPECT_FALSE(crosses("{ ?x :p ?o FILTER EXISTS { ?x :q ?a } }"));
  // Filters the BGP strategy pushed down leave the tail.
  sparql::GraphPattern pushed = Group("{ ?x :p ?o FILTER(?o != :o1) }");
  GroupTail tail = GroupTail::Of(pushed);
  tail.filters.clear();
  EXPECT_TRUE(LimitCrossesBgp(tail));
}

}  // namespace
}  // namespace lusail::core
