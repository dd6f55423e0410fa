#include "federation/federation.h"

#include <future>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

#include "federation/binding_table.h"
#include "federation/source_selection.h"
#include "net/sparql_endpoint.h"
#include "workload/federation_builder.h"

namespace lusail::fed {
namespace {

using rdf::Term;
using rdf::TermId;
using workload::EndpointSpec;

// ---------------------------------------------------------------------
// BindingTable operations
// ---------------------------------------------------------------------

class BindingTableTest : public ::testing::Test {
 protected:
  TermId Id(const std::string& iri) {
    return dict_.Intern(Term::Iri(iri));
  }

  BindingTable Make(const std::vector<std::string>& vars,
                    const std::vector<std::vector<std::string>>& rows) {
    BindingTable t;
    t.vars = vars;
    for (const auto& row : rows) {
      std::vector<TermId> ids;
      for (const std::string& cell : row) {
        ids.push_back(cell.empty() ? rdf::kInvalidTermId : Id(cell));
      }
      t.AppendRow(ids);
    }
    return t;
  }

  SharedDictionary dict_;
};

TEST_F(BindingTableTest, HashJoinOnSharedVar) {
  BindingTable left = Make({"x", "y"}, {{"a", "b"}, {"c", "d"}});
  BindingTable right = Make({"y", "z"}, {{"b", "e"}, {"b", "f"}, {"q", "g"}});
  BindingTable joined = core::JoinIds(left, right, /*left_outer=*/false);
  EXPECT_EQ(joined.NumRows(), 2u);  // (a,b,e), (a,b,f).
  EXPECT_EQ(joined.vars.size(), 3u);
}

TEST_F(BindingTableTest, HashJoinNoSharedVarsIsCartesian) {
  BindingTable left = Make({"x"}, {{"a"}, {"b"}});
  BindingTable right = Make({"y"}, {{"c"}, {"d"}, {"e"}});
  EXPECT_EQ(core::JoinIds(left, right, /*left_outer=*/false).NumRows(), 6u);
}

TEST_F(BindingTableTest, HashJoinUnboundIsCompatible) {
  BindingTable left = Make({"x", "y"}, {{"a", ""}});
  BindingTable right = Make({"y", "z"}, {{"b", "c"}});
  BindingTable joined = core::JoinIds(left, right, /*left_outer=*/false);
  ASSERT_EQ(joined.NumRows(), 1u);
  // The unbound ?y picks up the right-side value.
  int y = joined.VarIndex("y");
  EXPECT_EQ(joined.At(0, static_cast<size_t>(y)), Id("b"));
}

TEST_F(BindingTableTest, LeftOuterJoinPadsMisses) {
  BindingTable left = Make({"x", "y"}, {{"a", "b"}, {"c", "nomatch"}});
  BindingTable right = Make({"y", "z"}, {{"b", "e"}});
  BindingTable joined = core::JoinIds(left, right, /*left_outer=*/true);
  ASSERT_EQ(joined.NumRows(), 2u);
  int z = joined.VarIndex("z");
  int matched = 0;
  for (TermId id : joined.Column(static_cast<size_t>(z))) {
    if (id != rdf::kInvalidTermId) ++matched;
  }
  EXPECT_EQ(matched, 1);
}

TEST_F(BindingTableTest, AppendUnionAlignsColumns) {
  BindingTable a = Make({"x", "y"}, {{"a", "b"}});
  BindingTable b = Make({"y", "z"}, {{"c", "d"}});
  core::AppendUnionIds(&a, b);
  ASSERT_EQ(a.NumRows(), 2u);
  EXPECT_EQ(a.vars.size(), 3u);
  int x = a.VarIndex("x"), z = a.VarIndex("z");
  EXPECT_EQ(a.At(1, static_cast<size_t>(x)), rdf::kInvalidTermId);
  EXPECT_EQ(a.At(0, static_cast<size_t>(z)), rdf::kInvalidTermId);
  EXPECT_EQ(a.At(1, static_cast<size_t>(z)), Id("d"));
}

TEST_F(BindingTableTest, AppendUnionIntoEmpty) {
  BindingTable empty;
  BindingTable b = Make({"x"}, {{"a"}});
  core::AppendUnionIds(&empty, b);
  EXPECT_EQ(empty.NumRows(), 1u);
  EXPECT_EQ(empty.vars, b.vars);
}

TEST_F(BindingTableTest, ProjectAndDistinct) {
  BindingTable t = Make({"x", "y"}, {{"a", "b"}, {"a", "c"}, {"a", "b"}});
  BindingTable all = core::ProjectIds(t, {"x"}, /*distinct=*/false);
  EXPECT_EQ(all.NumRows(), 3u);
  BindingTable dedup = core::ProjectIds(t, {"x"}, /*distinct=*/true);
  EXPECT_EQ(dedup.NumRows(), 1u);
  BindingTable missing = core::ProjectIds(t, {"x", "w"}, false);
  EXPECT_EQ(missing.vars.size(), 2u);
  EXPECT_EQ(missing.At(0, 1), rdf::kInvalidTermId);
}

TEST_F(BindingTableTest, FilterRowsDecodesTerms) {
  BindingTable t;
  t.vars = {"n"};
  t.AppendRow({dict_.Intern(Term::Integer(5))});
  t.AppendRow({dict_.Intern(Term::Integer(15))});
  sparql::Expr filter = sparql::Expr::Binary(
      sparql::ExprOp::kGt, sparql::Expr::Var("n"),
      sparql::Expr::Const(Term::Integer(10)));
  core::FilterIds(&t, filter, dict_);
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(dict_.term(t.At(0, 0)).lexical(), "15");
}

TEST_F(BindingTableTest, InternAndDecodeRoundTrip) {
  sparql::ResultTable rt;
  rt.vars = {"a", "b"};
  rt.rows.push_back({Term::Iri("http://x"), std::nullopt});
  BindingTable bt = core::EncodeResultTable(rt, &dict_);
  ASSERT_EQ(bt.NumRows(), 1u);
  EXPECT_EQ(bt.At(0, 1), rdf::kInvalidTermId);
  sparql::ResultTable back = core::DecodeIdTable(bt, dict_);
  EXPECT_EQ(back.rows[0][0], Term::Iri("http://x"));
  EXPECT_FALSE(back.rows[0][1].has_value());
}

TEST(SharedDictionaryTest, ConcurrentInterningIsConsistent) {
  SharedDictionary dict;
  ThreadPool pool(8);
  std::vector<std::future<TermId>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&dict, i] {
      return dict.Intern(Term::Iri("http://x/" + std::to_string(i % 10)));
    }));
  }
  std::set<TermId> ids;
  for (auto& f : futures) ids.insert(f.get());
  EXPECT_EQ(ids.size(), 10u);
  EXPECT_EQ(dict.size(), 10u);
}

// ---------------------------------------------------------------------
// Federation + source selection
// ---------------------------------------------------------------------

class SourceSelectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<EndpointSpec> specs(2);
    specs[0].id = "ep0";
    specs[0].triples = {{Term::Iri("http://a"), Term::Iri("http://p"),
                         Term::Iri("http://b")}};
    specs[1].id = "ep1";
    specs[1].triples = {{Term::Iri("http://c"), Term::Iri("http://q"),
                         Term::Iri("http://d")},
                        {Term::Iri("http://c"), Term::Iri("http://p"),
                         Term::Iri("http://d")}};
    federation_ = workload::BuildFederation(specs, net::LatencyModel::None());
  }

  sparql::TriplePattern Pattern(const std::string& pred) {
    return sparql::TriplePattern{sparql::Variable{"s"},
                                 rdf::Term::Iri(pred),
                                 sparql::Variable{"o"}};
  }

  std::unique_ptr<Federation> federation_;
  AskCache cache_;
};

TEST_F(SourceSelectionTest, FindsRelevantEndpoints) {
  SourceSelector selector(federation_.get(), &cache_);
  MetricsCollector metrics;
  auto sources = selector.SelectSources(
      {Pattern("http://p"), Pattern("http://q"), Pattern("http://nope")},
      &metrics, Deadline(), /*use_cache=*/true);
  ASSERT_TRUE(sources.ok());
  EXPECT_EQ((*sources)[0], (std::vector<int>{0, 1}));
  EXPECT_EQ((*sources)[1], (std::vector<int>{1}));
  EXPECT_TRUE((*sources)[2].empty());
  ExecutionProfile profile;
  metrics.FillCounters(&profile);
  EXPECT_EQ(profile.requests, 6u);  // 3 patterns x 2 endpoints.
  EXPECT_EQ(profile.ask_requests, 6u);
}

TEST_F(SourceSelectionTest, CacheSuppressesRepeatProbes) {
  SourceSelector selector(federation_.get(), &cache_);
  MetricsCollector m1, m2;
  ASSERT_TRUE(selector
                  .SelectSources({Pattern("http://p")}, &m1, Deadline(), true)
                  .ok());
  ASSERT_TRUE(selector
                  .SelectSources({Pattern("http://p")}, &m2, Deadline(), true)
                  .ok());
  ExecutionProfile p2;
  m2.FillCounters(&p2);
  EXPECT_EQ(p2.requests, 0u) << "second run must be served from cache";
  EXPECT_EQ(cache_.size(), 2u);
}

TEST_F(SourceSelectionTest, CacheKeyErasesVariableNames) {
  sparql::TriplePattern a{sparql::Variable{"x"}, rdf::Term::Iri("http://p"),
                          sparql::Variable{"y"}};
  sparql::TriplePattern b{sparql::Variable{"s"}, rdf::Term::Iri("http://p"),
                          sparql::Variable{"o"}};
  EXPECT_EQ(PatternCacheKey(a, "ep"), PatternCacheKey(b, "ep"));
  sparql::TriplePattern c{rdf::Term::Iri("http://subj"),
                          rdf::Term::Iri("http://p"), sparql::Variable{"o"}};
  EXPECT_NE(PatternCacheKey(a, "ep"), PatternCacheKey(c, "ep"));
}

TEST_F(SourceSelectionTest, DeadlineExpiryYieldsTimeout) {
  SourceSelector selector(federation_.get(), &cache_);
  MetricsCollector metrics;
  Deadline expired = Deadline::AfterMillis(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  auto sources = selector.SelectSources({Pattern("http://p")}, &metrics,
                                        expired, /*use_cache=*/false);
  ASSERT_FALSE(sources.ok());
  EXPECT_EQ(sources.status().code(), StatusCode::kTimeout);
}

TEST_F(SourceSelectionTest, FederationExecuteValidatesIndex) {
  MetricsCollector metrics;
  auto result = federation_->Execute(99, "ASK { ?s ?p ?o . }",
                                     RequestKind::kAsk, &metrics, Deadline());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------
// ASK-query detection (request accounting)
// ---------------------------------------------------------------------

TEST(LooksLikeAskQueryTest, TolerantOfWhitespaceCommentsAndPrefixes) {
  EXPECT_TRUE(LooksLikeAskQuery("ASK { ?s ?p ?o . }"));
  EXPECT_TRUE(LooksLikeAskQuery("  \n\t ASK { ?s ?p ?o . }"));
  EXPECT_TRUE(LooksLikeAskQuery("ask { ?s ?p ?o . }"));
  EXPECT_TRUE(LooksLikeAskQuery("# probe\nASK { ?s ?p ?o . }"));
  EXPECT_TRUE(LooksLikeAskQuery(
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "ASK { ?s ub:name ?o . }"));
  EXPECT_TRUE(LooksLikeAskQuery(
      "BASE <http://ex/>\nPREFIX p: <http://ex/p#>\nASK { ?s p:q ?o . }"));

  EXPECT_FALSE(LooksLikeAskQuery("SELECT ?s WHERE { ?s ?p ?o . }"));
  EXPECT_FALSE(LooksLikeAskQuery(
      "PREFIX p: <http://ex/>\nSELECT ?s WHERE { ?s p:q ?o . }"));
  // A query merely *containing* the word ASK is not an ASK query.
  EXPECT_FALSE(LooksLikeAskQuery(
      "SELECT ?s WHERE { ?s <http://ex/ASK> ?o . }"));
  EXPECT_FALSE(LooksLikeAskQuery(""));
  EXPECT_FALSE(LooksLikeAskQuery("   "));
  EXPECT_FALSE(LooksLikeAskQuery("{ ?s ?p ?o }"));
}

TEST_F(SourceSelectionTest, PrefixedAskCountsAsAskRequest) {
  // The caller's request kind, not the text, decides the accounting: an
  // ASK probe counts as an ASK request, and its verdict row is not a
  // binding row.
  MetricsCollector metrics;
  auto result = federation_->Execute(
      0, "# source probe\nASK { ?s <http://p> ?o . }", RequestKind::kAsk,
      &metrics, Deadline());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->NumRows(), 1u);
  ExecutionProfile profile;
  metrics.FillCounters(&profile);
  EXPECT_EQ(profile.requests, 1u);
  EXPECT_EQ(profile.ask_requests, 1u);
  EXPECT_EQ(profile.rows_received, 0u);
  EXPECT_EQ(profile.first_row_ms, 0.0);
}

}  // namespace
}  // namespace lusail::fed
