// Edge-case behavior of the federated engines: ASK and COUNT at the
// federation level, empty-source queries, deadlines, unsupported shapes,
// DISTINCT/LIMIT interplay, and profile sanity.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/fedx_engine.h"
#include "core/lusail_engine.h"
#include "sparql/evaluator.h"
#include "sparql/parser.h"
#include "store/triple_store.h"
#include "workload/federation_builder.h"
#include "workload/lubm_generator.h"
#include "workload/qfed_generator.h"

namespace lusail {
namespace {

class EngineEdgeCasesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    federation_ = workload::BuildFederation(workload::Figure1Federation(),
                                            net::LatencyModel::None());
    lusail_ = std::make_unique<core::LusailEngine>(federation_.get());
    fedx_ = std::make_unique<baselines::FedXEngine>(federation_.get());
  }

  std::vector<fed::FederatedEngine*> Engines() {
    return {lusail_.get(), fedx_.get()};
  }

  std::unique_ptr<fed::Federation> federation_;
  std::unique_ptr<core::LusailEngine> lusail_;
  std::unique_ptr<baselines::FedXEngine> fedx_;
};

/// The rows rendered column by column (the engines and the oracle share
/// the SELECT order), sorted.
std::vector<std::string> SortedRows(const sparql::ResultTable& table) {
  std::vector<std::string> rows;
  for (const auto& row : table.rows) {
    std::string line;
    for (const auto& cell : row) {
      line += (cell.has_value() ? cell->ToString() : "UNDEF") + "|";
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

constexpr const char* kUbPrefix =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";

TEST_F(EngineEdgeCasesTest, FederatedAsk) {
  for (fed::FederatedEngine* engine : Engines()) {
    auto yes = engine->Execute(
        std::string(kUbPrefix) + "ASK { ?s ub:advisor ?p . }");
    ASSERT_TRUE(yes.ok()) << engine->name();
    EXPECT_EQ(yes->table.NumRows(), 1u) << engine->name();
    auto no = engine->Execute(
        std::string(kUbPrefix) + "ASK { ?s ub:nosuchpredicate ?p . }");
    ASSERT_TRUE(no.ok()) << engine->name();
    EXPECT_EQ(no->table.NumRows(), 0u) << engine->name();
  }
}

TEST_F(EngineEdgeCasesTest, FederatedCountAggregatesAcrossEndpoints) {
  for (fed::FederatedEngine* engine : Engines()) {
    auto result = engine->Execute(
        std::string(kUbPrefix) +
        "SELECT (COUNT(*) AS ?c) WHERE { ?s ub:advisor ?p . }");
    ASSERT_TRUE(result.ok()) << engine->name();
    ASSERT_EQ(result->table.NumRows(), 1u);
    // 4 advisor triples federation-wide (Lee, Sam, Kim x2).
    EXPECT_EQ(result->table.rows[0][0]->lexical(), "4") << engine->name();
  }
}

TEST_F(EngineEdgeCasesTest, NoRelevantSourceYieldsEmptyResult) {
  for (fed::FederatedEngine* engine : Engines()) {
    auto result = engine->Execute(
        "SELECT ?s WHERE { ?s <http://nowhere/p> ?o . ?o <http://nowhere/q> "
        "?x . }");
    ASSERT_TRUE(result.ok()) << engine->name();
    EXPECT_EQ(result->table.NumRows(), 0u) << engine->name();
  }
}

TEST_F(EngineEdgeCasesTest, ParseErrorsPropagate) {
  for (fed::FederatedEngine* engine : Engines()) {
    auto result = engine->Execute("SELEKT broken");
    ASSERT_FALSE(result.ok()) << engine->name();
    EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  }
}

TEST_F(EngineEdgeCasesTest, ExistsFilterMatchesOracle) {
  // FILTER [NOT] EXISTS runs at the federator as an (anti-)semi-join
  // with the body evaluated across endpoints: ?p's teacherOf triples may
  // live at another endpoint than ?s's advisor triple.
  const std::vector<workload::EndpointSpec> specs =
      workload::Figure1Federation();
  store::TripleStore store;
  for (const workload::EndpointSpec& spec : specs) {
    for (const rdf::TermTriple& t : spec.triples) store.Add(t);
  }
  store.Freeze();
  sparql::Evaluator oracle(&store);
  for (const char* filter : {"FILTER EXISTS", "FILTER NOT EXISTS"}) {
    const std::string text = std::string(kUbPrefix) +
                             "SELECT ?s ?p WHERE { ?s ub:advisor ?p . " +
                             filter + " { ?p ub:teacherOf ?c . } }";
    auto query = sparql::ParseQuery(text);
    ASSERT_TRUE(query.ok());
    auto expected = oracle.Execute(*query);
    ASSERT_TRUE(expected.ok());
    EXPECT_GT(expected->NumRows(), 0u) << filter;
    for (fed::FederatedEngine* engine : Engines()) {
      auto result = engine->Execute(text);
      ASSERT_TRUE(result.ok()) << engine->name() << ": "
                               << result.status().ToString();
      EXPECT_EQ(SortedRows(result->table), SortedRows(*expected))
          << filter << " on " << engine->name();
    }
  }
}

TEST_F(EngineEdgeCasesTest, DistinctWithLimitComputesFullResultFirst) {
  workload::LubmGenerator gen(workload::LubmConfig::Small());
  auto federation =
      workload::BuildFederation(gen.GenerateAll(), net::LatencyModel::None());
  core::LusailEngine engine(federation.get());
  std::string base = "PREFIX ub: "
      "<http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT DISTINCT ?d WHERE { ?s ub:memberOf ?d . }";
  auto all = engine.Execute(base);
  auto limited = engine.Execute(base + " LIMIT 2");
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(all->table.NumRows(), 4u);  // 2 unis x 2 departments.
  EXPECT_EQ(limited->table.NumRows(), 2u);
}

TEST_F(EngineEdgeCasesTest, ProfilePhaseTimingsArePopulated) {
  auto result = lusail_->Execute(workload::Figure2QueryQa());
  ASSERT_TRUE(result.ok());
  const fed::ExecutionProfile& p = result->profile;
  EXPECT_GT(p.total_ms, 0.0);
  EXPECT_GE(p.execution_ms, 0.0);
  EXPECT_GT(p.requests, 0u);
  EXPECT_GT(p.bytes_sent, 0u);
  EXPECT_GT(p.bytes_received, 0u);
  // Phases are bounded by the total (loosely; allow scheduling noise).
  EXPECT_LE(p.source_selection_ms + p.analysis_ms,
            p.total_ms * 2.0 + 1.0);
}

TEST_F(EngineEdgeCasesTest, LusailDeadlineExpiresCleanly) {
  workload::QFedGenerator gen{workload::QFedConfig()};
  auto federation = workload::BuildFederation(
      gen.GenerateAll(), net::LatencyModel::LocalCluster());
  core::LusailEngine engine(federation.get());
  auto result = engine.Execute(workload::QFedGenerator::C2P2B(),
                               Deadline::AfterMillis(0.01));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

TEST_F(EngineEdgeCasesTest, RepeatedExecutionsAreDeterministic) {
  auto first = lusail_->Execute(workload::Figure2QueryQa());
  auto second = lusail_->Execute(workload::Figure2QueryQa());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->table.NumRows(), second->table.NumRows());
  // Warm caches mean the second run issues no ASK probes.
  EXPECT_EQ(second->profile.ask_requests, 0u);
  EXPECT_LE(second->profile.requests, first->profile.requests);
}

TEST_F(EngineEdgeCasesTest, PureUnionQueryWithoutMainBgp) {
  for (fed::FederatedEngine* engine : Engines()) {
    auto result = engine->Execute(
        std::string(kUbPrefix) +
        "SELECT ?x WHERE { { ?x ub:teacherOf ?c . } UNION "
        "{ ?x ub:takesCourse ?c . } }");
    ASSERT_TRUE(result.ok()) << engine->name() << ": "
                             << result.status().ToString();
    // 3 teacherOf + 4 takesCourse triples federation-wide.
    EXPECT_EQ(result->table.NumRows(), 7u) << engine->name();
  }
}

}  // namespace
}  // namespace lusail
