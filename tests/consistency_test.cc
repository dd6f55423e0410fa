// Cross-engine result-consistency property tests: for every benchmark
// query of every workload, Lusail (in all of its configurations), FedX,
// FedX+HiBISCuS, SPLENDID and ANAPSID must return exactly the oracle
// answer — the query evaluated over the union of all endpoint data. This
// is the repository's strongest correctness net (paper Section 3.3,
// Lemmas 1-2).

#include <algorithm>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "baselines/anapsid_engine.h"
#include "baselines/fedx_engine.h"
#include "baselines/hibiscus.h"
#include "baselines/splendid_engine.h"
#include "core/lusail_engine.h"
#include "sparql/evaluator.h"
#include "sparql/parser.h"
#include "store/triple_store.h"
#include "workload/federation_builder.h"
#include "workload/lrb_generator.h"
#include "workload/lubm_generator.h"
#include "workload/qfed_generator.h"

namespace lusail {
namespace {

using workload::EndpointSpec;

std::multiset<std::string> RowBag(const sparql::ResultTable& table,
                                  bool as_set = false) {
  std::vector<size_t> order(table.vars.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return table.vars[a] < table.vars[b];
  });
  std::multiset<std::string> rows;
  for (const auto& row : table.rows) {
    std::string line;
    for (size_t i : order) {
      line += table.vars[i] + "=" +
              (row[i].has_value() ? row[i]->ToString() : "UNDEF") + "|";
    }
    rows.insert(line);
  }
  if (as_set) {
    std::multiset<std::string> dedup;
    std::string last;
    for (const std::string& r : rows) {
      if (r != last) dedup.insert(r);
      last = r;
    }
    return dedup;
  }
  return rows;
}

struct WorkloadCase {
  std::string name;
  std::vector<EndpointSpec> specs;
  std::vector<std::pair<std::string, std::string>> queries;
  /// When set, no engine may reject a query, baselines included.
  bool every_engine_answers = false;
};

/// Small LUBM with three universities, the data of the `modifiers` and
/// `groups` cases.
std::vector<EndpointSpec> ThreeUniversities() {
  workload::LubmConfig config = workload::LubmConfig::Small();
  config.num_universities = 3;
  return workload::LubmGenerator(config).GenerateAll();
}

constexpr const char* kUb =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";

/// The `groups` case's queries (also run against the sharded endpoint in
/// shard_test.cc).
std::vector<std::pair<std::string, std::string>> GroupQueries() {
  const std::string ub = kUb;
  return {
      {"values-restrict",
       ub + "SELECT ?x ?t WHERE { ?x a ?t . ?x ub:name ?n . "
            "VALUES ?t { ub:FullProfessor ub:Lecturer } }"},
      // The residual filter reads a VALUES variable.
      {"filter-values-var",
       ub + "SELECT ?x ?k WHERE { ?x a ub:FullProfessor . "
            "VALUES ?k { 1 2 } FILTER(?k = 1) }"},
      // VALUES joins before the OPTIONAL, which then cannot bind ?a.
      {"values-optional",
       ub + "SELECT ?x ?a WHERE { ?x a ub:GraduateStudent . "
            "OPTIONAL { ?x ub:advisor ?a } "
            "VALUES ?a { <http://nowhere/a> } }"},
      // The LIMIT must not cross the BGP past a VALUES join.
      {"values-limit",
       ub + "SELECT ?x ?n WHERE { ?x a ?t . ?x ub:name ?n . "
            "VALUES ?t { ub:University } } LIMIT 3"},
      {"values-only", ub + "SELECT ?k WHERE { VALUES ?k { 1 2 } }"},
      {"optional-only",
       ub + "SELECT ?x WHERE { OPTIONAL { ?x a ub:University } }"},
      {"union-join",
       ub + "SELECT ?x ?n WHERE { ?x ub:name ?n . "
            "{ ?x a ub:FullProfessor } UNION { ?x a ub:Lecturer } }"},
      {"exists", ub + "SELECT ?x WHERE { ?x ub:memberOf ?d . "
                      "FILTER EXISTS { ?x ub:advisor ?a } }"},
      {"not-exists", ub + "SELECT ?x WHERE { ?x ub:memberOf ?d . "
                          "FILTER NOT EXISTS { ?x ub:advisor ?a } }"},
  };
}

std::vector<WorkloadCase> MakeCases() {
  std::vector<WorkloadCase> cases;
  {
    WorkloadCase c;
    c.name = "figure1";
    c.specs = workload::Figure1Federation();
    c.queries = {{"Qa", workload::Figure2QueryQa()}};
    cases.push_back(std::move(c));
  }
  {
    WorkloadCase c;
    c.name = "lubm";
    c.specs =
        workload::LubmGenerator(workload::LubmConfig::Small()).GenerateAll();
    c.queries = workload::LubmGenerator::BenchmarkQueries();
    c.queries.push_back({"Qa", workload::LubmGenerator::QueryQa()});
    cases.push_back(std::move(c));
  }
  {
    WorkloadCase c;
    c.name = "qfed";
    c.specs =
        workload::QFedGenerator(workload::QFedConfig::Small()).GenerateAll();
    c.queries = workload::QFedGenerator::BenchmarkQueries();
    cases.push_back(std::move(c));
  }
  {
    WorkloadCase c;
    c.name = "lrb";
    c.specs =
        workload::LrbGenerator(workload::LrbConfig::Small()).GenerateAll();
    for (const auto& q : workload::LrbGenerator::SimpleQueries()) {
      c.queries.push_back(q);
    }
    for (const auto& q : workload::LrbGenerator::ComplexQueries()) {
      c.queries.push_back(q);
    }
    for (const auto& q : workload::LrbGenerator::LargeQueries()) {
      c.queries.push_back(q);
    }
    for (const auto& q : workload::LrbGenerator::Bio2RdfQueries()) {
      c.queries.push_back(q);
    }
    cases.push_back(std::move(c));
  }
  {
    // Solution modifiers over three universities: each query below once
    // came back wrong from at least one engine or from the shard gather.
    WorkloadCase c;
    c.name = "modifiers";
    c.specs = ThreeUniversities();
    const std::string ub = kUb;
    c.queries = {
        // ORDER BY key outside the SELECT list.
        {"hidden-key", ub + "SELECT ?x WHERE { ?x ub:name ?n . "
                            "?x a ub:University . } ORDER BY DESC(?n)"},
        // ORDER BY + LIMIT over a bound join (FedX's LIMIT shortcut).
        {"order-limit", ub + "SELECT ?x ?c WHERE { ?x ub:takesCourse ?c . "
                             "?x ub:memberOf ?d . } "
                             "ORDER BY DESC(?c) ?x LIMIT 3"},
        {"order-window", ub + "SELECT ?x ?n WHERE { ?x ub:name ?n . "
                              "?x a ub:FullProfessor . } "
                              "ORDER BY ?n LIMIT 4 OFFSET 2"},
        {"count-distinct",
         ub + "SELECT (COUNT(DISTINCT ?a) AS ?c) WHERE { ?x ub:advisor ?a . }"},
        // COUNT(?a) skips the cells OPTIONAL leaves unbound.
        {"count-optional", ub + "SELECT (COUNT(?a) AS ?c) WHERE { "
                                "?x a ub:UndergraduateStudent . "
                                "OPTIONAL { ?x ub:advisor ?a . } }"},
        // Under DISTINCT the hidden key is not carried, so it cannot
        // widen the dedup set.
        {"distinct-hidden-key", ub + "SELECT DISTINCT ?d WHERE { "
                                     "?x ub:worksFor ?d . ?x ub:name ?n . } "
                                     "ORDER BY ?n"},
        // A bound join on ?x whose bindings outnumber any sample: SAPE
        // once ASKed each endpoint with the first 10 bindings only and
        // dropped those that matched none (16 of 24 rows).
        {"worksfor-star", ub + "SELECT ?x ?d ?n WHERE { "
                               "?x ub:worksFor ?d . ?x ub:name ?n }"},
        {"ask", ub + "ASK { ?x ub:advisor ?a . ?a a ub:FullProfessor . }"},
    };
    cases.push_back(std::move(c));
  }
  {
    // Group patterns (VALUES, UNION, OPTIONAL, FILTER, EXISTS) past the
    // BGP: each query once came back wrong or rejected from at least one
    // engine, because each engine combined the group in its own order.
    WorkloadCase c;
    c.name = "groups";
    c.specs = ThreeUniversities();
    c.every_engine_answers = true;
    c.queries = GroupQueries();
    cases.push_back(std::move(c));
  }
  return cases;
}

/// The answer rows in order, each rendered from `cols` (all columns when
/// empty), for comparisons where ORDER BY makes order part of the answer.
std::vector<std::string> OrderedRows(const sparql::ResultTable& table,
                                     const std::vector<std::string>& cols) {
  std::vector<int> idx;
  for (const std::string& name : cols.empty() ? table.vars : cols) {
    auto it = std::find(table.vars.begin(), table.vars.end(), name);
    idx.push_back(it == table.vars.end()
                      ? -1
                      : static_cast<int>(it - table.vars.begin()));
  }
  std::vector<std::string> rows;
  for (const auto& row : table.rows) {
    std::string line;
    for (int i : idx) {
      line += i >= 0 && row[i].has_value() ? row[i]->ToString() : "UNDEF";
      line += "|";
    }
    rows.push_back(std::move(line));
  }
  return rows;
}

/// Compares an engine's answer with the oracle's. Without ORDER BY a
/// LIMIT picks an arbitrary subset, so only the row count must agree.
/// With ORDER BY the ordered sequence of sort-key tuples must agree (rows
/// tied on the keys may legitimately swap, or differ at a LIMIT's edge).
/// A key outside the SELECT list cannot be read back from the answer, so
/// then the ordered rows themselves are compared (the queries that do
/// this order on unique keys). Under DISTINCT such a key orders nothing.
/// Without LIMIT the row multisets must agree as well.
void ExpectSameAnswer(const sparql::Query& query,
                      const sparql::ResultTable& actual,
                      const sparql::ResultTable& oracle,
                      const std::string& where) {
  std::vector<std::string> keys;
  bool hidden_key = false;
  for (const sparql::OrderKey& key : query.order_by) {
    if (std::find(oracle.vars.begin(), oracle.vars.end(), key.var.name) !=
        oracle.vars.end()) {
      keys.push_back(key.var.name);
    } else if (!query.distinct) {
      hidden_key = true;
    }
  }
  if (hidden_key) keys.clear();
  if (!keys.empty() || hidden_key) {
    EXPECT_EQ(OrderedRows(actual, keys), OrderedRows(oracle, keys)) << where;
  }
  if (!query.limit.has_value()) {
    EXPECT_EQ(RowBag(actual), RowBag(oracle)) << where;
  } else {
    EXPECT_EQ(actual.NumRows(), oracle.NumRows()) << where;
  }
}

/// Oracle: evaluate over the union graph with the local engine.
sparql::ResultTable Oracle(const std::vector<EndpointSpec>& specs,
                           const std::string& text) {
  store::TripleStore store;
  for (const EndpointSpec& spec : specs) {
    for (const rdf::TermTriple& t : spec.triples) store.Add(t);
  }
  store.Freeze();
  sparql::Evaluator evaluator(&store);
  auto query = sparql::ParseQuery(text);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  auto result = evaluator.Execute(*query);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

core::LusailOptions LadeOnly() {
  core::LusailOptions options;
  options.enable_sape = false;
  return options;
}

/// The six engine configurations every answer is checked on: Lusail,
/// Lusail-LADE, FedX, FedX+HiBISCuS, SPLENDID and ANAPSID.
struct EngineSet {
  explicit EngineSet(const fed::Federation* federation)
      : lusail(federation),
        lusail_lade(federation, LadeOnly()),
        fedx(federation),
        hibiscus(baselines::HibiscusIndex::Build(*federation)),
        fedx_hibiscus(federation),
        splendid(federation),
        anapsid(federation) {
    fedx_hibiscus.set_source_provider(&hibiscus);
    splendid.BuildIndex();
  }

  std::vector<fed::FederatedEngine*> All() {
    return {&lusail, &lusail_lade, &fedx, &fedx_hibiscus, &splendid,
            &anapsid};
  }

  core::LusailEngine lusail;
  core::LusailEngine lusail_lade;
  baselines::FedXEngine fedx;
  baselines::HibiscusIndex hibiscus;
  baselines::FedXEngine fedx_hibiscus;
  baselines::SplendidEngine splendid;
  baselines::AnapsidEngine anapsid;
};

class ConsistencyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ConsistencyTest, AllEnginesMatchOracle) {
  static const std::vector<WorkloadCase> kCases = MakeCases();
  const WorkloadCase& wc = kCases[GetParam()];
  auto federation =
      workload::BuildFederation(wc.specs, net::LatencyModel::None());

  EngineSet engine_set(federation.get());

  for (const auto& [label, query_text] : wc.queries) {
    sparql::ResultTable oracle = Oracle(wc.specs, query_text);
    auto parsed = sparql::ParseQuery(query_text);
    ASSERT_TRUE(parsed.ok());
    for (fed::FederatedEngine* engine : engine_set.All()) {
      auto result = engine->Execute(query_text);
      if (!result.ok()) {
        // Baselines are allowed to reject unsupported shapes (the paper's
        // "runtime error" entries); Lusail must execute everything.
        EXPECT_TRUE(result.status().code() == StatusCode::kUnsupported &&
                    !wc.every_engine_answers &&
                    engine->name() != "Lusail" &&
                    engine->name() != "Lusail-LADE")
            << wc.name << "/" << label << " on " << engine->name() << ": "
            << result.status().ToString();
        continue;
      }
      ExpectSameAnswer(*parsed, result->table, oracle,
                       wc.name + "/" + label + " on " + engine->name());
    }
  }
}

std::string WorkloadCaseName(const ::testing::TestParamInfo<size_t>& info) {
  static const char* kNames[] = {"figure1", "lubm", "qfed", "lrb",
                                 "modifiers", "groups"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ConsistencyTest,
                         ::testing::Range<size_t>(0, 6), WorkloadCaseName);

/// Nested groups whose FILTER reads a variable bound only outside them.
/// The oracle evaluates a nested group once per solution, seeded with its
/// bindings; the federator evaluates it once, on its own. Every engine
/// must return the oracle's answer or kUnsupported, never other rows.
TEST(GroupPatternConsistencyTest, CorrelatedFiltersMatchOracleOrUnsupported) {
  std::vector<EndpointSpec> specs = ThreeUniversities();
  auto federation = workload::BuildFederation(specs, net::LatencyModel::None());
  EngineSet engine_set(federation.get());

  const std::string ub = kUb;
  const std::string union_correlated =
      ub + "SELECT ?x ?a WHERE { ?x ub:advisor ?a . "
           "{ ?a a ub:FullProfessor . FILTER(?x != ?a) } UNION "
           "{ ?a a ub:AssociateProfessor . FILTER(?x != ?a) } }";
  const std::string optional_correlated =
      ub + "SELECT ?x ?m WHERE { ?x ub:advisor ?a . "
           "OPTIONAL { ?a ub:name ?m . FILTER(?x != ?a) } }";
  for (const std::string& text : {union_correlated, optional_correlated}) {
    sparql::ResultTable oracle = Oracle(specs, text);
    ASSERT_GT(oracle.NumRows(), 0u) << text;
    for (fed::FederatedEngine* engine : engine_set.All()) {
      auto result = engine->Execute(text);
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kUnsupported)
            << engine->name() << ": " << result.status().ToString();
        continue;
      }
      EXPECT_EQ(RowBag(result->table), RowBag(oracle))
          << text << " on " << engine->name();
    }
  }
  // Lusail answers the correlated OPTIONAL because LADE pushes it into
  // the host subquery, where the endpoint evaluates it seeded.
  for (core::LusailEngine* engine :
       {&engine_set.lusail, &engine_set.lusail_lade}) {
    auto result = engine->Execute(optional_correlated);
    ASSERT_TRUE(result.ok()) << engine->name();
    EXPECT_EQ(result->profile.pushed_optionals, 1u) << engine->name();
  }
}

/// The delay-threshold options must not change results, only performance.
class ThresholdConsistencyTest
    : public ::testing::TestWithParam<core::DelayThreshold> {};

TEST_P(ThresholdConsistencyTest, ThresholdDoesNotChangeResults) {
  auto specs =
      workload::QFedGenerator(workload::QFedConfig::Small()).GenerateAll();
  auto federation =
      workload::BuildFederation(specs, net::LatencyModel::None());
  core::LusailOptions options;
  options.delay_threshold = GetParam();
  core::LusailEngine engine(federation.get(), options);
  for (const auto& [label, query] :
       workload::QFedGenerator::BenchmarkQueries()) {
    auto result = engine.Execute(query);
    ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
    sparql::ResultTable oracle = Oracle(specs, query);
    EXPECT_EQ(RowBag(result->table), RowBag(oracle)) << label;
  }
}

std::string ThresholdName(
    const ::testing::TestParamInfo<core::DelayThreshold>& info) {
  switch (info.param) {
    case core::DelayThreshold::kMu:
      return "Mu";
    case core::DelayThreshold::kMuSigma:
      return "MuSigma";
    case core::DelayThreshold::kMu2Sigma:
      return "Mu2Sigma";
    case core::DelayThreshold::kOutliersOnly:
      return "OutliersOnly";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(AllThresholds, ThresholdConsistencyTest,
                         ::testing::Values(
                             core::DelayThreshold::kMu,
                             core::DelayThreshold::kMuSigma,
                             core::DelayThreshold::kMu2Sigma,
                             core::DelayThreshold::kOutliersOnly),
                         ThresholdName);

}  // namespace
}  // namespace lusail
