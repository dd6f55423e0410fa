// Unit tests for the SAPE execution machinery: the cost model (Chauvenet
// outlier rejection, delay thresholds, cardinality estimation), the DP
// join-order optimizer, the join kernel with and without a pool, and
// request dispatch on the federation's request pool.

#include <chrono>
#include <cmath>

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/group_pattern.h"
#include "core/id_table.h"
#include "core/join_optimizer.h"
#include "core/lusail_engine.h"
#include "sparql/parser.h"
#include "workload/federation_builder.h"
#include "workload/lubm_generator.h"
#include "workload/qfed_generator.h"

namespace lusail::core {
namespace {

// ---------------------------------------------------------------------
// Chauvenet + delay decisions
// ---------------------------------------------------------------------

TEST(ChauvenetTest, NoOutliersInUniformData) {
  std::vector<double> xs = {10, 11, 9, 10, 12, 10, 11};
  auto flags = ChauvenetOutliers(xs);
  for (bool f : flags) EXPECT_FALSE(f);
}

TEST(ChauvenetTest, ExtremeValueIsRejected) {
  std::vector<double> xs = {10, 11, 9, 10, 12, 1000000};
  auto flags = ChauvenetOutliers(xs);
  EXPECT_TRUE(flags.back());
  for (size_t i = 0; i + 1 < xs.size(); ++i) EXPECT_FALSE(flags[i]);
}

TEST(ChauvenetTest, TinySamplesAreNeverRejected) {
  EXPECT_FALSE(ChauvenetOutliers({1, 1000000})[1]);
  EXPECT_TRUE(ChauvenetOutliers({}).empty());
}

TEST(DelayDecisionTest, SingleSubqueryNeverDelayed) {
  auto delayed = DecideDelayed({1e9}, {100}, DelayThreshold::kMu);
  EXPECT_FALSE(delayed[0]);
}

TEST(DelayDecisionTest, LargeCardinalityIsDelayed) {
  std::vector<double> cards = {10, 10, 10, 100000};
  std::vector<double> eps = {2, 2, 2, 2};
  auto delayed = DecideDelayed(cards, eps, DelayThreshold::kMuSigma);
  EXPECT_FALSE(delayed[0]);
  EXPECT_FALSE(delayed[1]);
  EXPECT_FALSE(delayed[2]);
  EXPECT_TRUE(delayed[3]);
}

TEST(DelayDecisionTest, ManyEndpointsAloneTriggersDelay) {
  std::vector<double> cards = {10, 10, 10, 10};
  std::vector<double> eps = {2, 2, 2, 200};
  auto delayed = DecideDelayed(cards, eps, DelayThreshold::kMuSigma);
  EXPECT_TRUE(delayed[3]);
}

TEST(DelayDecisionTest, ThresholdsAreMonotonic) {
  // Looser thresholds (higher k) must delay a subset of what tighter
  // thresholds delay.
  std::vector<double> cards = {5, 8, 20, 60, 300};
  std::vector<double> eps = {1, 1, 1, 1, 1};
  auto mu = DecideDelayed(cards, eps, DelayThreshold::kMu);
  auto mu_sigma = DecideDelayed(cards, eps, DelayThreshold::kMuSigma);
  auto mu_2sigma = DecideDelayed(cards, eps, DelayThreshold::kMu2Sigma);
  for (size_t i = 0; i < cards.size(); ++i) {
    if (mu_2sigma[i]) EXPECT_TRUE(mu_sigma[i]) << i;
    if (mu_sigma[i]) EXPECT_TRUE(mu[i]) << i;
  }
}

TEST(DelayDecisionTest, AtLeastOneNonDelayedSurvives) {
  // Identical large values: whatever the threshold does, at least one
  // subquery must run in the concurrent phase.
  std::vector<double> cards = {1000, 1000, 1000};
  std::vector<double> eps = {50, 50, 50};
  for (DelayThreshold t :
       {DelayThreshold::kMu, DelayThreshold::kMuSigma,
        DelayThreshold::kMu2Sigma, DelayThreshold::kOutliersOnly}) {
    auto delayed = DecideDelayed(cards, eps, t);
    EXPECT_NE(std::count(delayed.begin(), delayed.end(), false), 0);
  }
}

// ---------------------------------------------------------------------
// Cost model statistics (against a live mini-federation)
// ---------------------------------------------------------------------

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::QFedGenerator gen(workload::QFedConfig::Small());
    specs_ = gen.GenerateAll();
    federation_ =
        workload::BuildFederation(specs_, net::LatencyModel::None());
  }

  std::vector<workload::EndpointSpec> specs_;
  std::unique_ptr<fed::Federation> federation_;
};

TEST_F(CostModelTest, CountsAreExact) {
  auto q = sparql::ParseQuery(
      "PREFIX db: <http://drugbank.example.org/vocab#>\n"
      "SELECT * WHERE { ?d db:name ?n . }");
  ASSERT_TRUE(q.ok());
  CostModel model(federation_.get());
  fed::MetricsCollector metrics;
  // drugbank is endpoint 0.
  ASSERT_TRUE(model
                  .CollectStatistics(q->where.triples, {{0}}, {}, &metrics,
                                     Deadline())
                  .ok());
  workload::QFedConfig cfg = workload::QFedConfig::Small();
  EXPECT_EQ(model.PatternCount(0, 0),
            static_cast<uint64_t>(cfg.num_drugs));
  EXPECT_EQ(model.PatternTotal(0), static_cast<uint64_t>(cfg.num_drugs));
}

TEST_F(CostModelTest, FilterPushdownTightensCounts) {
  auto q = sparql::ParseQuery(
      "PREFIX db: <http://drugbank.example.org/vocab#>\n"
      "SELECT * WHERE { ?d db:name ?n . FILTER (CONTAINS(?n, \"amide\")) }");
  ASSERT_TRUE(q.ok());
  CostModel with_filter(federation_.get());
  CostModel without(federation_.get());
  fed::MetricsCollector metrics;
  ASSERT_TRUE(with_filter
                  .CollectStatistics(q->where.triples, {{0}},
                                     q->where.filters, &metrics, Deadline())
                  .ok());
  ASSERT_TRUE(without
                  .CollectStatistics(q->where.triples, {{0}}, {}, &metrics,
                                     Deadline())
                  .ok());
  EXPECT_LT(with_filter.PatternCount(0, 0), without.PatternCount(0, 0));
  EXPECT_GT(with_filter.PatternCount(0, 0), 0u);
}

TEST_F(CostModelTest, SubqueryCardinalityUsesMinOverJoin) {
  // Two patterns on ?d: counts 150 (name) and 150 (type) at drugbank,
  // joined min per endpoint, summed over endpoints.
  auto q = sparql::ParseQuery(
      "PREFIX db: <http://drugbank.example.org/vocab#>\n"
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
      "SELECT * WHERE { ?d db:name ?n . ?d db:interactsWith ?x . }");
  ASSERT_TRUE(q.ok());
  CostModel model(federation_.get());
  fed::MetricsCollector metrics;
  ASSERT_TRUE(model
                  .CollectStatistics(q->where.triples, {{0}, {0}}, {},
                                     &metrics, Deadline())
                  .ok());
  Subquery sq;
  sq.triple_indices = {0, 1};
  sq.sources = {0};
  sq.projection = {"d"};
  double card = model.SubqueryCardinality(sq, q->where.triples);
  EXPECT_DOUBLE_EQ(card,
                   std::min(static_cast<double>(model.PatternCount(0, 0)),
                            static_cast<double>(model.PatternCount(1, 0))));
}

TEST_F(CostModelTest, CountQueryTextShape) {
  auto q = sparql::ParseQuery("SELECT * WHERE { ?s <http://p> ?o . }");
  std::string text = CostModel::CountQueryText(q->where.triples[0], {});
  EXPECT_NE(text.find("COUNT(*)"), std::string::npos);
  EXPECT_TRUE(sparql::ParseQuery(text).ok());
}

// ---------------------------------------------------------------------
// Join optimizer
// ---------------------------------------------------------------------

TEST(JoinOptimizerTest, SingleAndEmpty) {
  EXPECT_TRUE(JoinOptimizer::OptimalOrder({}, {}, 4).empty());
  EXPECT_EQ(JoinOptimizer::OptimalOrder({10}, {{"x"}}, 4),
            (std::vector<int>{0}));
}

TEST(JoinOptimizerTest, OrderCoversAllRelationsOnce) {
  std::vector<double> sizes = {100, 10, 1000, 50};
  std::vector<std::set<std::string>> vars = {
      {"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}};
  auto order = JoinOptimizer::OptimalOrder(sizes, vars, 4);
  std::set<int> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), 4u);
}

TEST(JoinOptimizerTest, PrefersConnectedExpansions) {
  // Relations 0-1 share a var; 2 is disjoint. The cartesian join with 2
  // must come last.
  std::vector<double> sizes = {10, 20, 5};
  std::vector<std::set<std::string>> vars = {{"x"}, {"x"}, {"zzz"}};
  auto order = JoinOptimizer::OptimalOrder(sizes, vars, 4);
  EXPECT_EQ(order.back(), 2);
}

TEST(JoinOptimizerTest, GreedyFallbackBeyondDpLimit) {
  const size_t n = JoinOptimizer::kDpLimit + 3;
  std::vector<double> sizes(n);
  std::vector<std::set<std::string>> vars(n);
  for (size_t i = 0; i < n; ++i) {
    sizes[i] = static_cast<double>(100 * (i + 1));
    vars[i] = {"v" + std::to_string(i), "v" + std::to_string(i + 1)};
  }
  auto order = JoinOptimizer::OptimalOrder(sizes, vars, 4);
  ASSERT_EQ(order.size(), n);
  std::set<int> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), n);
  EXPECT_EQ(order[0], 0) << "greedy starts from the smallest relation";
}

// ---------------------------------------------------------------------
// The join kernel: core::JoinIds with and without a pool
// ---------------------------------------------------------------------

fed::BindingTable BigTable(fed::SharedDictionary* dict, const std::string& var,
                           const std::string& other, int n, int offset) {
  fed::BindingTable t;
  t.vars = {var, other};
  for (int i = 0; i < n; ++i) {
    t.AppendRow({dict->Intern(rdf::Term::Integer(i + offset)),
                 dict->Intern(rdf::Term::Iri("http://r/" + other + "/" +
                                             std::to_string(i)))});
  }
  return t;
}

/// Every row of `t`, in order.
std::vector<std::vector<rdf::TermId>> RowsInOrder(const fed::BindingTable& t) {
  std::vector<std::vector<rdf::TermId>> rows;
  for (size_t r = 0; r < t.NumRows(); ++r) rows.push_back(t.Row(r));
  return rows;
}

/// One input shape of the partitioning table.
struct JoinShape {
  std::string name;
  fed::BindingTable left;
  fed::BindingTable right;
  bool left_outer = false;
};

/// A table over `vars` whose cell (row i, column c) is cell(i, c); 0 in
/// a cell means unbound. Ids are raw: the join never decodes them.
template <typename Cell>
fed::BindingTable Generated(std::vector<std::string> vars, int rows,
                            Cell cell) {
  fed::BindingTable t(std::move(vars));
  for (int i = 0; i < rows; ++i) {
    std::vector<rdf::TermId> row;
    for (size_t c = 0; c < t.NumVars(); ++c) {
      rdf::TermId id = cell(i, static_cast<int>(c));
      row.push_back(id == 0 ? rdf::kInvalidTermId : id);
    }
    t.AppendRow(row);
  }
  return t;
}

/// The shapes, each with at least twice kJoinParallelWork of work so a
/// pool run really splits it into ranges.
std::vector<JoinShape> JoinShapes() {
  const int n = static_cast<int>(2 * kJoinParallelWork);
  auto payload = [](int i, int c) { return rdf::TermId(1000000 * c + i + 1); };
  std::vector<JoinShape> shapes;
  // Single key, two right rows per key over half the left keys.
  auto one_key_left = Generated({"k", "l"}, n, [&](int i, int c) {
    return c == 0 ? rdf::TermId(i + 1) : payload(i, 1);
  });
  auto one_key_right = Generated({"k", "r"}, n, [&](int i, int c) {
    return c == 0 ? rdf::TermId(i / 2 + n / 4 + 1) : payload(i, 2);
  });
  shapes.push_back({"single key", one_key_left, one_key_right});
  shapes.push_back({"left outer", one_key_left, one_key_right, true});
  shapes.push_back({"two keys",
                    Generated({"k", "j", "l"}, n,
                              [&](int i, int c) {
                                if (c == 0) return rdf::TermId(i % 4096 + 1);
                                if (c == 1) return rdf::TermId(i % 3 + 1);
                                return payload(i, 1);
                              }),
                    Generated({"j", "k", "r"}, n / 4, [&](int i, int c) {
                      if (c == 0) return rdf::TermId(i % 2 + 1);
                      if (c == 1) return rdf::TermId(i % 4096 + 1);
                      return payload(i, 2);
                    })});
  // Unbound key cells: one left row in 1000 (each scans the right side)
  // and right rows 0, 1000, 2000 (wildcards every keyed left row meets).
  auto holey_left = Generated({"k", "l"}, n, [&](int i, int c) {
    return c == 0 ? rdf::TermId(i % 1000 == 7 ? 0 : i + 1) : payload(i, 1);
  });
  auto small_right = Generated({"k", "r"}, 300, [&](int i, int c) {
    return c == 0 ? rdf::TermId(37 * i + 1) : payload(i, 2);
  });
  auto holey_right = Generated({"k", "r"}, 3000, [&](int i, int c) {
    return c == 0 ? rdf::TermId(i % 1000 == 0 ? 0 : 11 * i + 1)
                  : payload(i, 2);
  });
  shapes.push_back({"unbound left keys", holey_left, small_right});
  shapes.push_back({"unbound right keys", one_key_left, holey_right});
  shapes.push_back({"unbound keys on both sides", holey_left, holey_right});
  shapes.push_back({"unbound keys, left outer", holey_left, small_right,
                    true});
  shapes.push_back({"no shared variables",
                    Generated({"a"}, 64, payload),
                    Generated({"b"}, n / 64 + 1, payload)});
  shapes.push_back({"empty right side", one_key_left,
                    fed::BindingTable({"k", "r"})});
  shapes.push_back({"empty right side, left outer", one_key_left,
                    fed::BindingTable({"k", "r"}), true});
  shapes.push_back({"empty left side", fed::BindingTable({"k", "l"}),
                    one_key_right});
  return shapes;
}

TEST(ParallelHashJoinTest, MatchesSequentialJoin) {
  fed::SharedDictionary dict;
  ThreadPool pool(4);
  fed::BindingTable left = BigTable(&dict, "k", "l", 3000, 0);
  fed::BindingTable right = BigTable(&dict, "k", "r", 3000, 1500);
  fed::BindingTable parallel =
      JoinIds(left, right, /*left_outer=*/false, &pool, 8);
  fed::BindingTable sequential = JoinIds(left, right, /*left_outer=*/false);
  EXPECT_EQ(parallel.NumRows(), sequential.NumRows());
  EXPECT_EQ(parallel.NumRows(), 1500u);  // Overlap of the key ranges.
  // Same row multiset regardless of partitioning.
  auto key_of = [](const fed::BindingTable& t) {
    std::multiset<std::vector<rdf::TermId>> keys;
    int k = t.VarIndex("k"), l = t.VarIndex("l"), r = t.VarIndex("r");
    for (size_t row = 0; row < t.NumRows(); ++row) {
      keys.insert({t.At(row, static_cast<size_t>(k)),
                   t.At(row, static_cast<size_t>(l)),
                   t.At(row, static_cast<size_t>(r))});
    }
    return keys;
  };
  EXPECT_EQ(key_of(parallel), key_of(sequential));

  // Exactly the serial rows, in the serial order, for every shape.
  for (const JoinShape& shape : JoinShapes()) {
    SCOPED_TRACE(shape.name);
    fed::BindingTable serial =
        JoinIds(shape.left, shape.right, shape.left_outer);
    fed::BindingTable ranged =
        JoinIds(shape.left, shape.right, shape.left_outer, &pool, 8);
    EXPECT_EQ(ranged.vars, serial.vars);
    EXPECT_EQ(RowsInOrder(ranged), RowsInOrder(serial));
  }
}

TEST(ParallelHashJoinTest, SmallInputsFallBack) {
  fed::SharedDictionary dict;
  ThreadPool pool(2);
  fed::BindingTable left = BigTable(&dict, "k", "l", 10, 0);
  fed::BindingTable right = BigTable(&dict, "k", "r", 10, 5);
  fed::BindingTable joined =
      JoinIds(left, right, /*left_outer=*/false, &pool, 8);
  EXPECT_EQ(joined.NumRows(), 5u);
}

TEST(ParallelHashJoinTest, StableColumnOrder) {
  fed::SharedDictionary dict;
  ThreadPool pool(4);
  fed::BindingTable left = BigTable(&dict, "k", "l", 3000, 0);
  fed::BindingTable right = BigTable(&dict, "k", "r", 3000, 0);
  fed::BindingTable joined =
      JoinIds(left, right, /*left_outer=*/false, &pool, 8);
  ASSERT_EQ(joined.vars.size(), 3u);
  EXPECT_EQ(joined.vars[0], "k");
  EXPECT_EQ(joined.vars[1], "l");
  EXPECT_EQ(joined.vars[2], "r");
}

/// 4000 x 4000 rows whose left key column ?k is unbound, so every left
/// row scans all 4000 right rows (16M compatibility checks); ?j, bound
/// and never equal, keeps the output empty.
std::pair<fed::BindingTable, fed::BindingTable> UnboundKeyJoin() {
  auto left = Generated({"k", "j", "l"}, 4000, [](int i, int c) {
    return c == 0 ? rdf::TermId(0) : rdf::TermId(i + 1);
  });
  auto right = Generated({"k", "j", "r"}, 4000, [](int i, int c) {
    return c == 1 ? rdf::TermId(i + 100001) : rdf::TermId(i + 1);
  });
  return {std::move(left), std::move(right)};
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TEST(JoinKernelTest, FiredTokenStopsUnboundKeyJoin) {
  auto [left, right] = UnboundKeyJoin();
  ThreadPool pool(4);
  CancelToken token = CancelToken::Cancellable();
  token.Cancel();
  for (bool left_outer : {false, true}) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      auto start = std::chrono::steady_clock::now();
      JoinIds(left, right, left_outer, p, 8, &token);
      EXPECT_LT(MillisSince(start), 20.0)
          << "left_outer=" << left_outer << " pool=" << (p != nullptr);
    }
  }
  // The join cannot fail; its caller's own check turns the fired token
  // into the status.
  Status status = token.StatusAt("group join");
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
}

/// The OPTIONAL left join of the group combiner passes the token on and
/// checks it after the join, as the VALUES and UNION joins do.
TEST(JoinKernelTest, CombineGroupOptionalJoinTripsOnFiredToken) {
  auto [left, right_table] = UnboundKeyJoin();
  const fed::BindingTable& right = right_table;
  sparql::GraphPattern optional_body;
  GroupTail tail;
  tail.optionals.push_back(&optional_body);
  NestedGroupEval nested =
      [&right](const sparql::GraphPattern&) -> Result<IdTable> {
    return right;
  };
  TermDictionary dict;
  ThreadPool pool(4);
  CancelToken token = CancelToken::Cancellable();
  token.Cancel();
  auto start = std::chrono::steady_clock::now();
  Result<IdTable> out =
      CombineGroup(left, tail, nested, &dict, &pool, 8, &token);
  EXPECT_LT(MillisSince(start), 20.0);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kTimeout);
  EXPECT_NE(out.status().message().find("group join"), std::string::npos)
      << out.status().ToString();
}

// ---------------------------------------------------------------------
// Request dispatch
// ---------------------------------------------------------------------

/// Endpoint requests run on the federation's request pool, not on the
/// engine's CPU pool: with 8 endpoints one round trip away and a
/// 2-thread engine, the 24 ASK probes of a 3-pattern query take 2 round
/// trips (16 in flight, then 8), not the 12 a 2-thread pool would need.
/// The round trip is long enough that sanitizer builds stay under 3.
TEST(RequestDispatchTest, ConcurrencyFollowsTheFederationNotTheCpuPool) {
  constexpr double kRttMs = 50.0;
  workload::LubmConfig config = workload::LubmConfig::Small();
  config.num_universities = 8;
  workload::LubmGenerator generator(config);
  auto federation = workload::BuildFederation(
      generator.GenerateAll(),
      net::LatencyModel{/*request_latency_ms=*/kRttMs,
                        /*bandwidth_bytes_per_ms=*/0.0,
                        /*sleep_scale=*/1.0});
  ASSERT_EQ(federation->size(), 8u);
  LusailOptions options;
  options.num_threads = 2;
  LusailEngine engine(federation.get(), options);
  auto result = engine.Execute(
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT ?x ?n ?e ?d WHERE { ?x ub:name ?n . ?x ub:emailAddress ?e . "
      "?x ub:memberOf ?d . }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->table.rows.empty());
  EXPECT_LT(result->profile.source_selection_ms, 3 * kRttMs);
}

// ---------------------------------------------------------------------
// Request waves: round trips under a slept network
// ---------------------------------------------------------------------

constexpr const char* kUbPrefix =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";

/// Small LUBM, one endpoint per university, every request slept `rtt_ms`.
std::unique_ptr<fed::Federation> SleptLubm(int universities, double rtt_ms) {
  workload::LubmConfig config = workload::LubmConfig::Small();
  config.num_universities = universities;
  return workload::BuildFederation(
      workload::LubmGenerator(config).GenerateAll(),
      net::LatencyModel{/*request_latency_ms=*/rtt_ms,
                        /*bandwidth_bytes_per_ms=*/0.0,
                        /*sleep_scale=*/1.0});
}

/// The value of annotation `key` on the first span that carries it.
std::string AnnotationOf(const obs::Trace& trace, const std::string& key) {
  for (const obs::Span& span : trace.spans) {
    for (const obs::SpanAnnotation& a : span.annotations) {
      if (a.key == key) return a.value;
    }
  }
  return "";
}

/// The `student-point` shape of perfbench's lubm-geo: one student's
/// courses and their names. Source selection, then the COUNT probes (the
/// ?c patterns' source lists differ, so no check query), the phase-1
/// fetch, and one bound join for the course names: four waves. A sampled
/// source refinement before the bound join once made it five.
TEST(RoundTripTest, StudentPointTakesFourWaves) {
  constexpr double kRttMs = 20.0;
  auto federation = SleptLubm(8, kRttMs);
  LusailOptions options;
  options.trace = true;
  LusailEngine engine(federation.get(), options);
  auto result = engine.Execute(
      std::string(kUbPrefix) +
      "SELECT ?c ?cn WHERE { "
      "<http://www.department0.university1.edu/graduateStudent3> "
      "ub:takesCourse ?c . ?c ub:name ?cn . }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->table.rows.empty());
  ASSERT_NE(result->profile.trace, nullptr);
  EXPECT_EQ(AnnotationOf(*result->profile.trace, "mode"), "concurrent");
  EXPECT_EQ(result->profile.round_trips, 4u);
  // The query span carries the count too.
  auto roots = result->profile.trace->ByCategory("query");
  ASSERT_EQ(roots.size(), 1u);
  bool annotated = false;
  for (const obs::SpanAnnotation& a : roots[0]->annotations) {
    if (a.key == "round_trips") annotated = a.value == "4";
  }
  EXPECT_TRUE(annotated);
}

/// All VALUES blocks of one bound join go out as one wave: three blocks
/// cost the round trip that one block costs, not three.
TEST(RoundTripTest, BoundJoinBlocksShareOneWave) {
  constexpr double kRttMs = 40.0;
  const std::string query =
      std::string(kUbPrefix) +
      "SELECT ?x ?d ?n WHERE { ?x ub:worksFor ?d . ?x ub:name ?n }";
  auto federation = SleptLubm(2, kRttMs);
  auto run = [&](size_t block_size) {
    LusailOptions options;
    options.trace = true;
    options.bound_join_block_size = block_size;
    LusailEngine engine(federation.get(), options);  // Fresh caches.
    return engine.Execute(query);
  };
  auto one_block = run(1000);
  ASSERT_TRUE(one_block.ok()) << one_block.status().ToString();
  const obs::Trace& one_trace = *one_block->profile.trace;
  ASSERT_EQ(AnnotationOf(one_trace, "values_blocks"), "1");
  size_t bindings = std::stoul(AnnotationOf(one_trace, "bindings"));
  ASSERT_GE(bindings, 3u);

  auto three_blocks = run((bindings + 2) / 3);
  ASSERT_TRUE(three_blocks.ok()) << three_blocks.status().ToString();
  EXPECT_EQ(AnnotationOf(*three_blocks->profile.trace, "values_blocks"), "3");
  EXPECT_EQ(three_blocks->table.rows.size(), one_block->table.rows.size());
  // Source selection, LADE, phase 1, and the bound join.
  EXPECT_EQ(one_block->profile.round_trips, 4u);
  EXPECT_EQ(three_blocks->profile.round_trips, 4u);
  // Phase 1 and one bound-join wave; blocks sent one after another would
  // take four round trips here.
  EXPECT_LT(three_blocks->profile.execution_ms, 3 * kRttMs);
}

/// GJV check queries and COUNT probes are independent, so they share one
/// wave. ?x's name and email patterns have the same two sources, so ?x
/// needs check queries in both directions at both endpoints, beside one
/// COUNT probe per pattern and endpoint.
TEST(RoundTripTest, ChecksAndCountProbesShareOneWave) {
  constexpr double kRttMs = 40.0;
  auto federation = SleptLubm(2, kRttMs);
  LusailOptions options;
  options.trace = true;
  LusailEngine engine(federation.get(), options);
  auto result = engine.Execute(
      std::string(kUbPrefix) +
      "SELECT ?x ?n ?e WHERE { ?x ub:name ?n . ?x ub:emailAddress ?e . }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const obs::Trace& trace = *result->profile.trace;
  const obs::Span* lade = nullptr;
  for (const obs::Span* span : trace.ByCategory("phase")) {
    if (span->name == "LADE analysis") lade = span;
  }
  ASSERT_NE(lade, nullptr);
  size_t lade_requests = 0;
  for (const obs::Span* span : trace.ByCategory("request")) {
    if (span->parent == lade->id) ++lade_requests;
  }
  // 2 directions x 2 endpoints checks + 2 patterns x 2 endpoints probes.
  EXPECT_EQ(lade_requests, 8u);
  // Source selection, LADE, phase 1, and the bound join the checks'
  // causing pair calls for.
  EXPECT_EQ(result->profile.round_trips, 4u);
  // Checks first and probes after would take two round trips.
  EXPECT_LT(result->profile.analysis_ms, 1.6 * kRttMs);
}

/// A single-subquery plan holds the whole-query union as its one
/// intermediate table, so the peak is at least the answer (LUBM Q1 is
/// evaluated whole at each endpoint).
TEST(SapeProfileTest, SingleSubqueryPlanRecordsPeakRows) {
  workload::LubmConfig config = workload::LubmConfig::Small();
  config.num_universities = 2;
  auto federation = workload::BuildFederation(
      workload::LubmGenerator(config).GenerateAll(),
      net::LatencyModel::None());
  LusailOptions options;
  options.trace = true;
  LusailEngine engine(federation.get(), options);
  auto result = engine.Execute(workload::LubmGenerator::Q1());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(AnnotationOf(*result->profile.trace, "mode"), "whole query");
  EXPECT_GT(result->profile.rows_received, 0u);
  EXPECT_GT(result->table.rows.size(), 0u);
  EXPECT_GE(result->profile.peak_intermediate_rows,
            result->table.rows.size());
}

TEST(SapeProfileTest, RowsReceivedCountsOnlyBindingFetches) {
  // Q1 on two universities is answered by one whole-query fetch of 27
  // rows; the rows of its ASK probes and checks are not binding rows.
  workload::LubmConfig config = workload::LubmConfig::Small();
  config.num_universities = 2;
  auto federation = workload::BuildFederation(
      workload::LubmGenerator(config).GenerateAll(),
      net::LatencyModel::None());
  LusailEngine engine(federation.get());
  auto result = engine.Execute(workload::LubmGenerator::Q1());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->profile.ask_requests, 0u);
  EXPECT_EQ(result->profile.rows_received, 27u);
  EXPECT_EQ(result->profile.rows_received,
            result->profile.peak_intermediate_rows);
  EXPECT_GT(result->profile.first_row_ms, 0.0);
}

}  // namespace
}  // namespace lusail::core
