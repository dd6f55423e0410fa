// Tests for the observability layer: JSON tree, span tracer, latency
// histograms, the cross-query endpoint stats registry, per-query trace
// recording through the engines, and the EXPLAIN report.

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/fedx_engine.h"
#include "core/lusail_engine.h"
#include "net/fault_injection.h"
#include "net/resilience.h"
#include "obs/endpoint_stats.h"
#include "obs/explain.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "workload/federation_builder.h"
#include "workload/qfed_generator.h"

namespace lusail {
namespace {

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

TEST(JsonTest, SerializeParseRoundTrip) {
  obs::JsonValue obj;
  obj.Set("name", obs::JsonValue("query \"a\"\n"));
  obj.Set("count", obs::JsonValue(uint64_t{42}));
  obj.Set("ratio", obs::JsonValue(0.5));
  obj.Set("ok", obs::JsonValue(true));
  obj.Set("missing", obs::JsonValue());
  obs::JsonValue arr;
  arr.Append(obs::JsonValue(1));
  arr.Append(obs::JsonValue("two"));
  obs::JsonValue nested;
  nested.Set("deep", obs::JsonValue(-3.25));
  arr.Append(std::move(nested));
  obj.Set("items", std::move(arr));

  auto parsed = obs::JsonValue::Parse(obj.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, obj);
  // Pretty output parses back to the same tree too.
  auto pretty = obs::JsonValue::Parse(obj.Pretty());
  ASSERT_TRUE(pretty.ok());
  EXPECT_EQ(*pretty, obj);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(obs::JsonValue::Parse("{").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("[1, 2,]").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("{\"a\": }").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("tru").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("{} trailing").ok());
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

TEST(TracerTest, SpanTreeAndAnnotations) {
  obs::Tracer tracer;
  obs::SpanId root = tracer.StartSpan("query", "query");
  obs::SpanId phase = tracer.StartSpan("LADE analysis", "phase", root);
  tracer.Annotate(phase, "subqueries", uint64_t{2});
  tracer.EndSpan(phase);
  tracer.EndSpan(root);
  tracer.EndSpan(phase);  // Double-close is a no-op.

  obs::Trace trace = tracer.Snapshot();
  ASSERT_EQ(trace.spans.size(), 2u);
  const obs::Span* found = trace.Find(phase);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->parent, root);
  EXPECT_GE(found->duration_us, 0.0);
  ASSERT_EQ(found->annotations.size(), 1u);
  EXPECT_EQ(found->annotations[0].key, "subqueries");
  EXPECT_EQ(found->annotations[0].value, "2");
  EXPECT_EQ(trace.ChildrenOf(root).size(), 1u);
  EXPECT_EQ(trace.ByCategory("phase").size(), 1u);
}

TEST(TracerTest, ConcurrentSpanEmission) {
  obs::Tracer tracer;
  obs::SpanId root = tracer.StartSpan("query", "query");
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, root, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::SpanId span = tracer.StartSpan(
            "request " + std::to_string(t) + "." + std::to_string(i),
            "request", root);
        tracer.Annotate(span, "i", static_cast<uint64_t>(i));
        tracer.EndSpan(span);
      }
    });
  }
  for (auto& th : threads) th.join();
  tracer.EndSpan(root);

  obs::Trace trace = tracer.Snapshot();
  ASSERT_EQ(trace.spans.size(), 1u + kThreads * kSpansPerThread);
  std::set<obs::SpanId> ids;
  for (const obs::Span& span : trace.spans) {
    EXPECT_TRUE(ids.insert(span.id).second) << "duplicate span id";
    if (span.id != root) {
      EXPECT_EQ(span.parent, root);
      EXPECT_GE(span.duration_us, 0.0);
    }
  }
}

TEST(TracerTest, ChromeExportIsValidJson) {
  obs::Tracer tracer;
  obs::SpanId root = tracer.StartSpan("query", "query");
  obs::SpanId child = tracer.StartSpan("phase A", "phase", root);
  tracer.Annotate(child, "note", "x");
  tracer.EndSpan(child);
  tracer.EndSpan(root);

  auto parsed = obs::JsonValue::Parse(tracer.Snapshot().ToChromeJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& events = parsed->Get("traceEvents");
  ASSERT_EQ(events.type(), obs::JsonValue::Type::kArray);
  ASSERT_EQ(events.items().size(), 2u);
  for (const obs::JsonValue& ev : events.items()) {
    EXPECT_EQ(ev.Get("ph").AsString(), "X");
    EXPECT_TRUE(ev.Has("name"));
    EXPECT_TRUE(ev.Has("cat"));
    EXPECT_TRUE(ev.Has("ts"));
    EXPECT_TRUE(ev.Has("dur"));
    EXPECT_TRUE(ev.Has("tid"));
  }
}

// ---------------------------------------------------------------------
// Latency histogram + endpoint stats registry
// ---------------------------------------------------------------------

TEST(LatencyHistogramTest, PercentilesAndMerge) {
  obs::LatencyHistogram hist;
  for (int i = 1; i <= 100; ++i) hist.Record(static_cast<double>(i));
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_DOUBLE_EQ(hist.MinMs(), 1.0);
  EXPECT_DOUBLE_EQ(hist.MaxMs(), 100.0);
  // Log-bucketed estimates: each bucket spans a factor of 2, so the
  // estimate is within that factor of the true quantile.
  double p50 = hist.P50();
  EXPECT_GE(p50, 25.0);
  EXPECT_LE(p50, 100.0);
  EXPECT_LE(hist.P50(), hist.P95());
  EXPECT_LE(hist.P95(), hist.P99());

  obs::LatencyHistogram other;
  other.Record(1000.0);
  other.Merge(hist);
  EXPECT_EQ(other.count(), 101u);
  EXPECT_DOUBLE_EQ(other.MaxMs(), 1000.0);
  EXPECT_DOUBLE_EQ(other.MinMs(), 1.0);

  obs::JsonValue json = hist.ToJson();
  EXPECT_EQ(json.Get("count").AsUint(), 100u);
  EXPECT_TRUE(json.Has("p50_ms"));
  EXPECT_TRUE(json.Has("p99_ms"));
}

TEST(EndpointStatsRegistryTest, RecordMergeAndJson) {
  obs::EndpointStatsRegistry reg;
  reg.RecordSuccess("ep1", 5.0, 100, 2000, 10);
  reg.RecordSuccess("ep1", 7.0, 100, 3000, 20);
  reg.RecordFailure("ep1", /*timeout=*/true);
  reg.RecordFailure("ep2", /*timeout=*/false);
  reg.RecordResilience("ep1", 2, 1, 1);

  obs::EndpointStats ep1 = reg.Get("ep1");
  EXPECT_EQ(ep1.requests, 3u);
  EXPECT_EQ(ep1.successes, 2u);
  EXPECT_EQ(ep1.timeouts, 1u);
  EXPECT_EQ(ep1.retries, 2u);
  EXPECT_EQ(ep1.breaker_rejections, 1u);
  EXPECT_EQ(ep1.bytes_received, 5000u);
  EXPECT_EQ(ep1.rows_received, 30u);
  EXPECT_EQ(ep1.latency.count(), 2u);
  EXPECT_EQ(reg.Get("ep2").errors, 1u);
  EXPECT_EQ(reg.Get("unknown").requests, 0u);

  obs::EndpointStatsRegistry other;
  other.RecordSuccess("ep1", 3.0, 50, 500, 5);
  other.RecordSuccess("ep3", 1.0, 10, 10, 1);
  other.Merge(reg);
  EXPECT_EQ(other.size(), 3u);
  EXPECT_EQ(other.Get("ep1").requests, 4u);
  EXPECT_EQ(other.Get("ep1").latency.count(), 3u);

  obs::JsonValue json = other.ToJson();
  const obs::JsonValue& endpoints = json.Get("endpoints");
  EXPECT_TRUE(endpoints.Has("ep1"));
  EXPECT_TRUE(endpoints.Has("ep3"));
  EXPECT_EQ(endpoints.Get("ep1").Get("requests").AsUint(), 4u);
  EXPECT_FALSE(other.ToText().empty());
}

// ---------------------------------------------------------------------
// MetricsCollector: sub-millisecond rounding + concurrency
// ---------------------------------------------------------------------

TEST(MetricsCollectorTest, SubMillisecondNetworkTimeAccumulates) {
  // Regression: the network-time accumulator used to *truncate* each
  // request to whole microseconds, so 0.6 us requests summed to zero.
  fed::MetricsCollector metrics;
  net::QueryResponse response;
  response.network_ms = 0.0006;  // 0.6 us -> rounds to 1 us.
  for (int i = 0; i < 1000; ++i) {
    metrics.RecordRequest(response, fed::RequestKind::kFetch);
  }
  fed::ExecutionProfile profile;
  metrics.FillCounters(&profile);
  EXPECT_NEAR(profile.network_ms, 1.0, 1e-9);
}

TEST(MetricsCollectorTest, ConcurrentRecordingIsExact) {
  fed::MetricsCollector metrics;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&metrics, t] {
      net::QueryResponse response;
      response.request_bytes = 10;
      response.response_bytes = 100;
      response.network_ms = 0.25;
      for (int i = 0; i < kPerThread; ++i) {
        metrics.RecordRequest(response, i % 2 == 0 ? fed::RequestKind::kAsk
                                                   : fed::RequestKind::kFetch);
        if (i == 0) {
          metrics.RecordEndpointDropped("ep" + std::to_string(t));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  fed::ExecutionProfile profile;
  metrics.FillCounters(&profile);
  EXPECT_EQ(profile.requests, uint64_t{kThreads * kPerThread});
  EXPECT_EQ(profile.ask_requests, uint64_t{kThreads * kPerThread / 2});
  EXPECT_EQ(profile.bytes_sent, uint64_t{kThreads * kPerThread * 10});
  EXPECT_EQ(profile.bytes_received, uint64_t{kThreads * kPerThread * 100});
  EXPECT_NEAR(profile.network_ms, kThreads * kPerThread * 0.25, 1e-6);
  EXPECT_EQ(profile.endpoints_failed, uint64_t{kThreads});
  EXPECT_TRUE(profile.partial);
}

// ---------------------------------------------------------------------
// End-to-end traced execution
// ---------------------------------------------------------------------

TEST(TracedExecutionTest, LusailQueryProducesFullSpanTree) {
  auto federation = workload::BuildFederation(workload::Figure1Federation(),
                                              net::LatencyModel::None());
  obs::EndpointStatsRegistry registry;
  federation->set_stats_registry(&registry);

  core::LusailOptions options;
  options.trace = true;
  core::LusailEngine engine(federation.get(), options);
  auto result = engine.Execute(workload::Figure2QueryQa());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.rows.size(), 3u);

  ASSERT_NE(result->profile.trace, nullptr);
  const obs::Trace& trace = *result->profile.trace;

  // Exactly one root "query" span; everything else hangs off it.
  auto roots = trace.ByCategory("query");
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0]->parent, 0u);
  for (const obs::Span& span : trace.spans) {
    if (span.id == roots[0]->id) continue;
    EXPECT_NE(trace.Find(span.parent), nullptr)
        << "span '" << span.name << "' has a dangling parent";
    EXPECT_GE(span.duration_us, 0.0) << span.name;
  }

  // The pipeline phases are all present.
  std::set<std::string> phase_names;
  for (const obs::Span* span : trace.ByCategory("phase")) {
    phase_names.insert(span->name);
  }
  EXPECT_TRUE(phase_names.count("source selection"));
  EXPECT_TRUE(phase_names.count("LADE analysis"));
  EXPECT_TRUE(phase_names.count("SAPE execution"));

  // Q_a decomposes (its advisor/degreeFrom interlink makes ?U a GJV), so
  // there are per-subquery spans under SAPE.
  EXPECT_GE(trace.ByCategory("subquery").size(), 2u);

  // Every endpoint request is covered by a "request" span, and both
  // endpoints appear.
  auto requests = trace.ByCategory("request");
  EXPECT_EQ(requests.size(), result->profile.requests);
  std::set<std::string> endpoints_hit;
  for (const obs::Span* span : requests) endpoints_hit.insert(span->name);
  EXPECT_GE(endpoints_hit.size(), 2u);

  // The trace exports as loadable Chrome trace-event JSON: one complete
  // event per span plus one process_name metadata event per registered
  // process (the federator registers itself when tracing is on).
  auto chrome = obs::JsonValue::Parse(trace.ToChromeJsonString());
  ASSERT_TRUE(chrome.ok()) << chrome.status().ToString();
  EXPECT_EQ(chrome->Get("traceEvents").items().size(),
            trace.spans.size() + trace.processes.size());
  EXPECT_GE(trace.processes.size(), 1u);

  // The stats registry saw the same traffic.
  EXPECT_GE(registry.size(), 2u);
  uint64_t recorded = 0;
  for (const auto& [id, stats] : registry.All()) recorded += stats.requests;
  EXPECT_EQ(recorded, result->profile.requests);
}

/// Every request Lusail dispatches to the federation's request pool
/// carries its queue wait as "queued_ms"; on an idle pool (Q_a never has
/// more requests in flight than the pool has threads) it is near zero.
TEST(TracedExecutionTest, RequestSpansCarryDispatchQueueWait) {
  auto federation = workload::BuildFederation(workload::Figure1Federation(),
                                              net::LatencyModel::None());
  core::LusailOptions options;
  options.trace = true;
  core::LusailEngine engine(federation.get(), options);
  // The first query starts the pool's threads; the second finds them
  // idle.
  ASSERT_TRUE(engine.Execute(workload::Figure2QueryQa()).ok());
  engine.ClearCaches();
  auto result = engine.Execute(workload::Figure2QueryQa());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->profile.trace, nullptr);

  auto requests = result->profile.trace->ByCategory("request");
  ASSERT_FALSE(requests.empty());
  for (const obs::Span* span : requests) {
    auto queued = std::find_if(
        span->annotations.begin(), span->annotations.end(),
        [](const obs::SpanAnnotation& a) { return a.key == "queued_ms"; });
    ASSERT_NE(queued, span->annotations.end()) << span->name;
    double ms = std::stod(queued->value);
    EXPECT_GE(ms, 0.0) << span->name;
    EXPECT_LT(ms, 5.0) << span->name;
  }
}

TEST(TracedExecutionTest, TracingDisabledAllocatesNothing) {
  auto federation = workload::BuildFederation(workload::Figure1Federation(),
                                              net::LatencyModel::None());
  core::LusailEngine engine(federation.get());  // trace defaults to off.
  auto result = engine.Execute(workload::Figure2QueryQa());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->profile.trace, nullptr);
}

TEST(TracedExecutionTest, BaselineTraceIsComparable) {
  auto federation = workload::BuildFederation(workload::Figure1Federation(),
                                              net::LatencyModel::None());
  baselines::FedXOptions options;
  options.trace = true;
  baselines::FedXEngine engine(federation.get(), options);
  auto result = engine.Execute(workload::Figure2QueryQa());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->profile.trace, nullptr);
  const obs::Trace& trace = *result->profile.trace;
  ASSERT_EQ(trace.ByCategory("query").size(), 1u);
  std::set<std::string> phase_names;
  for (const obs::Span* span : trace.ByCategory("phase")) {
    phase_names.insert(span->name);
  }
  EXPECT_TRUE(phase_names.count("source selection"));
  EXPECT_TRUE(phase_names.count("bound-join execution"));
  EXPECT_EQ(trace.ByCategory("request").size(), result->profile.requests);
}

TEST(TracedExecutionTest, RetriesAppearAsChildSpans) {
  // Wrap the Figure 1 endpoints in deterministic transient-fault
  // injectors; with the standard retry policy the query still succeeds
  // and every retried request shows its attempts as child spans.
  auto base = workload::BuildFederation(workload::Figure1Federation(),
                                        net::LatencyModel::None());
  fed::Federation faulty;
  std::vector<std::shared_ptr<net::FaultInjectingEndpoint>> injectors;
  for (size_t i = 0; i < base->size(); ++i) {
    auto inner = std::shared_ptr<net::Endpoint>(base->endpoint(i),
                                                [](net::Endpoint*) {});
    auto injector = std::make_shared<net::FaultInjectingEndpoint>(
        inner, net::FaultProfile::Transient(0.3, /*seed=*/42));
    injectors.push_back(injector);
    faulty.Add(injector);
  }

  core::LusailOptions options;
  options.trace = true;
  options.retry_policy = net::RetryPolicy::Standard();
  core::LusailEngine engine(&faulty, options);
  auto result = engine.Execute(workload::Figure2QueryQa());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.rows.size(), 3u);
  ASSERT_GT(result->profile.retries, 0u) << "fault injection produced no "
                                            "retries; the test is vacuous";

  ASSERT_NE(result->profile.trace, nullptr);
  const obs::Trace& trace = *result->profile.trace;
  auto retries = trace.ByCategory("retry");
  ASSERT_GE(retries.size(), 1u);
  for (const obs::Span* retry : retries) {
    const obs::Span* parent = trace.Find(retry->parent);
    ASSERT_NE(parent, nullptr);
    EXPECT_EQ(parent->category, "request");
    // A retried request has its first attempt recorded too.
    bool has_first_attempt = false;
    for (const obs::Span* child : trace.ChildrenOf(parent->id)) {
      if (child->category == "attempt") has_first_attempt = true;
    }
    EXPECT_TRUE(has_first_attempt);
  }
}

// ---------------------------------------------------------------------
// ProfileToJson
// ---------------------------------------------------------------------

TEST(ProfileToJsonTest, AllCountersSurvive) {
  fed::ExecutionProfile profile;
  profile.requests = 12;
  profile.ask_requests = 3;
  profile.bytes_sent = 400;
  profile.bytes_received = 5000;
  profile.rows_received = 77;
  profile.network_ms = 1.5;
  profile.total_ms = 9.25;
  profile.pushed_optionals = 1;
  profile.round_trips = 4;
  profile.peak_intermediate_rows = 64;
  profile.retries = 2;
  profile.failed_endpoint_ids = {"ep1"};
  profile.endpoints_failed = 1;
  profile.partial = true;

  obs::JsonValue json = fed::ProfileToJson(profile);
  EXPECT_EQ(json.Get("requests").AsUint(), 12u);
  EXPECT_EQ(json.Get("ask_requests").AsUint(), 3u);
  EXPECT_EQ(json.Get("bytes_received").AsUint(), 5000u);
  EXPECT_EQ(json.Get("rows_received").AsUint(), 77u);
  EXPECT_DOUBLE_EQ(json.Get("network_ms").AsDouble(), 1.5);
  EXPECT_DOUBLE_EQ(json.Get("total_ms").AsDouble(), 9.25);
  EXPECT_EQ(json.Get("pushed_optionals").AsUint(), 1u);
  EXPECT_EQ(json.Get("round_trips").AsUint(), 4u);
  EXPECT_EQ(json.Get("peak_intermediate_rows").AsUint(), 64u);
  EXPECT_EQ(json.Get("retries").AsUint(), 2u);
  EXPECT_TRUE(json.Get("partial").AsBool());
  ASSERT_EQ(json.Get("failed_endpoint_ids").items().size(), 1u);
  EXPECT_EQ(json.Get("failed_endpoint_ids").items()[0].AsString(), "ep1");
  // And the whole record serializes to parseable JSON.
  EXPECT_TRUE(obs::JsonValue::Parse(json.Serialize()).ok());
}

// ---------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------

void ExpectRoundTrip(const obs::ExplainReport& report) {
  auto reparsed = obs::JsonValue::Parse(report.ToJson().Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  auto back = obs::ExplainReport::FromJson(*reparsed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, report);
}

TEST(ExplainTest, ReportsGlobalJoinVariables) {
  auto federation = workload::BuildFederation(workload::Figure1Federation(),
                                              net::LatencyModel::None());
  core::LusailEngine engine(federation.get());
  auto report = obs::Explain(engine, workload::Figure2QueryQa());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // ?U (the advisor's alma mater) joins values from different endpoints:
  // the paper's canonical GJV.
  EXPECT_NE(std::find(report->gjvs.begin(), report->gjvs.end(), "?U"),
            report->gjvs.end());
  ASSERT_GE(report->subqueries.size(), 2u);
  // The join order is a permutation of the subquery indices.
  std::vector<int> sorted = report->join_order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> expected(report->subqueries.size());
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(sorted, expected);
  for (const obs::ExplainSubquery& sq : report->subqueries) {
    EXPECT_FALSE(sq.patterns.empty());
    EXPECT_FALSE(sq.endpoints.empty());
  }
  EXPECT_EQ(report->delay_threshold, "mu+sigma");

  std::string text = report->ToText();
  EXPECT_NE(text.find("EXPLAIN (Lusail)"), std::string::npos);
  EXPECT_NE(text.find("?U"), std::string::npos);
  ExpectRoundTrip(*report);
}

TEST(ExplainTest, ReportsPushedOptionals) {
  workload::QFedGenerator gen(workload::QFedConfig::Small());
  auto federation = workload::BuildFederation(gen.GenerateAll(),
                                              net::LatencyModel::None());
  core::LusailEngine engine(federation.get());
  auto report =
      obs::Explain(engine, workload::QFedGenerator::C2P2BO());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // C2P2BO's dm:description OPTIONAL is colocated with its subquery at
  // dailymed, so LADE pushes it down (asserted end-to-end in
  // optional_pushdown_test; here the plan itself reports it).
  EXPECT_EQ(report->pushed_optionals, 1u);
  uint64_t in_subqueries = 0;
  for (const obs::ExplainSubquery& sq : report->subqueries) {
    in_subqueries += sq.pushed_optionals;
  }
  EXPECT_EQ(in_subqueries, 1u);
  EXPECT_NE(report->ToText().find("pushed OPTIONAL"), std::string::npos);
  ExpectRoundTrip(*report);
}

TEST(ExplainTest, ReportsDelayedSubqueries) {
  // A three-endpoint chain with one dominating pattern cardinality: the
  // 200-row tail subquery must be scheduled into SAPE's delayed phase.
  std::vector<workload::EndpointSpec> specs(3);
  specs[0].id = "small-a";
  specs[1].id = "small-b";
  specs[2].id = "big";
  for (int i = 0; i < 5; ++i) {
    specs[0].triples.push_back(
        {rdf::Term::Iri("http://ex/s" + std::to_string(i)),
         rdf::Term::Iri("http://ex/p1"),
         rdf::Term::Iri("http://ex/x" + std::to_string(i))});
    specs[1].triples.push_back(
        {rdf::Term::Iri("http://ex/x" + std::to_string(i)),
         rdf::Term::Iri("http://ex/p2"),
         rdf::Term::Iri("http://ex/y" + std::to_string(i))});
  }
  for (int i = 0; i < 200; ++i) {
    specs[2].triples.push_back(
        {rdf::Term::Iri("http://ex/y" + std::to_string(i % 5)),
         rdf::Term::Iri("http://ex/p3"),
         rdf::Term::Integer(i)});
  }
  auto federation =
      workload::BuildFederation(specs, net::LatencyModel::None());
  core::LusailEngine engine(federation.get());

  auto report = obs::Explain(engine,
                             "SELECT ?s ?z WHERE { "
                             "?s <http://ex/p1> ?x . "
                             "?x <http://ex/p2> ?y . "
                             "?y <http://ex/p3> ?z . }");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GE(report->subqueries.size(), 2u);

  const obs::ExplainSubquery* delayed = nullptr;
  const obs::ExplainSubquery* concurrent = nullptr;
  for (const obs::ExplainSubquery& sq : report->subqueries) {
    if (sq.delayed) delayed = &sq;
    if (!sq.delayed) concurrent = &sq;
  }
  ASSERT_NE(delayed, nullptr) << report->ToText();
  ASSERT_NE(concurrent, nullptr) << "DecideDelayed must keep at least one "
                                    "subquery concurrent";
  // The delayed subquery is the dominating one.
  EXPECT_GE(delayed->estimated_cardinality,
            concurrent->estimated_cardinality);
  EXPECT_NE(report->ToText().find("[delayed]"), std::string::npos);
  ExpectRoundTrip(*report);

  // The plan matches execution: the query still answers correctly.
  auto result = engine.Execute(
      "SELECT ?s ?z WHERE { ?s <http://ex/p1> ?x . "
      "?x <http://ex/p2> ?y . ?y <http://ex/p3> ?z . }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.rows.size(), 200u);
}

TEST(ExplainTest, FromJsonRejectsMalformedReports) {
  auto missing = obs::JsonValue::Parse("{\"engine\": \"Lusail\"}");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(obs::ExplainReport::FromJson(*missing).ok());

  auto wrong_type =
      obs::JsonValue::Parse("{\"engine\": 7, \"query\": \"q\"}");
  ASSERT_TRUE(wrong_type.ok());
  EXPECT_FALSE(obs::ExplainReport::FromJson(*wrong_type).ok());
}

}  // namespace
}  // namespace lusail
