// Reproduces the Section 4.1 cardinality-estimation accuracy claim: the
// median q-error of Lusail's subquery cardinality estimates over the
// LargeRDFBench queries (paper: 1.09, optimal is 1). For every benchmark
// query, the decomposition's estimated subquery cardinalities are
// compared against the actual union result sizes of the subqueries at
// their relevant endpoints; only multi-pattern subqueries count, as in
// the paper.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "workload/lrb_generator.h"

namespace lusail::bench {
namespace {

void QErrorBenchmark(benchmark::State& state, core::LusailEngine* lusail,
                     const fed::Federation* federation) {
  std::vector<double> qerrors;
  for (auto _ : state) {
    qerrors.clear();
    std::vector<std::pair<std::string, std::string>> queries;
    for (const auto& set :
         {workload::LrbGenerator::SimpleQueries(),
          workload::LrbGenerator::ComplexQueries(),
          workload::LrbGenerator::LargeQueries()}) {
      queries.insert(queries.end(), set.begin(), set.end());
    }
    for (const auto& [label, query_text] : queries) {
      auto analyzed = lusail->Analyze(query_text);
      if (!analyzed.ok()) continue;
      const auto& triples = analyzed->query.where.triples;
      for (const core::Subquery& sq : analyzed->decomposition.subqueries) {
        if (sq.triple_indices.size() < 2) continue;
        // Actual cardinality: run the subquery at its endpoints, count.
        uint64_t actual = 0;
        fed::MetricsCollector metrics;
        std::string text = sq.ToSparql(triples);
        for (int ep : sq.sources) {
          auto table = federation->Execute(static_cast<size_t>(ep), text,
                                           fed::RequestKind::kFetch, &metrics,
                                           Deadline());
          if (table.ok()) actual += table->NumRows();
        }
        if (actual == 0) continue;
        double estimate = std::max(1.0, sq.estimated_cardinality);
        double a = static_cast<double>(actual);
        qerrors.push_back(std::max(estimate / a, a / estimate));
      }
    }
  }
  std::sort(qerrors.begin(), qerrors.end());
  if (!qerrors.empty()) {
    state.counters["medianQError"] = qerrors[qerrors.size() / 2];
    state.counters["maxQError"] = qerrors.back();
    state.counters["subqueries"] = static_cast<double>(qerrors.size());
  }
}

}  // namespace
}  // namespace lusail::bench

int main(int argc, char** argv) {
  using namespace lusail;
  std::printf(
      "Cardinality estimation accuracy (Section 4.1): median q-error of\n"
      "multi-pattern subquery estimates over LargeRDFBench queries.\n"
      "Paper reports a median of 1.09 (optimal 1).\n\n");
  static workload::LrbGenerator generator{workload::LrbConfig()};
  static auto federation = workload::BuildFederation(
      generator.GenerateAll(), net::LatencyModel::None());
  static core::LusailEngine lusail(federation.get());
  benchmark::RegisterBenchmark(
      "QError/LargeRDFBench",
      [](benchmark::State& state) {
        bench::QErrorBenchmark(state, &lusail, federation.get());
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
