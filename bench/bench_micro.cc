// Supporting micro-benchmarks for the substrates (not a paper figure):
// triple-store lookups, dictionary interning, SPARQL parsing, endpoint
// round-trips, the join kernel (serial and over a pool), and cancellation
// latency.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/cancel.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "federation/binding_table.h"
#include "net/sparql_endpoint.h"
#include "sparql/parser.h"
#include "store/triple_store.h"
#include "workload/lubm_generator.h"

namespace lusail {
namespace {

std::unique_ptr<store::TripleStore> BuildStore(int universities) {
  workload::LubmConfig config = workload::LubmConfig::Bench();
  config.num_universities = universities;
  workload::LubmGenerator generator(config);
  auto store = std::make_unique<store::TripleStore>();
  for (int u = 0; u < universities; ++u) {
    for (const rdf::TermTriple& t : generator.GenerateUniversity(u)) {
      store->Add(t);
    }
  }
  store->Freeze();
  return store;
}

void BM_StoreMatchByPredicate(benchmark::State& state) {
  static auto store = BuildStore(2);
  rdf::TermId advisor = store->dict().Lookup(rdf::Term::Iri(
      "http://swat.cse.lehigh.edu/onto/univ-bench.owl#advisor"));
  for (auto _ : state) {
    auto span = store->Match(std::nullopt, advisor, std::nullopt);
    benchmark::DoNotOptimize(span.size());
  }
  state.counters["matches"] = static_cast<double>(
      store->Count(std::nullopt, advisor, std::nullopt));
}
BENCHMARK(BM_StoreMatchByPredicate);

void BM_StoreMatchBySubject(benchmark::State& state) {
  static auto store = BuildStore(2);
  auto all = store->Match(std::nullopt, std::nullopt, std::nullopt);
  Rng rng(5);
  for (auto _ : state) {
    rdf::TermId s = all[rng.NextBelow(all.size())].s;
    auto span = store->Match(s, std::nullopt, std::nullopt);
    benchmark::DoNotOptimize(span.size());
  }
}
BENCHMARK(BM_StoreMatchBySubject);

void BM_StoreFreeze(benchmark::State& state) {
  workload::LubmGenerator generator(workload::LubmConfig::Bench());
  auto triples = generator.GenerateUniversity(0);
  for (auto _ : state) {
    store::TripleStore store;
    for (const rdf::TermTriple& t : triples) store.Add(t);
    store.Freeze();
    benchmark::DoNotOptimize(store.size());
  }
  state.counters["triples"] = static_cast<double>(triples.size());
}
BENCHMARK(BM_StoreFreeze)->Unit(benchmark::kMillisecond);

void BM_DictionaryIntern(benchmark::State& state) {
  std::vector<rdf::Term> terms;
  for (int i = 0; i < 10000; ++i) {
    terms.push_back(
        rdf::Term::Iri("http://example.org/resource/" + std::to_string(i)));
  }
  for (auto _ : state) {
    rdf::Dictionary dict;
    for (const rdf::Term& t : terms) {
      benchmark::DoNotOptimize(dict.Intern(t));
    }
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_DictionaryIntern)->Unit(benchmark::kMillisecond);

void BM_ParseQuery(benchmark::State& state) {
  std::string query = workload::LubmGenerator::QueryQa();
  for (auto _ : state) {
    auto parsed = sparql::ParseQuery(query);
    benchmark::DoNotOptimize(parsed.ok());
  }
}
BENCHMARK(BM_ParseQuery);

void BM_EndpointRoundTrip(benchmark::State& state) {
  static net::SparqlEndpoint endpoint("bench", BuildStore(1),
                                      net::LatencyModel::None());
  std::string query =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT ?x WHERE { ?x ub:advisor ?y . }";
  for (auto _ : state) {
    auto response = endpoint.Query(query);
    benchmark::DoNotOptimize(response.ok());
  }
}
BENCHMARK(BM_EndpointRoundTrip)->Unit(benchmark::kMicrosecond);

void BM_ParallelHashJoin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  fed::SharedDictionary dict;
  ThreadPool pool(8);
  fed::BindingTable left, right;
  left.vars = {"k", "a"};
  right.vars = {"k", "b"};
  for (int i = 0; i < n; ++i) {
    rdf::TermId key = dict.Intern(rdf::Term::Integer(i));
    left.AppendRow({key, dict.Intern(rdf::Term::Integer(i * 2))});
    right.AppendRow({key, dict.Intern(rdf::Term::Integer(i * 3))});
  }
  for (auto _ : state) {
    fed::BindingTable joined =
        core::JoinIds(left, right, /*left_outer=*/false, &pool, 8);
    benchmark::DoNotOptimize(joined.NumRows());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelHashJoin)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// ID-space vs. string-space join. BM_StringHashJoin is the pre-ID-engine
// execution model: wire-format rows of rdf::Term, keys hashed and
// compared as strings. BM_IdHashJoin is the engine's current path: the
// same data dictionary-encoded once, joined serially by core::JoinIds on
// fixed-width 64-bit ids over columnar storage; its 1000, 10000 and
// 100000 rows are the serial twins of BM_ParallelHashJoin's sizes. CI
// runs the pair at 65536 rows and gates on the id join being no slower
// and at most a quarter of the string join's time
// (.github/workflows/ci.yml).
// ---------------------------------------------------------------------

void BM_StringHashJoin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sparql::ResultTable left, right;
  left.vars = {"k", "a"};
  right.vars = {"k", "b"};
  for (int i = 0; i < n; ++i) {
    rdf::Term key = rdf::Term::Iri("http://example.org/k/" +
                                   std::to_string(i));
    left.rows.push_back({key, rdf::Term::Integer(i * 2)});
    right.rows.push_back({key, rdf::Term::Integer(i * 3)});
  }
  for (auto _ : state) {
    std::unordered_multimap<std::string, size_t> index;
    index.reserve(right.rows.size());
    for (size_t r = 0; r < right.rows.size(); ++r) {
      index.emplace(right.rows[r][0]->ToString(), r);
    }
    sparql::ResultTable out;
    out.vars = {"k", "a", "b"};
    for (const auto& lrow : left.rows) {
      auto [begin, end] = index.equal_range(lrow[0]->ToString());
      for (auto it = begin; it != end; ++it) {
        out.rows.push_back(
            {lrow[0], lrow[1], right.rows[it->second][1]});
      }
    }
    benchmark::DoNotOptimize(out.rows.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StringHashJoin)->Arg(65536)->Unit(benchmark::kMillisecond);

void BM_IdHashJoin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  fed::SharedDictionary dict;
  fed::BindingTable left, right;
  left.vars = {"k", "a"};
  right.vars = {"k", "b"};
  for (int i = 0; i < n; ++i) {
    rdf::TermId key = dict.Intern(rdf::Term::Iri(
        "http://example.org/k/" + std::to_string(i)));
    left.AppendRow({key, dict.Intern(rdf::Term::Integer(i * 2))});
    right.AppendRow({key, dict.Intern(rdf::Term::Integer(i * 3))});
  }
  for (auto _ : state) {
    fed::BindingTable out = core::JoinIds(left, right, /*left_outer=*/false);
    benchmark::DoNotOptimize(out.NumRows());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IdHashJoin)
    ->Arg(1000)->Arg(10000)->Arg(65536)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// Cartesian product without and with a pool. The arg is the side of two
/// square inputs, so the output is arg² rows (the "cells" counter).
/// Below core::kJoinParallelWork output rows BM_CartesianParallel runs
/// serially too; the crossover table at that constant was measured with
/// it forced to 0.
fed::BindingTable CartesianSide(fed::SharedDictionary* dict, const char* var,
                                int rows, int salt) {
  fed::BindingTable side;
  side.vars = {var};
  for (int i = 0; i < rows; ++i) {
    side.AppendRow({dict->Intern(rdf::Term::Integer(i + salt))});
  }
  return side;
}

void BM_CartesianSerial(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  fed::SharedDictionary dict;
  fed::BindingTable left = CartesianSide(&dict, "a", side, 0);
  fed::BindingTable right = CartesianSide(&dict, "b", side, 1000000);
  for (auto _ : state) {
    fed::BindingTable out = core::JoinIds(left, right, /*left_outer=*/false);
    benchmark::DoNotOptimize(out.NumRows());
  }
  state.counters["cells"] = static_cast<double>(side) * side;
}
BENCHMARK(BM_CartesianSerial)
    ->Arg(16)->Arg(32)->Arg(45)->Arg(64)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_CartesianParallel(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  fed::SharedDictionary dict;
  ThreadPool pool(8);
  fed::BindingTable left = CartesianSide(&dict, "a", side, 0);
  fed::BindingTable right = CartesianSide(&dict, "b", side, 1000000);
  for (auto _ : state) {
    fed::BindingTable out =
        core::JoinIds(left, right, /*left_outer=*/false, &pool, 8);
    benchmark::DoNotOptimize(out.NumRows());
  }
  state.counters["cells"] = static_cast<double>(side) * side;
}
BENCHMARK(BM_CartesianParallel)
    ->Arg(16)->Arg(32)->Arg(45)->Arg(64)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

/// Cancellation latency: wall time from firing a CancelToken to a large
/// in-flight cartesian JoinIds over a pool unwinding. This prices the
/// cooperative check granularity (one token probe per ~1024 cells plus
/// the drain of already-queued range tasks), not join throughput —
/// manual timing starts at Cancel(), so join launch is excluded.
void BM_CancellationLatency(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  fed::SharedDictionary dict;
  ThreadPool pool(8);
  fed::BindingTable left = CartesianSide(&dict, "a", side, 0);
  fed::BindingTable right = CartesianSide(&dict, "b", side, 1000000);
  for (auto _ : state) {
    CancelToken token = CancelToken::Cancellable();
    std::atomic<bool> started{false};
    std::thread join_thread([&] {
      started.store(true, std::memory_order_release);
      fed::BindingTable out = core::JoinIds(
          left, right, /*left_outer=*/false, &pool, 8, &token);
      benchmark::DoNotOptimize(out.NumRows());
    });
    while (!started.load(std::memory_order_acquire)) {
    }
    auto fired = std::chrono::steady_clock::now();
    token.Cancel();
    join_thread.join();
    std::chrono::duration<double> latency =
        std::chrono::steady_clock::now() - fired;
    state.SetIterationTime(latency.count());
  }
  state.counters["cells"] = static_cast<double>(side) * side;
}
BENCHMARK(BM_CancellationLatency)
    ->Arg(512)->Arg(2048)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace lusail

BENCHMARK_MAIN();
