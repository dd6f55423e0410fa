// lusail_perfbench: runs one workload of the repository benchmark and prints
// its metrics. See perfbench/README.md for the workloads, the metrics and
// what each layer metric is expected to move.
//
//   lusail_perfbench --workload lrb-cpu|lubm-geo|wire-mixed --seed N
//                    --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Exit code 2 means bad arguments or a failed
// set-up, 3 a benchmark error (a determinism check that did not hold).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/hash_join.h"
#include "core/id_table.h"
#include "harness.h"
#include "obs/json.h"
#include "rpc/results_json.h"
#include "sparql/parser.h"
#include "store/triple_store.h"
#include "workloads.h"

namespace lusail::perfbench {
namespace {

/// Set-ups timed before the timed run, and again after it: the median then
/// samples the host at two moments, not one.
constexpr int kSetupsPerSide = 4;
constexpr double kQueryTimeoutMs = 30000.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
      have_trace = true;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         have_trace && args->seconds > 0.0;
}

/// One executed query of a timed run.
struct Sample {
  size_t case_index = 0;
  bool ok = false;
  bool engine = false;
  bool stream = false;
  double latency_ms = 0.0;
  double first_row_ms = -1.0;
  // Traced runs only.
  double source_selection_ms = 0.0;
  double network_ms = 0.0;
  double rows_received = 0.0;
  TraceLayers layers;
};

struct RunResult {
  std::vector<Sample> samples;
  double elapsed_s = 0.0;
  std::map<std::string, double> counters;  ///< Deltas over the run.
  std::map<std::string, uint64_t> failures;  ///< By query label.
  std::string determinism_error;
};

/// Executes one query, checks it against the oracle, and fills a sample.
Sample RunOne(Workload* w, const std::vector<QueryCase>& cases,
              const std::vector<Expectation>& expect, size_t index,
              bool traced, std::string* failure) {
  const QueryCase& query = cases[index];
  Sample sample;
  sample.case_index = index;
  sample.stream = query.stream;
  Stopwatch wall;
  Outcome outcome = w->Execute(query, kQueryTimeoutMs);
  sample.latency_ms = wall.ElapsedMillis();
  sample.engine = outcome.engine;
  if (!outcome.status.ok()) {
    *failure = outcome.status.ToString();
  } else {
    *failure = CheckAnswer(expect[index], outcome.table);
  }
  sample.ok = failure->empty();
  // A buffered answer reaches the client whole, at the end.
  sample.first_row_ms =
      outcome.first_row_ms >= 0.0
          ? outcome.first_row_ms
          : (outcome.table.NumRows() > 0 ? sample.latency_ms : -1.0);
  if (traced && outcome.engine && outcome.status.ok()) {
    sample.source_selection_ms = outcome.profile.source_selection_ms;
    sample.network_ms = outcome.profile.network_ms;
    sample.rows_received =
        static_cast<double>(outcome.profile.rows_received);
    if (outcome.profile.trace != nullptr) {
      sample.layers = LayersFromTrace(*outcome.profile.trace);
    }
  }
  return sample;
}

/// The single-client closed loop: whole rounds, in order, until the time
/// is up. Every round must issue the same requests and receive the same
/// bytes as the first; otherwise the run is a benchmark error.
RunResult SingleClientRun(Workload* w, const std::vector<QueryCase>& cases,
                          const std::vector<Expectation>& expect,
                          double seconds, bool traced) {
  RunResult run;
  std::map<std::string, double> before = w->Counters();
  std::vector<std::pair<double, double>> first_round;
  Stopwatch clock;
  for (int round = 0; clock.ElapsedSeconds() < seconds || round == 0;
       ++round) {
    w->BeginRound();
    std::vector<std::pair<double, double>> signature;
    for (size_t i = 0; i < cases.size(); ++i) {
      std::map<std::string, double> pre = w->log()->Snapshot();
      std::string failure;
      Sample sample = RunOne(w, cases, expect, i, traced, &failure);
      std::map<std::string, double> post = w->log()->Snapshot();
      signature.push_back({post["requests"] - pre["requests"],
                           post["bytes_received"] - pre["bytes_received"]});
      if (!failure.empty()) ++run.failures[cases[i].label + ": " + failure];
      run.samples.push_back(std::move(sample));
    }
    if (round == 0) {
      first_round = signature;
    } else if (w->deterministic() && signature != first_round &&
               run.determinism_error.empty()) {
      for (size_t i = 0; i < signature.size(); ++i) {
        if (signature[i] != first_round[i]) {
          run.determinism_error =
              cases[i].label + " in round " + std::to_string(round + 1) +
              ": requests/bytes " + std::to_string(signature[i].first) +
              "/" + std::to_string(signature[i].second) + " vs " +
              std::to_string(first_round[i].first) + "/" +
              std::to_string(first_round[i].second) + " in round 1";
          break;
        }
      }
    }
  }
  run.elapsed_s = clock.ElapsedSeconds();
  run.counters = Delta(w->Counters(), before);
  return run;
}

/// The multi-client closed loop: each client takes the next query of the
/// repeating round; once the time is up, the round in progress is
/// finished so the mix stays whole.
RunResult MultiClientRun(Workload* w, const std::vector<QueryCase>& cases,
                         const std::vector<Expectation>& expect,
                         double seconds, bool traced) {
  RunResult run;
  std::map<std::string, double> before = w->Counters();
  const uint64_t n = cases.size();
  std::mutex mu;  // Guards next, limit and run.
  uint64_t next = 0;
  uint64_t limit = UINT64_MAX;
  Stopwatch clock;
  auto client = [&] {
    for (;;) {
      uint64_t index = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (clock.ElapsedSeconds() >= seconds && limit == UINT64_MAX) {
          limit = (next + n - 1) / n * n;  // End of the round in progress.
        }
        if (next >= limit) return;
        index = next++;
      }
      std::string failure;
      Sample sample = RunOne(w, cases, expect, index % n, traced, &failure);
      std::lock_guard<std::mutex> lock(mu);
      if (!failure.empty()) {
        ++run.failures[cases[sample.case_index].label + ": " + failure];
      }
      run.samples.push_back(std::move(sample));
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < w->clients(); ++c) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();
  run.elapsed_s = clock.ElapsedSeconds();
  run.counters = Delta(w->Counters(), before);
  return run;
}

RunResult TimedRun(Workload* w, const std::vector<QueryCase>& cases,
                   const std::vector<Expectation>& expect, double seconds,
                   bool traced) {
  return w->clients() == 1
             ? SingleClientRun(w, cases, expect, seconds, traced)
             : MultiClientRun(w, cases, expect, seconds, traced);
}

double Completed(const RunResult& run) {
  double ok = 0.0;
  for (const Sample& s : run.samples) ok += s.ok ? 1.0 : 0.0;
  return std::max(ok, 1.0);
}

double LatencyP50(const RunResult& run) {
  std::vector<double> values;
  for (const Sample& s : run.samples) values.push_back(s.latency_ms);
  return Quantile(values, 0.5);
}

double Counter(const RunResult& run, const std::string& key) {
  auto it = run.counters.find(key);
  return it == run.counters.end() ? 0.0 : it->second;
}

double Ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// Fraction of timed query executions whose text the caches had already
/// seen: within the round when every round starts from empty caches,
/// otherwise all of them (the warm-up pass ran every text once).
double RepeatShare(const Workload& w, const std::vector<QueryCase>& cases) {
  if (!w.fresh_caches_per_round()) return 1.0;
  std::set<std::string> seen;
  double repeats = 0.0;
  for (const QueryCase& q : cases) {
    if (!seen.insert(q.text).second) repeats += 1.0;
  }
  return repeats / static_cast<double>(cases.size());
}

struct JoinProbe {
  bool probed = false;
  double parallel_ms = 0.0;
  double serial_ms = 0.0;
  double rows_in = 0.0;
  double rows_out = 0.0;
};

/// Re-fetches the query's mandatory subqueries unbound (every relevant
/// endpoint, unioned) and joins them in the planner's join order with the
/// federator's parallel kernel and with the serial kernel, timing each.
/// Skips queries whose unbound subquery tables or join steps grow past a
/// size the probe can afford; those are reported as unprobed.
JoinProbe ProbeJoins(Workload* w, const std::string& text, ThreadPool* pool) {
  constexpr size_t kMaxRows = 200000;
  JoinProbe probe;
  core::LusailEngine* engine = w->engine();
  auto analyzed = engine->Analyze(text);
  if (!analyzed.ok()) return probe;
  const auto& triples = analyzed->query.where.triples;
  const auto& subqueries = analyzed->decomposition.subqueries;
  std::vector<int> order = analyzed->join_order;
  if (order.size() != subqueries.size()) {
    order.clear();
    for (size_t i = 0; i < subqueries.size(); ++i) {
      order.push_back(static_cast<int>(i));
    }
  }
  std::vector<core::IdTable> tables;
  for (int k : order) {
    const core::Subquery& sq = subqueries[static_cast<size_t>(k)];
    if (sq.optional) continue;
    std::string sq_text = sq.ToSparql(triples);
    core::IdTable table;
    bool first = true;
    for (int source : sq.sources) {
      auto part = w->federation()->ExecuteEncoded(
          static_cast<size_t>(source), sq_text, engine->dictionary().get(),
          nullptr, Deadline::AfterMillis(kQueryTimeoutMs));
      if (!part.ok()) return probe;
      if (first) {
        table = std::move(*part);
        first = false;
      } else {
        core::AppendUnionIds(&table, *part);
      }
      if (table.NumRows() > kMaxRows) return probe;
    }
    probe.rows_in += static_cast<double>(table.NumRows());
    tables.push_back(std::move(table));
  }
  if (tables.empty()) return probe;
  core::IdTable left = std::move(tables[0]);
  for (size_t i = 1; i < tables.size(); ++i) {
    const core::IdTable& right = tables[i];
    if (core::IdTable::SharedVars(left, right).empty() &&
        left.NumRows() * right.NumRows() > kMaxRows) {
      return probe;
    }
    Stopwatch serial;
    core::IdTable serial_out = core::JoinIds(left, right, false);
    probe.serial_ms += serial.ElapsedMillis();
    Stopwatch parallel;
    core::IdTable joined = core::ParallelHashJoin(
        left, right, pool, engine->options().join_partitions);
    probe.parallel_ms += parallel.ElapsedMillis();
    if (joined.NumRows() > kMaxRows) return probe;
    left = std::move(joined);
  }
  probe.rows_out = static_cast<double>(left.NumRows());
  probe.probed = true;
  return probe;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

void Put(Metrics* m, const std::string& name, double value,
         const std::string& unit) {
  m->push_back({name, value, unit});
}

/// The per-layer metrics of a traced run (see README.md for the sources).
Metrics LayerMetrics(Workload* w, const std::vector<QueryCase>& cases,
                     const RunResult& plain, const RunResult& traced,
                     double repeat_share) {
  Metrics m;
  const RunResult& r = traced;
  double completed = Completed(r);
  double engine_queries = 0.0;
  double srcsel = 0, gjv = 0, count = 0, decomp = 0, sape = 0, sape_self = 0;
  double request_wait = 0;
  double network = 0, rows = 0, engine_latency = 0;
  for (const Sample& s : r.samples) {
    if (!s.engine || !s.ok) continue;
    engine_queries += 1.0;
    engine_latency += s.latency_ms;
    srcsel += s.source_selection_ms;
    gjv += s.layers.gjv_ms;
    count += s.layers.count_ms;
    decomp += s.layers.decompose_ms;
    sape += s.layers.sape_ms;
    sape_self += s.layers.sape_self_ms;
    request_wait += s.layers.request_wait_ms;
    network += s.network_ms;
    rows += s.rows_received;
  }
  double eq = std::max(engine_queries, 1.0);
  double wait_count = Counter(r, "service.wait_count");
  double queue_wait_mean =
      Ratio(Counter(r, "service.wait_total_ms"), wait_count);

  Put(&m, "federation.requests", Counter(r, "requests") / completed, "count");
  Put(&m, "federation.ask_requests", Counter(r, "ask_requests") / completed,
      "count");
  Put(&m, "federation.count_probes", Counter(r, "count_probes") / completed,
      "count");
  Put(&m, "federation.bound_join_requests",
      Counter(r, "bound_join_requests") / completed, "count");
  Put(&m, "federation.request_wait_ms", request_wait / eq, "ms");
  Put(&m, "federation.source_selection_ms", srcsel / eq, "ms");
  Put(&m, "core.lade.gjv_ms", gjv / eq, "ms");
  Put(&m, "core.lade.count_ms", count / eq, "ms");
  Put(&m, "core.lade.decompose_ms", decomp / eq, "ms");
  Put(&m, "core.sape_ms", sape / eq, "ms");
  Put(&m, "core.sape.self_ms", sape_self / eq, "ms");

  // Join probe: once per distinct engine query, weighted by occurrence.
  ThreadPool pool(kEngineThreads);
  std::map<size_t, JoinProbe> probes;
  double join_ms = 0, join_serial = 0, rows_in = 0, rows_out = 0, probed = 0;
  for (const Sample& s : r.samples) {
    if (!s.engine || !s.ok) continue;
    auto it = probes.find(s.case_index);
    if (it == probes.end()) {
      it = probes
               .emplace(s.case_index,
                        ProbeJoins(w, cases[s.case_index].text, &pool))
               .first;
    }
    if (!it->second.probed) continue;
    probed += 1.0;
    join_ms += it->second.parallel_ms;
    join_serial += it->second.serial_ms;
    rows_in += it->second.rows_in;
    rows_out += it->second.rows_out;
  }
  double pq = std::max(probed, 1.0);
  Put(&m, "core.join_ms", join_ms / pq, "ms");
  Put(&m, "core.join.serial_ms", join_serial / pq, "ms");
  Put(&m, "core.join.rows_in", rows_in / pq, "count");
  Put(&m, "core.join.rows_out", rows_out / pq, "count");
  Put(&m, "core.join.probed_share", Ratio(probed, engine_queries), "ratio");
  Put(&m, "core.dict.encode_ms", Counter(r, "dict.encode_ms") / eq, "ms");
  Put(&m, "core.dict.decode_ms", Counter(r, "dict.decode_ms") / eq, "ms");
  Put(&m, "core.rows_recv", rows / eq, "count");
  double named = (srcsel + gjv + count + decomp + sape) / eq;
  Put(&m, "core.other_ms",
      engine_latency / eq - named - queue_wait_mean, "ms");

  // Parse probe over every captured request text.
  std::vector<std::string> texts;
  std::vector<net::QueryResponse> responses;
  {
    RequestLog* log = w->log();
    std::lock_guard<std::mutex> lock(log->capture_mu);
    texts.swap(log->texts);
    responses.swap(log->responses);
    log->captured_rows = 0;
  }
  Stopwatch parse;
  for (const std::string& text : texts) (void)sparql::ParseQuery(text);
  double parse_per_text = Ratio(parse.ElapsedMillis(),
                                static_cast<double>(texts.size()));
  Put(&m, "sparql.parse_ms",
      parse_per_text * Counter(r, "requests") / completed, "ms");
  Put(&m, "sparql.eval_ms", Counter(r, "server_ms") / completed, "ms");
  Put(&m, "net.network_ms", network / eq, "ms");

  auto hit_ratio = [&](const std::string& tier) {
    double hits = Counter(r, "cache.hits." + tier);
    return Ratio(hits, hits + Counter(r, "cache.misses." + tier));
  };
  Put(&m, "cache.ask_hit_ratio", hit_ratio("verdicts"), "ratio");
  Put(&m, "cache.count_hit_ratio", hit_ratio("counts"), "ratio");
  Put(&m, "cache.result_hit_ratio", hit_ratio("results"), "ratio");
  std::vector<double> wait_buckets;
  for (size_t b = 0; b < obs::LatencyHistogram::kBuckets; ++b) {
    wait_buckets.push_back(
        Counter(r, "service.wait_bucket." + std::to_string(b)));
  }
  Put(&m, "cache.service.queue_wait_p50_ms",
      BucketQuantileMs(wait_buckets, 0.50), "ms");
  Put(&m, "cache.service.queue_wait_p95_ms",
      BucketQuantileMs(wait_buckets, 0.95), "ms");
  Put(&m, "cache.service.rejected", Counter(r, "service.rejected"), "count");

  // SRJ probes over the captured wire responses, as per-row rates.
  double srj_rows = 0, encode_ms = 0, decode_ms = 0;
  for (const net::QueryResponse& response : responses) {
    sparql::ResultTable table =
        response.ids != nullptr
            ? core::DecodeIdTable(*response.ids, *response.ids_dict)
            : response.table;
    Stopwatch encode;
    std::string srj = rpc::ResultTableToSrj(table);
    encode_ms += encode.ElapsedMillis();
    Stopwatch decode;
    rpc::SrjChunkDecoder decoder(response.ids_dict);
    Status fed = decoder.Feed(srj);
    if (fed.ok()) fed = decoder.Finish();
    if (response.ids_dict != nullptr) {
      (void)decoder.TakeIds();
    } else {
      (void)decoder.TakeTable();
    }
    decode_ms += decode.ElapsedMillis();
    srj_rows += static_cast<double>(table.NumRows());
  }
  double rows_per_query = Counter(r, "rows_received") / completed;
  bool wire = w->wire();
  Put(&m, "rpc.transfer_ms",
      wire ? (Counter(r, "request_wall_ms") - Counter(r, "server_ms")) /
                 completed
           : 0.0,
      "ms");
  Put(&m, "rpc.srj_encode_ms",
      Ratio(encode_ms, srj_rows) * rows_per_query, "ms");
  Put(&m, "rpc.srj_decode_ms",
      Ratio(decode_ms, srj_rows) * rows_per_query, "ms");
  Put(&m, "rpc.bytes_per_row",
      wire ? Ratio(Counter(r, "bytes_received"), Counter(r, "rows_received"))
           : 0.0,
      "B");
  double opened = Counter(r, "http.opened");
  double reused = Counter(r, "http.reused");
  Put(&m, "rpc.conn_reuse_ratio", Ratio(reused, opened + reused), "ratio");
  double hedges = Counter(r, "replica.hedges");
  Put(&m, "net.replica.hedges", hedges / completed, "count");
  Put(&m, "net.replica.hedge_win_ratio",
      Ratio(Counter(r, "replica.hedge_wins"), hedges), "ratio");
  Put(&m, "net.replica.failovers", Counter(r, "replica.failovers") / completed,
      "count");
  double fanout = Counter(r, "shard.fanout");
  double pruned = Counter(r, "shard.pruned");
  Put(&m, "shard.fanout_per_query",
      Ratio(fanout, Counter(r, "shard.queries")), "count");
  Put(&m, "shard.pruned_ratio", Ratio(pruned, pruned + fanout), "ratio");
  double plain_p50 = LatencyP50(plain);
  Put(&m, "obs.trace_overhead_pct",
      Ratio(LatencyP50(traced) - plain_p50, plain_p50) * 100.0, "%");
  Put(&m, "workload.repeat_share", repeat_share, "ratio");
  return m;
}

/// The end-to-end metrics of a plain run.
Metrics EndToEndMetrics(const Workload& w, const RunResult& r,
                        double setup_s, double rss_peak_mb) {
  Metrics m;
  double completed = Completed(r);
  std::vector<double> latencies, first_rows;
  for (const Sample& s : r.samples) {
    latencies.push_back(s.latency_ms);
    // On wire-mixed the streamed queries carry first-row time; elsewhere
    // every answer is buffered and its first row arrives with the rest.
    bool counts = w.wire() ? s.stream : true;
    if (counts && s.first_row_ms >= 0.0) first_rows.push_back(s.first_row_ms);
  }
  Put(&m, "setup_s", setup_s, "s");
  Put(&m, "qps", completed / r.elapsed_s, "1/s");
  Put(&m, "latency_p50_ms", Quantile(latencies, 0.50), "ms");
  Put(&m, "latency_p95_ms", Quantile(latencies, 0.95), "ms");
  Put(&m, "first_row_p50_ms", Quantile(first_rows, 0.50), "ms");
  Put(&m, "requests_per_query", Counter(r, "requests") / completed, "count");
  Put(&m, "bytes_per_query", Counter(r, "bytes_received") / completed, "B");
  Put(&m, "rss_peak_mb", rss_peak_mb, "MB");
  return m;
}

void PrintResult(const Metrics& metrics, const RunResult& run) {
  obs::JsonValue out = obs::JsonValue::Object();
  uint64_t failed = 0;
  for (const Sample& s : run.samples) failed += s.ok ? 0 : 1;
  out.Set("correct", obs::JsonValue(failed == 0));
  out.Set("attempted",
          obs::JsonValue(static_cast<uint64_t>(run.samples.size())));
  out.Set("failed", obs::JsonValue(failed));
  obs::JsonValue values = obs::JsonValue::Object();
  for (const Metric& m : metrics) {
    obs::JsonValue metric = obs::JsonValue::Object();
    metric.Set("value", obs::JsonValue(m.value));
    metric.Set("unit", obs::JsonValue(m.unit));
    values.Set(m.name, std::move(metric));
  }
  out.Set("metrics", std::move(values));
  std::printf("%s\n", out.Serialize().c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lusail_perfbench --workload lrb-cpu|lubm-geo|"
                 "wire-mixed --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Oracle (untimed): the round over one store holding every endpoint's
  // triples.
  std::vector<QueryCase> cases = w->Round();
  std::vector<Expectation> expect;
  {
    store::TripleStore all;
    for (const workload::EndpointSpec& spec : w->GenerateData()) {
      for (const rdf::TermTriple& t : spec.triples) all.Add(t);
    }
    all.Freeze();
    sparql::Evaluator oracle(&all);
    for (const QueryCase& q : cases) {
      auto e = BuildExpectation(oracle, q.text);
      if (!e.ok()) {
        std::fprintf(stderr, "oracle failed on %s: %s\n", q.label.c_str(),
                     e.status().ToString().c_str());
        return 2;
      }
      expect.push_back(std::move(*e));
    }
  }
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "# note: peak RSS could not be reset; "
                         "rss_peak_mb includes the oracle\n");
  }

  std::vector<double> setups;
  auto set_up = [&](int times) {
    for (int k = 0; k < times; ++k) {
      if (!setups.empty()) w->Teardown();
      Stopwatch setup;
      Status status = w->Setup();
      setups.push_back(setup.ElapsedSeconds());
      if (!status.ok()) {
        std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
        return false;
      }
    }
    return true;
  };
  if (!set_up(kSetupsPerSide)) return 2;

  // Warm-up: one untimed pass fills the caches, the dictionary and the
  // connection pools the way a serving process would have them.
  for (size_t i = 0; i < cases.size(); ++i) {
    if (i == 0) w->BeginRound();
    std::string failure;
    (void)RunOne(w.get(), cases, expect, i, false, &failure);
    if (!failure.empty()) {
      std::fprintf(stderr, "# warm-up failure %s: %s\n",
                   cases[i].label.c_str(), failure.c_str());
    }
  }

  RunResult plain = TimedRun(w.get(), cases, expect, args.seconds, false);
  double rss_peak_mb = PeakRssMb();
  RunResult traced;
  Metrics metrics;
  const RunResult* reported = &plain;
  double repeat_share = RepeatShare(*w, cases);
  if (args.trace) {
    w->SetTracing(true);
    w->log()->capture_texts = true;
    w->log()->capture_responses = w->wire();
    traced = TimedRun(w.get(), cases, expect, args.seconds, true);
    w->log()->capture_texts = false;
    w->log()->capture_responses = false;
    w->SetTracing(false);
    metrics = LayerMetrics(w.get(), cases, plain, traced, repeat_share);
    reported = &traced;
  } else {
    if (!set_up(kSetupsPerSide)) return 2;
    metrics = EndToEndMetrics(*w, plain, Quantile(setups, 0.5), rss_peak_mb);
  }

  // Human-readable summary; the JSON line below is the machine result.
  double attempted = static_cast<double>(reported->samples.size());
  double failed = 0.0;
  for (const Sample& s : reported->samples) failed += s.ok ? 0.0 : 1.0;
  std::printf("workload %s seed %llu: %zu queries per round, %zu samples "
              "in %.2f s, %zu client(s)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), cases.size(),
              reported->samples.size(), reported->elapsed_s, w->clients());
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-34s %14.4f ratio\n", "failed_frac",
              Ratio(failed, attempted));
  std::printf("  %-34s %14.4f ratio\n", "repeat_share", repeat_share);
  for (const auto& [what, times] : reported->failures) {
    std::printf("  FAILED x%llu %s\n", static_cast<unsigned long long>(times),
                what.c_str());
  }
  w->Teardown();

  for (const RunResult* run : {&plain, &traced}) {
    if (!run->determinism_error.empty()) {
      std::fprintf(stderr,
                   "benchmark error: requests/bytes did not repeat: %s\n",
                   run->determinism_error.c_str());
      return 3;
    }
  }
  PrintResult(metrics, *reported);
  return 0;
}

}  // namespace
}  // namespace lusail::perfbench

int main(int argc, char** argv) { return lusail::perfbench::Main(argc, argv); }
