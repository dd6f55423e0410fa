#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <unordered_map>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "sparql/parser.h"

namespace lusail::perfbench {

namespace {

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Spreads a row hash before it is summed into a multiset hash.
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Column order with variables sorted by name, so answers compare
/// independently of projection order.
std::vector<size_t> SortedColumns(const sparql::ResultTable& table) {
  std::vector<size_t> order(table.vars.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return table.vars[a] < table.vars[b];
  });
  return order;
}

std::vector<uint64_t> RowHashes(const sparql::ResultTable& table) {
  std::vector<size_t> order = SortedColumns(table);
  std::vector<uint64_t> out;
  out.reserve(table.rows.size());
  std::string line;
  for (const auto& row : table.rows) {
    line.clear();
    for (size_t i : order) {
      line += table.vars[i];
      line += '=';
      line += row[i].has_value() ? row[i]->ToString() : "UNDEF";
      line += '|';
    }
    out.push_back(Fnv1a(line));
  }
  return out;
}

uint64_t BagHash(const std::vector<uint64_t>& rows) {
  uint64_t sum = 0;
  for (uint64_t h : rows) sum += Mix(h);
  return sum;
}

Result<std::vector<std::string>> OrderKeys(
    const sparql::ResultTable& table, const std::vector<std::string>& vars) {
  std::vector<size_t> cols;
  for (const std::string& v : vars) {
    auto it = std::find(table.vars.begin(), table.vars.end(), v);
    if (it == table.vars.end()) {
      return Status::InvalidArgument("ORDER BY key ?" + v +
                                     " is not in the answer");
    }
    cols.push_back(static_cast<size_t>(it - table.vars.begin()));
  }
  std::vector<std::string> keys;
  keys.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    std::string key;
    for (size_t c : cols) {
      key += row[c].has_value() ? row[c]->ToString() : "UNDEF";
      key += '\x1f';
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

/// Length of the union of `intervals` clipped to [lo, hi]. Sorts them.
double CoveredUs(std::vector<std::pair<double, double>>* intervals, double lo,
                 double hi) {
  std::sort(intervals->begin(), intervals->end());
  double covered = 0.0;
  double cur_lo = 0.0;
  double cur_hi = -1.0;
  for (auto [a, b] : *intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (a > cur_hi) {
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
    } else {
      cur_hi = std::max(cur_hi, b);
    }
  }
  if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
  return covered;
}

}  // namespace

Result<Expectation> BuildExpectation(const sparql::Evaluator& oracle,
                                     const std::string& text) {
  auto query = sparql::ParseQuery(text);
  if (!query.ok()) return query.status();
  auto answer = oracle.Execute(*query);
  if (!answer.ok()) return answer.status();
  Expectation expect;
  std::vector<uint64_t> hashes = RowHashes(*answer);
  expect.rows = answer->NumRows();
  expect.bag_hash = BagHash(hashes);
  if (!query->limit.has_value() && !query->offset.has_value()) {
    return expect;
  }
  sparql::Query unlimited = *query;
  unlimited.limit.reset();
  unlimited.offset.reset();
  auto full = oracle.Execute(unlimited);
  if (!full.ok()) return full.status();
  for (uint64_t h : RowHashes(*full)) expect.superset.insert(h);
  if (query->order_by.empty()) {
    expect.kind = Expectation::Kind::kLimitSubset;
    return expect;
  }
  expect.kind = Expectation::Kind::kOrderedPrefix;
  for (const sparql::OrderKey& key : query->order_by) {
    expect.order_vars.push_back(key.var.name);
  }
  auto keys = OrderKeys(*answer, expect.order_vars);
  if (!keys.ok()) return keys.status();
  expect.keys = std::move(*keys);
  return expect;
}

std::string CheckAnswer(const Expectation& expect,
                        const sparql::ResultTable& table) {
  if (table.NumRows() != expect.rows) {
    return "rows " + std::to_string(table.NumRows()) + " != oracle " +
           std::to_string(expect.rows);
  }
  std::vector<uint64_t> hashes = RowHashes(table);
  if (expect.kind == Expectation::Kind::kBag) {
    return BagHash(hashes) == expect.bag_hash ? "" : "row multiset differs";
  }
  for (uint64_t h : hashes) {
    if (expect.superset.count(h) == 0) return "row not in oracle answer";
  }
  if (expect.kind == Expectation::Kind::kOrderedPrefix) {
    auto keys = OrderKeys(table, expect.order_vars);
    if (!keys.ok()) return keys.status().ToString();
    if (*keys != expect.keys) return "ORDER BY key sequence differs";
  }
  return "";
}

std::map<std::string, double> RequestLog::Snapshot() const {
  auto get = [](const std::atomic<uint64_t>& v) {
    return static_cast<double>(v.load(std::memory_order_relaxed));
  };
  return {
      {"requests", get(requests)},
      {"ask_requests", get(ask_requests)},
      {"count_probes", get(count_probes)},
      {"bound_join_requests", get(bound_join_requests)},
      {"bytes_received", get(bytes_received)},
      {"rows_received", get(rows_received)},
      {"server_ms", get(server_ns) / 1e6},
      {"request_wall_ms", get(wall_ns) / 1e6},
  };
}

Result<net::QueryResponse> CountingEndpoint::Observe(
    const std::string& text,
    const std::function<Result<net::QueryResponse>()>& call) {
  Stopwatch wall;
  auto response = call();
  double wall_ms = wall.ElapsedMillis();
  if (response.ok()) {
    Account(text, *response, wall_ms);
  } else {
    log_->requests.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

void CountingEndpoint::Account(const std::string& text,
                               const net::QueryResponse& response,
                               double wall_ms) {
  RequestLog& log = *log_;
  log.requests.fetch_add(1, std::memory_order_relaxed);
  if (LooksLikeAskQuery(text)) {
    log.ask_requests.fetch_add(1, std::memory_order_relaxed);
  } else if (text.find("COUNT(") != std::string::npos) {
    log.count_probes.fetch_add(1, std::memory_order_relaxed);
  } else if (text.find("VALUES") != std::string::npos) {
    log.bound_join_requests.fetch_add(1, std::memory_order_relaxed);
  }
  log.bytes_received.fetch_add(response.response_bytes,
                               std::memory_order_relaxed);
  log.rows_received.fetch_add(response.RowCount(), std::memory_order_relaxed);
  log.server_ns.fetch_add(
      static_cast<uint64_t>(std::llround(response.server_ms * 1e6)),
      std::memory_order_relaxed);
  log.wall_ns.fetch_add(static_cast<uint64_t>(std::llround(wall_ms * 1e6)),
                        std::memory_order_relaxed);
  bool keep_text = log.capture_texts.load(std::memory_order_relaxed);
  bool keep_rows = log.capture_responses.load(std::memory_order_relaxed) &&
                   response.RowCount() > 0;
  if (!keep_text && !keep_rows) return;
  // Caps keep a long traced run's captures bounded; the probes report
  // per-text and per-row rates, so a prefix is enough.
  constexpr size_t kMaxTexts = 20000;
  constexpr uint64_t kMaxRows = 200000;
  std::lock_guard<std::mutex> lock(log.capture_mu);
  if (keep_text && log.texts.size() < kMaxTexts) log.texts.push_back(text);
  if (keep_rows && log.captured_rows < kMaxRows) {
    // The engine moves the id table out of the response it receives, so
    // keep a deep copy of the payload rather than the shared pointer.
    net::QueryResponse copy;
    copy.table = response.table;
    copy.response_bytes = response.response_bytes;
    if (response.ids != nullptr) {
      copy.ids = std::make_shared<core::IdTable>(*response.ids);
      copy.ids_dict = response.ids_dict;
    }
    log.captured_rows += response.RowCount();
    log.responses.push_back(std::move(copy));
  }
}

Result<net::QueryResponse> CountingEndpoint::Query(const std::string& text) {
  return Observe(text, [&] { return inner_->Query(text); });
}

Result<net::QueryResponse> CountingEndpoint::QueryWithDeadline(
    const std::string& text, const Deadline& deadline) {
  return Observe(text,
                 [&] { return inner_->QueryWithDeadline(text, deadline); });
}

Result<net::QueryResponse> CountingEndpoint::QueryCancellable(
    const std::string& text, const CancelToken& cancel) {
  return Observe(text,
                 [&] { return inner_->QueryCancellable(text, cancel); });
}

Result<net::StreamSummary> CountingEndpoint::QueryStreaming(
    const std::string& text, const CancelToken& cancel,
    const net::StreamOptions& options, const net::StreamSink& sink) {
  Stopwatch wall;
  auto summary = inner_->QueryStreaming(text, cancel, options, sink);
  if (!summary.ok()) {
    log_->requests.fetch_add(1, std::memory_order_relaxed);
    return summary;
  }
  // The rows went through the sink: the summary's response carries the
  // accounting only, so add the delivered rows separately.
  Account(text, summary->response, wall.ElapsedMillis());
  log_->rows_received.fetch_add(summary->rows_delivered,
                                std::memory_order_relaxed);
  return summary;
}

double SumMetric(const obs::MetricsSnapshot& snapshot, const std::string& name,
                 const std::string& label_key,
                 const std::string& label_value) {
  double sum = 0.0;
  for (const obs::MetricFamily& family : snapshot.families()) {
    if (family.name != name) continue;
    for (const obs::MetricSample& sample : family.samples) {
      bool match = label_key.empty();
      for (const auto& [key, value] : sample.labels) {
        if (key == label_key && value == label_value) match = true;
      }
      if (match) sum += sample.value;
    }
  }
  return sum;
}

std::map<std::string, double> Delta(
    const std::map<std::string, double>& after,
    const std::map<std::string, double>& before) {
  std::map<std::string, double> out;
  for (const auto& [key, value] : after) {
    auto it = before.find(key);
    out[key] = value - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

TraceLayers LayersFromTrace(const obs::Trace& trace) {
  std::unordered_map<obs::SpanId, const obs::Span*> by_id;
  for (const obs::Span& span : trace.spans) by_id[span.id] = &span;
  auto ancestor_named = [&](const obs::Span& span, const std::string& name) {
    for (auto it = by_id.find(span.parent); it != by_id.end();
         it = by_id.find(it->second->parent)) {
      if (it->second->name == name) return it->second;
    }
    return static_cast<const obs::Span*>(nullptr);
  };
  auto ms = [](const obs::Span& span) {
    return span.duration_us > 0.0 ? span.duration_us / 1000.0 : 0.0;
  };
  TraceLayers out;
  std::unordered_map<const obs::Span*, std::vector<std::pair<double, double>>>
      requests_in_sape;
  for (const obs::Span& span : trace.spans) {
    // Spans grafted from a server's subtree carry that server's process
    // id; this process's own spans carry 0.
    if (span.process_id != 0) continue;
    // A phase nested in a phase of the same name (recursive group
    // evaluation) is already inside the outer span's duration.
    if (span.name == "gjv detection" && !ancestor_named(span, span.name)) {
      out.gjv_ms += ms(span);
    } else if (span.name == "statistics" &&
               !ancestor_named(span, span.name)) {
      out.count_ms += ms(span);
    } else if (span.name == "decomposition" &&
               !ancestor_named(span, span.name)) {
      out.decompose_ms += ms(span);
    } else if (span.name == "SAPE execution" &&
               !ancestor_named(span, span.name)) {
      out.sape_ms += ms(span);
      requests_in_sape[&span];
    } else if (span.category == "request" && span.duration_us > 0.0) {
      if (const obs::Span* sape = ancestor_named(span, "SAPE execution")) {
        while (const obs::Span* outer = ancestor_named(*sape, sape->name)) {
          sape = outer;
        }
        requests_in_sape[sape].push_back(
            {span.start_us, span.start_us + span.duration_us});
      }
    }
  }
  std::vector<std::pair<double, double>> all_requests;
  for (auto& [sape, intervals] : requests_in_sape) {
    double lo = sape->start_us;
    double hi = sape->start_us + std::max(sape->duration_us, 0.0);
    double covered = CoveredUs(&intervals, lo, hi);
    out.sape_self_ms += std::max(0.0, (hi - lo - covered) / 1000.0);
  }
  for (const obs::Span& span : trace.spans) {
    if (span.process_id == 0 && span.category == "request" &&
        span.duration_us > 0.0) {
      all_requests.push_back({span.start_us, span.start_us + span.duration_us});
    }
  }
  out.request_wait_ms =
      CoveredUs(&all_requests, 0.0, std::numeric_limits<double>::max()) /
      1000.0;
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return clear.good();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double BucketQuantileMs(const std::vector<double>& buckets, double q) {
  double total = 0.0;
  for (double b : buckets) total += b;
  if (total <= 0.0) return 0.0;
  double rank = std::max(1.0, std::ceil(q * total));
  double seen = 0.0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      double hi_us = std::ldexp(1.0, static_cast<int>(b));
      return b == 0 ? 0.0 : 0.75 * hi_us / 1000.0;
    }
  }
  return 0.0;
}

}  // namespace lusail::perfbench
