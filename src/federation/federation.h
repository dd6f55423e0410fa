#ifndef LUSAIL_FEDERATION_FEDERATION_H_
#define LUSAIL_FEDERATION_FEDERATION_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "federation/binding_table.h"
#include "net/endpoint.h"
#include "net/resilience.h"
#include "obs/endpoint_stats.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "sparql/result_table.h"

namespace lusail::cache {
class FederationCache;
}  // namespace lusail::cache

namespace lusail::fed {

/// Per-query cost summary a federated engine reports with its result.
/// This is the data behind the paper's figures: runtime, request counts,
/// and communication volume.
struct ExecutionProfile {
  uint64_t requests = 0;       ///< Total endpoint requests issued.
  uint64_t ask_requests = 0;   ///< Subset that were ASK probes.
  uint64_t bytes_sent = 0;     ///< Query text shipped to endpoints.
  uint64_t bytes_received = 0; ///< Serialized results received.
  uint64_t rows_received = 0;  ///< Rows of binding fetches (RequestKind).
  double network_ms = 0.0;     ///< Sum of simulated per-request network time.

  /// Wall time from the collector's birth (query start) to the first
  /// binding fetch that carried at least one row; 0 when no rows ever
  /// arrived. The federated analogue of time-to-first-row: on
  /// streamed answers it bounds how early the first batch could leave.
  double first_row_ms = 0.0;

  double source_selection_ms = 0.0;
  double analysis_ms = 0.0;    ///< Lusail's LADE phase (GJV + decomposition).
  double execution_ms = 0.0;
  double total_ms = 0.0;

  /// OPTIONAL blocks LADE pushed into endpoint subqueries (Lusail only).
  uint64_t pushed_optionals = 0;

  /// Sequential request waves that put at least one request on the wire
  /// (Lusail only; see RequestWave). Under a slept network the query's
  /// wall time is about this many round trips.
  uint64_t round_trips = 0;

  /// Largest number of intermediate binding rows held at once — the
  /// memory-footprint proxy of the paper's extended-version experiments.
  uint64_t peak_intermediate_rows = 0;

  // --- Fault tolerance (client-side resilience + degradation) ---

  uint64_t retries = 0;             ///< Endpoint requests retried.
  uint64_t breaker_rejections = 0;  ///< Requests refused by an open breaker.
  uint64_t breaker_trips = 0;       ///< Circuit-breaker trips this query.
  uint64_t endpoints_failed = 0;    ///< Distinct endpoints dropped.
  uint64_t subqueries_dropped = 0;  ///< Subqueries that lost every endpoint.
  uint64_t hedged_requests = 0;     ///< Requests that launched a hedge.

  /// Ids of the endpoints whose contributions were dropped (partial
  /// results mode); empty when the result is exact.
  std::vector<std::string> failed_endpoint_ids;

  /// True when any endpoint contribution was dropped: the result is a
  /// lower bound of the exact answer, not the exact answer.
  bool partial = false;

  /// The query's span trace, present only when the engine ran with
  /// tracing enabled (LusailOptions::trace or a baseline's trace flag).
  /// Export with trace->ToChromeJsonString() for chrome://tracing.
  std::shared_ptr<const obs::Trace> trace;
};

/// The profile's counters and phase timings as a JSON object (keys match
/// the field names). This is the record the benches dump per query.
obs::JsonValue ProfileToJson(const ExecutionProfile& profile);

/// What an endpoint request is for. Probes and checks answer questions
/// about the data; only fetches carry the query's binding rows, so only
/// their rows count as ExecutionProfile::rows_received.
enum class RequestKind {
  kFetch,  ///< Subquery or bound-join fetch: binding rows.
  kAsk,    ///< ASK source-selection probe.
  kProbe,  ///< COUNT cardinality probe or locality (GJV) check query.
};

/// Thread-safe accumulator for one federated query execution.
///
/// All counters live under one mutex so a reader (FillCounters, or a
/// /metrics scrape through the collector) always sees a consistent cut:
/// request counts can never lag the retry counts folded in by the same
/// exchange. Record an exchange's response and retry outcome together
/// with RecordExchange — separate RecordRetryOutcome-then-RecordRequest
/// calls open a window where a snapshot reports retries for requests it
/// has not counted yet.
class MetricsCollector {
 public:
  MetricsCollector() = default;
  MetricsCollector(const MetricsCollector&) = delete;
  MetricsCollector& operator=(const MetricsCollector&) = delete;

  /// Folds one endpoint exchange — the response (when the request
  /// produced one) and its retry-loop accounting — into the totals as a
  /// single atomic update. `response` may be null for requests that
  /// failed without a response.
  void RecordExchange(const net::QueryResponse* response, RequestKind kind,
                      const net::RetryOutcome& outcome) {
    std::lock_guard<std::mutex> lock(mu_);
    if (response != nullptr) {
      AddResponseLocked(*response, kind);
    }
    retries_ += outcome.retries;
    breaker_rejections_ += outcome.breaker_rejections;
    breaker_trips_ += outcome.breaker_trips;
  }

  void RecordRequest(const net::QueryResponse& response, RequestKind kind) {
    std::lock_guard<std::mutex> lock(mu_);
    AddResponseLocked(response, kind);
  }

  /// Folds one retry loop's accounting into the query totals.
  void RecordRetryOutcome(const net::RetryOutcome& outcome) {
    std::lock_guard<std::mutex> lock(mu_);
    retries_ += outcome.retries;
    breaker_rejections_ += outcome.breaker_rejections;
    breaker_trips_ += outcome.breaker_trips;
  }

  /// Records that `endpoint_id`'s contribution was dropped from a
  /// subquery union (partial-results degradation).
  void RecordEndpointDropped(const std::string& endpoint_id) {
    std::lock_guard<std::mutex> lock(mu_);
    dropped_endpoints_.insert(endpoint_id);
  }

  /// Records a subquery that lost *all* of its endpoints.
  void RecordSubqueryDropped() {
    std::lock_guard<std::mutex> lock(mu_);
    ++subqueries_dropped_;
  }

  // --- Tracing (optional; engines attach a tracer per traced query) ---

  /// Attaches a tracer; every Federation request accounted through this
  /// collector then emits a "request" span. Non-owning; the tracer must
  /// outlive the query.
  void SetTracer(obs::Tracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }
  obs::Tracer* tracer() const {
    return tracer_.load(std::memory_order_acquire);
  }

  /// Shared ownership of the same tracer, for components that may hold a
  /// reference past the query frame (detached hedge losers grafting a
  /// late server subtree). Set alongside SetTracer when the owner keeps
  /// the tracer in a shared_ptr; empty otherwise.
  void SetTracerShared(std::shared_ptr<obs::Tracer> tracer) {
    std::lock_guard<std::mutex> lock(tracer_mu_);
    shared_tracer_ = std::move(tracer);
  }
  std::shared_ptr<obs::Tracer> shared_tracer() const {
    std::lock_guard<std::mutex> lock(tracer_mu_);
    return shared_tracer_;
  }

  /// The span new request spans are parented to when the call site does
  /// not pass an explicit parent. Engines point this at the currently
  /// running phase span (PhaseSpan maintains it automatically).
  void SetTraceParent(obs::SpanId span) {
    trace_parent_.store(span, std::memory_order_release);
  }
  obs::SpanId trace_parent() const {
    return trace_parent_.load(std::memory_order_acquire);
  }

  /// Endpoint requests accounted so far.
  uint64_t requests() const {
    std::lock_guard<std::mutex> lock(mu_);
    return requests_;
  }

  /// Copies the counters into a profile (phase timings are the caller's)
  /// as one consistent snapshot.
  void FillCounters(ExecutionProfile* profile) const {
    std::lock_guard<std::mutex> lock(mu_);
    profile->requests = requests_;
    profile->ask_requests = ask_requests_;
    profile->bytes_sent = bytes_sent_;
    profile->bytes_received = bytes_received_;
    profile->rows_received = rows_received_;
    profile->network_ms = static_cast<double>(network_us_) / 1000.0;
    profile->first_row_ms = first_row_ms_;
    profile->retries = retries_;
    profile->breaker_rejections = breaker_rejections_;
    profile->breaker_trips = breaker_trips_;
    profile->subqueries_dropped = subqueries_dropped_;
    profile->hedged_requests = hedged_requests_;
    profile->failed_endpoint_ids.assign(dropped_endpoints_.begin(),
                                        dropped_endpoints_.end());
    profile->endpoints_failed = profile->failed_endpoint_ids.size();
    profile->partial =
        profile->endpoints_failed > 0 || profile->subqueries_dropped > 0;
  }

 private:
  void AddResponseLocked(const net::QueryResponse& response,
                         RequestKind kind) {
    ++requests_;
    if (kind == RequestKind::kAsk) ++ask_requests_;
    bytes_sent_ += response.request_bytes;
    bytes_received_ += response.response_bytes;
    if (kind == RequestKind::kFetch) {
      rows_received_ += response.RowCount();
      if (first_row_ms_ == 0.0 && response.RowCount() > 0) {
        first_row_ms_ = born_.ElapsedMillis();
      }
    }
    // Round to the nearest microsecond instead of truncating: a
    // truncating cast floors every request's network time, so workloads
    // of many sub-microsecond requests would report ~0 network time.
    network_us_ +=
        static_cast<uint64_t>(std::llround(response.network_ms * 1000.0));
    if (response.hedged) ++hedged_requests_;
  }

  mutable std::mutex mu_;
  uint64_t requests_ = 0;
  uint64_t ask_requests_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
  uint64_t rows_received_ = 0;
  uint64_t network_us_ = 0;
  Stopwatch born_;  ///< Started at construction = query start.
  double first_row_ms_ = 0.0;
  uint64_t retries_ = 0;
  uint64_t breaker_rejections_ = 0;
  uint64_t breaker_trips_ = 0;
  uint64_t subqueries_dropped_ = 0;
  uint64_t hedged_requests_ = 0;
  std::set<std::string> dropped_endpoints_;
  std::atomic<obs::Tracer*> tracer_{nullptr};
  mutable std::mutex tracer_mu_;
  std::shared_ptr<obs::Tracer> shared_tracer_;
  std::atomic<obs::SpanId> trace_parent_{0};
};

/// RAII phase span tied to a MetricsCollector: opens a "phase" span under
/// the collector's current trace parent, makes itself the parent for
/// requests issued while alive, and restores the previous parent on
/// destruction. A no-op when the collector has no tracer, so engines can
/// scope their phases unconditionally.
class PhaseSpan {
 public:
  PhaseSpan(MetricsCollector* metrics, const std::string& name)
      : metrics_(metrics) {
    obs::Tracer* tracer =
        metrics_ != nullptr ? metrics_->tracer() : nullptr;
    if (tracer == nullptr) return;
    prev_ = metrics_->trace_parent();
    span_ = tracer->StartSpan(name, "phase", prev_);
    metrics_->SetTraceParent(span_);
  }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;
  ~PhaseSpan() { End(); }

  void End() {
    if (span_ == 0) return;
    metrics_->SetTraceParent(prev_);
    metrics_->tracer()->EndSpan(span_);
    span_ = 0;
  }

  template <typename V>
  void Annotate(std::string key, V value) {
    if (span_ != 0) {
      metrics_->tracer()->Annotate(span_, std::move(key), value);
    }
  }

  obs::SpanId id() const { return span_; }

 private:
  MetricsCollector* metrics_ = nullptr;
  obs::SpanId span_ = 0;
  obs::SpanId prev_ = 0;
};

/// One wave of concurrent endpoint requests that the coordinator waits
/// out as a whole. End() (or the destructor) adds one round trip to
/// `profile` when `metrics` accounted a request since construction: a
/// wave answered entirely from caches costs no round trip. Either
/// pointer may be null, which makes the wave a no-op.
class RequestWave {
 public:
  RequestWave(const MetricsCollector* metrics, ExecutionProfile* profile)
      : metrics_(profile != nullptr ? metrics : nullptr), profile_(profile) {
    if (metrics_ != nullptr) before_ = metrics_->requests();
  }
  RequestWave(const RequestWave&) = delete;
  RequestWave& operator=(const RequestWave&) = delete;
  ~RequestWave() { End(); }

  void End() {
    if (metrics_ != nullptr && metrics_->requests() > before_) {
      ++profile_->round_trips;
    }
    metrics_ = nullptr;
  }

 private:
  const MetricsCollector* metrics_;
  ExecutionProfile* profile_;
  uint64_t before_ = 0;
};

/// Per-query tracing harness shared by all engines: when `enabled`, owns
/// the tracer (shared, so detached hedge losers can finish grafting a
/// late server subtree after the query frame unwinds), generates the
/// query's 128-bit trace id, opens the root "query" span, and registers
/// the tracer with the metrics collector. Attach() closes the root span
/// and hands the finished trace to the profile.
class QueryTrace {
 public:
  QueryTrace(bool enabled, const std::string& engine_name,
             MetricsCollector* metrics);
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;
  ~QueryTrace() {
    // Detach before the tracer dies (the collector outlives this guard
    // only within the engine's Execute frame, but stay defensive).
    if (tracer_ != nullptr && metrics_ != nullptr) {
      metrics_->SetTracer(nullptr);
      metrics_->SetTracerShared(nullptr);
    }
  }

  bool enabled() const { return tracer_ != nullptr; }
  obs::Tracer* tracer() const { return tracer_.get(); }
  obs::SpanId root() const { return root_; }

  /// Ends the root span and attaches the finished trace to `profile`.
  void Attach(ExecutionProfile* profile) {
    if (tracer_ == nullptr) return;
    tracer_->EndSpan(root_);
    profile->trace = std::make_shared<const obs::Trace>(tracer_->Snapshot());
  }

 private:
  MetricsCollector* metrics_ = nullptr;
  std::shared_ptr<obs::Tracer> tracer_;
  obs::SpanId root_ = 0;
};

/// ASK-query detection lives in common/string_util.h (the server-side
/// verdict cache needs it below this layer); re-exported here because
/// fed:: is where federated engines historically found it.
using ::lusail::LooksLikeAskQuery;

/// Threads in every Federation's request pool: how many endpoint
/// requests one federation keeps in flight at once, across all engines
/// and concurrent queries on it. A constant, not an option; see
/// Federation::SubmitRequest and DESIGN.md "Request dispatch" for the
/// sizing.
inline constexpr size_t kRequestThreads = 16;

/// The registry of endpoints a federated query runs against, plus the
/// request path every engine uses (with per-query accounting and
/// cooperative deadline checks).
class Federation {
 public:
  Federation() = default;
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// Registers an endpoint; returns its index. A circuit breaker is
  /// created alongside it (engaged only by retry-policy executions).
  size_t Add(std::shared_ptr<net::Endpoint> endpoint);

  size_t size() const { return endpoints_.size(); }

  net::Endpoint* endpoint(size_t i) const { return endpoints_[i].get(); }
  const std::string& id(size_t i) const { return endpoints_[i]->id(); }

  /// Replaces every endpoint's circuit breaker with a fresh one using
  /// `config` (also applied to endpoints added later).
  void ConfigureBreakers(const net::CircuitBreakerConfig& config);

  /// The circuit breaker guarding endpoint `i`. Shared by all engines on
  /// this federation — endpoint health is a property of the endpoint,
  /// not of any one client.
  net::CircuitBreaker* breaker(size_t i) const { return breakers_[i].get(); }

  /// Attaches a cross-query telemetry registry: every request issued
  /// through this federation (by any engine) is then accounted per
  /// endpoint — latency histogram, error/retry/breaker counters, byte
  /// volumes. Non-owning; pass nullptr to detach.
  void set_stats_registry(obs::EndpointStatsRegistry* registry) {
    stats_ = registry;
  }
  obs::EndpointStatsRegistry* stats_registry() const { return stats_; }

  /// Attaches a cross-query cache shared by every engine on this
  /// federation: ASK/check-query verdicts, COUNT-probe cardinalities,
  /// and (opt-in per engine) subquery result tables. Non-owning; pass
  /// nullptr to detach.
  void set_query_cache(cache::FederationCache* cache) {
    query_cache_ = cache;
  }
  cache::FederationCache* query_cache() const { return query_cache_; }

  /// Issues `text` at endpoint `i` as a request of `kind`. Accounts the
  /// exchange into `metrics` (when non-null) and fails with Timeout when
  /// `deadline` has expired before the request is issued. With a non-null
  /// `retry` whose policy is enabled, retryable failures are retried with
  /// backoff under the endpoint's circuit breaker, never sleeping past
  /// `deadline`; retry and breaker activity is accounted into `metrics`.
  ///
  /// When `metrics` carries a tracer, the exchange is recorded as a
  /// "request" span — parented to `trace_parent` when non-zero, else to
  /// the collector's current default parent — with retry attempts and
  /// breaker rejections as child spans.
  Result<sparql::ResultTable> Execute(size_t i, const std::string& text,
                                      RequestKind kind,
                                      MetricsCollector* metrics,
                                      const Deadline& deadline,
                                      const net::RetryPolicy* retry = nullptr,
                                      obs::SpanId trace_parent = 0) const;

  /// ID-space variant of Execute for binding fetches
  /// (RequestKind::kFetch): the response lands as a BindingTable in
  /// `dict`'s id space. When the endpoint parses straight into this
  /// dictionary (HttpSparqlEndpoint::set_parse_dictionary), the ids pass
  /// through untouched; a string response is encoded here at the
  /// federator boundary; ids from a *different* dictionary are decoded
  /// and re-encoded (correct, just slower). When `wire_table` is non-null
  /// it receives the string form of the response if one existed on the
  /// wire path (for result-cache stores); it stays nullopt on the pure
  /// id path, where the caller decides whether decoding is worth it.
  Result<BindingTable> ExecuteEncoded(
      size_t i, const std::string& text, SharedDictionary* dict,
      MetricsCollector* metrics, const Deadline& deadline,
      const net::RetryPolicy* retry = nullptr, obs::SpanId trace_parent = 0,
      std::optional<sparql::ResultTable>* wire_table = nullptr) const;

  /// Convenience ASK wrapper (RequestKind::kAsk): true iff the endpoint
  /// returned a row.
  Result<bool> Ask(size_t i, const std::string& text,
                   MetricsCollector* metrics, const Deadline& deadline,
                   const net::RetryPolicy* retry = nullptr,
                   obs::SpanId trace_parent = 0) const;

  /// Runs `fn` on the federation's request pool and returns its future.
  /// This is the paper's Elastic Request Handler: every endpoint-request
  /// fan-out (ASK probes, locality checks, COUNT probes, subquery and
  /// bound-join fetches) goes through here, never
  /// through an engine's CPU pool, so a fan-out to n <= kRequestThreads
  /// endpoints costs one round trip however few cores the engine uses.
  /// The first request `fn` issues annotates its trace span with
  /// "queued_ms", the time from this call until a pool thread took it.
  ///
  /// Rule: `fn` must never wait on another SubmitRequest future. With a
  /// fixed pool, a task that waits for a queued task can deadlock once
  /// every thread does it. So the coordinators that fan out and wait
  /// (source selection, LADE probes, SAPE phases) run on the caller's
  /// thread; ReplicaGroup hedges keep their own threads, and a
  /// ShardedEndpoint scatters on its own pool.
  template <typename Fn>
  auto SubmitRequest(Fn fn) const -> std::future<std::invoke_result_t<Fn&>> {
    ThreadPool& pool = RequestPool();
    Stopwatch submitted;
    return pool.Submit([fn = std::move(fn), submitted]() mutable {
      QueuedScope scope(submitted.ElapsedMillis());
      return fn();
    });
  }

 private:
  /// Publishes a request task's queue wait to the first request span the
  /// running thread opens (see SubmitRequest); cleared on destruction.
  class QueuedScope {
   public:
    explicit QueuedScope(double queued_ms);
    ~QueuedScope();
    QueuedScope(const QueuedScope&) = delete;
    QueuedScope& operator=(const QueuedScope&) = delete;
  };

  /// The request pool, started on first use so a federation that never
  /// fans out spawns no threads.
  ThreadPool& RequestPool() const;

  /// Shared body of Execute/ExecuteEncoded: the full request path with
  /// accounting, tracing, and endpoint-stats recording, representation
  /// untouched (the response may carry a string table or an IdTable).
  Result<net::QueryResponse> ExecuteResponse(
      size_t i, const std::string& text, RequestKind kind,
      MetricsCollector* metrics,
      const Deadline& deadline, const net::RetryPolicy* retry,
      obs::SpanId trace_parent) const;

  std::vector<std::shared_ptr<net::Endpoint>> endpoints_;
  std::vector<std::unique_ptr<net::CircuitBreaker>> breakers_;
  net::CircuitBreakerConfig breaker_config_;
  obs::EndpointStatsRegistry* stats_ = nullptr;
  cache::FederationCache* query_cache_ = nullptr;
  // Declared last: destroyed first, so pool threads stop (draining any
  // queued request) while the endpoints they call are still alive.
  mutable std::once_flag request_pool_once_;
  mutable std::unique_ptr<ThreadPool> request_pool_;
};

/// Result of a federated query: the final table plus the cost profile.
struct FederatedResult {
  sparql::ResultTable table;
  ExecutionProfile profile;
};

/// Common interface of Lusail and the baseline engines.
class FederatedEngine {
 public:
  virtual ~FederatedEngine() = default;

  /// Engine name for benchmark reports ("Lusail", "FedX", ...).
  virtual std::string name() const = 0;

  /// Executes a federated SPARQL query within `deadline`.
  virtual Result<FederatedResult> Execute(const std::string& sparql_text,
                                          const Deadline& deadline) = 0;

  /// Executes with no deadline.
  Result<FederatedResult> Execute(const std::string& sparql_text) {
    return Execute(sparql_text, Deadline());
  }
};

}  // namespace lusail::fed

#endif  // LUSAIL_FEDERATION_FEDERATION_H_
