#include "federation/federation.h"

#include <unistd.h>

#include <cctype>
#include <optional>
#include <utility>

#include "common/string_util.h"
#include "obs/trace_context.h"

namespace lusail::fed {

namespace {

/// The queue wait of the request task running on this thread, until its
/// first request span takes it (Federation::QueuedScope).
thread_local std::optional<double> t_queued_ms;

}  // namespace

Federation::QueuedScope::QueuedScope(double queued_ms) {
  t_queued_ms = queued_ms;
}

Federation::QueuedScope::~QueuedScope() { t_queued_ms.reset(); }

ThreadPool& Federation::RequestPool() const {
  std::call_once(request_pool_once_, [this] {
    request_pool_ = std::make_unique<ThreadPool>(kRequestThreads);
  });
  return *request_pool_;
}

QueryTrace::QueryTrace(bool enabled, const std::string& engine_name,
                       MetricsCollector* metrics)
    : metrics_(metrics) {
  if (!enabled) return;
  tracer_ = std::make_shared<obs::Tracer>();
  tracer_->set_trace_id(obs::GenerateTraceId());
  tracer_->RegisterProcess(static_cast<uint64_t>(::getpid()),
                           "federator/" + engine_name);
  root_ = tracer_->StartSpan("query", "query");
  tracer_->Annotate(root_, "engine", engine_name);
  tracer_->Annotate(root_, "trace_id", tracer_->trace_id());
  metrics_->SetTracer(tracer_.get());
  metrics_->SetTracerShared(tracer_);
  metrics_->SetTraceParent(root_);
}

obs::JsonValue ProfileToJson(const ExecutionProfile& profile) {
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("requests", profile.requests);
  out.Set("ask_requests", profile.ask_requests);
  out.Set("bytes_sent", profile.bytes_sent);
  out.Set("bytes_received", profile.bytes_received);
  out.Set("rows_received", profile.rows_received);
  out.Set("network_ms", profile.network_ms);
  out.Set("first_row_ms", profile.first_row_ms);
  out.Set("source_selection_ms", profile.source_selection_ms);
  out.Set("analysis_ms", profile.analysis_ms);
  out.Set("execution_ms", profile.execution_ms);
  out.Set("total_ms", profile.total_ms);
  out.Set("pushed_optionals", profile.pushed_optionals);
  out.Set("round_trips", profile.round_trips);
  out.Set("peak_intermediate_rows", profile.peak_intermediate_rows);
  out.Set("retries", profile.retries);
  out.Set("breaker_rejections", profile.breaker_rejections);
  out.Set("breaker_trips", profile.breaker_trips);
  out.Set("endpoints_failed", profile.endpoints_failed);
  out.Set("subqueries_dropped", profile.subqueries_dropped);
  out.Set("hedged_requests", profile.hedged_requests);
  obs::JsonValue failed = obs::JsonValue::Array();
  for (const std::string& id : profile.failed_endpoint_ids) {
    failed.Append(id);
  }
  out.Set("failed_endpoint_ids", std::move(failed));
  out.Set("partial", profile.partial);
  return out;
}

size_t Federation::Add(std::shared_ptr<net::Endpoint> endpoint) {
  endpoints_.push_back(std::move(endpoint));
  breakers_.push_back(std::make_unique<net::CircuitBreaker>(breaker_config_));
  return endpoints_.size() - 1;
}

void Federation::ConfigureBreakers(const net::CircuitBreakerConfig& config) {
  breaker_config_ = config;
  for (auto& breaker : breakers_) {
    breaker = std::make_unique<net::CircuitBreaker>(config);
  }
}

Result<net::QueryResponse> Federation::ExecuteResponse(
    size_t i, const std::string& text, RequestKind kind,
    MetricsCollector* metrics, const Deadline& deadline,
    const net::RetryPolicy* retry, obs::SpanId trace_parent) const {
  if (i >= endpoints_.size()) {
    return Status::NotFound("no endpoint with index " + std::to_string(i));
  }
  const std::string& endpoint_id = endpoints_[i]->id();
  if (deadline.Expired()) {
    return Status::Timeout("query deadline expired before request to " +
                           endpoint_id);
  }
  // Only the first request of a dispatched task waited in the queue.
  std::optional<double> queued_ms = std::exchange(t_queued_ms, std::nullopt);
  obs::Tracer* tracer = metrics != nullptr ? metrics->tracer() : nullptr;
  obs::SpanId span = 0;
  if (tracer != nullptr) {
    obs::SpanId parent =
        trace_parent != 0 ? trace_parent : metrics->trace_parent();
    span = tracer->StartSpan("request " + endpoint_id, "request", parent);
    tracer->Annotate(span, "endpoint", endpoint_id);
    tracer->Annotate(span, "is_ask", kind == RequestKind::kAsk);
    if (queued_ms.has_value()) {
      tracer->Annotate(span, "queued_ms", *queued_ms);
    }
  }

  // While the endpoint call runs, downstream layers (the HTTP client,
  // hedged replica workers) can pick up the trace identity from the
  // calling thread and propagate it across the wire. Parent remote
  // subtrees under this exchange's "request" span.
  std::optional<obs::TraceContextScope> trace_scope;
  if (tracer != nullptr) {
    std::shared_ptr<obs::Tracer> shared = metrics->shared_tracer();
    if (shared != nullptr && shared.get() == tracer) {
      obs::TraceContext context;
      context.tracer = std::move(shared);
      context.trace_id = tracer->trace_id();
      context.parent = span;
      trace_scope.emplace(std::move(context));
    }
  }

  Result<net::QueryResponse> response = Status::Internal("unreachable");
  net::RetryOutcome outcome;
  if (retry != nullptr && retry->enabled()) {
    response = net::QueryWithRetry(endpoints_[i].get(), text, deadline,
                                   *retry, breakers_[i].get(), &outcome,
                                   tracer, span);
  } else {
    response = endpoints_[i]->QueryWithDeadline(text, deadline);
  }
  trace_scope.reset();
  if (metrics != nullptr) {
    metrics->RecordExchange(response.ok() ? &*response : nullptr, kind,
                            outcome);
    // A sharded endpoint answering in partial-results mode names the
    // members it dropped; fold them into the profile's failed-endpoint
    // set so the caller sees the answer is a lower bound.
    if (response.ok()) {
      for (const std::string& member : response->degraded_members) {
        metrics->RecordEndpointDropped(member);
      }
    }
  }

  if (stats_ != nullptr) {
    obs::EndpointExchange exchange;
    exchange.success = response.ok();
    exchange.retries = static_cast<uint64_t>(outcome.retries);
    exchange.breaker_rejections =
        static_cast<uint64_t>(outcome.breaker_rejections);
    exchange.breaker_trips = static_cast<uint64_t>(outcome.breaker_trips);
    if (response.ok()) {
      exchange.latency_ms = response->network_ms + response->server_ms;
      exchange.bytes_sent = response->request_bytes;
      exchange.bytes_received = response->response_bytes;
      exchange.rows = response->RowCount();
      if (response->transport.over_network) {
        exchange.network = true;
        exchange.reused_connection = response->transport.reused_connection;
        exchange.wire_bytes_sent = response->transport.wire_bytes_sent;
        exchange.wire_bytes_received =
            response->transport.wire_bytes_received;
      }
    } else {
      exchange.timeout =
          response.status().code() == StatusCode::kTimeout;
    }
    stats_->RecordExchange(endpoint_id, exchange);
  }

  if (span != 0) {
    tracer->Annotate(span, "ok", response.ok());
    if (response.ok()) {
      tracer->Annotate(span, "rows",
                       static_cast<uint64_t>(response->RowCount()));
      tracer->Annotate(span, "bytes_received", response->response_bytes);
      tracer->Annotate(span, "network_ms", response->network_ms);
      if (!response->served_by.empty()) {
        tracer->Annotate(span, "replica.served_by", response->served_by);
      }
      if (response->hedged) {
        tracer->Annotate(span, "replica.hedged", true);
      }
      if (!response->degraded_members.empty()) {
        tracer->Annotate(
            span, "shard.degraded_members",
            static_cast<uint64_t>(response->degraded_members.size()));
      }
      if (response->transport.over_network) {
        const net::TransportInfo& t = response->transport;
        tracer->Annotate(span, "net.reused_connection", t.reused_connection);
        tracer->Annotate(span, "net.connect_ms", t.connect_ms);
        tracer->Annotate(span, "net.wire_bytes_sent",
                         static_cast<uint64_t>(t.wire_bytes_sent));
        tracer->Annotate(span, "net.wire_bytes_received",
                         static_cast<uint64_t>(t.wire_bytes_received));
      }
    } else {
      tracer->Annotate(span, "status", response.status().ToString());
    }
    if (outcome.retries > 0) {
      tracer->Annotate(span, "retries",
                       static_cast<int64_t>(outcome.retries));
    }
    tracer->EndSpan(span);
  }

  if (!response.ok()) return response.status();
  return std::move(*response);
}

Result<sparql::ResultTable> Federation::Execute(
    size_t i, const std::string& text, RequestKind kind,
    MetricsCollector* metrics, const Deadline& deadline,
    const net::RetryPolicy* retry, obs::SpanId trace_parent) const {
  LUSAIL_ASSIGN_OR_RETURN(
      net::QueryResponse response,
      ExecuteResponse(i, text, kind, metrics, deadline, retry, trace_parent));
  if (response.ids != nullptr) {
    // A string-path consumer over an endpoint that parses straight to
    // ids (set_parse_dictionary): decode at the boundary so callers see
    // the same ResultTable they always did.
    return core::DecodeIdTable(*response.ids, *response.ids_dict);
  }
  return std::move(response.table);
}

Result<BindingTable> Federation::ExecuteEncoded(
    size_t i, const std::string& text, SharedDictionary* dict,
    MetricsCollector* metrics, const Deadline& deadline,
    const net::RetryPolicy* retry, obs::SpanId trace_parent,
    std::optional<sparql::ResultTable>* wire_table) const {
  LUSAIL_ASSIGN_OR_RETURN(net::QueryResponse response,
                          ExecuteResponse(i, text, RequestKind::kFetch,
                                          metrics, deadline, retry,
                                          trace_parent));
  if (response.ids != nullptr) {
    if (response.ids_dict.get() == dict) {
      // Fast path: the transport already interned into our dictionary;
      // the ids are the result, no string rows ever existed.
      return std::move(*response.ids);
    }
    // Ids from a foreign dictionary (endpoint shared across engines, or
    // reconfigured mid-flight): decode through the dictionary that
    // minted them, then re-encode into ours. Correct, just slower.
    sparql::ResultTable table =
        core::DecodeIdTable(*response.ids, *response.ids_dict);
    BindingTable ids = core::EncodeResultTable(table, dict);
    if (wire_table != nullptr) *wire_table = std::move(table);
    return ids;
  }
  BindingTable ids = core::EncodeResultTable(response.table, dict);
  if (wire_table != nullptr) *wire_table = std::move(response.table);
  return ids;
}

Result<bool> Federation::Ask(size_t i, const std::string& text,
                             MetricsCollector* metrics,
                             const Deadline& deadline,
                             const net::RetryPolicy* retry,
                             obs::SpanId trace_parent) const {
  LUSAIL_ASSIGN_OR_RETURN(net::QueryResponse response,
                          ExecuteResponse(i, text, RequestKind::kAsk, metrics,
                                          deadline, retry, trace_parent));
  return response.RowCount() > 0;
}

}  // namespace lusail::fed
