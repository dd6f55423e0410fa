// Measurement pieces shared by the three benchmark workloads: the oracle
// check, a request-classifying endpoint decorator, counter snapshots taken
// through the layers' public metric exports, trace-span arithmetic and
// process memory. Everything here observes the library from outside; the
// library itself carries no benchmark-specific instrumentation.
#ifndef LUSAIL_PERFBENCH_HARNESS_H_
#define LUSAIL_PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/endpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sparql/evaluator.h"
#include "sparql/result_table.h"

namespace lusail::perfbench {

/// One query of a workload's mix.
struct QueryCase {
  std::string label;
  std::string text;
  /// Sent whole to federation endpoint `stream_endpoint` through
  /// Endpoint::QueryStreaming instead of through the engine, the way
  /// `lusail_cli --stream` ships a stream-eligible query.
  bool stream = false;
  size_t stream_endpoint = 0;
};

/// What a correct answer to one query looks like, computed once from the
/// oracle (the query evaluated over one store holding every endpoint's
/// triples).
///  - no LIMIT: the answer is the oracle's row multiset, order-free;
///  - ORDER BY + LIMIT: the answer's ORDER BY key sequence equals the
///    oracle's (ties may permute rows) and every row is an oracle row;
///  - LIMIT without ORDER BY: the answer has the oracle's row count and is
///    a subset of the unlimited oracle answer.
struct Expectation {
  enum class Kind { kBag, kOrderedPrefix, kLimitSubset };
  Kind kind = Kind::kBag;
  uint64_t bag_hash = 0;
  size_t rows = 0;
  std::vector<std::string> order_vars;
  std::vector<std::string> keys;
  std::unordered_set<uint64_t> superset;
};

/// Evaluates `text` with the local evaluator and derives its expectation.
Result<Expectation> BuildExpectation(const sparql::Evaluator& oracle,
                                     const std::string& text);

/// "" when `table` satisfies `expect`, else a one-line reason.
std::string CheckAnswer(const Expectation& expect,
                        const sparql::ResultTable& table);

/// Request counters of every endpoint exchange the federator issued, kept
/// by CountingEndpoint. Shared by all decorators of one workload.
struct RequestLog {
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> ask_requests{0};
  std::atomic<uint64_t> count_probes{0};
  std::atomic<uint64_t> bound_join_requests{0};
  std::atomic<uint64_t> bytes_received{0};
  std::atomic<uint64_t> rows_received{0};
  std::atomic<uint64_t> server_ns{0};  ///< Sum of QueryResponse::server_ms.
  std::atomic<uint64_t> wall_ns{0};    ///< Client-side request wall time.

  /// While set, request texts (for the parse probe) and response row
  /// payloads (for the SRJ probes) are kept. Traced runs only.
  std::atomic<bool> capture_texts{false};
  std::atomic<bool> capture_responses{false};
  std::mutex capture_mu;
  std::vector<std::string> texts;             ///< Guarded by capture_mu.
  std::vector<net::QueryResponse> responses;  ///< Guarded by capture_mu.
  uint64_t captured_rows = 0;                 ///< Guarded by capture_mu.

  /// Plain-value copy of the counters.
  std::map<std::string, double> Snapshot() const;
};

/// net::Endpoint decorator placed between the Federation and each logical
/// endpoint. It forwards every call unchanged and classifies the request
/// text: ASK probes (source selection and locality checks), COUNT probes,
/// bound joins (VALUES blocks) and the rest.
class CountingEndpoint : public net::Endpoint {
 public:
  CountingEndpoint(std::shared_ptr<net::Endpoint> inner, RequestLog* log)
      : inner_(std::move(inner)), log_(log) {}

  const std::string& id() const override { return inner_->id(); }
  Result<net::QueryResponse> Query(const std::string& text) override;
  Result<net::QueryResponse> QueryWithDeadline(
      const std::string& text, const Deadline& deadline) override;
  Result<net::QueryResponse> QueryCancellable(
      const std::string& text, const CancelToken& cancel) override;
  Result<net::StreamSummary> QueryStreaming(
      const std::string& text, const CancelToken& cancel,
      const net::StreamOptions& options,
      const net::StreamSink& sink) override;

 private:
  Result<net::QueryResponse> Observe(
      const std::string& text,
      const std::function<Result<net::QueryResponse>()>& call);
  void Account(const std::string& text, const net::QueryResponse& response,
               double wall_ms);

  std::shared_ptr<net::Endpoint> inner_;
  RequestLog* log_;
};

/// Sum of every sample of metric `name` in `snapshot` whose labels contain
/// `label_key=label_value` (any labels when `label_key` is empty).
double SumMetric(const obs::MetricsSnapshot& snapshot, const std::string& name,
                 const std::string& label_key = "",
                 const std::string& label_value = "");

/// The counter deltas `after - before`, key by key.
std::map<std::string, double> Delta(
    const std::map<std::string, double>& after,
    const std::map<std::string, double>& before);

/// Phase times of one traced Lusail query, read from its span tree.
struct TraceLayers {
  double gjv_ms = 0.0;        ///< "gjv detection" spans.
  double count_ms = 0.0;      ///< "statistics" spans (COUNT probes).
  double decompose_ms = 0.0;  ///< "decomposition" spans.
  double sape_ms = 0.0;       ///< "SAPE execution" spans.
  double sape_self_ms = 0.0;  ///< SAPE minus the union of its request spans.
  /// Union of all request spans: wall time the query spent waiting on at
  /// least one endpoint.
  double request_wait_ms = 0.0;
};
TraceLayers LayersFromTrace(const obs::Trace& trace);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// Returns freed heap to the kernel and restarts the VmHWM peak from the
/// current RSS, so the peak covers only what follows. False when the
/// kernel refuses the reset.
bool ResetPeakRss();

/// Interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Nearest-rank quantile of a LatencyHistogram-layout bucket array
/// (bucket b holds samples in [2^(b-1), 2^b) microseconds), in ms, using
/// each bucket's midpoint. 0 when the buckets are empty.
double BucketQuantileMs(const std::vector<double>& buckets, double q);

}  // namespace lusail::perfbench

#endif  // LUSAIL_PERFBENCH_HARNESS_H_
