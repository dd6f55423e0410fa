#ifndef LUSAIL_CORE_SAPE_H_
#define LUSAIL_CORE_SAPE_H_

#include <functional>
#include <future>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/cost_model.h"
#include "core/options.h"
#include "core/subquery.h"
#include "federation/binding_table.h"
#include "federation/federation.h"

namespace lusail::core {

/// Selectivity-Aware Planning and parallel Execution (paper Section 4,
/// Algorithm 3).
///
/// Phase 1 submits every non-delayed subquery to all of its relevant
/// endpoints concurrently (one task per endpoint through the federation's
/// request pool, the Elastic Request Handler), unions each subquery's
/// per-endpoint results, and eagerly joins connected results. Phase 2
/// evaluates the delayed subqueries in increasing refined-cardinality
/// order as bound joins: the already-found bindings of a shared variable
/// are shipped in VALUES blocks, every (block, endpoint) fetch of one
/// bound join in a single request wave. Unlike Algorithm 3, line 13, no
/// source refinement runs first: an exact one costs as much as the bound
/// join it guards, and an endpoint with no match already answers that
/// join with an empty block. The global join runs as a parallel
/// partitioned hash join in the order chosen by the DP join optimizer;
/// `pool` runs only those join partitions, never an endpoint request.
/// Each request wave adds a round trip to the profile (fed::RequestWave).
class SapeExecutor {
 public:
  SapeExecutor(const fed::Federation* federation, ThreadPool* pool,
               const LusailOptions* options)
      : federation_(federation), pool_(pool), options_(options) {}

  /// Executes `subqueries` over `triples` and returns the joined binding
  /// table (all subquery projections merged). With options.enable_sape
  /// false, every subquery runs concurrently (no delaying) and results
  /// are joined at the federator — the paper's "LADE only" mode.
  /// The token is checked before every endpoint fetch (queued fetches of
  /// a fired token skip the wire), after every request wave, and around
  /// every global-join step, so execution unwinds with kTimeout within
  /// one wave of it firing.
  ///
  /// `row_limit` > 0 is a pushdown hint: the caller needs any `row_limit`
  /// rows (top-level LIMIT, no ORDER BY/DISTINCT, nothing downstream that
  /// filters rows). It applies only in whole-query mode (one subquery):
  /// the generated subquery gets a LIMIT clause and a row budget cancels
  /// the not-yet-started endpoint fetches once the union is satisfied.
  /// Multi-subquery plans ignore the hint — a join can discard rows, so
  /// no per-subquery limit is provably safe there.
  Result<fed::BindingTable> Execute(
      std::vector<Subquery> subqueries,
      const std::vector<sparql::TriplePattern>& triples,
      fed::SharedDictionary* dict, fed::MetricsCollector* metrics,
      const CancelToken& cancel, fed::ExecutionProfile* profile = nullptr,
      size_t row_limit = 0);

 private:
  /// One endpoint fetch on the request pool. Its rows union into table
  /// `slot` of the wave it belongs to.
  struct Fetch {
    size_t slot;
    int endpoint;
    std::future<Result<fed::BindingTable>> result;
  };

  /// Runs one unbound subquery at all of its relevant endpoints as one
  /// wave and unions the results in `dict`'s id space. Requests are
  /// traced as children of `trace_parent` (the subquery's span) — an
  /// explicit parent, because requests run on request-pool threads while
  /// the collector's default parent tracks the caller's current phase.
  /// `row_limit` > 0 appends a LIMIT clause to the generated text (any
  /// `row_limit` rows satisfy the caller) and arms a row budget: once the
  /// running union holds that many rows, a budget token fires and every
  /// fetch still queued behind it returns an empty table instead of
  /// touching the wire. In-flight requests are not interrupted — the
  /// budget is a cutoff for upstream work, not a failure.
  Result<fed::BindingTable> RunEverywhere(
      const Subquery& sq, const std::vector<sparql::TriplePattern>& triples,
      fed::SharedDictionary* dict, fed::MetricsCollector* metrics,
      const CancelToken& cancel, obs::SpanId trace_parent = 0,
      size_t row_limit = 0);

  /// Submits one FetchEndpoint of `text` per source of `sq` to the
  /// request pool without waiting, appending the fetches (tagged `slot`)
  /// to `wave`. A fetch that starts after `budget` fired returns an
  /// empty table with `sq`'s projection instead.
  void Submit(const Subquery& sq, size_t slot, const std::string& text,
              const std::string& cache_key, fed::SharedDictionary* dict,
              fed::MetricsCollector* metrics, const CancelToken& cancel,
              obs::SpanId trace_parent, const CancelToken& budget,
              std::vector<Fetch>* wave);

  /// Waits for every fetch of `wave` in submission order and unions its
  /// rows into `(*tables)[fetch.slot]`; `landed` runs after each fetch.
  /// Then the failures: without options.partial_results, one error that
  /// names them all (`phase` says where); with it, the dropped endpoints
  /// and every slot that lost all of its endpoints are recorded instead.
  Status Collect(std::vector<Fetch>* wave,
                 std::vector<fed::BindingTable>* tables, const char* phase,
                 fed::MetricsCollector* metrics,
                 const std::function<void(const Fetch&)>& landed = {});

  /// One endpoint request in id space, routed through the federation's
  /// shared result cache when this engine opted in (options.result_cache).
  /// `cache_key` identifies the fetch in the
  /// shared cache: the query text itself for unbound subqueries, or the
  /// base subquery text plus an id-space fingerprint of the VALUES
  /// binding block for bound (delayed-phase) fetches — so a warm serving
  /// process skips repeated bound joins too. A hit is recorded as a
  /// "cache" span instead of a request span, issues no request, and is
  /// re-encoded from the cache's string rows into `dict`. A miss goes
  /// through Federation::ExecuteEncoded, so an endpoint parsing straight
  /// into `dict` hands back ids untouched.
  Result<fed::BindingTable> FetchEndpoint(int ep, const std::string& text,
                                          const std::string& cache_key,
                                          fed::SharedDictionary* dict,
                                          fed::MetricsCollector* metrics,
                                          const CancelToken& cancel,
                                          const net::RetryPolicy* retry,
                                          obs::SpanId trace_parent);

  const fed::Federation* federation_;
  ThreadPool* pool_;
  const LusailOptions* options_;
};

}  // namespace lusail::core

#endif  // LUSAIL_CORE_SAPE_H_
