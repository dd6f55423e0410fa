#ifndef LUSAIL_CORE_OPTIONS_H_
#define LUSAIL_CORE_OPTIONS_H_

#include <cstddef>

#include "net/resilience.h"

namespace lusail::core {

/// Threshold for deciding which subqueries SAPE delays (Section 4.1,
/// evaluated in Figure 13 of the paper). A subquery is delayed when its
/// estimated cardinality (or relevant-endpoint count) exceeds the
/// threshold computed over all subqueries after Chauvenet outlier
/// rejection.
enum class DelayThreshold {
  kMu,            ///< Delay everything above the mean.
  kMuSigma,       ///< mu + sigma — the paper's default (best overall).
  kMu2Sigma,      ///< mu + 2*sigma.
  kOutliersOnly,  ///< Delay only Chauvenet-rejected outliers.
};

/// Tuning knobs of the Lusail engine. Defaults match the paper's
/// configuration.
struct LusailOptions {
  /// Threshold for delayed-subquery selection (Figure 13 ablation).
  DelayThreshold delay_threshold = DelayThreshold::kMuSigma;

  /// When false, SAPE is disabled: all subqueries are evaluated
  /// concurrently with no delaying/bound joins and joined at the
  /// federator. This is the "LADE only" configuration of Figure 14.
  bool enable_sape = true;

  /// Use the ASK + check-query cache (Figure 12's with/without-cache
  /// profiles toggle this). Also gates the federation-attached shared
  /// cache::FederationCache (verdict + COUNT tiers) when one is set.
  bool use_cache = true;

  /// Memoize non-delayed subquery result tables in the federation's
  /// shared cache (tier 3). Off by default: result reuse is only sound
  /// while the underlying stores do not mutate (or are invalidated via
  /// FederationCache::Invalidate). No effect without an attached cache.
  bool result_cache = false;

  /// Push endpoint-local OPTIONAL blocks into subqueries when the
  /// locality analysis allows it (Section 3's FILTER/OPTIONAL placement).
  /// Off = every OPTIONAL left-joins at the federator.
  bool enable_optional_pushdown = true;

  /// Number of bindings per VALUES block in bound joins of delayed
  /// subqueries. All blocks of one bound join go out as one request wave.
  size_t bound_join_block_size = 50;

  /// Worker threads of the engine's CPU pool, which runs only join
  /// partitions (SAPE's partitioned hash join, the group combiner's UNION
  /// joins). 0 = ThreadPool's default, max(8, hardware concurrency).
  /// Endpoint requests never run here: they go to the federation's
  /// request pool (fed::Federation::SubmitRequest, fed::kRequestThreads).
  size_t num_threads = 0;

  /// Maximum probe ranges per join: a join with enough work
  /// (core::kJoinParallelWork) splits its left rows into at most this
  /// many ranges on the engine pool. The DP join-order cost model reads
  /// it too.
  size_t join_partitions = 8;

  /// Client-side retry policy for every endpoint request this engine
  /// issues (ASK probes, check queries, COUNT probes, subqueries). The
  /// default (max_attempts = 1) is the fail-stop behaviour of the paper's
  /// setup; enable retries (e.g. net::RetryPolicy::Standard()) to ride
  /// out transient endpoint failures. Retries engage the federation's
  /// per-endpoint circuit breakers and never sleep past the query
  /// deadline.
  net::RetryPolicy retry_policy;

  /// Record a span trace of every execution (phases, subqueries, endpoint
  /// requests, retry attempts) into ExecutionProfile::trace. Off by
  /// default: when disabled no tracer exists and no spans are allocated,
  /// so the overhead is a handful of null-pointer checks per request.
  bool trace = false;

  /// When true, an endpoint that stays down past the retry budget is
  /// *dropped* instead of failing the query: its contribution to each
  /// subquery's per-endpoint union is skipped and the degradation is
  /// reported in ExecutionProfile (partial, failed_endpoint_ids,
  /// subqueries_dropped). The result is then a lower bound of the exact
  /// answer. When false (default) such failures abort the query with an
  /// aggregated multi-endpoint error.
  bool partial_results = false;
};

}  // namespace lusail::core

#endif  // LUSAIL_CORE_OPTIONS_H_
