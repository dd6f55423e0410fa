#ifndef LUSAIL_BASELINES_ANAPSID_ENGINE_H_
#define LUSAIL_BASELINES_ANAPSID_ENGINE_H_

#include <string>
#include <vector>

#include "federation/binding_table.h"
#include "federation/federation.h"
#include "federation/source_selection.h"
#include "sparql/parser.h"

namespace lusail::baselines {

/// ANAPSID configuration.
struct AnapsidOptions {
  bool use_cache = true;

  /// Client-side retry policy for endpoint requests (same decorator the
  /// Lusail engine uses). Disabled (fail-stop) by default.
  net::RetryPolicy retry_policy;

  /// Record a span trace into ExecutionProfile::trace (same format as
  /// Lusail's, so engine traces are comparable side by side).
  bool trace = false;
};

/// ANAPSID-style adaptive federated engine (Acosta et al., ISWC 2011) —
/// the adaptive system from the paper's related work (Section 6).
///
/// Decomposition follows ANAPSID's *star-shaped groups*: triple patterns
/// sharing a subject variable and the same relevant-source list form one
/// group, shipped whole to each relevant endpoint. Execution is
/// *adaptive and non-blocking*: every (group, endpoint) request is
/// dispatched concurrently, and groups are joined in completion order —
/// whichever endpoint answers first gets processed first (the in-process
/// analogue of ANAPSID's agjoin operator, which hides endpoint latency
/// and bursty traffic). Like FedX it is index-free (ASK + cache); unlike
/// FedX nothing is evaluated one-triple-pattern-at-a-time sequentially.
///
/// This engine is an *extension* beyond the paper's evaluated lineup
/// (the paper compares against FedX, HiBISCuS, SPLENDID only); it is
/// wired into the consistency test suite and available to benches.
class AnapsidEngine : public fed::FederatedEngine {
 public:
  explicit AnapsidEngine(const fed::Federation* federation,
                         AnapsidOptions options = AnapsidOptions());

  std::string name() const override { return "ANAPSID"; }

  Result<fed::FederatedResult> Execute(const std::string& sparql_text,
                                       const Deadline& deadline) override;
  using fed::FederatedEngine::Execute;

  void ClearCaches() { ask_cache_.Clear(); }

 private:
  /// A star-shaped group: patterns sharing a subject and source list.
  struct StarGroup {
    std::vector<sparql::TriplePattern> triples;
    std::vector<int> sources;
    std::vector<sparql::Expr> filters;
  };

  /// Groups the patterns into stars and pushes each filter into the
  /// first star covering its variables; the rest are appended to
  /// `residual_filters`.
  static std::vector<StarGroup> BuildStarGroups(
      const std::vector<sparql::TriplePattern>& triples,
      const std::vector<std::vector<int>>& sources,
      const std::vector<sparql::Expr>& filters,
      std::vector<const sparql::Expr*>* residual_filters);

  Result<fed::BindingTable> ExecutePattern(const sparql::GraphPattern& pattern,
                                           fed::SharedDictionary* dict,
                                           fed::MetricsCollector* metrics,
                                           const Deadline& deadline,
                                           fed::ExecutionProfile* profile);

  /// The engine's retry policy, or null when retries are disabled.
  const net::RetryPolicy* Retry() const {
    return options_.retry_policy.enabled() ? &options_.retry_policy : nullptr;
  }

  const fed::Federation* federation_;
  AnapsidOptions options_;
  fed::AskCache ask_cache_;
};

}  // namespace lusail::baselines

#endif  // LUSAIL_BASELINES_ANAPSID_ENGINE_H_
