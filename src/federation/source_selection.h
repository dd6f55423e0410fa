#ifndef LUSAIL_FEDERATION_SOURCE_SELECTION_H_
#define LUSAIL_FEDERATION_SOURCE_SELECTION_H_

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "federation/federation.h"
#include "sparql/ast.h"

namespace lusail::fed {

/// Thread-safe boolean cache keyed by arbitrary strings. Lusail and FedX
/// share this structure for caching ASK source-selection probes; Lusail
/// additionally caches the outcomes of its locality check queries
/// (Section 3.1 / Figure 12 of the paper measure the effect of this
/// cache).
class AskCache {
 public:
  AskCache() = default;
  AskCache(const AskCache&) = delete;
  AskCache& operator=(const AskCache&) = delete;

  std::optional<bool> Get(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  void Put(const std::string& key, bool value) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[key] = value;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, bool> entries_;
};

/// Cache key for a triple pattern at an endpoint; variable *names* are
/// erased (only the variable positions matter for an ASK probe).
std::string PatternCacheKey(const sparql::TriplePattern& tp,
                            const std::string& endpoint_id);

/// ASK-based source selection shared by Lusail and the FedX baseline:
/// every triple pattern is probed at every endpoint (in parallel through
/// the federation's request pool), except where the cache already knows
/// the answer. SelectSources waits for its probes on the caller's thread.
class SourceSelector {
 public:
  SourceSelector(const Federation* federation, AskCache* cache)
      : federation_(federation), cache_(cache) {}

  /// Returns, per triple pattern, the sorted list of endpoint indices
  /// with at least one matching triple. `use_cache=false` forces fresh
  /// probes (and still populates the cache). Probes go through `retry`
  /// when given. A failed probe normally fails the selection (with every
  /// failure aggregated into one status); with `tolerate_failures` the
  /// endpoint is conservatively kept as relevant instead (uncached), so a
  /// flaky endpoint degrades at execution time rather than silently
  /// losing sources here.
  Result<std::vector<std::vector<int>>> SelectSources(
      const std::vector<sparql::TriplePattern>& patterns,
      MetricsCollector* metrics, const Deadline& deadline, bool use_cache,
      const net::RetryPolicy* retry = nullptr,
      bool tolerate_failures = false);

 private:
  const Federation* federation_;
  AskCache* cache_;
};

}  // namespace lusail::fed

#endif  // LUSAIL_FEDERATION_SOURCE_SELECTION_H_
