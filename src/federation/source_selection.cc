#include "federation/source_selection.h"

#include <algorithm>
#include <future>

#include "cache/federation_cache.h"
#include "net/replica.h"
#include "shard/sharded_endpoint.h"
#include "sparql/probe.h"

namespace lusail::fed {

std::string PatternCacheKey(const sparql::TriplePattern& tp,
                            const std::string& endpoint_id) {
  auto slot = [](const sparql::TermOrVar& tv) {
    return tv.is_variable() ? std::string("?") : tv.term().ToString();
  };
  return endpoint_id + "|" + slot(tp.s) + " " + slot(tp.p) + " " + slot(tp.o);
}

Result<std::vector<std::vector<int>>> SourceSelector::SelectSources(
    const std::vector<sparql::TriplePattern>& patterns,
    MetricsCollector* metrics, const Deadline& deadline, bool use_cache,
    const net::RetryPolicy* retry, bool tolerate_failures) {
  const size_t num_eps = federation_->size();
  std::vector<std::vector<int>> sources(patterns.size());

  struct Probe {
    size_t pattern;
    size_t endpoint;
    std::string cache_key;
    std::future<Result<bool>> result;
  };
  std::vector<Probe> probes;

  // Replica-group / shard health consult: a group whose every replica
  // has an open breaker — or a sharded endpoint whose every shard is
  // known-dead — cannot answer a probe, so don't spend deadline budget
  // asking. Evaluated once per endpoint, not per pattern.
  std::vector<bool> group_dead(num_eps, false);
  for (size_t ei = 0; ei < num_eps; ++ei) {
    if (const auto* group =
            dynamic_cast<const net::ReplicaGroup*>(federation_->endpoint(ei))) {
      group_dead[ei] = !group->HasAvailableReplica();
    } else if (const auto* sharded = dynamic_cast<const shard::ShardedEndpoint*>(
                   federation_->endpoint(ei))) {
      group_dead[ei] = !sharded->HasAvailableShard();
    }
  }

  cache::FederationCache* shared =
      use_cache ? federation_->query_cache() : nullptr;
  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    for (size_t ei = 0; ei < num_eps; ++ei) {
      std::string key = PatternCacheKey(patterns[pi], federation_->id(ei));
      if (use_cache) {
        std::optional<bool> cached = cache_->Get(key);
        if (!cached.has_value() && shared != nullptr) {
          cached = shared->GetVerdict(key);
          // Warm the per-engine cache so repeats stay off the shared lock.
          if (cached.has_value()) cache_->Put(key, *cached);
        }
        if (cached.has_value()) {
          if (*cached) sources[pi].push_back(static_cast<int>(ei));
          continue;
        }
      }
      if (group_dead[ei]) {
        if (tolerate_failures) {
          // Same conservative keep as a failed probe, without issuing it:
          // execution-time failover decides the endpoint's fate.
          sources[pi].push_back(static_cast<int>(ei));
          continue;
        }
        return Status::Unavailable(
            "every replica of " + federation_->id(ei) +
            " has an open circuit breaker; source selection cannot probe it");
      }
      Probe probe;
      probe.pattern = pi;
      probe.endpoint = ei;
      probe.cache_key = std::move(key);
      std::string text = sparql::AskQueryText(patterns[pi]);
      probe.result = federation_->SubmitRequest(
          [this, ei, text = std::move(text), metrics, deadline, retry]() {
            return federation_->Ask(ei, text, metrics, deadline, retry);
          });
      probes.push_back(std::move(probe));
    }
  }

  std::vector<std::pair<size_t, Status>> failures;
  for (Probe& probe : probes) {
    Result<bool> answer = probe.result.get();
    if (!answer.ok()) {
      if (tolerate_failures) {
        // Unreachable endpoint: conservatively assume it is relevant (and
        // leave it uncached) so it is retried/dropped at execution time.
        sources[probe.pattern].push_back(static_cast<int>(probe.endpoint));
      } else {
        failures.emplace_back(probe.endpoint, answer.status());
      }
      continue;
    }
    cache_->Put(probe.cache_key, *answer);
    if (shared != nullptr) {
      shared->PutVerdict(probe.cache_key, federation_->id(probe.endpoint),
                         *answer);
    }
    if (*answer) sources[probe.pattern].push_back(static_cast<int>(probe.endpoint));
  }
  if (!failures.empty()) {
    std::string msg = std::to_string(failures.size()) + " of " +
                      std::to_string(probes.size()) +
                      " source-selection probes failed (endpoints: ";
    std::vector<std::string> ids;
    for (const auto& [ei, status] : failures) {
      std::string id = federation_->id(ei);
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(std::move(id));
      }
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i > 0) msg += ", ";
      msg += ids[i];
    }
    msg += "); first: " + failures.front().second.ToString();
    return Status(failures.front().second.code(), std::move(msg));
  }

  // Conservative keeps may duplicate endpoints already found relevant.
  for (auto& list : sources) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  return sources;
}

}  // namespace lusail::fed
