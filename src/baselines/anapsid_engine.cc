#include "baselines/anapsid_engine.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <set>

#include "core/group_pattern.h"
#include "core/solution_modifiers.h"
#include "sparql/serializer.h"

namespace lusail::baselines {

namespace {

using fed::BindingTable;
using sparql::TriplePattern;

std::vector<std::string> GroupVars(const std::vector<TriplePattern>& triples) {
  std::vector<std::string> out;
  for (const TriplePattern& tp : triples) {
    for (const std::string& v : tp.VariableNames()) {
      if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
    }
  }
  return out;
}

std::string GroupSparql(const std::vector<TriplePattern>& triples,
                        const std::vector<sparql::Expr>& filters) {
  sparql::Query q;
  q.form = sparql::QueryForm::kSelect;
  for (const std::string& v : GroupVars(triples)) {
    q.projection.push_back(sparql::Variable{v});
  }
  q.where.triples = triples;
  q.where.filters = filters;
  return sparql::QueryToString(q);
}

}  // namespace

AnapsidEngine::AnapsidEngine(const fed::Federation* federation,
                             AnapsidOptions options)
    : federation_(federation),
      options_(options) {}

std::vector<AnapsidEngine::StarGroup> AnapsidEngine::BuildStarGroups(
    const std::vector<TriplePattern>& triples,
    const std::vector<std::vector<int>>& sources,
    const std::vector<sparql::Expr>& filters,
    std::vector<const sparql::Expr*>* residual_filters) {
  // Key: (subject vertex, source list). Patterns with a constant or
  // distinct subject each start their own group.
  std::map<std::pair<std::string, std::vector<int>>, StarGroup> stars;
  std::vector<StarGroup> groups;
  for (size_t i = 0; i < triples.size(); ++i) {
    std::string subject = triples[i].s.ToString();
    StarGroup& group = stars[{subject, sources[i]}];
    group.triples.push_back(triples[i]);
    group.sources = sources[i];
  }
  groups.reserve(stars.size());
  for (auto& [key, group] : stars) groups.push_back(std::move(group));

  for (const sparql::Expr& f : filters) {
    std::set<std::string> fvars;
    f.CollectVariables(&fvars);
    bool pushed = false;
    for (StarGroup& group : groups) {
      std::vector<std::string> gv = GroupVars(group.triples);
      bool covered =
          std::all_of(fvars.begin(), fvars.end(), [&](const auto& v) {
            return std::find(gv.begin(), gv.end(), v) != gv.end();
          });
      if (covered) {
        group.filters.push_back(f);
        pushed = true;
        break;
      }
    }
    if (!pushed) residual_filters->push_back(&f);
  }
  return groups;
}

Result<BindingTable> AnapsidEngine::ExecutePattern(
    const sparql::GraphPattern& pattern, fed::SharedDictionary* dict,
    fed::MetricsCollector* metrics, const Deadline& deadline,
    fed::ExecutionProfile* profile) {
  core::GroupTail tail = core::GroupTail::Of(pattern);
  Stopwatch timer;
  auto combine = [&](BindingTable bgp) {
    Result<BindingTable> out = core::CombineGroup(
        std::move(bgp), tail,
        [&](const sparql::GraphPattern& block) {
          return ExecutePattern(block, dict, metrics, deadline, profile);
        },
        dict);
    profile->execution_ms += timer.ElapsedMillis();
    return out;
  };
  if (pattern.triples.empty()) return combine(core::UnitTable());

  fed::PhaseSpan source_span(metrics, "source selection");
  fed::SourceSelector selector(federation_, &ask_cache_);
  LUSAIL_ASSIGN_OR_RETURN(
      std::vector<std::vector<int>> sources,
      selector.SelectSources(pattern.triples, metrics, deadline,
                             options_.use_cache, Retry()));
  source_span.End();
  profile->source_selection_ms += timer.ElapsedMillis();

  timer.Restart();
  fed::PhaseSpan exec_span(metrics, "adaptive execution");
  for (size_t i = 0; i < pattern.triples.size(); ++i) {
    if (sources[i].empty()) {
      BindingTable empty;
      std::set<std::string> vars;
      pattern.CollectVariables(&vars);
      empty.vars.assign(vars.begin(), vars.end());
      return empty;
    }
  }

  tail.filters.clear();
  std::vector<StarGroup> groups = BuildStarGroups(
      pattern.triples, sources, pattern.filters, &tail.filters);

  // Adaptive phase: dispatch every (group, endpoint) request at once on
  // the federation's request pool.
  struct Fetch {
    size_t group;
    std::future<Result<sparql::ResultTable>> result;
  };
  std::vector<Fetch> fetches;
  for (size_t g = 0; g < groups.size(); ++g) {
    std::string text = GroupSparql(groups[g].triples, groups[g].filters);
    for (int ep : groups[g].sources) {
      Fetch fetch;
      fetch.group = g;
      fetch.result =
          federation_->SubmitRequest([this, ep, text, metrics, deadline]() {
            return federation_->Execute(static_cast<size_t>(ep), text,
                                        metrics, deadline, Retry());
          });
      fetches.push_back(std::move(fetch));
    }
  }

  // agjoin-style routing: consume responses in completion order; a
  // group's table joins into the running result the moment its last
  // endpoint answered.
  std::vector<BindingTable> group_tables(groups.size());
  std::vector<size_t> outstanding(groups.size(), 0);
  for (size_t g = 0; g < groups.size(); ++g) {
    group_tables[g].vars = GroupVars(groups[g].triples);
    outstanding[g] = groups[g].sources.size();
  }
  std::vector<BindingTable> ready;
  // Memory-footprint proxy: all rows held across the partial group
  // tables and the ready-to-join tables (matches what SAPE and FedX
  // report, so the engines' peaks are comparable).
  auto track_peak = [&]() {
    uint64_t total = 0;
    for (const BindingTable& t : group_tables) total += t.NumRows();
    for (const BindingTable& t : ready) total += t.NumRows();
    profile->peak_intermediate_rows =
        std::max(profile->peak_intermediate_rows, total);
  };
  std::vector<bool> done(fetches.size(), false);
  size_t remaining = fetches.size();
  Status first_error;
  while (remaining > 0) {
    // Poll for any completed future (completion-order processing).
    bool progressed = false;
    for (size_t i = 0; i < fetches.size(); ++i) {
      if (done[i]) continue;
      if (fetches[i].result.wait_for(std::chrono::milliseconds(0)) !=
          std::future_status::ready) {
        continue;
      }
      done[i] = true;
      --remaining;
      progressed = true;
      Result<sparql::ResultTable> part = fetches[i].result.get();
      if (!part.ok()) {
        if (first_error.ok()) first_error = part.status();
        continue;
      }
      size_t g = fetches[i].group;
      core::AppendUnionIds(&group_tables[g],
                           core::EncodeResultTable(*part, dict));
      track_peak();
      if (--outstanding[g] == 0) {
        ready.push_back(std::move(group_tables[g]));
        // Opportunistically join with any connected ready table.
        bool merged = true;
        while (merged && ready.size() > 1) {
          merged = false;
          for (size_t a = 0; a < ready.size() && !merged; ++a) {
            for (size_t b = a + 1; b < ready.size() && !merged; ++b) {
              if (!BindingTable::SharedVars(ready[a], ready[b]).empty()) {
                ready[a] = fed::HashJoin(ready[a], ready[b]);
                ready.erase(ready.begin() + b);
                merged = true;
              }
            }
          }
        }
        track_peak();
      }
    }
    if (!progressed && remaining > 0) {
      // Nothing ready yet: block briefly on the first unfinished future.
      for (size_t i = 0; i < fetches.size(); ++i) {
        if (!done[i]) {
          fetches[i].result.wait_for(std::chrono::milliseconds(1));
          break;
        }
      }
    }
  }
  if (!first_error.ok()) return first_error;

  // Cartesian-combine any disjoint leftovers.
  while (ready.size() > 1) {
    ready[0] = fed::HashJoin(ready[0], ready[1]);
    ready.erase(ready.begin() + 1);
    track_peak();
  }
  return combine(ready.empty() ? BindingTable() : std::move(ready[0]));
}

Result<fed::FederatedResult> AnapsidEngine::Execute(
    const std::string& sparql_text, const Deadline& deadline) {
  Stopwatch total_timer;
  LUSAIL_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(sparql_text));

  fed::FederatedResult result;
  fed::MetricsCollector metrics;
  fed::QueryTrace trace(options_.trace, name(), &metrics);
  fed::SharedDictionary dict;

  Result<BindingTable> table_or =
      ExecutePattern(query.where, &dict, &metrics, deadline, &result.profile);
  if (!table_or.ok()) {
    metrics.FillCounters(&result.profile);
    trace.Attach(&result.profile);
    return table_or.status();
  }

  result.table = core::DecodeIdTable(
      core::FinishSolutions(std::move(table_or).value(), query, &dict), dict);

  metrics.FillCounters(&result.profile);
  result.profile.total_ms = total_timer.ElapsedMillis();
  trace.Attach(&result.profile);
  return result;
}

}  // namespace lusail::baselines
