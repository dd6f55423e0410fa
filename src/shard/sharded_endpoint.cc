#include "shard/sharded_endpoint.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>

#include "core/solution_modifiers.h"
#include "net/replica.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "sparql/parser.h"
#include "sparql/probe.h"
#include "sparql/serializer.h"

namespace lusail::shard {

using core::IdTable;
using net::QueryResponse;

/// Per-query scatter bookkeeping shared between the gather thread and the
/// pool tasks it fans out.
struct ShardedEndpoint::ScatterContext {
  std::mutex mu;
  size_t request_bytes = 0;
  size_t response_bytes = 0;
  double network_ms = 0.0;
  double server_ms = 0.0;
  bool over_network = false;
  std::set<std::string> degraded;  ///< Member ids dropped (partial mode).

  /// Caller-thread trace context, copied by value so pool tasks can open
  /// "shard request" spans under the federation's request span.
  bool have_trace = false;
  obs::TraceContext trace;
};

namespace {

/// Subject slot rendered as a grouping key: "?name" or the term text.
std::string SubjectKey(const sparql::TriplePattern& tp) {
  return tp.s.ToString();
}

}  // namespace

ShardedEndpoint::ShardedEndpoint(
    std::string id, ShardMap map,
    std::vector<std::shared_ptr<net::Endpoint>> members,
    ShardedEndpointOptions options)
    : id_(std::move(id)),
      map_(std::move(map)),
      members_(std::move(members)),
      options_(options),
      dict_(std::make_shared<core::TermDictionary>()),
      pool_(options.own_pool_threads) {
  member_ids_.reserve(members_.size());
  for (size_t i = 0; i < members_.size(); ++i) {
    member_ids_.push_back(members_[i] != nullptr ? members_[i]->id()
                                                 : id_ + "#" +
                                                       std::to_string(i));
  }
  if (options_.cache != nullptr) {
    options_.cache->RegisterMemberIds(id_, member_ids_);
  }
}

const std::string& ShardedEndpoint::member_id(size_t i) const {
  return member_ids_[i];
}

std::vector<std::string> ShardedEndpoint::MemberIds() const {
  return member_ids_;
}

bool ShardedEndpoint::HasAvailableShard() const {
  for (const auto& member : members_) {
    if (member == nullptr) continue;
    if (const auto* group =
            dynamic_cast<const net::ReplicaGroup*>(member.get())) {
      if (group->HasAvailableReplica()) return true;
      continue;
    }
    return true;  // Plain endpoints have no breaker state to consult.
  }
  return false;
}

ShardedEndpointStats ShardedEndpoint::stats() const {
  ShardedEndpointStats s;
  s.queries = queries_.load();
  s.fanout_requests = fanout_requests_.load();
  s.pruned_shards = pruned_shards_.load();
  s.single_shard_queries = single_shard_queries_.load();
  s.ask_short_circuits = ask_short_circuits_.load();
  s.partial_queries = partial_queries_.load();
  s.shard_failures = shard_failures_.load();
  return s;
}

void ShardedEndpoint::ExportMetrics(obs::MetricsSnapshot* snapshot) const {
  obs::MetricLabels labels{{"endpoint", id_}};
  ShardedEndpointStats s = stats();
  snapshot->AddCounter("lusail_shard_queries_total",
                       "Queries handled by the sharded endpoint.", labels,
                       static_cast<double>(s.queries));
  snapshot->AddCounter("lusail_shard_fanout_total",
                       "Shard member requests issued by scatter-gather.",
                       labels, static_cast<double>(s.fanout_requests));
  snapshot->AddCounter(
      "lusail_shard_pruned_total",
      "(star, shard) pairs skipped by subject routing, VALUES routing, or "
      "cached false verdicts.",
      labels, static_cast<double>(s.pruned_shards));
  snapshot->AddCounter("lusail_shard_single_total",
                       "Queries routed to exactly one shard.", labels,
                       static_cast<double>(s.single_shard_queries));
  snapshot->AddCounter(
      "lusail_shard_ask_short_circuit_total",
      "ASK queries answered from cached verdicts with zero requests.",
      labels, static_cast<double>(s.ask_short_circuits));
  snapshot->AddCounter("lusail_shard_partial_total",
                       "Queries that dropped at least one shard member.",
                       labels, static_cast<double>(s.partial_queries));
  snapshot->AddCounter("lusail_shard_failures_total",
                       "Shard member requests that failed.", labels,
                       static_cast<double>(s.shard_failures));
}

// --- Planning -------------------------------------------------------------

void ShardedEndpoint::BuildPlan(const sparql::GraphPattern& pattern,
                                Plan* plan) {
  plan->pattern = &pattern;
  plan->tail = core::GroupTail::Of(pattern);
  plan->tail.filters.clear();
  plan->tail.values.clear();

  // Stars: triples grouped by subject slot, in first-appearance order.
  std::vector<std::string> keys;
  for (const sparql::TriplePattern& tp : pattern.triples) {
    std::string key = SubjectKey(tp);
    size_t si = 0;
    for (; si < keys.size(); ++si) {
      if (keys[si] == key) break;
    }
    if (si == keys.size()) {
      keys.push_back(key);
      plan->stars.emplace_back();
    }
    StarGroup& star = plan->stars[si];
    star.triples.push_back(tp);
    for (const std::string& v : tp.VariableNames()) star.vars.insert(v);
  }

  // Filters: pushed into the one star that binds all their variables
  // (star variables are always triple-bound, so early evaluation is
  // exact); the rest run at the gather after OPTIONAL joins.
  for (const sparql::Expr& filter : pattern.filters) {
    std::set<std::string> fvars;
    filter.CollectVariables(&fvars);
    bool pushed = false;
    for (StarGroup& star : plan->stars) {
      if (std::includes(star.vars.begin(), star.vars.end(), fvars.begin(),
                        fvars.end())) {
        star.filters.push_back(filter);
        pushed = true;
        break;
      }
    }
    if (!pushed) plan->tail.filters.push_back(&filter);
  }

  // VALUES: pushed into every star that binds all the block's variables
  // (it can only restrict that star), or joined at the gather.
  for (const sparql::ValuesClause& vc : pattern.values) {
    std::set<std::string> vvars;
    for (const sparql::Variable& v : vc.vars) vvars.insert(v.name);
    bool pushed = false;
    for (StarGroup& star : plan->stars) {
      if (std::includes(star.vars.begin(), star.vars.end(), vvars.begin(),
                        vvars.end())) {
        star.values.push_back(vc);
        pushed = true;
        break;
      }
    }
    if (!pushed) plan->tail.values.push_back(&vc);
  }

  // Nested groups: planned the same way, whatever their shape. An
  // OPTIONAL's FILTERs over variables its triples do not bind are its
  // left-join condition, checked at the gather: the plan is its body.
  auto plan_nested = [plan](const sparql::GraphPattern& block) {
    plan->nested.emplace_back();
    BuildPlan(block, &plan->nested.back());
  };
  for (const sparql::GraphPattern& opt : pattern.optionals) {
    plan_nested(plan->tail.OptionalBody(opt));
  }
  for (const auto& chain : pattern.unions) {
    for (const sparql::GraphPattern& alt : chain) plan_nested(alt);
  }
  for (const sparql::ExistsFilter& ef : pattern.exists_filters) {
    plan_nested(ef.pattern);
  }
}

void ShardedEndpoint::RoutePlan(Plan* plan) {
  const size_t n = NumShards();
  for (StarGroup& star : plan->stars) {
    std::vector<size_t> candidates;
    const sparql::TermOrVar& subject = star.triples.front().s;
    if (subject.is_term()) {
      candidates.push_back(map_.ShardOfSubject(subject.term()));
    } else {
      // A pushed VALUES block binding exactly the subject variable (all
      // rows bound) names the owning shards outright.
      const std::string& sname = subject.var().name;
      bool routed = false;
      for (const sparql::ValuesClause& vc : star.values) {
        if (vc.vars.size() != 1 || vc.vars[0].name != sname) continue;
        std::set<size_t> owners;
        bool all_bound = true;
        for (const auto& row : vc.rows) {
          if (row.empty() || !row[0].has_value()) {
            all_bound = false;
            break;
          }
          owners.insert(map_.ShardOfSubject(*row[0]));
        }
        if (all_bound) {
          candidates.assign(owners.begin(), owners.end());
          routed = true;
        }
        break;
      }
      if (!routed) {
        candidates.resize(n);
        std::iota(candidates.begin(), candidates.end(), 0);
      }
    }
    if (options_.cache != nullptr) {
      std::vector<size_t> alive;
      for (size_t shard : candidates) {
        bool dead = false;
        for (const sparql::TriplePattern& tp : star.triples) {
          auto verdict = options_.cache->GetVerdict(
              cache::FederationCache::Key(member_ids_[shard],
                                         sparql::AskQueryText(tp)));
          if (verdict.has_value() && !*verdict) {
            dead = true;
            break;
          }
        }
        if (!dead) alive.push_back(shard);
      }
      candidates = std::move(alive);
    }
    pruned_shards_.fetch_add(n - candidates.size());
    star.shards = std::move(candidates);
  }
  for (Plan& sub : plan->nested) RoutePlan(&sub);
}

// --- Scatter --------------------------------------------------------------

Result<QueryResponse> ShardedEndpoint::IssueShardRequest(
    size_t shard, const std::string& text, const CancelToken& cancel,
    ScatterContext* ctx) {
  fanout_requests_.fetch_add(1);
  obs::SpanId span = 0;
  std::optional<obs::TraceContextScope> scope;
  if (ctx->have_trace && ctx->trace.tracer != nullptr) {
    span = ctx->trace.tracer->StartSpan("shard request", "shard",
                                        ctx->trace.parent);
    ctx->trace.tracer->Annotate(span, "shard.member", member_ids_[shard]);
    scope.emplace(
        obs::TraceContext{ctx->trace.tracer, ctx->trace.trace_id, span});
  }
  Result<QueryResponse> result = members_[shard]->QueryCancellable(text, cancel);
  if (span != 0) {
    obs::Tracer* tracer = ctx->trace.tracer.get();
    if (result.ok()) {
      tracer->Annotate(span, "rows",
                       static_cast<uint64_t>(result->RowCount()));
    } else {
      tracer->Annotate(span, "error", result.status().message());
    }
    tracer->EndSpan(span);
  }
  if (result.ok()) {
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->request_bytes += result->request_bytes;
    ctx->response_bytes += result->response_bytes;
    ctx->network_ms += result->network_ms;
    ctx->server_ms += result->server_ms;
    ctx->over_network = ctx->over_network || result->transport.over_network;
  } else {
    shard_failures_.fetch_add(1);
  }
  return result;
}

std::vector<Result<QueryResponse>> ShardedEndpoint::RunScatter(
    const std::vector<std::pair<size_t, std::string>>& jobs,
    const CancelToken& cancel, ScatterContext* ctx) {
  std::vector<std::future<Result<QueryResponse>>> futures;
  futures.reserve(jobs.size());
  for (const auto& [shard, text] : jobs) {
    futures.push_back(pool_.Submit(
        [this, shard = shard, text = text, cancel, ctx]() {
          return IssueShardRequest(shard, text, cancel, ctx);
        }));
  }
  std::vector<Result<QueryResponse>> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

IdTable ShardedEndpoint::EncodeResponse(const QueryResponse& response) const {
  if (response.ids != nullptr) {
    if (response.ids_dict.get() == dict_.get()) return *response.ids;
    if (response.ids_dict != nullptr) {
      return core::EncodeResultTable(
          core::DecodeIdTable(*response.ids, *response.ids_dict),
          dict_.get());
    }
  }
  return core::EncodeResultTable(response.table, dict_.get());
}

QueryResponse ShardedEndpoint::MakeResponse(ScatterContext* ctx) {
  QueryResponse response;
  std::lock_guard<std::mutex> lock(ctx->mu);
  response.request_bytes = ctx->request_bytes;
  response.response_bytes = ctx->response_bytes;
  response.network_ms = ctx->network_ms;
  response.server_ms = ctx->server_ms;
  response.transport.over_network = ctx->over_network;
  response.degraded_members.assign(ctx->degraded.begin(),
                                   ctx->degraded.end());
  return response;
}

// --- Gather ---------------------------------------------------------------

Result<IdTable> ShardedEndpoint::EvaluatePlan(const Plan& plan,
                                              const CancelToken& cancel,
                                              ScatterContext* ctx,
                                              size_t star_limit) {
  // One scatter wave covers every (star, shard) pair of this plan level.
  std::vector<std::pair<size_t, std::string>> jobs;
  std::vector<size_t> job_star;
  for (size_t si = 0; si < plan.stars.size(); ++si) {
    const StarGroup& star = plan.stars[si];
    sparql::Query sub;
    sub.form = sparql::QueryForm::kSelect;
    sub.select_all = true;
    sub.where.triples = star.triples;
    sub.where.filters = star.filters;
    sub.where.values = star.values;
    if (star_limit > 0) sub.limit = star_limit;
    std::string text = sparql::QueryToString(sub);
    for (size_t shard : star.shards) {
      jobs.emplace_back(shard, text);
      job_star.push_back(si);
    }
  }
  std::vector<Result<QueryResponse>> results = RunScatter(jobs, cancel, ctx);

  std::vector<IdTable> star_tables(plan.stars.size());
  for (size_t si = 0; si < plan.stars.size(); ++si) {
    star_tables[si].vars.assign(plan.stars[si].vars.begin(),
                                plan.stars[si].vars.end());
  }
  for (size_t i = 0; i < results.size(); ++i) {
    Result<QueryResponse>& r = results[i];
    if (!r.ok()) {
      if (!options_.partial_results) return r.status();
      std::lock_guard<std::mutex> lock(ctx->mu);
      ctx->degraded.insert(member_ids_[jobs[i].first]);
      continue;
    }
    IdTable t = EncodeResponse(*r);
    core::AppendUnionIds(&star_tables[job_star[i]], t);
  }
  if (cancel.Cancelled()) return cancel.StatusAt("shard gather");

  // Join stars smallest-first (same heuristic as the SAPE join order).
  IdTable acc;
  if (plan.stars.empty()) {
    acc.AppendRow({});  // The unit solution: one empty binding.
  } else {
    std::vector<size_t> order(star_tables.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return star_tables[a].NumRows() < star_tables[b].NumRows();
    });
    acc = std::move(star_tables[order[0]]);
    for (size_t k = 1; k < order.size(); ++k) {
      acc = core::JoinIds(acc, star_tables[order[k]], /*left_outer=*/false);
      if (cancel.Cancelled()) return cancel.StatusAt("shard join");
    }
  }

  return core::CombineGroup(
      std::move(acc), plan.tail,
      [&](const sparql::GraphPattern& block) -> Result<IdTable> {
        for (const Plan& sub : plan.nested) {
          if (sub.pattern == &block) return EvaluatePlan(sub, cancel, ctx);
        }
        return Status::Internal("nested group without a shard plan");
      },
      dict_.get(), /*pool=*/nullptr, /*partitions=*/1, &cancel);
}

// --- Entry points ---------------------------------------------------------

Result<QueryResponse> ShardedEndpoint::QueryCancellable(
    const std::string& text, const CancelToken& cancel) {
  queries_.fetch_add(1);
  if (cancel.Cancelled()) return cancel.StatusAt("sharded endpoint request");
  LUSAIL_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(text));
  ScatterContext ctx;
  if (const obs::TraceContext* tc = obs::CurrentTraceContext()) {
    ctx.have_trace = true;
    ctx.trace = *tc;
  }
  if (query.form == sparql::QueryForm::kAsk) {
    return ExecuteAsk(query, cancel, &ctx);
  }
  return ExecuteDecomposed(query, cancel, &ctx);
}

Result<QueryResponse> ShardedEndpoint::ExecuteDecomposed(
    const sparql::Query& query, const CancelToken& cancel,
    ScatterContext* ctx) {
  Plan plan;
  BuildPlan(query.where, &plan);
  RoutePlan(&plan);
  std::set<size_t> touched;
  CollectShards(plan, &touched);
  if (touched.size() <= 1) single_shard_queries_.fetch_add(1);

  // Single-star COUNT(*): scatter the count itself and sum per-shard
  // cardinalities through the COUNT cache tier instead of shipping rows.
  if (query.aggregate.has_value() && !query.aggregate->var.has_value() &&
      !query.aggregate->distinct && plan.stars.size() == 1 &&
      plan.tail.empty()) {
    return ScatterCount(query, plan.stars.front(), cancel, ctx);
  }

  // LIMIT pushdown to the scatter: with a single star and no gather-side
  // row-dropping work, a shard never contributes more useful rows than
  // the query's pushdown bound.
  size_t star_limit = 0;
  if (plan.stars.size() == 1 && core::LimitCrossesBgp(plan.tail)) {
    star_limit = static_cast<size_t>(std::min<uint64_t>(
        core::LimitPushdownBound(query).value_or(0),
        std::numeric_limits<uint32_t>::max()));
  }

  LUSAIL_ASSIGN_OR_RETURN(IdTable acc,
                          EvaluatePlan(plan, cancel, ctx, star_limit));
  return FinishSelect(query, std::move(acc), ctx);
}

Result<QueryResponse> ShardedEndpoint::ScatterCount(
    const sparql::Query& query, const StarGroup& star,
    const CancelToken& cancel, ScatterContext* ctx) {
  sparql::Query count_query;
  count_query.form = sparql::QueryForm::kSelect;
  count_query.aggregate = query.aggregate;
  count_query.where.triples = star.triples;
  count_query.where.filters = star.filters;
  count_query.where.values = star.values;
  const std::string text = sparql::QueryToString(count_query);
  const std::string& alias = query.aggregate->alias.name;

  uint64_t total = 0;
  std::vector<std::pair<size_t, std::string>> jobs;
  for (size_t shard : star.shards) {
    if (options_.cache != nullptr) {
      auto cached = options_.cache->GetCount(
          cache::FederationCache::Key(member_ids_[shard], text));
      if (cached.has_value()) {
        total += *cached;
        continue;
      }
    }
    jobs.emplace_back(shard, text);
  }
  std::vector<Result<QueryResponse>> results = RunScatter(jobs, cancel, ctx);
  for (size_t i = 0; i < results.size(); ++i) {
    Result<QueryResponse>& r = results[i];
    if (!r.ok()) {
      if (!options_.partial_results) return r.status();
      std::lock_guard<std::mutex> lock(ctx->mu);
      ctx->degraded.insert(member_ids_[jobs[i].first]);
      continue;
    }
    // The one COUNT cell, under the alias or as the only column; no row
    // counts 0. The count becomes the answer, so a malformed one fails.
    IdTable t = EncodeResponse(*r);
    uint64_t count = 0;
    if (t.NumRows() > 0) {
      int idx = t.VarIndex(alias);
      if (idx < 0 && t.NumVars() == 1) idx = 0;
      rdf::TermId id =
          idx >= 0 ? t.At(0, static_cast<size_t>(idx)) : rdf::kInvalidTermId;
      if (id == rdf::kInvalidTermId ||
          !sparql::IsCountLiteral(dict_->term(id))) {
        return Status::Internal("shard " + member_ids_[jobs[i].first] +
                                " returned a malformed COUNT response");
      }
      count = sparql::ParseCountLiteral(dict_->term(id));
    }
    total += count;
    if (options_.cache != nullptr) {
      options_.cache->PutCount(
          cache::FederationCache::Key(member_ids_[jobs[i].first], text),
          member_ids_[jobs[i].first], count);
    }
  }
  IdTable out;
  out.vars.push_back(alias);
  out.AppendRow({dict_->Intern(rdf::Term::Integer(
      static_cast<int64_t>(total)))});
  QueryResponse response = MakeResponse(ctx);
  if (!response.degraded_members.empty()) partial_queries_.fetch_add(1);
  response.ids = std::make_shared<IdTable>(std::move(out));
  response.ids_dict = dict_;
  return response;
}

Result<QueryResponse> ShardedEndpoint::ExecuteAsk(const sparql::Query& query,
                                                  const CancelToken& cancel,
                                                  ScatterContext* ctx) {
  Plan plan;
  BuildPlan(query.where, &plan);
  RoutePlan(&plan);

  bool verdict = false;
  if (plan.stars.size() == 1 && plan.tail.empty()) {
    const StarGroup& star = plan.stars.front();
    // Canonical probe text: single clean patterns use the exact form
    // source selection caches under, so verdicts flow both ways.
    std::string ask_text;
    if (star.triples.size() == 1 && star.filters.empty() &&
        star.values.empty()) {
      ask_text = sparql::AskQueryText(star.triples.front());
    } else {
      sparql::Query ask;
      ask.form = sparql::QueryForm::kAsk;
      ask.where.triples = star.triples;
      ask.where.filters = star.filters;
      ask.where.values = star.values;
      ask_text = sparql::QueryToString(ask);
    }
    std::vector<size_t> remaining;
    for (size_t shard : star.shards) {
      if (options_.cache != nullptr) {
        auto cached = options_.cache->GetVerdict(
            cache::FederationCache::Key(member_ids_[shard], ask_text));
        if (cached.has_value()) {
          if (*cached) verdict = true;
          continue;  // Either way, no request for this shard.
        }
      }
      remaining.push_back(shard);
    }
    if (verdict || remaining.empty()) {
      // Answered entirely from cached verdicts (or full pruning).
      ask_short_circuits_.fetch_add(1);
    } else {
      std::vector<std::pair<size_t, std::string>> jobs;
      for (size_t shard : remaining) jobs.emplace_back(shard, ask_text);
      std::vector<Result<QueryResponse>> results =
          RunScatter(jobs, cancel, ctx);
      for (size_t i = 0; i < results.size(); ++i) {
        Result<QueryResponse>& r = results[i];
        if (!r.ok()) {
          if (!options_.partial_results) return r.status();
          std::lock_guard<std::mutex> lock(ctx->mu);
          ctx->degraded.insert(member_ids_[jobs[i].first]);
          continue;
        }
        bool member_verdict = r->RowCount() > 0;
        verdict = verdict || member_verdict;
        if (options_.cache != nullptr) {
          options_.cache->PutVerdict(
              cache::FederationCache::Key(member_ids_[jobs[i].first],
                                          ask_text),
              member_ids_[jobs[i].first], member_verdict);
        }
      }
    }
  } else {
    LUSAIL_ASSIGN_OR_RETURN(IdTable acc, EvaluatePlan(plan, cancel, ctx));
    verdict = acc.NumRows() > 0;
  }

  QueryResponse response = MakeResponse(ctx);
  if (!response.degraded_members.empty()) partial_queries_.fetch_add(1);
  if (verdict) response.table.rows.push_back({});
  return response;
}

Result<QueryResponse> ShardedEndpoint::FinishSelect(const sparql::Query& query,
                                                    IdTable acc,
                                                    ScatterContext* ctx) {
  QueryResponse response = MakeResponse(ctx);
  if (!response.degraded_members.empty()) partial_queries_.fetch_add(1);
  response.ids = std::make_shared<IdTable>(
      core::FinishSolutions(std::move(acc), query, dict_.get()));
  response.ids_dict = dict_;
  return response;
}

void ShardedEndpoint::CollectShards(const Plan& plan, std::set<size_t>* out) {
  for (const auto& star : plan.stars) {
    out->insert(star.shards.begin(), star.shards.end());
  }
  for (const Plan& sub : plan.nested) CollectShards(sub, out);
}

}  // namespace lusail::shard
