#include "workloads.h"

#include <future>

#include "cache/federation_cache.h"
#include "cache/query_service.h"
#include "common/rng.h"
#include "net/replica.h"
#include "net/sparql_endpoint.h"
#include "rpc/http_server.h"
#include "rpc/http_sparql_endpoint.h"
#include "shard/shard_map.h"
#include "shard/sharded_endpoint.h"
#include "sparql/parser.h"
#include "sparql/serializer.h"
#include "workload/lrb_generator.h"
#include "workload/lubm_generator.h"

namespace lusail::perfbench {

namespace {

using workload::EndpointSpec;

std::unique_ptr<store::TripleStore> FrozenStore(
    const std::vector<rdf::TermTriple>& triples) {
  auto store = std::make_unique<store::TripleStore>();
  for (const rdf::TermTriple& t : triples) store->Add(t);
  store->Freeze();
  return store;
}

/// In-process endpoints, each behind a request-counting decorator.
std::unique_ptr<fed::Federation> InProcessFederation(
    const std::vector<EndpointSpec>& specs, const net::LatencyModel& latency,
    RequestLog* log) {
  auto federation = std::make_unique<fed::Federation>();
  for (const EndpointSpec& spec : specs) {
    federation->Add(std::make_shared<CountingEndpoint>(
        std::make_shared<net::SparqlEndpoint>(spec.id,
                                              FrozenStore(spec.triples),
                                              latency),
        log));
  }
  return federation;
}

enum class Variant { kOrderLimit, kDistinct, kCount };

/// A solution-modifier variant of `text`: ORDER BY the first two answer
/// variables with LIMIT `limit`, DISTINCT over the first answer variable,
/// or COUNT(*) over the whole pattern.
std::string MakeVariant(const std::string& text, Variant variant,
                        uint64_t limit) {
  auto parsed = sparql::ParseQuery(text);
  if (!parsed.ok()) return text;
  sparql::Query q = *parsed;
  std::vector<sparql::Variable> vars = q.EffectiveProjection();
  switch (variant) {
    case Variant::kOrderLimit:
      for (size_t i = 0; i < vars.size() && i < 2; ++i) {
        q.order_by.push_back(sparql::OrderKey{vars[i], false});
      }
      q.limit = limit;
      break;
    case Variant::kDistinct:
      q.distinct = true;
      q.select_all = false;
      q.projection = {vars.front()};
      break;
    case Variant::kCount:
      q.select_all = false;
      q.projection.clear();
      q.aggregate = sparql::CountAggregate{false, std::nullopt,
                                           sparql::Variable{"n"}};
      break;
  }
  return sparql::QueryToString(q);
}

/// Appends the three variants of `text`, with an ORDER BY LIMIT drawn
/// from [50, 150].
void AddVariants(const std::string& label, const std::string& text, Rng* rng,
                 std::vector<QueryCase>* out) {
  uint64_t limit = 50 + rng->NextBelow(101);
  out->push_back({label + "+orderlimit",
                  MakeVariant(text, Variant::kOrderLimit, limit)});
  out->push_back(
      {label + "+distinct", MakeVariant(text, Variant::kDistinct, limit)});
  out->push_back({label + "+count", MakeVariant(text, Variant::kCount, limit)});
}

/// Fisher-Yates with the benchmark's seeded generator.
void Shuffle(std::vector<QueryCase>* cases, Rng* rng) {
  for (size_t i = cases->size(); i > 1; --i) {
    std::swap((*cases)[i - 1], (*cases)[rng->NextBelow(i)]);
  }
}

/// Layer counters every engine-driven workload exports: the request log
/// and the engine dictionary's encode/decode totals, plus the shared
/// cache tiers when one is attached.
std::map<std::string, double> EngineCounters(
    const RequestLog& log, const core::LusailEngine* engine,
    const cache::FederationCache* cache) {
  std::map<std::string, double> out = log.Snapshot();
  obs::MetricsSnapshot snap;
  if (engine != nullptr) engine->ExportMetrics(&snap);
  out["dict.encode_ms"] =
      SumMetric(snap, "lusail_engine_dictionary_encode_seconds_total") * 1e3;
  out["dict.decode_ms"] =
      SumMetric(snap, "lusail_engine_dictionary_decode_seconds_total") * 1e3;
  if (cache != nullptr) {
    obs::MetricsSnapshot cs;
    cache->ExportMetrics(&cs);
    for (const char* tier : {"verdicts", "counts", "results"}) {
      out[std::string("cache.hits.") + tier] =
          SumMetric(cs, "lusail_cache_hits_total", "tier", tier);
      out[std::string("cache.misses.") + tier] =
          SumMetric(cs, "lusail_cache_misses_total", "tier", tier);
    }
  }
  return out;
}

Outcome FromEngine(Result<fed::FederatedResult> result) {
  Outcome out;
  out.engine = true;
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.table = std::move(result->table);
  out.profile = std::move(result->profile);
  return out;
}

// ---------------------------------------------------------------------------
// LUBM query templates. Constants are drawn per instance, so most texts of
// a round are new to every cache.

constexpr const char* kLubmPrologue =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";

std::string DeptIri(int u, int d) {
  return "http://www.department" + std::to_string(d) + ".university" +
         std::to_string(u) + ".edu";
}

class LubmTemplates {
 public:
  /// Which query a constant is drawn for. Each kind cycles through the
  /// universities in a seeded order, so every university is drawn equally
  /// often and a round's cost barely depends on the seed; departments,
  /// professors and students are drawn freely.
  enum Kind { kQ3, kProfessor, kStudent, kDeptStar, kAlumni, kKinds };

  LubmTemplates(const workload::LubmConfig& config, uint64_t seed)
      : config_(config), rng_(seed) {}

  int University(Kind kind) {
    std::vector<int>& cycle = cycles_[kind];
    if (cycle.empty()) {
      for (int u = config_.num_universities - 1; u >= 0; --u) {
        cycle.push_back(u);
      }
      for (size_t i = cycle.size(); i > 1; --i) {
        std::swap(cycle[i - 1], cycle[rng_.NextBelow(i)]);
      }
    }
    int u = cycle.back();
    cycle.pop_back();
    return u;
  }
  std::string Dept(Kind kind) {
    int u = University(kind);
    return DeptIri(u, static_cast<int>(rng_.NextBelow(
                          config_.departments_per_university)));
  }

  /// Point lookup of one professor's details.
  std::string ProfessorPoint() {
    std::string p = "<";
    p += Dept(kProfessor);
    p += "/professor";
    p += std::to_string(rng_.NextBelow(config_.professors_per_department));
    p += ">";
    return std::string(kLubmPrologue) + "SELECT ?n ?e ?u WHERE {\n  " + p +
           " ub:name ?n .\n  " + p + " ub:emailAddress ?e .\n  " + p +
           " ub:PhDDegreeFrom ?u .\n}";
  }

  /// Point lookup of one graduate student's courses and their names.
  std::string StudentPoint() {
    std::string s = "<";
    s += Dept(kStudent);
    s += "/graduateStudent";
    s += std::to_string(rng_.NextBelow(config_.grad_students_per_department));
    s += ">";
    return std::string(kLubmPrologue) + "SELECT ?c ?cn WHERE {\n  " + s +
           " ub:takesCourse ?c .\n  ?c ub:name ?cn .\n}";
  }

  /// Star around one department: its students, their advisors and the
  /// courses they take from them.
  std::string DeptStar() {
    return std::string(kLubmPrologue) +
           "SELECT ?s ?p ?c WHERE {\n  ?s ub:memberOf <" + Dept(kDeptStar) +
           "> .\n  ?s ub:advisor ?p .\n  ?s ub:takesCourse ?c .\n"
           "  ?p ub:teacherOf ?c .\n}";
  }

  /// Professors holding a PhD from one university, with their department
  /// and its university's address: crosses endpoints.
  std::string AlumniStar() {
    return std::string(kLubmPrologue) +
           "SELECT ?p ?d ?a WHERE {\n  ?p ub:PhDDegreeFrom <" +
           workload::LubmGenerator::UniversityIri(University(kAlumni)) +
           "> .\n  ?p ub:worksFor ?d .\n  ?d ub:subOrganizationOf ?v .\n"
           "  ?v ub:address ?a .\n}";
  }

  Rng* rng() { return &rng_; }

  /// Every (student, course) pair of university `u`: a large answer held
  /// entirely by u's endpoint, so it can be streamed from there whole.
  static std::string UniversityCourses(int u) {
    return std::string(kLubmPrologue) +
           "SELECT ?s ?c WHERE {\n  ?s ub:takesCourse ?c .\n"
           "  ?s ub:memberOf ?d .\n  ?d ub:subOrganizationOf <" +
           workload::LubmGenerator::UniversityIri(u) + "> .\n}";
  }

  /// The paper's Q1-Q4 (Q3 about a drawn university) and Q_a.
  void PaperQueries(std::vector<QueryCase>* out) {
    using G = workload::LubmGenerator;
    out->push_back({"Q1", G::Q1()});
    out->push_back({"Q2", G::Q2()});
    out->push_back({"Q3", G::Q3(University(kQ3))});
    out->push_back({"Q4", G::Q4()});
    out->push_back({"Qa", G::QueryQa()});
  }

  void Templates(int instances, std::vector<QueryCase>* out) {
    for (int i = 0; i < instances; ++i) {
      out->push_back({"prof-point", ProfessorPoint()});
      out->push_back({"student-point", StudentPoint()});
      out->push_back({"dept-star", DeptStar()});
      out->push_back({"alumni-star", AlumniStar()});
    }
  }

 private:
  workload::LubmConfig config_;
  Rng rng_;
  std::vector<int> cycles_[kKinds];
};

// ---------------------------------------------------------------------------
// lrb-cpu

class LrbCpu : public Workload {
 public:
  explicit LrbCpu(uint64_t seed) : seed_(seed) {}
  ~LrbCpu() override { Teardown(); }

  std::vector<EndpointSpec> GenerateData() const override {
    return workload::LrbGenerator(config_).GenerateAll();
  }

  /// LrbGenerator's data does not depend on a seed, so the seed draws the
  /// variants' LIMITs and the order of the round.
  std::vector<QueryCase> Round() const override {
    using G = workload::LrbGenerator;
    Rng rng(seed_ * 7919 + 3);
    std::vector<QueryCase> round;
    for (const auto& [label, text] : G::SimpleQueries()) {
      round.push_back({label, text});
    }
    for (const auto& [label, text] : G::ComplexQueries()) {
      round.push_back({label, text});
    }
    for (const auto& [label, text] : G::LargeQueries()) {
      round.push_back({label, text});
      AddVariants(label, text, &rng, &round);
    }
    Shuffle(&round, &rng);
    return round;
  }

  Status Setup() override {
    // Network cost is charged to the profile but never slept: the wall
    // time is federator and endpoint CPU only.
    net::LatencyModel latency = net::LatencyModel::LocalCluster();
    latency.sleep_scale = 0.0;
    federation_ = InProcessFederation(GenerateData(), latency, &log_);
    core::LusailOptions options;
    options.num_threads = kEngineThreads;
    engine_ = std::make_unique<core::LusailEngine>(federation_.get(), options);
    return Status::OK();
  }

  void Teardown() override {
    engine_.reset();
    federation_.reset();
  }

  Outcome Execute(const QueryCase& query, double timeout_ms) override {
    return FromEngine(
        engine_->Execute(query.text, Deadline::AfterMillis(timeout_ms)));
  }

  void SetTracing(bool on) override { engine_->mutable_options()->trace = on; }

  std::map<std::string, double> Counters() const override {
    return EngineCounters(log_, engine_.get(), nullptr);
  }

  core::LusailEngine* engine() override { return engine_.get(); }
  const fed::Federation* federation() const override {
    return federation_.get();
  }

 private:
  uint64_t seed_;
  workload::LrbConfig config_;
  std::unique_ptr<fed::Federation> federation_;
  std::unique_ptr<core::LusailEngine> engine_;
};

// ---------------------------------------------------------------------------
// lubm-geo

class LubmGeo : public Workload {
 public:
  explicit LubmGeo(uint64_t seed) : seed_(seed) {
    config_ = workload::LubmConfig::Bench();
    config_.num_universities = 8;
    config_.seed = seed;
  }
  ~LubmGeo() override { Teardown(); }

  std::vector<EndpointSpec> GenerateData() const override {
    return workload::LubmGenerator(config_).GenerateAll();
  }

  std::vector<QueryCase> Round() const override {
    LubmTemplates templates(config_, seed_ * 7919 + 1);
    std::vector<QueryCase> round;
    templates.PaperQueries(&round);
    templates.Templates(2 * config_.num_universities, &round);
    return round;
  }

  Status Setup() override {
    // The geo-distributed preset with its round trips imposed at half
    // scale: waiting dominates, federator CPU is a few percent. At a
    // quarter scale, thread wake-up jitter on a loaded host was already a
    // visible share of each sleep.
    net::LatencyModel latency = net::LatencyModel::GeoDistributed();
    latency.sleep_scale = 0.5;
    federation_ = InProcessFederation(GenerateData(), latency, &log_);
    cache_ = std::make_unique<cache::FederationCache>();
    federation_->set_query_cache(cache_.get());
    core::LusailOptions options;
    options.num_threads = kEngineThreads;
    engine_ = std::make_unique<core::LusailEngine>(federation_.get(), options);
    return Status::OK();
  }

  void Teardown() override {
    engine_.reset();
    federation_.reset();
    cache_.reset();
  }

  /// Every round starts from empty caches, so each round issues the same
  /// requests and a round's cache hits come only from repeats within it.
  void BeginRound() override {
    engine_->ClearCaches();
    cache_->Clear();
  }
  bool fresh_caches_per_round() const override { return true; }

  Outcome Execute(const QueryCase& query, double timeout_ms) override {
    return FromEngine(
        engine_->Execute(query.text, Deadline::AfterMillis(timeout_ms)));
  }

  void SetTracing(bool on) override { engine_->mutable_options()->trace = on; }

  std::map<std::string, double> Counters() const override {
    return EngineCounters(log_, engine_.get(), cache_.get());
  }

  core::LusailEngine* engine() override { return engine_.get(); }
  const fed::Federation* federation() const override {
    return federation_.get();
  }

 private:
  uint64_t seed_;
  workload::LubmConfig config_;
  std::unique_ptr<fed::Federation> federation_;
  std::unique_ptr<cache::FederationCache> cache_;
  std::unique_ptr<core::LusailEngine> engine_;
};

// ---------------------------------------------------------------------------
// wire-mixed

class WireMixed : public Workload {
 public:
  /// University 1 is a 2-replica group, university 2 a 2-shard endpoint;
  /// the rest are one server each.
  static constexpr size_t kReplicated = 1;
  static constexpr size_t kSharded = 2;
  static constexpr size_t kServiceWorkers = 2;
  /// A metro-area deployment, slept for real: 10 ms per request plus
  /// 100 Mbit/s. Waiting then dominates the wall time, so the CPU-speed
  /// drift of a shared host barely moves the end-to-end numbers, while
  /// every request still crosses HTTP, SRJ, the replica group, the shards
  /// and the service queue.
  static constexpr net::LatencyModel kServerLatency{10.0, 12500.0, 1.0};

  explicit WireMixed(uint64_t seed) : seed_(seed) {
    config_ = workload::LubmConfig::Bench();
    config_.num_universities = 6;
    config_.seed = seed;
  }
  ~WireMixed() override { Teardown(); }

  std::vector<EndpointSpec> GenerateData() const override {
    return workload::LubmGenerator(config_).GenerateAll();
  }

  std::vector<QueryCase> Round() const override {
    LubmTemplates templates(config_, seed_ * 7919 + 2);
    std::vector<QueryCase> round;
    templates.PaperQueries(&round);
    templates.Templates(config_.num_universities, &round);
    for (int i = 0; i < 2; ++i) {
      AddVariants("dept-star", templates.DeptStar(), templates.rng(), &round);
    }
    // A fixed share of the round streams a large single-endpoint answer,
    // never from the sharded endpoint (it has no streaming path of its own).
    const size_t engine_queries = round.size();
    for (size_t i = 0; i < engine_queries / 4; ++i) {
      size_t u = i % config_.num_universities;
      if (u == kSharded) u = 0;
      QueryCase stream{"stream-courses",
                       LubmTemplates::UniversityCourses(static_cast<int>(u))};
      stream.stream = true;
      stream.stream_endpoint = u;
      // Interleave the streams through the round.
      round.insert(round.begin() + static_cast<long>(i * 5), stream);
    }
    return round;
  }

  Status Setup() override {
    std::vector<EndpointSpec> specs = GenerateData();
    cache_ = std::make_unique<cache::FederationCache>();
    federation_ = std::make_unique<fed::Federation>();
    for (size_t u = 0; u < specs.size(); ++u) {
      const EndpointSpec& spec = specs[u];
      std::shared_ptr<net::Endpoint> logical;
      if (u == kReplicated) {
        std::vector<std::shared_ptr<net::Endpoint>> replicas;
        for (int r = 0; r < 2; ++r) {
          std::string id = spec.id + "@" + std::to_string(r);
          auto client = Serve(id, spec.triples);
          if (!client.ok()) return client.status();
          replicas.push_back(*client);
        }
        replica_ = std::make_shared<net::ReplicaGroup>(spec.id,
                                                       std::move(replicas));
        logical = replica_;
      } else if (u == kSharded) {
        shard::ShardMap map = shard::ShardMap::HashRing(2);
        std::vector<std::vector<rdf::TermTriple>> slices(2);
        for (const rdf::TermTriple& t : spec.triples) {
          slices[map.ShardOfSubject(t.subject)].push_back(t);
        }
        std::vector<std::shared_ptr<net::Endpoint>> members;
        for (size_t i = 0; i < slices.size(); ++i) {
          auto client = Serve(spec.id + "#" + std::to_string(i), slices[i]);
          if (!client.ok()) return client.status();
          members.push_back(*client);
        }
        shard::ShardedEndpointOptions options;
        options.cache = cache_.get();
        options.own_pool_threads = kServerThreads;
        sharded_ = std::make_shared<shard::ShardedEndpoint>(
            spec.id, map, std::move(members), options);
        logical = sharded_;
      } else {
        auto client = Serve(spec.id, spec.triples);
        if (!client.ok()) return client.status();
        logical = *client;
      }
      federation_->Add(std::make_shared<CountingEndpoint>(logical, &log_));
    }
    federation_->set_query_cache(cache_.get());
    cache::QueryServiceOptions options;
    options.max_concurrent = kServiceWorkers;
    options.engine.num_threads = kEngineThreads;
    service_ = std::make_unique<cache::QueryService>(federation_.get(),
                                                     options);
    // Responses parse straight into the engine dictionary (SRJ -> ids).
    for (const auto& client : clients_) {
      client->set_parse_dictionary(service_->engine()->dictionary());
    }
    sharded_->set_parse_dictionary(service_->engine()->dictionary());
    return Status::OK();
  }

  void Teardown() override {
    if (service_ != nullptr) service_->Drain();
    service_.reset();
    federation_.reset();
    replica_.reset();
    sharded_.reset();
    clients_.clear();
    for (auto& server : servers_) server->Stop();
    servers_.clear();
    endpoints_.clear();
    cache_.reset();
  }

  Outcome Execute(const QueryCase& query, double timeout_ms) override {
    if (query.stream) return Stream(query, timeout_ms);
    auto future = service_->Submit(query.text,
                                   Deadline::AfterMillis(timeout_ms));
    if (!future.ok()) {
      Outcome out;
      out.engine = true;
      out.status = future.status();
      return out;
    }
    return FromEngine(future->get());
  }

  size_t clients() const override { return kWireClients; }
  bool deterministic() const override { return false; }
  bool wire() const override { return true; }

  void SetTracing(bool on) override {
    service_->engine()->mutable_options()->trace = on;
  }

  std::map<std::string, double> Counters() const override {
    std::map<std::string, double> out =
        EngineCounters(log_, service_->engine(), cache_.get());
    obs::MetricsSnapshot snap;
    for (const auto& client : clients_) client->ExportMetrics(&snap);
    replica_->ExportMetrics(&snap);
    sharded_->ExportMetrics(&snap);
    out["http.opened"] =
        SumMetric(snap, "lusail_http_client_connections_opened_total");
    out["http.reused"] =
        SumMetric(snap, "lusail_http_client_connections_reused_total");
    out["replica.hedges"] =
        SumMetric(snap, "lusail_replica_hedges_launched_total");
    out["replica.hedge_wins"] =
        SumMetric(snap, "lusail_replica_hedge_wins_total");
    out["replica.failovers"] =
        SumMetric(snap, "lusail_replica_failovers_total");
    out["shard.queries"] = SumMetric(snap, "lusail_shard_queries_total");
    out["shard.fanout"] = SumMetric(snap, "lusail_shard_fanout_total");
    out["shard.pruned"] = SumMetric(snap, "lusail_shard_pruned_total");
    cache::QueryServiceStats stats = service_->Stats();
    out["service.rejected"] = static_cast<double>(stats.rejected);
    out["service.wait_count"] = static_cast<double>(stats.wait.count());
    out["service.wait_total_ms"] =
        stats.wait.MeanMs() * static_cast<double>(stats.wait.count());
    const auto& buckets = stats.wait.buckets();
    for (size_t b = 0; b < buckets.size(); ++b) {
      out["service.wait_bucket." + std::to_string(b)] =
          static_cast<double>(buckets[b]);
    }
    return out;
  }

  core::LusailEngine* engine() override { return service_->engine(); }
  const fed::Federation* federation() const override {
    return federation_.get();
  }

 private:
  /// Starts a server over `triples` and returns an HTTP client for it.
  Result<std::shared_ptr<net::Endpoint>> Serve(
      const std::string& id, const std::vector<rdf::TermTriple>& triples) {
    auto endpoint = std::make_shared<net::SparqlEndpoint>(
        id, FrozenStore(triples), kServerLatency);
    rpc::HttpServerOptions options;
    options.num_threads = kServerThreads;
    auto server = std::make_unique<rpc::HttpServer>(endpoint, options);
    Status started = server->Start();
    if (!started.ok()) return started;
    auto client = std::make_shared<rpc::HttpSparqlEndpoint>(id, "127.0.0.1",
                                                            server->port());
    clients_.push_back(client);
    endpoints_.push_back(std::move(endpoint));
    servers_.push_back(std::move(server));
    return std::shared_ptr<net::Endpoint>(client);
  }

  Outcome Stream(const QueryCase& query, double timeout_ms) {
    Outcome out;
    Stopwatch wall;
    bool head = false;
    auto summary = federation_->endpoint(query.stream_endpoint)->QueryStreaming(
        query.text, CancelToken(Deadline::AfterMillis(timeout_ms)),
        net::StreamOptions(), [&](net::StreamBatch&& batch) -> Status {
          if (batch.NumRows() > 0 && out.first_row_ms < 0.0) {
            out.first_row_ms = wall.ElapsedMillis();
          }
          sparql::ResultTable rows =
              batch.ids != nullptr
                  ? core::DecodeIdTable(*batch.ids, *batch.ids_dict)
                  : std::move(batch.table);
          if (!head) {
            out.table.vars = rows.vars;
            head = true;
          }
          for (auto& row : rows.rows) out.table.rows.push_back(std::move(row));
          return Status::OK();
        });
    if (!summary.ok()) out.status = summary.status();
    return out;
  }

  uint64_t seed_;
  workload::LubmConfig config_;
  std::unique_ptr<cache::FederationCache> cache_;
  std::vector<std::shared_ptr<net::SparqlEndpoint>> endpoints_;
  std::vector<std::unique_ptr<rpc::HttpServer>> servers_;
  std::vector<std::shared_ptr<rpc::HttpSparqlEndpoint>> clients_;
  std::shared_ptr<net::ReplicaGroup> replica_;
  std::shared_ptr<shard::ShardedEndpoint> sharded_;
  std::unique_ptr<fed::Federation> federation_;
  std::unique_ptr<cache::QueryService> service_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "lrb-cpu") return std::make_unique<LrbCpu>(seed);
  if (name == "lubm-geo") return std::make_unique<LubmGeo>(seed);
  if (name == "wire-mixed") return std::make_unique<WireMixed>(seed);
  return nullptr;
}

}  // namespace lusail::perfbench
