// The benchmark's three workloads. Each builds its federation from data
// generated from the seed, and hands the runner a round: a fixed list of
// queries that clients execute in order, in closed loop.
#ifndef LUSAIL_PERFBENCH_WORKLOADS_H_
#define LUSAIL_PERFBENCH_WORKLOADS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/lusail_engine.h"
#include "federation/federation.h"
#include "harness.h"
#include "workload/federation_builder.h"

namespace lusail::perfbench {

/// Threads are pinned, never derived from hardware_concurrency, so that a
/// run does not depend on the machine's core count beyond its speed.
constexpr size_t kEngineThreads = 4;
constexpr size_t kServerThreads = 2;
constexpr size_t kWireClients = 4;

/// What one client saw for one query.
struct Outcome {
  Status status = Status::OK();
  sparql::ResultTable table;
  /// Milliseconds from submit until the first row reached the client;
  /// negative when the answer was empty. Buffered answers arrive whole,
  /// so only streamed answers can see a row before the full result.
  double first_row_ms = -1.0;
  /// True when the query ran through the engine and `profile` is set.
  bool engine = false;
  fed::ExecutionProfile profile;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Every endpoint's triples, as generated from the seed. The oracle
  /// loads their union.
  virtual std::vector<workload::EndpointSpec> GenerateData() const = 0;

  /// One round of the mix, with constants drawn from the seed.
  virtual std::vector<QueryCase> Round() const = 0;

  /// Generates the data, builds and freezes the stores, starts servers
  /// and constructs the engine: everything before the first query.
  virtual Status Setup() = 0;
  virtual void Teardown() = 0;

  /// Runs one query the way this workload's clients do.
  virtual Outcome Execute(const QueryCase& query, double timeout_ms) = 0;

  /// Called before each round by single-client workloads.
  virtual void BeginRound() {}

  /// Whether BeginRound empties the caches.
  virtual bool fresh_caches_per_round() const { return false; }

  virtual size_t clients() const { return 1; }

  /// Whether requests, bytes and answers must repeat exactly round after
  /// round (single client, no cache shared with concurrent queries).
  virtual bool deterministic() const { return true; }

  /// Whether responses travel as SRJ over HTTP (enables the rpc probes).
  virtual bool wire() const { return false; }

  /// Turns the engine's span tracing on or off between runs.
  virtual void SetTracing(bool on) = 0;

  /// Cumulative layer counters, read through the layers' public exports.
  virtual std::map<std::string, double> Counters() const = 0;

  virtual core::LusailEngine* engine() = 0;
  virtual const fed::Federation* federation() const = 0;

  RequestLog* log() { return &log_; }

 protected:
  RequestLog log_;
};

/// "lrb-cpu", "lubm-geo" or "wire-mixed"; null for any other name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace lusail::perfbench

#endif  // LUSAIL_PERFBENCH_WORKLOADS_H_
