// The three workloads and the pieces they share: direct engine execution
// with the paper's protocol timings, the closed client loop, and the layer
// probes a traced run adds for the layers its workload does not load.
#ifndef OMEGABENCH_WORKLOADS_H_
#define OMEGABENCH_WORKLOADS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/query_engine.h"
#include "harness.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "snapshot/dataset.h"

namespace omegabench {

/// Every workload runs the engine with the paper's 20M live-tuple budget.
omega::QueryEngineOptions BenchEngineOptions();

/// One query executed directly on a QueryEngine, timed the paper's way:
/// Execute, then batches of 10 answers, the first Next timed on its own.
struct EngineRun {
  std::string error;  ///< empty when the query succeeded
  std::vector<omega::QueryAnswer> answers;
  bool exhausted = false;  ///< the stream ended before k answers
  double execute_ms = 0;
  double first_next_ms = 0;
  double ttfa_ms = 0;     ///< Execute start to first Next return
  double latency_ms = 0;  ///< Execute start to k answers or exhaustion
  std::vector<double> batch_ms;  ///< per batch of 10 answers
  omega::EvaluatorStats stats;
  std::vector<double> card_error;  ///< actual/estimated rows per plan leaf
};

/// Runs `query` for `k` answers (0 = to exhaustion). Records eval.* spans
/// when the span log is on.
EngineRun RunOnEngine(const omega::QueryEngine& engine,
                      const omega::Query& query, size_t k,
                      const omega::QueryEngineOptions& options,
                      uint64_t query_id);

/// Adds an EngineRun's layer samples and work counts to `out`.
void RecordEngineRun(const EngineRun& run, Samples* out);

struct ProbeQuery {
  std::string text;
  size_t k = 10;
};

/// Traced runs only: each query once through ParseQuery, PrepareConjunct,
/// ExplainQuery and RunOnEngine, recording the rpq, automata, plan and eval
/// layer samples.
void ProbeEngineLayers(const omega::QueryEngine& engine,
                       const std::vector<ProbeQuery>& queries, Samples* out);

/// Traced runs only: a two-worker QueryService over `primary` serves each
/// query twice (the second time from the cache), then swaps to the
/// snapshot at `swap_path` and serves them once more, recording the
/// service and snapshot layer samples.
void ProbeServiceLayers(std::shared_ptr<const omega::Dataset> primary,
                        const std::string& swap_path,
                        const std::vector<ProbeQuery>& queries, Samples* out,
                        std::vector<std::string>* errors);

/// Runs `op(client, ops_done_by_client, samples)` on `clients` threads until
/// `seconds` have passed; returns the wall time from start until the last
/// client finished its last operation. Each client's samples are merged
/// into `merged`.
double RunClosedLoop(size_t clients, double seconds,
                     const std::function<void(size_t, uint64_t, Samples*)>& op,
                     Samples* merged);

/// What one timed phase reports: operations completed and its wall time.
struct PhaseOutcome {
  uint64_t completed = 0;
  double ms = 0;
};

/// Runs the timed phase via `phase(seconds, traced)`, which appends to
/// result->attempted/failed/windows. An untraced run times the
/// whole run. A traced run first times an untraced half (the base of
/// obs.trace_overhead_ratio, then discarded) and then a traced half, with
/// spans, the counting allocator and getrusage deltas on. Records the
/// peak RSS right after, before any check or probe can raise it.
void RunTimedPhases(const RunConfig& config,
                    const std::function<PhaseOutcome(double, bool)>& phase,
                    RunResult* result);

/// Worker threads and client threads of serve-refresh, and the threads of
/// the oracle checks: 4, never more than the host's processors.
size_t ServiceThreads();

omega::QueryServiceOptions BenchServiceOptions(size_t workers,
                                               omega::MetricsRegistry* registry);

/// The service's own completion and cache-hit counters.
struct ServiceTotals {
  uint64_t ok = 0;
  uint64_t not_ok = 0;
  uint64_t cache_hits = 0;
};
ServiceTotals ReadServiceTotals(omega::MetricsRegistry* registry);

/// Client-counted totals must equal the deltas of the service's registry
/// counters over the same span.
void ReconcileTotals(const ServiceTotals& before, const ServiceTotals& after,
                     const ServiceTotals& client, RunResult* result);

/// One completed request of a closed loop.
struct Completion {
  double at_ms = 0;  ///< since the phase started
  double latency_ms = 0;
  uint32_t query = 0;  ///< index into the workload's pool
};

/// Cuts a closed loop's completions into windows that end at `ends_ms`
/// (ascending); window i runs from ends_ms[i-1] (0 for the first) to
/// ends_ms[i]. Completions after the last end are left out.
std::vector<RunResult::Window> CutWindows(
    const std::vector<Completion>& completions,
    const std::vector<double>& ends_ms);

/// Window ends every full second of a `seconds`-long phase; a phase
/// shorter than a second is one window.
std::vector<double> SecondEnds(double seconds);

/// One service response to check against the oracle.
struct CheckItem {
  const omega::Query* query = nullptr;
  const std::string* label = nullptr;
  size_t dataset = 0;  ///< index into the `oracle_inputs` of CheckResponses
  std::vector<omega::QueryAnswer> got;
};

/// A dataset the oracle evaluates over.
struct OracleInput {
  const omega::GraphStore* graph = nullptr;
  const omega::BoundOntology* ontology = nullptr;
};

/// Checks every item's top-k answers against the oracle of its dataset,
/// spread over `threads` threads (each with its own oracles), then proves
/// the check live: the first item that passed must fail once one of its
/// answers is corrupted. With `corrupt`, the first item's first answer is
/// corrupted before checking, so the run must fail.
void CheckResponses(std::vector<CheckItem> items,
                    const std::vector<OracleInput>& oracle_inputs, size_t k,
                    size_t threads, bool corrupt, RunResult* result);

RunResult RunPaperProtocol(const RunConfig& config);
RunResult RunCrpqCold(const RunConfig& config);
RunResult RunServeRefresh(const RunConfig& config);

}  // namespace omegabench

#endif  // OMEGABENCH_WORKLOADS_H_
