#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>

#include "eval/conjunct_evaluator.h"
#include "oracle.h"
#include "obs/metrics.h"
#include "rpq/query_parser.h"
#include "service/query_service.h"
#include "setup.h"
#include "workloads.h"

namespace omegabench {

omega::QueryEngineOptions BenchEngineOptions() {
  omega::QueryEngineOptions options;
  options.evaluator.max_live_tuples = 20'000'000;
  return options;
}

namespace {

void CollectCardError(const omega::PlanNode& node, std::vector<double>* out) {
  if (node.is_leaf()) {
    if (node.stream != nullptr) {
      const double actual =
          static_cast<double>(node.stream->stats().answers_emitted);
      out->push_back(actual / std::max(node.est_cardinality, 1.0));
    }
    return;
  }
  CollectCardError(*node.left, out);
  CollectCardError(*node.right, out);
}

}  // namespace

EngineRun RunOnEngine(const omega::QueryEngine& engine,
                      const omega::Query& query, size_t k,
                      const omega::QueryEngineOptions& base_options,
                      uint64_t query_id) {
  EngineRun run;
  omega::QueryEngineOptions options = base_options;
  if (k > 0) options.evaluator.top_k_hint = k;
  const size_t target = k == 0 ? std::numeric_limits<size_t>::max() : k;

  const Clock::time_point t0 = Clock::now();
  auto stream = [&] {
    Span span("eval.execute", query_id);
    return engine.Execute(query, options);
  }();
  run.execute_ms = MsSince(t0);
  if (!stream.ok()) {
    run.error = stream.status().ToString();
    return run;
  }
  omega::QueryResultStream& results = **stream;
  omega::QueryAnswer answer;
  bool more = true;
  // Batches of 10 answers, the paper's batch time; the first batch starts
  // when Execute returns and holds the first answer.
  while (more && run.answers.size() < target) {
    Span span("eval.batch", query_id);
    const Clock::time_point tb = Clock::now();
    const size_t end = std::min(run.answers.size() + 10, target);
    while (run.answers.size() < end) {
      if (run.answers.empty()) {
        Span first_span("eval.first_next", query_id);
        more = results.Next(&answer);
        run.first_next_ms = MsSince(tb);
        run.ttfa_ms = MsSince(t0);
      } else {
        more = results.Next(&answer);
      }
      if (!more) break;
      run.answers.push_back(answer);
    }
    run.batch_ms.push_back(MsSince(tb));
  }
  run.latency_ms = MsSince(t0);
  run.exhausted = !more;
  if (!results.status().ok()) run.error = results.status().ToString();
  run.stats = results.stats();
  if (results.plan() != nullptr && results.plan()->root != nullptr) {
    CollectCardError(*results.plan()->root, &run.card_error);
  }
  return run;
}

void RecordEngineRun(const EngineRun& run, Samples* out) {
  out->Add("eval.execute_us", run.execute_ms * 1000.0);
  out->Add("eval.first_next_ms", run.first_next_ms);
  for (double ms : run.batch_ms) out->Add("eval.batch_ms", ms);
  for (double e : run.card_error) out->Add("plan.card_error", e);
  out->Add("eval.max_dictionary_size",
           static_cast<double>(run.stats.max_dictionary_size));
  out->Add("eval.max_join_live", static_cast<double>(run.stats.max_join_live));
  out->Count("eval.queries", 1);
  out->Count("eval.answers", static_cast<double>(run.answers.size()));
  out->Count("eval.popped", static_cast<double>(run.stats.tuples_popped));
  out->Count("eval.pushed", static_cast<double>(run.stats.tuples_pushed));
  out->Count("eval.fetches",
             static_cast<double>(run.stats.neighbor_group_fetches));
  out->Count("eval.seeds", static_cast<double>(run.stats.seeds_added));
}

void ProbeEngineLayers(const omega::QueryEngine& engine,
                       const std::vector<ProbeQuery>& queries, Samples* out) {
  const omega::QueryEngineOptions options = BenchEngineOptions();
  uint64_t query_id = 1'000'000'000;
  for (const ProbeQuery& pq : queries) {
    ++query_id;
    Span query_span("probe.query", query_id);
    Clock::time_point t0 = Clock::now();
    auto query = [&] {
      Span span("rpq.parse", query_id);
      return omega::ParseQuery(pq.text);
    }();
    out->Add("rpq.parse_us", MsSince(t0) * 1000.0);
    if (!query.ok()) continue;
    for (const omega::Conjunct& conjunct : query->conjuncts) {
      Span span("automata.prepare", query_id);
      t0 = Clock::now();
      auto prepared = omega::PrepareConjunct(
          conjunct, engine.graph(), engine.bound_ontology(), options.evaluator);
      out->Add("automata.prepare_us", MsSince(t0) * 1000.0);
    }
    {
      Span span("plan.explain", query_id);
      t0 = Clock::now();
      auto explained = engine.ExplainQuery(*query, options);
      out->Add("plan.explain_us", MsSince(t0) * 1000.0);
    }
    RecordEngineRun(RunOnEngine(engine, *query, pq.k, options, query_id), out);
  }
}

void ProbeServiceLayers(std::shared_ptr<const omega::Dataset> primary,
                        const std::string& swap_path,
                        const std::vector<ProbeQuery>& queries, Samples* out,
                        std::vector<std::string>* errors) {
  omega::MetricsRegistry registry;
  omega::QueryServiceOptions options;
  options.num_workers = 2;
  options.engine = BenchEngineOptions();
  options.metrics = &registry;
  omega::QueryService service(std::move(primary), options);
  uint64_t query_id = 2'000'000'000;
  auto serve_all = [&] {
    for (const ProbeQuery& pq : queries) {
      auto query = omega::ParseQuery(pq.text);
      if (!query.ok()) continue;
      omega::QueryRequest request;
      request.query = std::move(query).value();
      request.top_k = pq.k;
      omega::QueryResponse response;
      {
        Span span("service.execute", ++query_id);
        response = service.Execute(std::move(request));
      }
      if (!response.cache_hit) {
        out->Add("service.queue_ms", response.queue_ms);
        out->Add("service.exec_ms", response.exec_ms);
      }
      out->Count("service.lookups", 1);
      out->Count("service.cache_hits", response.cache_hit ? 1 : 0);
    }
  };
  serve_all();
  serve_all();
  double open_ms = 0;
  std::string error;
  std::shared_ptr<const omega::Dataset> next;
  {
    Span span("snapshot.open", ++query_id);
    next = OpenSnapshot(swap_path, &open_ms, &error);
  }
  if (next == nullptr) {
    errors->push_back("service probe: " + error);
    return;
  }
  out->Add("snapshot.open_ms", open_ms);
  {
    Span span("service.swap", query_id);
    const Clock::time_point t0 = Clock::now();
    const omega::Status s = service.SwapDataset(std::move(next));
    out->Add("service.swap_ms", MsSince(t0));
    if (!s.ok()) errors->push_back("service probe swap: " + s.ToString());
  }
  serve_all();
  out->Add("service.drain_ms_max", service.stats().drain_ms_max);
}

double RunClosedLoop(size_t clients, double seconds,
                     const std::function<void(size_t, uint64_t, Samples*)>& op,
                     Samples* merged) {
  std::vector<Samples> per_client(clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (uint64_t n = 0; Clock::now() < deadline; ++n) {
        op(c, n, &per_client[c]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_ms = MsSince(start);
  for (const Samples& s : per_client) merged->Merge(s);
  return wall_ms;
}

void RunTimedPhases(const RunConfig& config,
                    const std::function<PhaseOutcome(double, bool)>& phase,
                    RunResult* result) {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  const double cpus = online > 0 ? static_cast<double>(online) : 1.0;
  SpeedProbeMs();  // builds the probe's cycle before anything is timed
  auto timed = [&](double seconds, bool traced) {
    const double steal0 = StealMs();
    const PhaseOutcome outcome = phase(seconds, traced);
    result->steal_share = (StealMs() - steal0) / (outcome.ms * cpus);
    return outcome;
  };
  if (!config.trace) {
    timed(config.seconds, false);
    result->peak_rss_mb = PeakRssMb();
    return;
  }
  const PhaseOutcome untraced = timed(config.seconds / 2, false);
  result->attempted = result->failed = 0;
  result->windows.clear();

  const ProcUsage u0 = ReadUsage();
  const AllocTotals a0 = ReadAllocTotals();
  SpanLog::Get().Enable(true);
  EnableAllocCounting(true);
  const PhaseOutcome traced = timed(config.seconds / 2, true);
  EnableAllocCounting(false);
  SpanLog::Get().Enable(false);
  const ProcUsage u1 = ReadUsage();
  const AllocTotals a1 = ReadAllocTotals();
  result->peak_rss_mb = PeakRssMb();

  Samples& s = result->samples;
  s.Count("proc.queries", static_cast<double>(traced.completed));
  s.Count("proc.cpu_ms", u1.cpu_ms - u0.cpu_ms);
  s.Count("proc.minor_faults",
          static_cast<double>(u1.minor_faults - u0.minor_faults));
  s.Count("proc.allocs", static_cast<double>(a1.allocs - a0.allocs));
  s.Count("proc.alloc_bytes", static_cast<double>(a1.bytes - a0.bytes));
  s.Count("obs.qps_untraced",
          static_cast<double>(untraced.completed) * 1000.0 / untraced.ms);
  s.Count("obs.qps_traced",
          static_cast<double>(traced.completed) * 1000.0 / traced.ms);
}

size_t ServiceThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<size_t>(1, std::min<size_t>(4, hw == 0 ? 1 : hw));
}

omega::QueryServiceOptions BenchServiceOptions(
    size_t workers, omega::MetricsRegistry* registry) {
  omega::QueryServiceOptions options;
  options.num_workers = workers;
  options.engine = BenchEngineOptions();
  options.metrics = registry;
  return options;
}

ServiceTotals ReadServiceTotals(omega::MetricsRegistry* registry) {
  const char* completed = "omega_service_completed_total";
  ServiceTotals t;
  t.ok = registry->GetCounter(completed, {}, "status=\"ok\"")->Value();
  for (const char* status : {"status=\"cancelled\"", "status=\"deadline\"",
                             "status=\"error\""}) {
    t.not_ok += registry->GetCounter(completed, {}, status)->Value();
  }
  t.cache_hits = registry->GetCounter("omega_cache_hits_total")->Value();
  return t;
}

void ReconcileTotals(const ServiceTotals& before, const ServiceTotals& after,
                     const ServiceTotals& client, RunResult* result) {
  auto check = [result](const char* what, uint64_t service, uint64_t mine) {
    if (service != mine) {
      result->Error(std::string("service counter ") + what + " moved by " +
                    std::to_string(service) + ", clients counted " +
                    std::to_string(mine));
    }
  };
  check("completed{ok}", after.ok - before.ok, client.ok);
  check("completed{not ok}", after.not_ok - before.not_ok, client.not_ok);
  check("cache hits", after.cache_hits - before.cache_hits, client.cache_hits);
}

std::vector<RunResult::Window> CutWindows(
    const std::vector<Completion>& completions,
    const std::vector<double>& ends_ms) {
  std::vector<RunResult::Window> windows(ends_ms.size());
  for (size_t i = 0; i < ends_ms.size(); ++i) {
    windows[i].ms = ends_ms[i] - (i == 0 ? 0 : ends_ms[i - 1]);
  }
  for (const Completion& c : completions) {
    const size_t i = static_cast<size_t>(
        std::upper_bound(ends_ms.begin(), ends_ms.end(), c.at_ms) -
        ends_ms.begin());
    if (i == windows.size()) continue;
    RunResult::Window& w = windows[i];
    ++w.completed;
    w.latency_ms.push_back(c.latency_ms);
    // A service response carries every answer at once: TTFA is latency.
    w.ttfa_ms.push_back(c.latency_ms);
    w.query.push_back(c.query);
  }
  return windows;
}

std::vector<double> SecondEnds(double seconds) {
  std::vector<double> ends;
  for (size_t i = 1; i <= static_cast<size_t>(seconds); ++i) {
    ends.push_back(1000.0 * static_cast<double>(i));
  }
  if (ends.empty()) ends.push_back(seconds * 1000);
  return ends;
}

void CheckResponses(std::vector<CheckItem> items,
                    const std::vector<OracleInput>& oracle_inputs, size_t k,
                    size_t threads, bool corrupt, RunResult* result) {
  if (corrupt && !items.empty() && !items[0].got.empty()) {
    CorruptAnswer(&items[0].got[0]);
  }
  const omega::EvaluatorOptions options = BenchEngineOptions().evaluator;
  std::vector<std::string> errors(items.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::max<size_t>(threads, 1); ++t) {
    pool.emplace_back([&] {
      std::vector<std::unique_ptr<QueryOracle>> oracles;
      for (const OracleInput& in : oracle_inputs) {
        oracles.push_back(
            std::make_unique<QueryOracle>(in.graph, in.ontology, options));
      }
      for (size_t i; (i = next.fetch_add(1)) < items.size();) {
        const CheckItem& item = items[i];
        std::vector<omega::QueryAnswer> reference;
        std::string error;
        if (!oracles[item.dataset]->Answers(*item.query,
                                            ReferenceBound(item.got, k),
                                            &reference, &error)) {
          errors[i] = "oracle: " + error;
        } else {
          errors[i] = CheckTopK(item.got, k, reference);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();

  int self_test = -1;
  for (size_t i = 0; i < items.size(); ++i) {
    if (!errors[i].empty()) {
      result->Error(*items[i].label + " (dataset " +
                    std::to_string(items[i].dataset) + "): " + errors[i]);
    } else if (self_test < 0 && !items[i].got.empty()) {
      self_test = static_cast<int>(i);
    }
  }
  result->samples.Count("check.oracle_responses",
                        static_cast<double>(items.size()));
  if (corrupt) return;
  if (self_test < 0) {
    result->Error("self-test: no answer was available to corrupt");
    return;
  }
  // The check must catch one corrupted answer, or it proves nothing.
  CheckItem& item = items[static_cast<size_t>(self_test)];
  const OracleInput& in = oracle_inputs[item.dataset];
  QueryOracle oracle(in.graph, in.ontology, options);
  std::vector<omega::QueryAnswer> reference;
  std::string error;
  CorruptAnswer(&item.got[0]);
  if (oracle.Answers(*item.query, ReferenceBound(item.got, k), &reference,
                     &error) &&
      CheckTopK(item.got, k, reference).empty()) {
    result->Error("self-test: a corrupted answer passed the oracle check");
  }
}

}  // namespace omegabench
