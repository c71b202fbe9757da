// paper-protocol: the §4.1 protocol on one thread, straight on QueryEngine
// over snapshot-opened datasets. Every Fig. 4 query on L4All L4 and every
// Fig. 9 query on YAGO, each exact, APPROX and RELAX (YAGO Q4 APPROX left
// out: it is the paper's '?' and exhausts the tuple budget). Exact Fig. 6
// queries run to completion; everything else fetches top-100 in batches of
// 10. Passes over the whole set repeat, in a seeded order, until the run's
// time is up.
#include <algorithm>
#include <array>
#include <random>
#include <set>

#include "datasets/l4all.h"
#include "datasets/query_sets.h"
#include "datasets/yago.h"
#include "oracle.h"
#include "setup.h"
#include "workloads.h"

namespace omegabench {
namespace {

// Generator seeds and YAGO scale of the protocol datasets: the paper's
// datasets are fixed, so these are too; --seed orders the passes.
constexpr uint64_t kL4AllSeed = 42;
constexpr uint64_t kYagoSeed = 7;
constexpr double kYagoScale = 0.06;
// The small instances the variable-source APPROX/RELAX checks run on.
constexpr int kSmallL4AllLevel = 1;
constexpr double kSmallYagoScale = 0.002;

constexpr size_t kTopK = 100;

struct ProtocolQuery {
  size_t dataset = 0;  // 0 = L4All L4, 1 = YAGO
  std::string label;   // e.g. "L4 Q3 EXACT"
  std::string base;    // dataset + query name, shared by the three modes
  omega::ConjunctMode mode = omega::ConjunctMode::kExact;
  omega::Query query;
  size_t k = kTopK;  // 0 = run to completion
  bool variable_source = false;
};

std::vector<ProtocolQuery> BuildQueries(std::vector<std::string>* errors) {
  const std::set<std::string> fig6 = {"Q3", "Q8", "Q9", "Q10", "Q11", "Q12"};
  const omega::ConjunctMode modes[] = {omega::ConjunctMode::kExact,
                                       omega::ConjunctMode::kApprox,
                                       omega::ConjunctMode::kRelax};
  std::vector<ProtocolQuery> out;
  for (size_t ds = 0; ds < 2; ++ds) {
    const auto& set = ds == 0 ? omega::L4AllQuerySet() : omega::YagoQuerySet();
    for (const omega::NamedQuery& nq : set) {
      for (omega::ConjunctMode mode : modes) {
        if (ds == 1 && nq.name == "Q4" && mode == omega::ConjunctMode::kApprox) {
          continue;
        }
        auto query = omega::MakeSingleConjunctQuery(nq.conjunct, mode);
        ProtocolQuery pq;
        pq.dataset = ds;
        pq.base = std::string(ds == 0 ? "L4 " : "YAGO ") + nq.name;
        pq.label = pq.base + " " + omega::ConjunctModeToString(mode);
        if (!query.ok()) {
          errors->push_back(pq.label + ": " + query.status().ToString());
          continue;
        }
        pq.mode = mode;
        pq.query = std::move(query).value();
        pq.variable_source = pq.query.conjuncts[0].source.is_variable;
        if (ds == 0 && mode == omega::ConjunctMode::kExact &&
            fig6.count(nq.name) > 0) {
          pq.k = 0;
        }
        out.push_back(std::move(pq));
      }
    }
  }
  return out;
}

using AnswerSet = std::set<std::vector<omega::NodeId>>;

AnswerSet HeadsAtZero(const std::vector<omega::QueryAnswer>& answers) {
  AnswerSet out;
  for (const auto& a : answers) {
    if (a.distance == 0) out.insert(a.bindings);
  }
  return out;
}

bool ReachedBeyondZero(const std::vector<omega::QueryAnswer>& answers) {
  return !answers.empty() && answers.back().distance > 0;
}

/// The cross-mode properties of one pass: APPROX's distance-0 answers are
/// exact answers (checked when the exact run was complete), and every exact
/// answer is among RELAX's distance-0 answers once RELAX went beyond 0.
void CheckModes(const std::vector<ProtocolQuery>& queries,
                const std::vector<EngineRun>& pass, RunResult* result) {
  std::map<std::string, std::array<int, 3>> by_base;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto [it, inserted] = by_base.try_emplace(queries[i].base);
    if (inserted) it->second = {-1, -1, -1};
    it->second[static_cast<size_t>(queries[i].mode)] = static_cast<int>(i);
  }
  for (const auto& [base, idx] : by_base) {
    if (idx[0] < 0) continue;
    const EngineRun& exact = pass[static_cast<size_t>(idx[0])];
    const AnswerSet e = HeadsAtZero(exact.answers);
    if (idx[1] >= 0 && exact.exhausted) {
      for (const auto& h : HeadsAtZero(pass[static_cast<size_t>(idx[1])].answers)) {
        if (e.count(h) == 0) {
          result->Error(base + ": APPROX distance-0 answer missing from exact");
          break;
        }
      }
    }
    if (idx[2] >= 0) {
      const EngineRun& relax = pass[static_cast<size_t>(idx[2])];
      if (ReachedBeyondZero(relax.answers)) {
        const AnswerSet r = HeadsAtZero(relax.answers);
        for (const auto& h : e) {
          if (r.count(h) == 0) {
            result->Error(base + ": exact answer missing from RELAX distance 0");
            break;
          }
        }
      }
    }
  }
}

/// Sorted copy for comparing the answers of two passes as multisets.
std::vector<omega::QueryAnswer> Sorted(std::vector<omega::QueryAnswer> v) {
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return std::tie(a.distance, a.bindings) < std::tie(b.distance, b.bindings);
  });
  return v;
}

/// Checks `got` (the answers of `query` for k) against the oracle; returns
/// the error or "". A top-k result of a variable-source query is checked
/// source by source: each answer must be a reference answer from its own
/// source node. With `corrupt`, one answer of the checked copy is corrupted
/// first.
std::string CheckAgainstOracle(QueryOracle* oracle, const omega::Query& query,
                               size_t k, std::vector<omega::QueryAnswer> got,
                               bool corrupt) {
  if (corrupt && !got.empty()) CorruptAnswer(&got[0]);
  const Cost bound = ReferenceBound(got, k);
  const bool exhausted = k == 0 || got.size() < k;
  std::vector<omega::QueryAnswer> reference;
  std::string error;
  bool ok = false;
  if (query.conjuncts[0].source.is_variable && !exhausted && bound == 0) {
    std::vector<omega::NodeId> sources;
    for (const auto& a : got) sources.push_back(a.bindings[0]);
    std::sort(sources.begin(), sources.end());
    sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
    ok = oracle->AnswersFrom(query, sources, bound, &reference, &error);
  } else {
    ok = oracle->Answers(query, bound, &reference, &error);
  }
  if (!ok) return "oracle: " + error;
  return CheckTopK(got, k, reference);
}

}  // namespace

RunResult RunPaperProtocol(const RunConfig& config) {
  RunResult result;
  const std::string l4_path = config.data_dir + "/l4all-L4.snap";
  const std::string yago_path = config.data_dir + "/yago.snap";
  std::vector<DatasetSpec> specs(2);
  specs[0].kind = DatasetSpec::Kind::kL4All;
  specs[0].l4all_level = 4;
  specs[0].generator_seed = kL4AllSeed;
  specs[0].path = l4_path;
  specs[1].kind = DatasetSpec::Kind::kYago;
  specs[1].yago_scale = kYagoScale;
  specs[1].generator_seed = kYagoSeed;
  specs[1].path = yago_path;
  std::string error;
  if (!WriteSnapshots(specs, &result.setup, &error)) {
    result.Error(error);
    return result;
  }
  std::shared_ptr<const omega::Dataset> datasets[2];
  for (size_t i = 0; i < 2; ++i) {
    datasets[i] = OpenSnapshot(specs[i].path, &result.setup.snapshot_open_ms,
                               &error);
    if (datasets[i] == nullptr) {
      result.Error(error);
      return result;
    }
  }
  std::vector<std::unique_ptr<omega::QueryEngine>> engines;
  {
    const Clock::time_point t0 = Clock::now();
    for (const auto& d : datasets) {
      engines.push_back(std::make_unique<omega::QueryEngine>(
          &d->graph(), d->ontology(), d->indexes()));
    }
    result.setup.engine_ms = MsSince(t0);
  }

  EndPhase("setup");
  std::vector<ProtocolQuery> queries = BuildQueries(&result.errors);
  const omega::QueryEngineOptions options = BenchEngineOptions();
  std::mt19937_64 rng(config.seed);
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  // One untimed warm-up pass (the paper discards its first run too).
  for (const ProtocolQuery& q : queries) {
    RunOnEngine(*engines[q.dataset], q.query, q.k, options, 0);
  }

  EndPhase("warm-up");
  Samples& samples = result.samples;
  std::vector<std::vector<omega::QueryAnswer>> first(queries.size());
  std::vector<bool> have_first(queries.size(), false);
  uint64_t query_id = 0;
  std::vector<std::vector<double>> per_query_ms(queries.size());
  // Whole passes only, so every run attempts the same operations.
  auto timed_phase = [&](double seconds, bool traced) {
    PhaseOutcome outcome;
    double check_ms = 0;
    const Clock::time_point start = Clock::now();
    do {
      std::shuffle(order.begin(), order.end(), rng);
      std::vector<EngineRun> pass(queries.size());
      RunResult::Window window;
      const Clock::time_point pass_start = Clock::now();
      const double check_ms_before = check_ms;
      for (size_t i : order) {
        const ProtocolQuery& q = queries[i];
        ++query_id;
        Span span("query", query_id);
        EngineRun run =
            RunOnEngine(*engines[q.dataset], q.query, q.k, options, query_id);
        ++result.attempted;
        if (!run.error.empty()) {
          ++result.failed;
          std::fprintf(stderr, "failed: %s: %s\n", q.label.c_str(),
                       run.error.c_str());
          continue;
        }
        ++outcome.completed;
        ++window.completed;
        per_query_ms[i].push_back(run.latency_ms);
        window.latency_ms.push_back(run.latency_ms);
        window.ttfa_ms.push_back(run.ttfa_ms);
        window.query.push_back(static_cast<uint32_t>(i));
        if (traced) {
          RecordEngineRun(run, &samples);
          samples.Count("proc.answers", static_cast<double>(run.answers.size()));
        }
        const Clock::time_point c0 = Clock::now();
        const std::string ranked = CheckRanked(run.answers);
        if (!ranked.empty()) result.Error(q.label + ": " + ranked);
        if (!have_first[i]) {
          first[i] = run.answers;
          have_first[i] = true;
        } else if (Sorted(run.answers) != Sorted(first[i])) {
          result.Error(q.label + ": answers differ between passes");
        }
        pass[i] = std::move(run);
        check_ms += MsSince(c0);
      }
      const Clock::time_point c0 = Clock::now();
      CheckModes(queries, pass, &result);
      check_ms += MsSince(c0);
      window.ms = MsSince(pass_start) - (check_ms - check_ms_before);
      const Clock::time_point p0 = Clock::now();
      window.probe_ms = SpeedProbeMs();
      check_ms += MsSince(p0);
      result.windows.push_back(std::move(window));
    } while (MsSince(start) < seconds * 1000.0);
    // The inline checks and the speed probes are not the system's work:
    // their time is left out.
    outcome.ms = MsSince(start) - check_ms;
    return outcome;
  };
  result.fixed_pool = true;
  RunTimedPhases(config, timed_phase, &result);
  EndPhase("timed");
  // Per-query medians on stderr: where the pass time goes.
  for (size_t i = 0; i < queries.size(); ++i) {
    std::fprintf(stderr, "  %-22s p50 %9.3f ms  answers %zu\n",
                 queries[i].label.c_str(), Quantile(per_query_ms[i], 0.5),
                 first[i].size());
  }

  if (config.trace) {
    SpanLog::Get().Enable(true);
    std::vector<ProbeQuery> probe;
    for (const ProtocolQuery& q : queries) {
      if (q.dataset == 0) probe.push_back({q.query.ToString(), q.k});
    }
    Samples probed;
    ProbeEngineLayers(*engines[0], probe, &probed);
    probe.clear();
    for (const ProtocolQuery& q : queries) {
      if (q.dataset == 1) probe.push_back({q.query.ToString(), q.k});
    }
    ProbeEngineLayers(*engines[1], probe, &probed);
    // The service layers: L4 queries served, then a swap to YAGO.
    probe.clear();
    for (const ProtocolQuery& q : queries) {
      if (q.dataset == 0 && q.k > 0) probe.push_back({q.query.ToString(), q.k});
    }
    ProbeServiceLayers(datasets[0], yago_path, probe, &probed, &result.errors);
    SpanLog::Get().Enable(false);
    samples.FillGaps(probed);
    for (const char* key : {"service.lookups", "service.cache_hits"}) {
      samples.counts[key] = probed.counts[key];
    }
  }

  if (config.trace) EndPhase("probe");
  // Oracle checks on the first timed pass. Variable-source APPROX/RELAX
  // answers beyond distance 0 are too costly to reference at full size;
  // those queries are checked on a small instance of the same generator.
  QueryOracle oracles[2] = {
      QueryOracle(&datasets[0]->graph(), engines[0]->bound_ontology(),
                  options.evaluator),
      QueryOracle(&datasets[1]->graph(), engines[1]->bound_ontology(),
                  options.evaluator)};
  std::vector<size_t> small;
  bool corrupted = false;
  bool self_tested = false;
  for (size_t i = 0; i < queries.size(); ++i) {
    const ProtocolQuery& q = queries[i];
    if (!have_first[i]) continue;
    if (q.variable_source && q.mode != omega::ConjunctMode::kExact &&
        ReferenceBound(first[i], q.k) > 0) {
      small.push_back(i);
      continue;
    }
    const bool corrupt = config.corrupt && !corrupted && !first[i].empty();
    corrupted = corrupted || corrupt;
    const std::string check =
        CheckAgainstOracle(&oracles[q.dataset], q.query, q.k, first[i], corrupt);
    if (!check.empty()) {
      result.Error(q.label + ": " + check);
    } else if (!self_tested && !first[i].empty()) {
      // The check must catch one corrupted answer, or it proves nothing.
      self_tested = true;
      if (CheckAgainstOracle(&oracles[q.dataset], q.query, q.k, first[i], true)
              .empty()) {
        result.Error("self-test: a corrupted answer passed the oracle check");
      }
    }
  }
  if (!self_tested && !config.corrupt) {
    result.Error("self-test: no answer was available to corrupt");
  }
  if (!small.empty()) {
    omega::L4AllOptions l4 = omega::L4AllScalePreset(kSmallL4AllLevel);
    l4.seed = kL4AllSeed;
    const omega::L4AllDataset small_l4 = omega::GenerateL4All(l4);
    omega::YagoOptions yago;
    yago.scale = kSmallYagoScale;
    yago.seed = kYagoSeed;
    const omega::YagoDataset small_yago = omega::GenerateYago(yago);
    const omega::QueryEngine small_engines[2] = {
        omega::QueryEngine(&small_l4.graph, &small_l4.ontology),
        omega::QueryEngine(&small_yago.graph, &small_yago.ontology)};
    QueryOracle small_oracles[2] = {
        QueryOracle(&small_l4.graph, small_engines[0].bound_ontology(),
                    options.evaluator),
        QueryOracle(&small_yago.graph, small_engines[1].bound_ontology(),
                    options.evaluator)};
    for (size_t i : small) {
      const ProtocolQuery& q = queries[i];
      const EngineRun run =
          RunOnEngine(small_engines[q.dataset], q.query, q.k, options, 0);
      if (!run.error.empty()) {
        result.Error(q.label + " (small instance): " + run.error);
        continue;
      }
      const std::string check = CheckAgainstOracle(
          &small_oracles[q.dataset], q.query, q.k, run.answers, false);
      if (!check.empty()) result.Error(q.label + " (small instance): " + check);
    }
  }
  EndPhase("checks");
  samples.Count("check.small_instance_queries", static_cast<double>(small.size()));
  samples.Count("check.oracle_queries",
                static_cast<double>(queries.size() - small.size()));
  return result;
}

}  // namespace omegabench
