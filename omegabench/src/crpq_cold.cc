// crpq-cold: a closed loop of one client thread sends conjunctive queries
// of 2-3 conjuncts to a one-worker QueryService over L4All L4 with
// bypass_cache set, so the planner, the rank join, the reachability index
// and the service queue do the work and the result cache does none. The
// queries come from fixed templates whose constants (episodes of seeded
// timelines) are drawn from --seed.
#include <algorithm>
#include <random>
#include <set>

#include "datasets/l4all.h"
#include "oracle.h"
#include "rpq/query_parser.h"
#include "setup.h"
#include "workloads.h"

namespace omegabench {
namespace {

constexpr uint64_t kL4AllSeed = 42;
constexpr size_t kDistinctQueries = 48;
constexpr size_t kTopK = 10;
// One client and one worker, so one thread does the query work at a time:
// how many cores the host lends the machine swings between one and four
// within minutes, and a single busy thread is what that leaves steady. It
// also leaves the machine idle for the speed probe between walks.
constexpr size_t kClients = 1;
constexpr size_t kWorkers = 1;

// {E} and {F} are two episodes of one timeline, F later than E.
// - a selective constant-anchored conjunct sharing ?Y with an exact or
//   RELAX conjunct whose endpoints are free (the rank join evaluates the
//   latter unanchored);
// - APPROX/RELAX path conjuncts with constant sources;
// - constant-anchored closures that the planner answers with IndexProbe.
// An APPROX conjunct is only joined with a partner that leaves at least k
// answers: with fewer, the rank join has to drain the APPROX stream, which
// reaches the whole graph.
const char* const kTemplates[] = {
    "(?Y, ?Z) <- ({E}, next, ?Y), (?Y, next, ?Z)",
    "(?Y, ?Z) <- ({E}, next, ?Y), RELAX (?Y, next, ?Z)",
    "(?X) <- APPROX ({E}, next.next, ?X), APPROX ({E}, next+, ?X)",
    "(?X) <- RELAX ({E}, prereq.next, ?X), ({E}, prereq*, ?X)",
    "(?X) <- ({E}, next+, ?X), ({F}, prereq*, ?X)",
    "(?X) <- ({E}, next+, ?X), ({F}, prereq*, ?X), RELAX ({E}, next.next, ?X)",
};
// Pool make-up: templates 0-2 cost 60-130 ms each (the rank join's
// unanchored evaluation), 3-5 under a millisecond. The slow ones are two
// thirds of the pool, so the median latency falls inside the slow mode,
// where join and evaluation work shows, instead of between the two modes.
constexpr size_t kMix[] = {0, 3, 1, 4, 2, 5, 0, 1, 2};
constexpr size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);

std::string Fill(std::string text, const std::string& e, const std::string& f) {
  for (auto [key, value] : {std::pair<std::string, const std::string*>{"{E}", &e},
                            {"{F}", &f}}) {
    for (size_t pos; (pos = text.find(key)) != std::string::npos;) {
      text.replace(pos, key.size(), *value);
    }
  }
  return text;
}

/// Draws the distinct queries: templates in kMix order, episodes of a
/// seeded timeline that exist in `graph`.
std::vector<std::string> MakePool(uint64_t seed, const omega::GraphStore& graph,
                                  size_t timelines) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<std::string> pool;
  while (pool.size() < kDistinctQueries) {
    const size_t t = 1 + rng() % timelines;
    const std::string prefix = "Alumni " + std::to_string(t) + " Episode ";
    const std::string e = prefix + "1";
    const std::string f = prefix + std::to_string(2 + rng() % 2);
    if (!graph.FindNode(e) || !graph.FindNode(f)) continue;
    pool.push_back(Fill(kTemplates[kMix[pool.size() % kMixSize]], e, f));
  }
  return pool;
}

}  // namespace

RunResult RunCrpqCold(const RunConfig& config) {
  RunResult result;
  DatasetSpec spec;
  spec.kind = DatasetSpec::Kind::kL4All;
  spec.l4all_level = 4;
  spec.generator_seed = kL4AllSeed;
  spec.path = config.data_dir + "/l4all-L4.snap";
  std::string error;
  if (!WriteSnapshots({spec}, &result.setup, &error)) {
    result.Error(error);
    return result;
  }
  std::shared_ptr<const omega::Dataset> dataset =
      OpenSnapshot(spec.path, &result.setup.snapshot_open_ms, &error);
  if (dataset == nullptr) {
    result.Error(error);
    return result;
  }
  const size_t threads = kClients;
  omega::MetricsRegistry registry;
  std::unique_ptr<omega::QueryService> service;
  {
    const Clock::time_point t0 = Clock::now();
    service = std::make_unique<omega::QueryService>(
        dataset, BenchServiceOptions(kWorkers, &registry));
    result.setup.engine_ms = MsSince(t0);
  }
  EndPhase("setup");

  const std::vector<std::string> texts = MakePool(
      config.seed, dataset->graph(),
      omega::L4AllScalePreset(spec.l4all_level).num_timelines);
  std::vector<omega::Query> pool;
  for (const std::string& text : texts) {
    auto query = omega::ParseQuery(text);
    if (!query.ok()) {
      result.Error(text + ": " + query.status().ToString());
      return result;
    }
    pool.push_back(std::move(query).value());
  }
  auto submit = [&](size_t index, uint64_t query_id) {
    omega::QueryRequest request;
    request.query = omega::Clone(pool[index]);
    request.top_k = kTopK;
    request.bypass_cache = true;
    Span span("service.execute", query_id);
    return service->Execute(std::move(request));
  };
  // Warm-up: every distinct query once.
  for (size_t i = 0; i < pool.size(); ++i) submit(i, 0);
  EndPhase("warm-up");

  // Every distinct response of every distinct query, per client, for the
  // oracle check after the timed phase.
  using Responses = std::map<size_t, std::set<std::vector<omega::QueryAnswer>,
                                              AnswersLess>>;
  std::vector<Responses> seen(threads);
  std::vector<std::vector<std::string>> client_errors(threads);
  std::atomic<uint64_t> next_query_id{0};
  auto timed_phase = [&](double seconds, bool traced) {
    const ServiceTotals before = ReadServiceTotals(&registry);
    std::vector<ServiceTotals> counted(threads);
    std::vector<std::vector<Completion>> latency(threads);
    // Windows end each time the client completes a walk of the pool, so
    // each serves the whole pool once. The client then takes the speed
    // probe while the service is idle (it is the only client); the phase's
    // clock leaves the probes out.
    std::vector<double> round_ends;
    std::vector<double> round_probes;
    double probes_ms = 0;
    const Clock::time_point phase_start = Clock::now();
    auto phase_ms = [&] { return MsSince(phase_start) - probes_ms; };
    // Each client walks the pool in its own seeded order, round after round.
    std::vector<std::vector<size_t>> orders(threads);
    for (size_t c = 0; c < threads; ++c) {
      orders[c].resize(pool.size());
      for (size_t i = 0; i < pool.size(); ++i) orders[c][i] = i;
      std::mt19937_64 rng(config.seed * 1000 + c);
      std::shuffle(orders[c].begin(), orders[c].end(), rng);
    }
    Samples merged;
    const double ms = RunClosedLoop(
        threads, seconds,
        [&](size_t c, uint64_t n, Samples* samples) {
          const size_t index = orders[c][n % pool.size()];
          const uint64_t query_id = ++next_query_id;
          Span span("request", query_id);
          const Clock::time_point t0 = Clock::now();
          omega::QueryResponse response = submit(index, query_id);
          const double elapsed = MsSince(t0);
          if (!response.status.ok()) {
            ++counted[c].not_ok;
            return;
          }
          ++counted[c].ok;
          latency[c].push_back(
              {phase_ms(), elapsed, static_cast<uint32_t>(index)});
          if (response.cache_hit) ++counted[c].cache_hits;
          if (traced) {
            samples->Add("service.queue_ms", response.queue_ms);
            samples->Add("service.exec_ms", response.exec_ms);
            samples->Count("proc.answers",
                           static_cast<double>(response.answers.size()));
          }
          const std::string ranked = CheckRanked(response.answers);
          if (!ranked.empty() && client_errors[c].size() < 5) {
            client_errors[c].push_back(texts[index] + ": " + ranked);
          }
          seen[c][index].insert(std::move(response.answers));
          if ((n + 1) % pool.size() == 0) {
            round_ends.push_back(phase_ms());
            const Clock::time_point p0 = Clock::now();
            round_probes.push_back(SpeedProbeMs());
            probes_ms += MsSince(p0);
          }
        },
        &merged);
    const ServiceTotals after = ReadServiceTotals(&registry);
    ServiceTotals client;
    PhaseOutcome outcome;
    outcome.ms = ms - probes_ms;
    std::vector<Completion> all;
    for (size_t c = 0; c < threads; ++c) {
      client.ok += counted[c].ok;
      client.not_ok += counted[c].not_ok;
      client.cache_hits += counted[c].cache_hits;
      all.insert(all.end(), latency[c].begin(), latency[c].end());
    }
    // A phase shorter than one walk of the pool is one window.
    if (round_ends.empty()) round_ends.push_back(outcome.ms);
    result.windows = CutWindows(all, round_ends);
    result.fixed_pool = true;
    for (size_t i = 0; i < round_probes.size(); ++i) {
      result.windows[i].probe_ms = round_probes[i];
    }
    result.attempted += client.ok + client.not_ok;
    result.failed += client.not_ok;
    outcome.completed = client.ok;
    ReconcileTotals(before, after, client, &result);
    if (traced) result.samples.Merge(merged);
    return outcome;
  };
  RunTimedPhases(config, timed_phase, &result);
  EndPhase("timed");
  for (const auto& errors : client_errors) {
    for (const std::string& e : errors) result.Error(e);
  }

  if (config.trace) {
    std::vector<ProbeQuery> probe;
    for (const std::string& text : texts) probe.push_back({text, kTopK});
    SpanLog::Get().Enable(true);
    Samples probed;
    ProbeEngineLayers(omega::QueryEngine(&dataset->graph(), dataset->ontology(),
                                         dataset->indexes()),
                      probe, &probed);
    ProbeServiceLayers(dataset, spec.path, probe, &probed, &result.errors);
    SpanLog::Get().Enable(false);
    result.samples.FillGaps(probed);
    result.samples.Count("service.lookups", probed.counts["service.lookups"]);
    result.samples.Count("service.cache_hits",
                         probed.counts["service.cache_hits"]);
    for (const char* key : {"eval.queries", "eval.answers", "eval.popped",
                            "eval.pushed", "eval.fetches", "eval.seeds"}) {
      result.samples.Count(key, probed.counts[key]);
    }
    EndPhase("probe");
  }

  // Every distinct query once (every distinct response of it), against
  // the naive join of per-conjunct oracle answers.
  const omega::QueryEngine engine(&dataset->graph(), dataset->ontology(),
                                  dataset->indexes());
  std::vector<CheckItem> items;
  for (size_t i = 0; i < pool.size(); ++i) {
    std::set<std::vector<omega::QueryAnswer>, AnswersLess> variants;
    for (size_t c = 0; c < threads; ++c) {
      auto it = seen[c].find(i);
      if (it != seen[c].end()) variants.insert(it->second.begin(), it->second.end());
    }
    for (const auto& got : variants) items.push_back({&pool[i], &texts[i], 0, got});
  }
  CheckResponses(std::move(items),
                 {{&dataset->graph(), engine.bound_ontology()}}, kTopK,
                 ServiceThreads(), config.corrupt, &result);
  EndPhase("checks");
  return result;
}

}  // namespace omegabench
