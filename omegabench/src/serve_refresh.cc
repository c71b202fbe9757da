// serve-refresh: the closed client loop over YAGO with the result cache on.
// Clients send query text (so every request is parsed) drawn from a skewed
// pool of single- and multi-conjunct queries. Every kSwapEvery completed
// requests, the client that completes it opens the other of two snapshots
// (two generator seeds) and swaps it in with SwapDataset: the only write
// path the system has runs beside cached and uncached reads.
#include <algorithm>
#include <cmath>
#include <mutex>
#include <random>
#include <set>

#include "oracle.h"
#include "rpq/query_parser.h"
#include "setup.h"
#include "workloads.h"

namespace omegabench {
namespace {

constexpr double kYagoScale = 0.06;
constexpr size_t kPoolSize = 200;
constexpr double kZipfExponent = 1.1;
constexpr uint64_t kSwapEvery = 2000;
constexpr size_t kTopK = 10;

// {P}, {Q}: persons; {C}: a city; {N}: a country.
const char* const kTemplates[] = {
    "(?X) <- ({P}, livesIn.locatedIn, ?X)",
    "(?X) <- APPROX ({P}, livesIn.locatedIn, ?X)",
    "(?X) <- RELAX ({P}, gradFrom, ?X)",
    "(?X) <- ({C}, locatedIn-.gradFrom-, ?X)",
    "(?X, ?U) <- ({P}, marriedTo, ?X), (?X, gradFrom, ?U)",
    "(?P) <- (?P, livesIn, {C}), RELAX (?P, isCitizenOf, {N})",
    "(?X) <- RELAX ({P}, hasChild.livesIn, ?X), ({Q}, isCitizenOf.hasCapital, ?X)",
    "(?X) <- APPROX (UK, (livesIn-.hasCurrency)|(locatedIn-.gradFrom), ?X)",
    "(?X) <- RELAX (wordnet_ziggurat, type-.locatedIn-, ?X)",
};
constexpr size_t kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);

std::string Fill(std::string text, const std::map<std::string, std::string>& values) {
  for (const auto& [key, value] : values) {
    for (size_t pos; (pos = text.find(key)) != std::string::npos;) {
      text.replace(pos, key.size(), value);
    }
  }
  return text;
}

/// Entity counts of the scaled generator are at least these, whatever the
/// scale; constants are drawn below them so they exist in both datasets.
constexpr size_t kPersons = 600;
constexpr size_t kCities = 120;
constexpr size_t kCountries = 25;

std::vector<std::string> MakePool(uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 29);
  std::vector<std::string> pool;
  for (size_t i = 0; i < kPoolSize; ++i) {
    pool.push_back(Fill(
        kTemplates[i % kNumTemplates],
        {{"{P}", "person_" + std::to_string(rng() % kPersons)},
         {"{Q}", "person_" + std::to_string(rng() % kPersons)},
         {"{C}", "city_" + std::to_string(rng() % kCities)},
         {"{N}", "country_" + std::to_string(rng() % kCountries)}}));
  }
  return pool;
}

/// Zipf(kZipfExponent) sampler over pool ranks.
class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t operator()(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

using Variants = std::set<std::vector<omega::QueryAnswer>, AnswersLess>;

}  // namespace

RunResult RunServeRefresh(const RunConfig& config) {
  RunResult result;
  // Two generator seeds per run seed: the datasets the service swaps
  // between.
  std::vector<DatasetSpec> specs(2);
  for (size_t i = 0; i < 2; ++i) {
    specs[i].kind = DatasetSpec::Kind::kYago;
    specs[i].yago_scale = kYagoScale;
    specs[i].generator_seed = 1000 + 2 * config.seed + i;
    specs[i].path = config.data_dir + "/yago-" + std::to_string(i) + ".snap";
  }
  std::string error;
  if (!WriteSnapshots(specs, &result.setup, &error)) {
    result.Error(error);
    return result;
  }
  std::shared_ptr<const omega::Dataset> initial =
      OpenSnapshot(specs[0].path, &result.setup.snapshot_open_ms, &error);
  if (initial == nullptr) {
    result.Error(error);
    return result;
  }
  const size_t threads = ServiceThreads();
  omega::MetricsRegistry registry;
  std::unique_ptr<omega::QueryService> service;
  {
    const Clock::time_point t0 = Clock::now();
    service = std::make_unique<omega::QueryService>(
        initial, BenchServiceOptions(threads, &registry));
    result.setup.engine_ms = MsSince(t0);
  }
  initial.reset();
  EndPhase("setup");

  const std::vector<std::string> pool = MakePool(config.seed);
  const Zipf zipf(pool.size());
  auto submit = [&](const std::string& text, uint64_t query_id,
                    Samples* samples, bool traced) {
    omega::QueryRequest request;
    {
      Span span("rpq.parse", query_id);
      const Clock::time_point t0 = Clock::now();
      auto query = omega::ParseQuery(text);
      if (traced) samples->Add("rpq.parse_us", MsSince(t0) * 1000.0);
      if (!query.ok()) {
        omega::QueryResponse response;
        response.status = query.status();
        return response;
      }
      request.query = std::move(query).value();
    }
    request.top_k = kTopK;
    Span span("service.execute", query_id);
    return service->Execute(std::move(request));
  };
  {
    Samples ignored;
    for (const std::string& text : pool) submit(text, 0, &ignored, false);
  }
  EndPhase("warm-up");

  // Swaps are serialised so that epoch e serves dataset e % 2.
  std::mutex swap_mu;
  std::atomic<uint64_t> completions{0};
  std::atomic<uint64_t> next_query_id{0};
  std::atomic<uint64_t> epoch_errors{0};
  auto swap = [&](Samples* samples, uint64_t query_id) {
    std::lock_guard<std::mutex> lock(swap_mu);
    const uint64_t next_epoch = service->dataset_epoch() + 1;
    double open_ms = 0;
    std::string open_error;
    std::shared_ptr<const omega::Dataset> next;
    {
      Span span("snapshot.open", query_id);
      next = OpenSnapshot(specs[next_epoch % 2].path, &open_ms, &open_error);
    }
    if (next == nullptr) {
      ++epoch_errors;
      return;
    }
    Span span("service.swap", query_id);
    const Clock::time_point t0 = Clock::now();
    const omega::Status s = service->SwapDataset(std::move(next));
    samples->Add("service.swap_ms", MsSince(t0));
    if (!s.ok() || service->dataset_epoch() != next_epoch) ++epoch_errors;
  };

  // Distinct responses per (pool entry, dataset), per client.
  std::vector<std::map<std::pair<size_t, size_t>, Variants>> seen(threads);
  std::vector<std::vector<std::string>> client_errors(threads);
  auto timed_phase = [&](double seconds, bool traced) {
    const ServiceTotals before = ReadServiceTotals(&registry);
    std::vector<ServiceTotals> counted(threads);
    std::vector<std::vector<Completion>> latency(threads);
    const Clock::time_point phase_start = Clock::now();
    std::vector<std::mt19937_64> rngs;
    for (size_t c = 0; c < threads; ++c) {
      rngs.emplace_back(config.seed * 7919 + c + (traced ? 100 : 0));
    }
    Samples merged;
    const double ms = RunClosedLoop(
        threads, seconds,
        [&](size_t c, uint64_t, Samples* samples) {
          const size_t index = zipf(rngs[c]);
          const uint64_t query_id = ++next_query_id;
          Span span("request", query_id);
          const Clock::time_point t0 = Clock::now();
          omega::QueryResponse response =
              submit(pool[index], query_id, samples, traced);
          const double elapsed = MsSince(t0);
          if (!response.status.ok()) {
            ++counted[c].not_ok;
            if (client_errors[c].size() < 5) {
              client_errors[c].push_back(pool[index] + ": " +
                                         response.status.ToString());
            }
          } else {
            ++counted[c].ok;
            latency[c].push_back({MsSince(phase_start), elapsed,
                                  static_cast<uint32_t>(index)});
            if (response.cache_hit) ++counted[c].cache_hits;
            samples->Count("service.lookups", 1);
            samples->Count("service.cache_hits", response.cache_hit ? 1 : 0);
            if (traced) {
              // A cache hit is served at Submit: it neither queues nor
              // executes.
              if (!response.cache_hit) {
                samples->Add("service.queue_ms", response.queue_ms);
                samples->Add("service.exec_ms", response.exec_ms);
              }
              samples->Count("proc.answers",
                             static_cast<double>(response.answers.size()));
            }
            const std::string ranked = CheckRanked(response.answers);
            if (!ranked.empty() && client_errors[c].size() < 5) {
              client_errors[c].push_back(pool[index] + ": " + ranked);
            }
            seen[c][{index, response.epoch % 2}].insert(
                std::move(response.answers));
          }
          if (++completions % kSwapEvery == 0) swap(samples, query_id);
        },
        &merged);
    const ServiceTotals after = ReadServiceTotals(&registry);
    ServiceTotals client;
    PhaseOutcome outcome;
    outcome.ms = ms;
    std::vector<Completion> all;
    for (size_t c = 0; c < threads; ++c) {
      client.ok += counted[c].ok;
      client.not_ok += counted[c].not_ok;
      client.cache_hits += counted[c].cache_hits;
      all.insert(all.end(), latency[c].begin(), latency[c].end());
    }
    result.windows = CutWindows(all, SecondEnds(seconds));
    result.attempted += client.ok + client.not_ok;
    result.failed += client.not_ok;
    outcome.completed = client.ok;
    ReconcileTotals(before, after, client, &result);
    if (traced) result.samples.Merge(merged);
    return outcome;
  };
  RunTimedPhases(config, timed_phase, &result);
  const omega::ServiceStats stats = service->stats();
  result.samples.Add("service.drain_ms_max", stats.drain_ms_max);
  result.samples.Count("service.swaps", static_cast<double>(stats.dataset_swaps));
  EndPhase("timed");
  for (const auto& errors : client_errors) {
    for (const std::string& e : errors) result.Error(e);
  }
  if (epoch_errors > 0) result.Error("a dataset swap failed or skipped an epoch");
  service.reset();

  // Each distinct response against the oracle of the dataset its epoch
  // served.
  std::shared_ptr<const omega::Dataset> datasets[2];
  std::unique_ptr<omega::QueryEngine> engines[2];
  for (size_t i = 0; i < 2; ++i) {
    double ignored_ms = 0;
    datasets[i] = OpenSnapshot(specs[i].path, &ignored_ms, &error);
    if (datasets[i] == nullptr) {
      result.Error(error);
      return result;
    }
    engines[i] = std::make_unique<omega::QueryEngine>(
        &datasets[i]->graph(), datasets[i]->ontology(), datasets[i]->indexes());
  }
  if (config.trace) {
    std::vector<ProbeQuery> probe;
    for (const std::string& text : pool) probe.push_back({text, kTopK});
    SpanLog::Get().Enable(true);
    Samples probed;
    ProbeEngineLayers(*engines[0], probe, &probed);
    SpanLog::Get().Enable(false);
    result.samples.FillGaps(probed);
    for (const char* key : {"eval.queries", "eval.answers", "eval.popped",
                            "eval.pushed", "eval.fetches", "eval.seeds"}) {
      result.samples.Count(key, probed.counts[key]);
    }
    EndPhase("probe");
  }
  std::map<std::pair<size_t, size_t>, Variants> all;
  for (const auto& per_client : seen) {
    for (const auto& [key, variants] : per_client) {
      all[key].insert(variants.begin(), variants.end());
    }
  }
  std::vector<omega::Query> parsed;
  for (const std::string& text : pool) {
    auto query = omega::ParseQuery(text);
    if (!query.ok()) {
      result.Error(text + ": " + query.status().ToString());
      return result;
    }
    parsed.push_back(std::move(query).value());
  }
  std::vector<CheckItem> items;
  for (const auto& [key, variants] : all) {
    for (const auto& got : variants) {
      items.push_back({&parsed[key.first], &pool[key.first], key.second, got});
    }
  }
  CheckResponses(std::move(items),
                 {{&datasets[0]->graph(), engines[0]->bound_ontology()},
                  {&datasets[1]->graph(), engines[1]->bound_ontology()}},
                 kTopK, threads, config.corrupt, &result);
  EndPhase("checks");
  return result;
}

}  // namespace omegabench
