// omega_bench: the end-to-end benchmark program. Runs one workload for a
// seed and a duration and prints, as its last line, one JSON object with
// the outcome of the correctness checks, the attempted and failed
// operation counts, and either the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <string>

#include "harness.h"
#include "obs/metrics.h"
#include "setup.h"
#include "workloads.h"

namespace omegabench {
namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper-protocol|crpq-cold|serve-refresh "
               "--seed N --seconds S --trace 0|1 --data-dir DIR "
               "--results-dir DIR [--corrupt]\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, RunConfig* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt") {
      config->corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config->workload = value;
    } else if (arg == "--seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config->seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      config->trace = value == "1";
    } else if (arg == "--data-dir") {
      config->data_dir = value;
    } else if (arg == "--results-dir") {
      config->results_dir = value;
    } else {
      return false;
    }
  }
  return !config->workload.empty() && !config->data_dir.empty() &&
         !config->results_dir.empty();
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// SpeedProbeMs() on the 4-vCPU host this benchmark was written on, at its
/// usual speed. End-to-end times are scaled to a host that runs the probe
/// in this time.
constexpr double kReferenceProbeMs = 28.0;

/// The fastest third of the run's windows, by throughput. The host slows
/// by up to 40% for tens of seconds at a time; every run also has stretches
/// at full speed, and a change to the program moves every window alike.
std::vector<const RunResult::Window*> FastestWindows(const RunResult& r) {
  std::vector<const RunResult::Window*> out;
  for (const RunResult::Window& w : r.windows) {
    if (w.ms > 0) out.push_back(&w);
  }
  std::sort(out.begin(), out.end(), [](const auto* a, const auto* b) {
    return static_cast<double>(a->completed) / a->ms >
           static_cast<double>(b->completed) / b->ms;
  });
  out.resize(std::min(out.size(), (out.size() + 2) / 3));
  return out;
}

/// The latency and TTFA values the quantiles are taken over: every sample
/// of `windows`, or, on a fixed pool, each query's median over them.
void LatencyValues(const std::vector<const RunResult::Window*>& windows,
                   bool fixed_pool, std::vector<double>* latency,
                   std::vector<double>* ttfa) {
  std::map<uint32_t, std::pair<std::vector<double>, std::vector<double>>>
      by_query;
  for (const RunResult::Window* w : windows) {
    if (!fixed_pool) {
      latency->insert(latency->end(), w->latency_ms.begin(),
                      w->latency_ms.end());
      ttfa->insert(ttfa->end(), w->ttfa_ms.begin(), w->ttfa_ms.end());
      continue;
    }
    for (size_t i = 0; i < w->query.size(); ++i) {
      auto& [l, t] = by_query[w->query[i]];
      l.push_back(w->latency_ms[i]);
      t.push_back(w->ttfa_ms[i]);
    }
  }
  for (const auto& [query, samples] : by_query) {
    latency->push_back(Quantile(samples.first, 0.5));
    ttfa->push_back(Quantile(samples.second, 0.5));
  }
}

/// The timing metrics come from the fastest third of the windows, scaled
/// by kReferenceProbeMs over the median speed probe of the run: the host's
/// speed drifts by 20-40% over minutes, the probe slows with it, and the
/// scaled times keep what the program changed. Set-up time and memory are
/// as measured.
std::vector<Metric> EndToEnd(const RunResult& r) {
  std::vector<double> probes;
  for (const RunResult::Window& w : r.windows) {
    if (w.probe_ms > 0) probes.push_back(w.probe_ms);
  }
  const std::vector<const RunResult::Window*> fastest = FastestWindows(r);
  double ms = 0;
  uint64_t completed = 0;
  for (const RunResult::Window* w : fastest) {
    ms += w->ms;
    completed += w->completed;
  }
  std::vector<double> latency, ttfa;
  LatencyValues(fastest, r.fixed_pool, &latency, &ttfa);
  const double probe_p50 = Quantile(probes, 0.5);
  const double scale = probe_p50 > 0 ? kReferenceProbeMs / probe_p50 : 1.0;
  const double qps = Ratio(static_cast<double>(completed) * 1000.0, ms);
  const double p50 = Quantile(latency, 0.50), p99 = Quantile(latency, 0.99);
  const double t50 = Quantile(ttfa, 0.50), t99 = Quantile(ttfa, 0.99);
  std::fprintf(stderr,
               "end-to-end metrics from the fastest %zu of %zu windows (%llu "
               "queries; quantiles over %zu %s), speed probe p50 %.3f ms, "
               "times scaled by %.4f; unscaled: throughput %.2f q/s, latency "
               "p50 %.4g p99 %.4g ms, ttfa p50 %.4g p99 %.4g ms\n",
               fastest.size(), r.windows.size(),
               static_cast<unsigned long long>(completed), latency.size(),
               r.fixed_pool ? "per-query medians" : "samples", probe_p50,
               scale, qps, p50, p99, t50, t99);
  return {
      {"setup_s", r.setup.Total() / 1000.0, "s"},
      {"throughput_qps", qps / scale, "q/s"},
      {"latency_ms_p50", p50 * scale, "ms"},
      {"latency_ms_p99", p99 * scale, "ms"},
      {"ttfa_ms_p50", t50 * scale, "ms"},
      {"ttfa_ms_p99", t99 * scale, "ms"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayer(const RunResult& r) {
  const auto& layer = r.samples.layer;
  const auto& counts = r.samples.counts;
  auto q = [&layer](const char* key, double p) {
    auto it = layer.find(key);
    return it == layer.end() ? 0.0 : Quantile(it->second, p);
  };
  auto count = [&counts](const char* key) {
    auto it = counts.find(key);
    return it == counts.end() ? 0.0 : it->second;
  };
  auto max_of = [&layer](const char* key) {
    auto it = layer.find(key);
    double m = 0;
    if (it != layer.end()) {
      for (double v : it->second) m = std::max(m, v);
    }
    return m;
  };
  const double subst = count("index.substitutions");
  return {
      {"rpq.parse_us_p50", q("rpq.parse_us", 0.5), "us"},
      {"automata.prepare_us_p50", q("automata.prepare_us", 0.5), "us"},
      {"plan.explain_us_p50", q("plan.explain_us", 0.5), "us"},
      {"plan.card_error_p50", q("plan.card_error", 0.5), "ratio"},
      {"eval.execute_us_p50", q("eval.execute_us", 0.5), "us"},
      {"eval.first_next_ms_p50", q("eval.first_next_ms", 0.5), "ms"},
      {"eval.first_next_ms_p99", q("eval.first_next_ms", 0.99), "ms"},
      {"eval.batch_ms_p50", q("eval.batch_ms", 0.5), "ms"},
      {"eval.popped_per_answer",
       Ratio(count("eval.popped"), count("eval.answers")), "ratio"},
      {"eval.pushed_per_answer",
       Ratio(count("eval.pushed"), count("eval.answers")), "ratio"},
      {"eval.fetches_per_answer",
       Ratio(count("eval.fetches"), count("eval.answers")), "ratio"},
      {"eval.pushed_per_popped",
       Ratio(count("eval.pushed"), count("eval.popped")), "ratio"},
      {"eval.seeds_per_query",
       Ratio(count("eval.seeds"), count("eval.queries")), "count"},
      {"eval.max_dictionary_size_p50", q("eval.max_dictionary_size", 0.5),
       "count"},
      {"eval.max_join_live_p50", q("eval.max_join_live", 0.5), "count"},
      {"index.probe_share",
       Ratio(subst, subst + count("index.fallbacks")), "ratio"},
      {"index.build_ms", r.setup.index_build_ms, "ms"},
      {"service.queue_ms_p50", q("service.queue_ms", 0.5), "ms"},
      {"service.queue_ms_p99", q("service.queue_ms", 0.99), "ms"},
      {"service.exec_ms_p50", q("service.exec_ms", 0.5), "ms"},
      {"service.exec_ms_p99", q("service.exec_ms", 0.99), "ms"},
      {"service.cache_hit_ratio",
       Ratio(count("service.cache_hits"), count("service.lookups")), "ratio"},
      {"service.swap_ms_p50", q("service.swap_ms", 0.5), "ms"},
      {"service.drain_ms_max", max_of("service.drain_ms_max"), "ms"},
      {"snapshot.write_ms", r.setup.snapshot_write_ms, "ms"},
      {"snapshot.open_ms", q("snapshot.open_ms", 0.5), "ms"},
      {"proc.cpu_ms_per_query",
       Ratio(count("proc.cpu_ms"), count("proc.queries")), "ms"},
      {"proc.minor_faults_per_query",
       Ratio(count("proc.minor_faults"), count("proc.queries")), "count"},
      {"proc.allocs_per_query",
       Ratio(count("proc.allocs"), count("proc.queries")), "count"},
      {"proc.alloc_bytes_per_answer",
       Ratio(count("proc.alloc_bytes"), count("proc.answers")), "bytes"},
      {"obs.trace_overhead_ratio",
       Ratio(count("obs.qps_untraced"), count("obs.qps_traced")), "ratio"},
  };
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[96];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  RunConfig config;
  if (!ParseArgs(argc, argv, &config)) return Usage(argv[0]);
  std::function<RunResult(const RunConfig&)> run;
  if (config.workload == "paper-protocol") {
    run = RunPaperProtocol;
  } else if (config.workload == "crpq-cold") {
    run = RunCrpqCold;
  } else if (config.workload == "serve-refresh") {
    run = RunServeRefresh;
  } else {
    return Usage(argv[0]);
  }

  const std::string tag = config.workload + "-seed" +
                          std::to_string(config.seed) + "-pid" +
                          std::to_string(getpid());
  config.data_dir += "/" + tag;
  std::error_code ec;
  std::filesystem::create_directories(config.data_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", config.data_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  omega::MetricsRegistry* global = omega::MetricsRegistry::Global();
  omega::Counter* subst =
      global->GetCounter("omega_index_probe_substitutions_total");
  omega::Counter* fallback = global->GetCounter("omega_index_probe_fallbacks_total");
  const uint64_t subst0 = subst->Value();
  const uint64_t fallback0 = fallback->Value();

  RunResult result = run(config);

  result.samples.Count("index.substitutions",
                       static_cast<double>(subst->Value() - subst0));
  result.samples.Count("index.fallbacks",
                       static_cast<double>(fallback->Value() - fallback0));
  for (double ms : OpenDurationsMs()) result.samples.Add("snapshot.open_ms", ms);
  std::filesystem::remove_all(config.data_dir, ec);

  const std::string host = HostNote(result.steal_share);
  std::fprintf(stderr, "%s\n", host.c_str());
  if (config.trace) {
    std::filesystem::create_directories(config.results_dir, ec);
    const std::string path = config.results_dir + "/spans-" + config.workload +
                             "-seed" + std::to_string(config.seed) + ".json";
    if (!SpanLog::Get().WriteJson(path)) {
      result.Error("cannot write span file " + path);
    }
    std::fprintf(stderr, "spans: %zu written to %s\n", SpanLog::Get().size(),
                 path.c_str());
    for (const auto& [name, us] : SpanLog::Get().SelfTimeUs()) {
      std::fprintf(stderr, "  self time %-20s %12.1f ms\n", name.c_str(),
                   us / 1000.0);
    }
  }
  std::string per_window;
  for (const RunResult::Window& w : result.windows) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.1f",
                  w.ms <= 0 ? 0 : static_cast<double>(w.completed) * 1000 / w.ms);
    per_window += buf;
  }
  std::fprintf(stderr, "window q/s:%s\n", per_window.c_str());
  std::string probes;
  for (const RunResult::Window& w : result.windows) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.1f", w.probe_ms);
    probes += buf;
  }
  std::fprintf(stderr, "window speed probe ms:%s\n", probes.c_str());
  // Exact work counts, printed for the README's reference figures.
  std::string work = "{";
  for (const auto& [key, value] : result.samples.counts) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    work += (work.size() > 1 ? ", \"" : "\"") + key + "\": " + buf;
  }
  std::fprintf(stderr, "work: %s}\n", work.c_str());
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }

  if (result.attempted == 0) {
    std::fprintf(stderr, "no operation was attempted\n");
    return 4;
  }
  const bool correct = result.errors.empty();
  const std::vector<Metric> metrics =
      config.trace ? PerLayer(result) : EndToEnd(result);
  std::printf("%s\n", JsonEscape(host).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace omegabench

int main(int argc, char** argv) { return omegabench::Main(argc, argv); }
