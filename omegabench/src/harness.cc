#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace omegabench {

namespace {
const Clock::time_point g_process_start = Clock::now();
Clock::time_point g_phase_start = g_process_start;
}  // namespace

void EndPhase(const char* name) {
  const Clock::time_point now = Clock::now();
  std::fprintf(stderr, "phase %-10s %8.2f s  (at %8.2f s)\n", name,
               MsBetween(g_phase_start, now) / 1000.0,
               MsBetween(g_process_start, now) / 1000.0);
  g_phase_start = now;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Samples::Merge(const Samples& other) {
  for (const auto& [key, values] : other.layer) {
    std::vector<double>& mine = layer[key];
    mine.insert(mine.end(), values.begin(), values.end());
  }
  for (const auto& [key, value] : other.counts) counts[key] += value;
}

void Samples::FillGaps(const Samples& other) {
  for (const auto& [key, values] : other.layer) {
    std::vector<double>& mine = layer[key];
    if (mine.empty()) mine = values;
  }
}

void RunResult::Error(std::string message) {
  // A handful of messages tell what broke; thousands would only flood.
  if (errors.size() < 20) errors.push_back(std::move(message));
}



double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

ProcUsage ReadUsage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 +
           static_cast<double>(tv.tv_usec) / 1000.0;
  };
  ProcUsage out;
  out.cpu_ms = ms(usage.ru_utime) + ms(usage.ru_stime);
  out.minor_faults = static_cast<uint64_t>(usage.ru_minflt);
  return out;
}

// --- spans ------------------------------------------------------------------

namespace {
// Spans kept in memory at most; a run that records more keeps the first
// ones and counts the rest as dropped.
constexpr size_t kMaxSpans = 400000;
thread_local int64_t tl_parent = -1;
}  // namespace

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

int64_t SpanLog::Begin(const char* name, uint64_t query_id) {
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  spans_.push_back({name, now, now, tl_parent, query_id});
  return static_cast<int64_t>(spans_.size() - 1);
}

void SpanLog::End(int64_t id) {
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_us = now;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> SpanLog::SelfTimeUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_us(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] +=
        std::max(0.0, spans_[i].end_us - spans_[i].start_us - child_us[i]);
  }
  return self;
}

bool SpanLog::WriteJson(const std::string& path) const {
  const std::map<std::string, double> self = SelfTimeUs();
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"dropped\":" << dropped_ << ",\"self_time_us\":{";
  bool first = true;
  for (const auto& [name, us] : self) {
    out << (first ? "" : ",") << "\"" << name << "\":" << us;
    first = false;
  }
  out << "},\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"start_us\":" << s.start_us
        << ",\"end_us\":" << s.end_us << ",\"parent\":" << s.parent
        << ",\"query\":" << s.query_id << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* name, uint64_t query_id) {
  SpanLog& log = SpanLog::Get();
  if (!log.enabled()) return;
  id_ = log.Begin(name, query_id);
  saved_parent_ = tl_parent;
  if (id_ >= 0) tl_parent = id_;
}

Span::~Span() {
  if (id_ < 0) return;
  SpanLog::Get().End(id_);
  tl_parent = saved_parent_;
}

// --- host note --------------------------------------------------------------

namespace {
// Runs a fixed xorshift loop; the result is returned so it is not elided.
uint64_t AluLoop(uint64_t iterations) {
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double AluRateWithThreads(unsigned threads, uint64_t iterations) {
  std::atomic<uint64_t> sink{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, iterations] {
      sink.fetch_add(AluLoop(iterations), std::memory_order_relaxed);
    });
  }
  for (std::thread& th : pool) th.join();
  const double ms = MsSince(t0);
  return ms <= 0 ? 0 : static_cast<double>(threads) * 1000.0 / ms;
}
}  // namespace

namespace {
constexpr uint32_t kProbeCycle = 1u << 20;  // uint32 slots: 4 MB
constexpr uint64_t kProbeAluIterations = 5'000'000;
constexpr uint32_t kProbeSteps = 500'000;
volatile uint64_t g_probe_sink = 0;

/// One random cycle through all kProbeCycle slots (Sattolo's shuffle):
/// slot i holds the slot after i.
const std::vector<uint32_t>& ProbeCycle() {
  static const std::vector<uint32_t> cycle = [] {
    std::vector<uint32_t> next(kProbeCycle);
    for (uint32_t i = 0; i < kProbeCycle; ++i) next[i] = i;
    uint64_t x = 0x2545f4914f6cdd1dULL;
    for (uint32_t i = kProbeCycle - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next[i], next[x % i]);
    }
    return next;
  }();
  return cycle;
}
}  // namespace

double SpeedProbeMs() {
  const std::vector<uint32_t>& next = ProbeCycle();
  // An untimed sweep brings the cycle back into the caches, so the timed
  // walk does not depend on what the program's work left there.
  uint64_t sink = 0;
  for (uint32_t v : next) sink += v;
  const Clock::time_point t0 = Clock::now();
  sink += AluLoop(kProbeAluIterations);
  uint32_t at = 0;
  for (uint32_t i = 0; i < kProbeSteps; ++i) at = next[at];
  sink += at;
  const double ms = MsSince(t0);
  g_probe_sink = g_probe_sink + sink;
  return ms;
}

double StealMs() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {};
  stat >> cpu;
  for (uint64_t& f : fields) stat >> f;
  if (!stat || cpu != "cpu") return 0;
  const long ticks = sysconf(_SC_CLK_TCK);
  return ticks > 0 ? static_cast<double>(fields[7]) * 1000.0 / ticks : 0;
}

std::string HostNote(double steal_share) {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  const unsigned nproc = online > 0 ? static_cast<unsigned>(online) : 1;
  constexpr uint64_t kIterations = 20'000'000;
  const double one = AluRateWithThreads(1, kIterations);
  const double all = AluRateWithThreads(nproc, kIterations);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "host: nproc=%u alu_speedup_1_to_%u=%.2f (ideal %u) "
                "steal_during_timed_phase=%.1f%%",
                nproc, nproc, one > 0 ? all / one : 0.0, nproc,
                steal_share * 100.0);
  return buf;
}

}  // namespace omegabench
