// Shared plumbing of omega_bench: clocks and percentiles, process
// counters (peak RSS, getrusage, the counting allocator), the span log of
// traced runs, the host note, and the result record every workload fills.
#ifndef OMEGABENCH_HARNESS_H_
#define OMEGABENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace omegabench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point t0) {
  return MsBetween(t0, Clock::now());
}

/// Prints to stderr how long the phase that ends now took, and the time
/// since the process started.
void EndPhase(const char* name);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Command-line settings shared by every workload.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Corrupts one answer in the copy being checked, so the run must fail.
  bool corrupt = false;
  std::string data_dir;     ///< per-run scratch (snapshots); removed at exit
  std::string results_dir;  ///< span files of traced runs
};

/// Timings of the set-up phase (see setup.h), in milliseconds.
struct SetupTimes {
  double index_build_ms = 0;  ///< ReachabilityIndex::BuildAll + sketch
  double snapshot_write_ms = 0;
  double snapshot_open_ms = 0;
  double engine_ms = 0;  ///< QueryEngine / QueryService construction
  double Total() const {
    return index_build_ms + snapshot_write_ms + snapshot_open_ms + engine_ms;
  }
};

/// Per-layer samples and exact work counts, collected per thread and
/// merged.
struct Samples {
  std::map<std::string, std::vector<double>> layer;
  std::map<std::string, double> counts;

  void Add(const std::string& key, double value) { layer[key].push_back(value); }
  void Count(const std::string& key, double delta) { counts[key] += delta; }
  /// Appends `other`'s samples and sums its counts.
  void Merge(const Samples& other);
  /// Takes `other`'s samples for every key this one has none of.
  void FillGaps(const Samples& other);
};

/// What one workload run hands back to main().
struct RunResult {
  /// A slice of the timed phase: one pass of paper-protocol, one walk of
  /// the pool by the first client of crpq-cold, one second of
  /// serve-refresh. The end-to-end metrics pool the fastest third of the
  /// windows; the per-window throughput is printed so a run with a host
  /// slowdown shows.
  struct Window {
    double ms = 0;
    uint64_t completed = 0;
    std::vector<double> latency_ms;
    std::vector<double> ttfa_ms;
    /// The pool index of each latency_ms / ttfa_ms sample.
    std::vector<uint32_t> query;
    /// SpeedProbeMs() taken at the end of the window; 0 when none was.
    double probe_ms = 0;
  };

  uint64_t attempted = 0;
  uint64_t failed = 0;
  double peak_rss_mb = 0;
  /// Share of the machine's CPU time stolen by the host while timing.
  double steal_share = 0;
  std::vector<Window> windows;
  /// Every window walks the same fixed pool of queries once (paper-protocol,
  /// crpq-cold). The latency quantiles are then taken over the pool's
  /// queries, each at its median over the selected windows, so one slow
  /// sample does not move a tail that holds only a few.
  bool fixed_pool = false;
  SetupTimes setup;
  /// Per-layer samples (traced runs) and exact work counts.
  Samples samples;
  /// Correctness failures (empty = correct).
  std::vector<std::string> errors;

  void Error(std::string message);
};

// --- process counters -------------------------------------------------------

/// VmHWM of this process, in MB.
double PeakRssMb();

struct ProcUsage {
  double cpu_ms = 0;
  uint64_t minor_faults = 0;
};
ProcUsage ReadUsage();

/// Totals of the counting global operator new (alloc_counter.cc). Counting
/// is off until EnableAllocCounting(true), so untraced runs pay one relaxed
/// load per allocation.
struct AllocTotals {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};
void EnableAllocCounting(bool on);
AllocTotals ReadAllocTotals();

// --- spans ------------------------------------------------------------------

/// In-memory span log of a traced run: (name, start, end, parent, query id)
/// per call omega_bench wraps. Written out once, when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;  ///< a string literal
    double start_us = 0;
    double end_us = 0;
    int64_t parent = -1;
    uint64_t query_id = 0;
  };

  static SpanLog& Get();
  /// Flipped only while no client thread runs.
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  int64_t Begin(const char* name, uint64_t query_id);
  void End(int64_t id);

  /// Writes {"spans":[...],"self_time_us":{name:...}} to `path`.
  bool WriteJson(const std::string& path) const;
  /// Self time per span name: duration minus the child spans it covers.
  std::map<std::string, double> SelfTimeUs() const;
  size_t size() const;

 private:
  std::atomic<bool> enabled_{false};
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// RAII span around one call; a no-op unless the span log is enabled.
/// Nested spans on one thread record their enclosing span as parent.
class Span {
 public:
  Span(const char* name, uint64_t query_id);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t id_ = -1;
  int64_t saved_parent_ = -1;
};

// --- host note --------------------------------------------------------------

/// CPU time the hypervisor took from this machine (all CPUs), in ms, from
/// the steal column of /proc/stat; 0 where it is not reported.
double StealMs();

/// nproc, the speed-up a plain ALU loop gets from 1 to nproc threads, and
/// the share of the timed phase's CPU capacity the host stole.
std::string HostNote(double steal_share);

/// Times a fixed piece of work that shares no code with the program: an
/// xorshift loop and a dependent walk over a 4 MB random cycle. Taken at
/// the end of every window of the timed phase, it tells how fast the host
/// ran this machine there (see EndToEnd in main.cc). The first call also
/// builds the cycle, so call it once before timing.
double SpeedProbeMs();

}  // namespace omegabench

#endif  // OMEGABENCH_HARNESS_H_
