#include "setup.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>

#include "datasets/l4all.h"
#include "datasets/yago.h"
#include "index/distance_sketch.h"
#include "index/reachability_index.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"

namespace omegabench {
namespace {

struct ChildReport {
  int ok = 0;
  double index_build_ms = 0;
  double snapshot_write_ms = 0;
  char error[200] = {};
};

// Builds the indexes of one generated dataset and writes its snapshot.
bool IndexAndWrite(const omega::GraphStore& graph,
                   const omega::Ontology& ontology, const std::string& path,
                   ChildReport* report) {
  Clock::time_point t0 = Clock::now();
  const omega::ReachabilityIndex reach =
      omega::ReachabilityIndex::BuildAll(graph);
  const omega::DistanceSketch sketch = omega::DistanceSketch::Build(graph);
  report->index_build_ms += MsSince(t0);
  t0 = Clock::now();
  const omega::Status s =
      omega::WriteSnapshot(graph, &ontology, &reach, &sketch, path);
  report->snapshot_write_ms += MsSince(t0);
  if (!s.ok()) {
    std::snprintf(report->error, sizeof(report->error), "%s",
                  s.ToString().c_str());
  }
  return s.ok();
}

ChildReport BuildInChild(const std::vector<DatasetSpec>& specs) {
  ChildReport report;
  for (const DatasetSpec& spec : specs) {
    bool ok = false;
    if (spec.kind == DatasetSpec::Kind::kL4All) {
      omega::L4AllOptions options = omega::L4AllScalePreset(spec.l4all_level);
      options.seed = spec.generator_seed;
      const omega::L4AllDataset d = omega::GenerateL4All(options);
      ok = IndexAndWrite(d.graph, d.ontology, spec.path, &report);
    } else {
      omega::YagoOptions options;
      options.scale = spec.yago_scale;
      options.seed = spec.generator_seed;
      const omega::YagoDataset d = omega::GenerateYago(options);
      ok = IndexAndWrite(d.graph, d.ontology, spec.path, &report);
    }
    if (!ok) return report;
  }
  report.ok = 1;
  return report;
}

std::mutex g_open_mu;
std::vector<double> g_open_ms;  // guarded by g_open_mu

}  // namespace

bool WriteSnapshots(const std::vector<DatasetSpec>& specs, SetupTimes* times,
                    std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    const ChildReport report = BuildInChild(specs);
    const ssize_t n = write(fds[1], &report, sizeof(report));
    _exit(n == static_cast<ssize_t>(sizeof(report)) ? 0 : 1);
  }
  close(fds[1]);
  ChildReport report;
  size_t got = 0;
  while (got < sizeof(report)) {
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(&report) + got,
                           sizeof(report) - got);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int wstatus = 0;
  while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof(report) || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0) {
    *error = "dataset generation child failed";
    return false;
  }
  if (report.ok == 0) {
    *error = std::string("snapshot write failed: ") + report.error;
    return false;
  }
  times->index_build_ms += report.index_build_ms;
  times->snapshot_write_ms += report.snapshot_write_ms;
  return true;
}

std::shared_ptr<const omega::Dataset> OpenSnapshot(const std::string& path,
                                                   double* ms,
                                                   std::string* error) {
  const Clock::time_point t0 = Clock::now();
  auto dataset = omega::SnapshotReader::Open(path);
  const double elapsed = MsSince(t0);
  *ms += elapsed;
  {
    std::lock_guard<std::mutex> lock(g_open_mu);
    g_open_ms.push_back(elapsed);
  }
  if (!dataset.ok()) {
    *error = "open " + path + ": " + dataset.status().ToString();
    return nullptr;
  }
  return std::move(dataset).value();
}

std::vector<double> OpenDurationsMs() {
  std::lock_guard<std::mutex> lock(g_open_mu);
  return g_open_ms;
}

}  // namespace omegabench
