// Set-up of a run: generates the datasets, builds their indexes and writes
// them as snapshots. Generation happens in a forked child process so the
// generator's memory never shows in omega_bench's peak RSS; the child times
// the index build and the snapshot write and reports them back.
#ifndef OMEGABENCH_SETUP_H_
#define OMEGABENCH_SETUP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "snapshot/dataset.h"

namespace omegabench {

struct DatasetSpec {
  enum class Kind { kL4All, kYago };
  Kind kind = Kind::kL4All;
  int l4all_level = 4;      ///< kL4All: the paper's scale preset L1..L4
  double yago_scale = 0.02;  ///< kYago
  uint64_t generator_seed = 0;
  std::string path;  ///< where the snapshot is written
};

/// Generates, indexes and writes every spec's snapshot; adds the index
/// build and snapshot write times to `times`. False (with `error`) when the
/// child failed.
bool WriteSnapshots(const std::vector<DatasetSpec>& specs, SetupTimes* times,
                    std::string* error);

/// SnapshotReader::Open, timed into `*ms` (added). Null on failure.
std::shared_ptr<const omega::Dataset> OpenSnapshot(const std::string& path,
                                                   double* ms,
                                                   std::string* error);

/// The duration of every OpenSnapshot call of the process so far.
std::vector<double> OpenDurationsMs();

}  // namespace omegabench

#endif  // OMEGABENCH_SETUP_H_
