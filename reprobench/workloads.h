// The benchmark's workloads and the report each run prints.

#ifndef REPROBENCH_WORKLOADS_H_
#define REPROBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace reprobench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  // scratch space for service state directories
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // why `correct` is false

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

bool KnownWorkload(const std::string& workload);

// Shifts every registered case's exploration base seed by `shift`, in place,
// so that every lookup by case id sees the workload's seed -- including the
// service's worker processes, which build their cases from the registry.
void ShiftRegistrySeeds(uint64_t shift);

Report RunWorkload(const Args& args);

}  // namespace reprobench

#endif  // REPROBENCH_WORKLOADS_H_
