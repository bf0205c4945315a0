// Shared run types for the three e2ebench workloads.
//
// A workload runs in two processes: `generate` writes the inputs and the
// oracle into a directory, and `run` reads them back, sets up, times the
// user path, checks every output against the oracle and reports one
// Result. Keeping generation out of the measured process keeps its memory
// out of peak_rss_mb and its time out of setup_s.

#ifndef E2EBENCH_BENCH_H_
#define E2EBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

/// Generator seed of every graph the workloads run on (the analogs at the
/// seed convpairs_cli uses, and BA-50k). The graphs are fixtures: the run
/// seed varies the op order, the selectors' random streams, the request
/// endpoints and the arrival times. Drawing a new graph per seed moved
/// exact's op_ms_p50 by up to 30% and its peak_rss_mb by 2.5x across five
/// seeds, which measures the inputs rather than the program.
inline constexpr uint64_t kGraphSeed = 0;

struct RunConfig {
  std::string dir;       // Inputs written by the generate step.
  uint64_t seed = 0;
  double seconds = 10;   // Length of the timed phase.
  bool trace = false;    // Per-layer (traced) run instead of end-to-end.
  std::string spans_out; // Where a traced run writes its spans.
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Run facts that are not metrics: host, tail percentile, sample counts.
  std::vector<std::pair<std::string, std::string>> info;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Info(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  /// Counts one checked operation.
  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Each workload: write inputs + oracle for `seed` into `dir`, then run.
/// Generate returns false (after printing why) on any I/O failure.
bool GenerateTopK(const std::string& dir, uint64_t seed);
bool GenerateExact(const std::string& dir, uint64_t seed);
bool GenerateServe(const std::string& dir, uint64_t seed);
bool RunTopK(const RunConfig& config, Result* result);
bool RunExact(const RunConfig& config, Result* result);
bool RunServe(const RunConfig& config, Result* result);

}  // namespace e2ebench

#endif  // E2EBENCH_BENCH_H_
