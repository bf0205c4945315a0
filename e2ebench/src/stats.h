// Order statistics for the benchmark's reports.
//
// A workload's ops come in types (topk: analog x scale x selector x m;
// exact: analog x split) whose costs differ by up to 20x. A run that stops
// mid-cycle holds a few more ops of some types than of others, and a plain
// median over such a mixture can jump across the gap between two types.
// So op_ms_p50 is the median over op types of each type's median: every
// type counts once, however many of its ops fit in the run.

#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace e2ebench {

/// Linearly interpolated quantile, q in [0, 1]; 0 for no values.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// op_ms_tail's percentile, fixed per workload so that a faster program
/// is compared at the same percentile as its parent. topk and exact take
/// the highest of p50/p75/p90/p95 that left at least twenty samples beyond
/// it in every 20 s run on the reference host, twice kTailMinBeyond, so a
/// slower program still qualifies. serve takes p90: 3-4% of its open-loop
/// requests stall for about 40 ms, so p95 sat within a point of that stall
/// population and p99 inside it.
inline constexpr double kTopKTailPercentile = 90;
inline constexpr double kExactTailPercentile = 75;
inline constexpr double kServeTailPercentile = 90;
/// A run whose tail rests on fewer samples than this is flagged in its
/// info line (tail_short) and on stderr.
inline constexpr size_t kTailMinBeyond = 10;

struct Tail {
  double value = 0;
  size_t beyond = 0;  // Samples above the percentile.
  bool enough() const { return beyond >= kTailMinBeyond; }
};
/// The `percentile` of `values` and how many samples lie beyond it.
Tail TailAt(const std::vector<double>& values, double percentile);

/// Samples split by op type.
class GroupedSamples {
 public:
  void Add(size_t group, double value);
  std::vector<double> All() const;
  /// Median over non-empty groups of each group's median.
  double MedianOfMedians() const;
  /// Mean over non-empty groups of each group's mean.
  double MeanOfMeans() const;

 private:
  std::vector<std::vector<double>> groups_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_STATS_H_
