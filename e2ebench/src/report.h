// End-to-end report shared by the two closed-loop workloads (topk, exact).

#ifndef E2EBENCH_REPORT_H_
#define E2EBENCH_REPORT_H_

#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "host.h"
#include "spans.h"
#include "stats.h"

namespace e2ebench {

/// What one timed closed-loop phase measured, split by op type.
struct OpPhase {
  GroupedSamples ms;
  GroupedSamples quality;
  double cpu_ms = 0;
  double steal_share = 0;

  /// Starts the phase clocks.
  void Begin();
  /// Stops them; `cpu_ms` and `steal_share` become valid.
  void End();

 private:
  double start_cpu_ms_ = 0;
  CpuStat start_stat_;
};

/// Whether the next of `reps` set-up repetitions spread evenly over a timed
/// phase of `seconds` from `start_ns` is due, `done` of them having run.
/// Set-up is timed through the phase, between ops, so that it sees the
/// same host as the ops: on a drifting host, set-ups run back to back
/// before the phase moved by up to 26% (IQR over median, ten seeds) while
/// the ops moved by 6%.
bool SetupDue(uint64_t start_ns, double seconds, int done, int reps);

/// op_ms_tail: the `percentile` of `ms`, with the percentile and the
/// samples beyond it as info. A tail on fewer than kTailMinBeyond samples
/// is flagged, not moved to a lower percentile.
void AddTail(const std::vector<double>& ms, double percentile, Result* result);

/// setup_s, op_ms_p50, op_ms_tail, throughput_per_s, op_rel_p50, quality
/// and peak_rss_mb, plus the tail percentile and host facts as info.
void AddClosedLoopEndToEnd(const OpPhase& phase, double setup_s,
                           double tail_percentile,
                           const CalibrationKernel& kernel, Result* result);

/// Per-op layer measurements of a traced closed-loop run, by op type.
/// Times report as per-op medians (median over types of each type's
/// median), counts and shares as per-op means.
class LayerMetrics {
 public:
  void Time(const std::string& name, size_t type, double ms);
  void Count(const std::string& name, size_t type, double value,
             const char* unit = "count");
  void Report(Result* result) const;

 private:
  struct Series {
    GroupedSamples samples;
    const char* unit = "ms";
    bool median = true;
  };
  std::vector<std::pair<std::string, Series>> series_;  // Insertion order.

  Series& Find(const std::string& name);
};

/// The traced run's report for a closed-loop workload: the layer metrics,
/// host.calib_ms, host.cpu_ms_per_op, host.steal_share,
/// trace.unattributed_share and obs.trace_overhead (traced
/// vs untraced ops of the same types, interleaved in `phase`). Writes the
/// spans to `spans_out` when it is set.
void AddClosedLoopTraced(const OpPhase& phase, const GroupedSamples& traced_ms,
                         size_t ops, const CalibrationKernel& kernel,
                         const SpanRecorder& spans, const LayerMetrics& layers,
                         const std::string& spans_out, Result* result);

}  // namespace e2ebench

#endif  // E2EBENCH_REPORT_H_
