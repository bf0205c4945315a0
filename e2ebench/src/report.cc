#include "report.h"

#include <cstdio>
#include <string>

namespace e2ebench {

void OpPhase::Begin() {
  start_stat_ = ReadCpuStat();
  start_cpu_ms_ = ProcessCpuMs();
}

void OpPhase::End() {
  cpu_ms = ProcessCpuMs() - start_cpu_ms_;
  steal_share = StealShare(start_stat_, ReadCpuStat());
}

bool SetupDue(uint64_t start_ns, double seconds, int done, int reps) {
  return done < reps &&
         NowNs() >= start_ns + static_cast<uint64_t>((done + 0.5) * seconds *
                                                      1e9 / reps);
}

void AddTail(const std::vector<double>& ms, double percentile,
             Result* result) {
  const Tail tail = TailAt(ms, percentile);
  result->Add("op_ms_tail", tail.value, "ms");
  result->Info("tail_percentile", std::to_string(percentile));
  result->Info("tail_samples_beyond", std::to_string(tail.beyond));
  if (!tail.enough()) {
    result->Info("tail_short", "yes");
    std::fprintf(stderr, "e2ebench: only %zu samples beyond p%g\n",
                 tail.beyond, percentile);
  }
}

void AddClosedLoopEndToEnd(const OpPhase& phase, double setup_s,
                           double tail_percentile,
                           const CalibrationKernel& kernel, Result* result) {
  const std::vector<double> all = phase.ms.All();
  const double p50 = phase.ms.MedianOfMedians();
  result->Add("setup_s", setup_s, "s");
  result->Add("op_ms_p50", p50, "ms");
  AddTail(all, tail_percentile, result);
  // Ops per second of op time: the calibration slices between ops are not
  // the workload's.
  double busy_s = 0;
  for (double ms : all) busy_s += ms / 1e3;
  result->Add("throughput_per_s", all.size() / busy_s, "1/s");
  result->Add("op_rel_p50", p50 / kernel.MedianMs(), "ratio");
  result->Add("quality", phase.quality.MeanOfMeans(), "share");
  result->Add("peak_rss_mb", PeakRssMb(), "MiB");
  result->Info("timed_ops", std::to_string(all.size()));
  result->Info("host.calib_ms", std::to_string(kernel.MedianMs()));
  result->Info("host.calib_slices", std::to_string(kernel.slices()));
  result->Info("host.steal_share", std::to_string(phase.steal_share));
  result->Info("host.cpu_ms_per_op", std::to_string(phase.cpu_ms / all.size()));
}

LayerMetrics::Series& LayerMetrics::Find(const std::string& name) {
  for (auto& [key, series] : series_) {
    if (key == name) return series;
  }
  series_.emplace_back(name, Series{});
  return series_.back().second;
}

void LayerMetrics::Time(const std::string& name, size_t type, double ms) {
  Find(name).samples.Add(type, ms);
}

void LayerMetrics::Count(const std::string& name, size_t type, double value,
                         const char* unit) {
  Series& series = Find(name);
  series.samples.Add(type, value);
  series.unit = unit;
  series.median = false;
}

void LayerMetrics::Report(Result* result) const {
  for (const auto& [name, series] : series_) {
    result->Add(name,
                series.median ? series.samples.MedianOfMedians()
                              : series.samples.MeanOfMeans(),
                series.unit);
  }
}

void AddClosedLoopTraced(const OpPhase& phase, const GroupedSamples& traced_ms,
                         size_t ops, const CalibrationKernel& kernel,
                         const SpanRecorder& spans, const LayerMetrics& layers,
                         const std::string& spans_out, Result* result) {
  layers.Report(result);
  result->Add("host.calib_ms", kernel.MedianMs(), "ms");
  result->Add("host.cpu_ms_per_op", ops == 0 ? 0 : phase.cpu_ms / ops, "ms");
  result->Add("host.steal_share", phase.steal_share, "share");
  result->Add("trace.unattributed_share", spans.UnattributedShare(), "share");
  result->Add("obs.trace_overhead",
              traced_ms.MedianOfMedians() / phase.ms.MedianOfMedians() - 1,
              "ratio");
  if (!spans_out.empty() && !spans.WriteChromeTrace(spans_out)) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n", spans_out.c_str());
  }
}

}  // namespace e2ebench
