// exact: the --exact and paper-reproduction path, closed loop, fixed pool.
//
// Each op runs ComputeGroundTruth, builds the pair graph G^p_k at
// delta = max - 1, runs GreedyVertexCover and measures the CoverageFraction
// of the MMSD candidate set the generate step stored. Ops rotate over the
// facebook, dblp and internet analogs at scale 1, each in its 80%/100% and
// 40%/60% splits. All-pairs MS-BFS rows on the util pool do nearly all the
// work and neither extraction nor the server runs, so this is the bypass
// workload for top-k changes and the only one where pool scheduling shows.
//
// The pool size is pinned: 3 threads. Measured on a 4-vCPU host
// (facebook x1, 80%/100%), ComputeGroundTruth with 2 threads is bimodal
// (about 240 or about 400 ms), with 4 threads its range is 165-190 ms, and
// with 3 threads it is 213-220 ms.

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "core/ground_truth.h"
#include "core/selector_registry.h"
#include "core/top_k.h"
#include "cover/coverage.h"
#include "cover/greedy_cover.h"
#include "cover/pair_graph.h"
#include "gen/datasets.h"
#include "graph/graph_io.h"
#include "graph/validation.h"
#include "host.h"
#include "obs/registry.h"
#include "oracle.h"
#include "report.h"
#include "schedule.h"
#include "spans.h"
#include "sssp/dijkstra.h"
#include "stats.h"

namespace e2ebench {
namespace {

using convpairs::GroundTruth;
using convpairs::PairGraph;

constexpr const char* kAnalogs[] = {"facebook", "dblp", "internet"};
constexpr double kSplits[][2] = {{0.8, 1.0}, {0.4, 0.6}};
constexpr int kPoolThreads = 3;
constexpr int kDepth = 2;
constexpr int kThresholdOffset = 1;
constexpr int kMmsdBudget = 100;
constexpr int kSetupReps = 14;  // In the timed phase, after the first.

std::string StreamPath(const std::string& dir, const std::string& analog) {
  return dir + "/exact_" + analog + ".tsv";
}

std::string SplitPath(const std::string& dir, const std::string& analog,
                      size_t split, const char* ext) {
  return dir + "/exact_" + analog + "_split" + std::to_string(split) + ext;
}

struct Config {
  std::string analog;
  size_t split = 0;
  Graph g1;
  Graph g2;
};

/// What the generate step stored for one config; not part of set-up.
struct Truth {
  DeltaOracle oracle;
  std::vector<NodeId> mmsd;  // MMSD candidate set.
};

/// Reads the three streams and builds both splits of each.
bool SetUp(const std::string& dir, std::vector<Config>* configs) {
  configs->clear();
  for (const char* analog : kAnalogs) {
    auto stream = convpairs::ReadTemporalEdgeList(StreamPath(dir, analog));
    if (!stream.ok() || !convpairs::ValidateTemporalStream(*stream).ok()) {
      std::fprintf(stderr, "exact: bad stream for %s\n", analog);
      return false;
    }
    for (size_t split = 0; split < std::size(kSplits); ++split) {
      Config c;
      c.analog = analog;
      c.split = split;
      c.g1 = stream->SnapshotAtFraction(kSplits[split][0]);
      c.g2 = stream->SnapshotAtFraction(kSplits[split][1]);
      configs->push_back(std::move(c));
    }
  }
  return true;
}

bool LoadTruths(const std::string& dir, const std::vector<Config>& configs,
                std::vector<Truth>* truths) {
  truths->resize(configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    const Config& c = configs[i];
    Truth& truth = (*truths)[i];
    if (!ReadDeltaOracle(SplitPath(dir, c.analog, c.split, ".oracle"),
                         &truth.oracle)) {
      return false;
    }
    std::ifstream in(SplitPath(dir, c.analog, c.split, ".mmsd"));
    NodeId node = 0;
    while (in >> node) truth.mmsd.push_back(node);
  }
  return true;
}

struct OpOutput {
  GroundTruth gt;
  PairGraph pairs;
  convpairs::CoverResult cover;
  double coverage = 0;
};

double ProcessCpuNowMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

OpOutput RunOp(const Config& c, const std::vector<NodeId>& mmsd) {
  convpairs::BfsEngine engine;
  OpOutput out;
  out.gt = convpairs::ComputeGroundTruth(c.g1, c.g2, engine, kDepth,
                                         kPoolThreads);
  out.pairs = PairGraph(
      out.gt.PairsAtLeast(out.gt.DeltaThreshold(kThresholdOffset)));
  out.cover = convpairs::GreedyVertexCover(out.pairs);
  out.coverage = convpairs::CoverageFraction(out.pairs, mmsd);
  return out;
}

OpOutput RunTracedOp(const Config& c, const std::vector<NodeId>& mmsd,
                     size_t t, SpanRecorder& spans, LayerMetrics& layers) {
  auto& registry = convpairs::obs::MetricsRegistry::Global();
  static convpairs::obs::Counter& steals =
      registry.GetCounter("util.pool.steals");
  static convpairs::obs::Counter& inline_regions =
      registry.GetCounter("util.pool.inline_regions");
  static convpairs::obs::Counter& batches =
      registry.GetCounter("sssp.bfs.msbfs.batches");
  static convpairs::obs::Counter& gain_evals =
      registry.GetCounter("cover.celf.gain_evals_total");
  convpairs::BfsEngine engine;
  OpOutput out;
  const int op = spans.Begin("exact.op");

  const int64_t steals0 = steals.value();
  const int64_t inline0 = inline_regions.value();
  const int64_t batches0 = batches.value();
  const double cpu0 = ProcessCpuNowMs();
  int span = spans.Begin("core.groundtruth", op);
  out.gt = convpairs::ComputeGroundTruth(c.g1, c.g2, engine, kDepth,
                                         kPoolThreads);
  const double groundtruth_ms = spans.EndMs(span);
  layers.Time("core.groundtruth_ms", t, groundtruth_ms);
  layers.Count("util.pool_efficiency", t,
               (ProcessCpuNowMs() - cpu0) / (groundtruth_ms * kPoolThreads),
               "share");
  layers.Count("util.pool_steals", t,
               static_cast<double>(steals.value() - steals0));
  layers.Count("util.pool_inline_regions", t,
               static_cast<double>(inline_regions.value() - inline0));
  layers.Count("sssp.msbfs_batches", t,
               static_cast<double>(batches.value() - batches0));

  span = spans.Begin("cover.pairgraph", op);
  out.pairs = PairGraph(
      out.gt.PairsAtLeast(out.gt.DeltaThreshold(kThresholdOffset)));
  layers.Time("cover.pairgraph_ms", t, spans.EndMs(span));

  const int64_t evals0 = gain_evals.value();
  span = spans.Begin("cover.greedy", op);
  out.cover = convpairs::GreedyVertexCover(out.pairs);
  layers.Time("cover.greedy_ms", t, spans.EndMs(span));
  layers.Count("cover.gain_evals", t,
               static_cast<double>(gain_evals.value() - evals0));

  span = spans.Begin("cover.coverage", op);
  out.coverage = convpairs::CoverageFraction(out.pairs, mmsd);
  layers.Time("cover.coverage_ms", t, spans.EndMs(span));
  spans.End(op);
  return out;
}

/// The Delta histogram and the stored pair set equal the oracle's, and the
/// greedy cover covers G^p_k.
bool CheckOp(const DeltaOracle& oracle, const OpOutput& out) {
  if (out.gt.max_delta() != oracle.max_delta()) return false;
  for (Dist d = 0; d <= oracle.max_delta(); ++d) {
    if (out.gt.CountExactly(d) != oracle.histogram[static_cast<size_t>(d)]) {
      return false;
    }
  }
  if (out.gt.stored_min_delta() != oracle.min_stored ||
      out.gt.PairsAtLeast(oracle.min_stored) != oracle.pairs) {
    return false;
  }
  return convpairs::IsVertexCover(out.pairs, out.cover.nodes);
}

}  // namespace

bool GenerateExact(const std::string& dir, uint64_t /*seed*/) {
  convpairs::BfsEngine engine;
  for (const char* analog : kAnalogs) {
    auto dataset = convpairs::MakeDataset(analog, 1.0, kGraphSeed);
    if (!dataset.ok() ||
        !convpairs::WriteTemporalEdgeList(dataset->temporal,
                                          StreamPath(dir, analog))
             .ok()) {
      return false;
    }
    for (size_t split = 0; split < std::size(kSplits); ++split) {
      const Graph g1 = dataset->temporal.SnapshotAtFraction(kSplits[split][0]);
      const Graph g2 = dataset->temporal.SnapshotAtFraction(kSplits[split][1]);
      const DeltaOracle oracle =
          ComputeDeltaOracle(g1, g2, kDepth);
      if (!WriteDeltaOracle(oracle, SplitPath(dir, analog, split, ".oracle"))) {
        return false;
      }
      convpairs::TopKOptions options;
      options.budget_m = kMmsdBudget;
      options.seed = kGraphSeed;
      auto mmsd = convpairs::MakeSelector("MMSD").value();
      const convpairs::TopKResult r =
          convpairs::FindTopKConvergingPairs(g1, g2, engine, *mmsd, options);
      std::ofstream out(SplitPath(dir, analog, split, ".mmsd"));
      for (NodeId node : r.candidates) out << node << '\n';
      if (!out) return false;
    }
  }
  return true;
}

bool RunExact(const RunConfig& config, Result* result) {
  CalibrationKernel kernel;
  std::vector<Config> configs;
  std::vector<Truth> truths;
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const uint64_t start = NowNs();
    if (!SetUp(config.dir, &configs)) return false;
    setup_s.push_back(MsSince(start) / 1e3);
    return true;
  };
  if (!set_up() || !LoadTruths(config.dir, configs, &truths)) return false;
  AddHostInfo(result);
  result->Info("pool_threads", std::to_string(kPoolThreads));

  // Warm-up, discarded from timing: one rotation (also spawns the pool).
  for (size_t t = 0; t < configs.size(); ++t) {
    result->Check(
        CheckOp(truths[t].oracle, RunOp(configs[t], truths[t].mmsd)));
    kernel.TimeSlice();
  }

  const std::vector<size_t> rotation =
      SeededPermutation(config.seed, configs.size());
  OpPhase phase;
  GroupedSamples traced_ms;
  LayerMetrics layers;
  SpanRecorder spans;
  size_t ops = 0;
  phase.Begin();
  const uint64_t phase_start = NowNs();
  const uint64_t deadline =
      phase_start + static_cast<uint64_t>(config.seconds * 1e9);
  for (size_t i = 0; NowNs() < deadline; ++i) {
    if (SetupDue(phase_start, config.seconds,
                 static_cast<int>(setup_s.size()) - 1, kSetupReps) &&
        !set_up()) {
      return false;
    }
    const size_t t = rotation[i % rotation.size()];
    const Config& c = configs[t];
    const Truth& truth = truths[t];
    uint64_t start = NowNs();
    const OpOutput out = RunOp(c, truth.mmsd);
    phase.ms.Add(t, MsSince(start));
    phase.quality.Add(t, out.coverage);
    result->Check(CheckOp(truth.oracle, out));
    ++ops;
    if (config.trace) {
      start = NowNs();
      const OpOutput traced = RunTracedOp(c, truth.mmsd, t, spans, layers);
      traced_ms.Add(t, MsSince(start));
      result->Check(CheckOp(truth.oracle, traced));
      ++ops;
    }
    kernel.TimeSlice();
  }
  phase.End();

  if (!config.trace) {
    AddClosedLoopEndToEnd(phase, Median(setup_s), kExactTailPercentile,
                          kernel, result);
    return true;
  }
  AddClosedLoopTraced(phase, traced_ms, ops, kernel, spans, layers,
                      config.spans_out, result);
  return true;
}

}  // namespace e2ebench
