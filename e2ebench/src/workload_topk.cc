// topk: the convpairs_cli --input path, one caller, closed loop.
//
// Each op builds the 80% and 100% windows of one analog's temporal stream
// (TemporalGraph::SnapshotAtFraction) and runs FindTopKConvergingPairs.
// Op types: the four analogs at scales 1 and 4, selectors Degree, MaxMin,
// SumDiff, MMSD and L-Classifier, and m in {50, 100}: 80 types, visited in
// a seeded order that repeats. Bounded extraction in core/sssp does most
// of the work; MaxMin and L-Classifier put selection in the tail; actors,
// where pruning saves almost no visits, is the control inside the mix.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/selector_registry.h"
#include "core/selectors/classifier_selector.h"
#include "core/top_k.h"
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

using convpairs::CandidateSelector;
using convpairs::ConvergenceClassifier;
using convpairs::TemporalGraph;
using convpairs::TopKResult;

constexpr int kScales[] = {1, 4};
constexpr const char* kSelectors[] = {"Degree", "MaxMin", "SumDiff", "MMSD",
                                      "L-Classifier"};
constexpr int kBudgets[] = {50, 100};
constexpr int kSetupReps = 10;  // In the timed phase, after the first.
constexpr double kG1Fraction = 0.8;
constexpr double kG2Fraction = 1.0;

std::string WindowPath(const std::string& dir, const std::string& analog,
                       int scale, const char* ext) {
  return dir + "/topk_" + analog + "_s" + std::to_string(scale) + ext;
}

std::string ModelPath(const std::string& dir, const std::string& analog) {
  return dir + "/topk_" + analog + ".model";
}

struct Window {
  std::string analog;
  int scale = 1;
  TemporalGraph temporal;
};

struct OpType {
  size_t window = 0;
  std::unique_ptr<CandidateSelector> impl;
  convpairs::TopKOptions options;
};

struct Setup {
  std::vector<Window> windows;
  std::vector<OpType> types;
};

/// Reads the streams and loads the models: everything before the first op
/// can run. The oracles are read separately and are not part of set-up.
bool SetUp(const std::string& dir, Setup* setup) {
  setup->windows.clear();
  setup->types.clear();
  std::vector<std::shared_ptr<const ConvergenceClassifier>> models;
  for (const std::string& analog : convpairs::DatasetNames()) {
    auto model = ConvergenceClassifier::LoadFromFile(ModelPath(dir, analog));
    if (!model.ok()) {
      std::fprintf(stderr, "topk: %s\n", model.status().ToString().c_str());
      return false;
    }
    models.push_back(
        std::make_shared<const ConvergenceClassifier>(std::move(*model)));
    for (int scale : kScales) {
      auto stream = convpairs::ReadTemporalEdgeList(
          WindowPath(dir, analog, scale, ".tsv"));
      if (!stream.ok() || !convpairs::ValidateTemporalStream(*stream).ok()) {
        std::fprintf(stderr, "topk: bad stream for %s x%d\n", analog.c_str(),
                     scale);
        return false;
      }
      Window w;
      w.analog = analog;
      w.scale = scale;
      w.temporal = std::move(*stream);
      setup->windows.push_back(std::move(w));
    }
  }
  for (size_t w = 0; w < setup->windows.size(); ++w) {
    for (const char* selector : kSelectors) {
      for (int m : kBudgets) {
        OpType type;
        type.window = w;
        if (std::string(selector) == "L-Classifier") {
          type.impl = std::make_unique<convpairs::ClassifierSelector>(
              selector, models[w / std::size(kScales)]);
        } else {
          type.impl = convpairs::MakeSelector(selector).value();
        }
        type.options.budget_m = m;
        setup->types.push_back(std::move(type));
      }
    }
  }
  return true;
}

/// One oracle per window: the pairs at or above its top-k threshold
/// (`min_stored`).
bool LoadOracles(const std::string& dir, const Setup& setup,
                 std::vector<DeltaOracle>* oracles) {
  oracles->resize(setup.windows.size());
  for (size_t w = 0; w < oracles->size(); ++w) {
    const Window& window = setup.windows[w];
    if (!ReadDeltaOracle(
            WindowPath(dir, window.analog, window.scale, ".oracle"),
            &(*oracles)[w])) {
      return false;
    }
  }
  return true;
}

/// Asks every op type for its window's whole top-k set, with a seed of
/// its own.
void Configure(const std::vector<DeltaOracle>& oracles, uint64_t seed,
               Setup* setup) {
  for (size_t i = 0; i < setup->types.size(); ++i) {
    OpType& type = setup->types[i];
    const DeltaOracle& oracle = oracles[type.window];
    type.options.k = static_cast<int>(
        std::max<uint64_t>(1, oracle.CountAtLeast(oracle.min_stored)));
    type.options.seed = seed + i;
  }
}

/// The untraced op: two windows, then the whole pipeline in one call.
TopKResult RunOp(const Window& w, OpType& type) {
  convpairs::BfsEngine engine;
  const Graph g1 = w.temporal.SnapshotAtFraction(kG1Fraction);
  const Graph g2 = w.temporal.SnapshotAtFraction(kG2Fraction);
  return convpairs::FindTopKConvergingPairs(g1, g2, engine, *type.impl,
                                            type.options);
}

/// The traced op: the same pipeline as FindTopKConvergingPairs, called
/// stage by stage through the public API with a span around each call.
TopKResult RunTracedOp(const Window& w, OpType& type, size_t t,
                       SpanRecorder& spans, LayerMetrics& layers) {
  static convpairs::obs::Counter& batched_rows =
      convpairs::obs::MetricsRegistry::Global().GetCounter(
          "topk.extract.batched_rows_total");
  convpairs::BfsEngine engine;
  const int op = spans.Begin("topk.op");

  int span = spans.Begin("graph.snapshot", op);
  const Graph g1 = w.temporal.SnapshotAtFraction(kG1Fraction);
  const Graph g2 = w.temporal.SnapshotAtFraction(kG2Fraction);
  layers.Time("graph.snapshot_ms", t, spans.EndMs(span));

  const convpairs::TopKOptions& options = type.options;
  convpairs::SsspBudget budget(static_cast<int64_t>(options.budget_m) * 2);
  convpairs::Rng rng(options.seed);
  convpairs::SelectorContext context;
  context.g1 = &g1;
  context.g2 = &g2;
  context.engine = &engine;
  context.budget_m = options.budget_m;
  context.num_landmarks = options.num_landmarks;
  context.rng = &rng;
  context.budget = &budget;

  span = spans.Begin("core.select", op);
  convpairs::CandidateSet candidates = type.impl->SelectCandidates(context);
  layers.Time("core.select_ms", t, spans.EndMs(span));
  layers.Count("core.select_sssp", t, static_cast<double>(budget.used()));

  span = spans.Begin("core.rank", op);
  convpairs::ExtractOptions extract;
  extract.extra_candidates = convpairs::RankExtraCandidates(
      g1, g2, candidates.nodes, static_cast<size_t>(options.budget_m));
  layers.Time("core.rank_ms", t, spans.EndMs(span));

  const int64_t rows_before = batched_rows.value();
  span = spans.Begin("core.extract", op);
  TopKResult result = convpairs::ExtractTopKPairs(
      g1, g2, engine, candidates, options.k, &budget, extract);
  layers.Time("core.extract_ms", t, spans.EndMs(span));
  result.sssp_used = budget.used();
  result.sssp_refunded = budget.refunded();
  result.sssp_effective = budget.effective_used();
  spans.End(op);

  layers.Count("sssp.g2_settled", t,
               static_cast<double>(result.g2_nodes_settled));
  layers.Count("sssp.bounded_runs", t,
               static_cast<double>(result.bounded_sssp));
  layers.Count("core.extract_batched_rows", t,
               static_cast<double>(batched_rows.value() - rows_before));
  const size_t processed =
      result.candidates.size() + result.extra_candidates.size();
  layers.Count("core.extract_skip_share", t,
               processed == 0 ? 0
                              : static_cast<double>(result.candidates_skipped) /
                                    static_cast<double>(processed),
               "share");
  layers.Count("sssp.effective_spend", t, result.sssp_effective);
  return result;
}

bool SameResult(const TopKResult& a, const TopKResult& b) {
  return a.pairs == b.pairs && a.candidates == b.candidates &&
         a.extra_candidates == b.extra_candidates && a.sssp_used == b.sssp_used;
}

/// Checks an op's output against the oracle; returns its coverage.
double CheckOp(const DeltaOracle& oracle, const TopKResult& r,
               Result* result) {
  result->Check(CheckTopKPairs(r.pairs, oracle.pairs, oracle.min_stored));
  return TopKCoverage(r.pairs, oracle.pairs);
}

}  // namespace

bool GenerateTopK(const std::string& dir, uint64_t /*seed*/) {
  convpairs::BfsEngine engine;
  for (const std::string& analog : convpairs::DatasetNames()) {
    for (int scale : kScales) {
      auto dataset = convpairs::MakeDataset(analog, scale, kGraphSeed);
      if (!dataset.ok()) return false;
      if (!convpairs::WriteTemporalEdgeList(
               dataset->temporal, WindowPath(dir, analog, scale, ".tsv"))
               .ok()) {
        return false;
      }
      DeltaOracle oracle = ComputeDeltaOracle(dataset->g1, dataset->g2, 2);
      oracle.min_stored = TopKThreshold(oracle);
      oracle.pairs = oracle.PairsAtLeast(oracle.min_stored);
      if (!WriteDeltaOracle(oracle,
                            WindowPath(dir, analog, scale, ".oracle"))) {
        return false;
      }
      if (scale != 1) continue;
      // One L-Classifier per analog, trained on its 40%/60% split.
      convpairs::ClassifierTrainOptions train;
      auto model = ConvergenceClassifier::Train(
          {convpairs::TrainingPair{&dataset->train_g1, &dataset->train_g2}},
          engine, train);
      if (!model.ok() || !model->SaveToFile(ModelPath(dir, analog)).ok()) {
        return false;
      }
    }
  }
  return true;
}

bool RunTopK(const RunConfig& config, Result* result) {
  CalibrationKernel kernel;
  Setup setup;
  std::vector<DeltaOracle> oracles;
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const uint64_t start = NowNs();
    if (!SetUp(config.dir, &setup)) return false;
    setup_s.push_back(MsSince(start) / 1e3);
    return true;
  };
  if (!set_up() || !LoadOracles(config.dir, setup, &oracles)) return false;
  Configure(oracles, config.seed, &setup);
  AddHostInfo(result);
  result->Info("pool_threads", "1");

  // Warm-up, discarded from timing: one op per window.
  for (size_t w = 0; w < setup.windows.size(); ++w) {
    OpType& type = setup.types[w * std::size(kSelectors) * std::size(kBudgets)];
    CheckOp(oracles[w], RunOp(setup.windows[w], type), result);
    kernel.TimeSlice();
  }

  const std::vector<size_t> cycle =
      SeededPermutation(config.seed, setup.types.size());
  std::vector<std::optional<TopKResult>> first(setup.types.size());
  OpPhase untraced;
  GroupedSamples traced_ms;
  LayerMetrics layers;
  SpanRecorder spans;
  size_t ops = 0;
  untraced.Begin();
  const uint64_t phase_start = NowNs();
  const uint64_t deadline =
      phase_start + static_cast<uint64_t>(config.seconds * 1e9);
  for (size_t i = 0; NowNs() < deadline; ++i) {
    if (SetupDue(phase_start, config.seconds,
                 static_cast<int>(setup_s.size()) - 1, kSetupReps)) {
      if (!set_up()) return false;
      Configure(oracles, config.seed, &setup);
    }
    const size_t t = cycle[i % cycle.size()];
    OpType& type = setup.types[t];
    const Window& w = setup.windows[type.window];

    uint64_t start = NowNs();
    TopKResult r = RunOp(w, type);
    untraced.ms.Add(t, MsSince(start));
    untraced.quality.Add(t, CheckOp(oracles[type.window], r, result));
    ++ops;

    if (config.trace) {
      start = NowNs();
      const TopKResult staged = RunTracedOp(w, type, t, spans, layers);
      traced_ms.Add(t, MsSince(start));
      ++ops;
      result->Check(SameResult(staged, r));
    } else if (!first[t]) {
      first[t] = std::move(r);
    }
    kernel.TimeSlice();
  }
  untraced.End();

  if (!config.trace) {
    // Reproduce every op type stage by stage and compare with the
    // FindTopKConvergingPairs output the timed phase produced.
    for (size_t t = 0; t < setup.types.size(); ++t) {
      OpType& type = setup.types[t];
      const Window& w = setup.windows[type.window];
      if (!first[t]) first[t] = RunOp(w, type);
      SpanRecorder scratch_spans;
      LayerMetrics scratch_layers;
      result->Check(SameResult(
          RunTracedOp(w, type, t, scratch_spans, scratch_layers), *first[t]));
    }
    AddClosedLoopEndToEnd(untraced, Median(setup_s), kTopKTailPercentile,
                          kernel, result);
    return true;
  }

  AddClosedLoopTraced(untraced, traced_ms, ops, kernel, spans, layers,
                      config.spans_out, result);
  return true;
}

}  // namespace e2ebench
