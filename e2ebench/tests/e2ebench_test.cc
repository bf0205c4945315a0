// Tests of the benchmark harness itself: the tail percentile, seed purity
// of the op sequences, the oracle checks (topk pairs and serve replies),
// and the calibration kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "bench.h"
#include "host.h"
#include "oracle.h"
#include "schedule.h"
#include "serve_client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "stats.h"

namespace e2ebench {
namespace {

TEST(TailTest, FixedPercentilesAreCappedAtP99) {
  for (double p :
       {kTopKTailPercentile, kExactTailPercentile, kServeTailPercentile}) {
    EXPECT_GE(p, 50);
    EXPECT_LE(p, 99);
  }
}

TEST(TailTest, CountsTheSamplesBeyondAndFlagsAShortTail) {
  std::vector<double> values(200);
  std::iota(values.begin(), values.end(), 1.0);
  const Tail p95 = TailAt(values, 95);
  EXPECT_DOUBLE_EQ(p95.value, Quantile(values, 0.95));
  EXPECT_EQ(p95.beyond, 10u);
  EXPECT_TRUE(p95.enough());
  // A run with fewer samples keeps its percentile and is flagged.
  values.resize(199);
  EXPECT_EQ(TailAt(values, 95).beyond, 9u);
  EXPECT_FALSE(TailAt(values, 95).enough());
  EXPECT_TRUE(TailAt(values, 90).enough());
  EXPECT_EQ(TailAt({}, 90).beyond, 0u);
}

TEST(StatsTest, MedianOfMediansWeighsEachTypeOnce) {
  GroupedSamples samples;
  for (int i = 0; i < 9; ++i) samples.Add(0, 1.0);  // Many cheap ops...
  samples.Add(1, 5.0);                              // ...one mid...
  samples.Add(2, 9.0);                              // ...one dear.
  EXPECT_DOUBLE_EQ(samples.MedianOfMedians(), 5.0);
  EXPECT_DOUBLE_EQ(samples.MeanOfMeans(), 5.0);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4}, 0.5), 2.5);
}

TEST(ScheduleTest, TopKSequenceIsAPureFunctionOfTheSeed) {
  const std::vector<size_t> a = SeededPermutation(42, 80);
  EXPECT_EQ(a, SeededPermutation(42, 80));
  EXPECT_NE(a, SeededPermutation(43, 80));
  std::vector<size_t> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  std::vector<size_t> identity(80);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(sorted, identity);
}

TEST(ScheduleTest, OpenLoopScheduleIsAPureFunctionOfTheSeed) {
  const auto lines = [](uint64_t seed) {
    std::vector<std::string> out;
    for (const ServeRequest& r : ServeRequests(seed, 50000, 2048)) {
      out.push_back(r.line);
    }
    return out;
  };
  EXPECT_EQ(lines(7), lines(7));
  EXPECT_NE(lines(7), lines(8));
  EXPECT_EQ(PoissonArrivalsNs(7, 2000, 3), PoissonArrivalsNs(7, 2000, 3));
  EXPECT_NE(PoissonArrivalsNs(7, 2000, 3), PoissonArrivalsNs(8, 2000, 3));

  const std::vector<uint64_t> arrivals = PoissonArrivalsNs(7, 2000, 3);
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 6000, 300);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  // Every seed sends the same mix: 614 DELTA, 82 CAND, 20 TOPK, 1332 DIST.
  for (uint64_t seed : {7, 8}) {
    size_t count[4] = {};
    for (const ServeRequest& r : ServeRequests(seed, 50000, 2048)) {
      ++count[static_cast<size_t>(r.verb)];
    }
    EXPECT_EQ(count[static_cast<size_t>(Verb::kDist)], 1332u);
    EXPECT_EQ(count[static_cast<size_t>(Verb::kDelta)], 614u);
    EXPECT_EQ(count[static_cast<size_t>(Verb::kCand)], 82u);
    EXPECT_EQ(count[static_cast<size_t>(Verb::kTopK)], 20u);
  }
}

TEST(OracleTest, DeltaOracleMatchesAHandComputedPath) {
  // g1: path 0-1-2-3-4; g2 adds the shortcut 0-4.
  const std::vector<convpairs::Edge> path = {{0, 1, 1}, {1, 2, 1}, {2, 3, 1},
                                             {3, 4, 1}};
  std::vector<convpairs::Edge> shortcut = path;
  shortcut.push_back({0, 4, 1});
  const Graph g1 = Graph::FromEdges(5, path);
  const Graph g2 = Graph::FromEdges(5, shortcut);
  const DeltaOracle oracle = ComputeDeltaOracle(g1, g2, 2);
  // Delta: (0,4) 4->1 = 3; (0,3) 3->2 = 1; (1,4) 3->2 = 1; rest 0.
  ASSERT_EQ(oracle.max_delta(), 3);
  EXPECT_EQ(oracle.CountAtLeast(0), 10u);
  EXPECT_EQ(oracle.histogram[3], 1u);
  EXPECT_EQ(oracle.histogram[1], 2u);
  EXPECT_EQ(oracle.histogram[0], 7u);
  ASSERT_EQ(oracle.pairs.size(), 3u);
  EXPECT_EQ(oracle.pairs[0], (ConvergingPair{0, 4, 3}));
  EXPECT_EQ(TopKThreshold(oracle), 1);
}

TEST(OracleTest, CheckerCountsInjectedFaultsAsFailures) {
  const std::vector<ConvergingPair> truth = {{0, 4, 3}, {0, 3, 1}, {1, 4, 1}};
  Result result;
  result.Check(CheckTopKPairs({{0, 4, 3}, {3, 0, 1}}, truth, 1));
  EXPECT_EQ(result.failed, 0);

  // A wrong pair, a wrong delta, a repeated pair.
  result.Check(CheckTopKPairs({{0, 4, 3}, {2, 4, 1}}, truth, 1));
  result.Check(CheckTopKPairs({{0, 4, 2}}, truth, 1));
  result.Check(CheckTopKPairs({{0, 4, 3}, {4, 0, 3}}, truth, 1));
  EXPECT_EQ(result.failed, 3);

  EXPECT_EQ(result.attempted, 4);

  EXPECT_DOUBLE_EQ(TopKCoverage({{4, 0, 3}, {2, 4, 1}}, truth), 1.0 / 3);
}

TEST(OracleTest, ServeClientCountsWrongErrAndMissingRepliesAsFailures) {
  // Path 0-1-2-3-4 in both snapshots, served over loopback.
  const std::vector<convpairs::Edge> path = {{0, 1, 1}, {1, 2, 1}, {2, 3, 1},
                                             {3, 4, 1}};
  const Graph g = Graph::FromEdges(5, path);
  convpairs::server::ConvpairsServer server(g, g);
  ASSERT_TRUE(server.Start().ok());
  const std::vector<ServeRequest> requests = {
      {Verb::kDist, 0, 4, 1, "DIST 0 4 1"},
      {Verb::kDist, 0, 3, 1, "DIST 0 3 1"},
      {Verb::kDist, 0, 9, 1, "DIST 0 9 1"},  // No node 9: ERR.
  };
  const std::vector<std::string> expected = {
      convpairs::server::DistReply(4),
      convpairs::server::DistReply(2),  // Wrong: d(0, 3) = 3.
      convpairs::server::DistReply(1),
  };
  Client client(&requests, &expected);
  ASSERT_TRUE(client.Connect(server.port()));
  Result result;
  result.Check(client.RoundTrip(0, 0));
  EXPECT_EQ(result.failed, 0);
  result.Check(client.RoundTrip(1, 1));
  result.Check(client.RoundTrip(2, 2));
  EXPECT_EQ(result.failed, 2);
  server.Stop();  // Closes the connections: no reply comes.
  result.Check(client.RoundTrip(3, 0));
  EXPECT_EQ(result.attempted, 4);
  EXPECT_EQ(result.failed, 3);
}

TEST(CalibrationTest, KernelDoesConstantWork) {
  CalibrationKernel a;
  CalibrationKernel b;
  // A connected 32768-node graph with 4 edges per node, from 2 sources:
  // every node settled and every directed edge scanned, each time.
  const uint64_t expected = 2 * (32768 + 2 * 4 * 32768);
  EXPECT_EQ(a.Run(), expected);
  EXPECT_EQ(a.Run(), expected);
  EXPECT_EQ(b.Run(), expected);
  a.TimeSlice();
  a.TimeSlice();
  EXPECT_EQ(a.slices(), 2u);
  EXPECT_GT(a.MedianMs(), 0);
}

}  // namespace
}  // namespace e2ebench
