// Oracles the generate step writes and the checks the run step applies.
//
// The Delta oracle runs a BFS from every source in both snapshots and
// compares the rows itself; it never calls ComputeGroundTruth or the
// bounded extraction, which are what the workloads time.

#ifndef E2EBENCH_ORACLE_H_
#define E2EBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace e2ebench {

using convpairs::ConvergingPair;
using convpairs::Dist;
using convpairs::Graph;
using convpairs::NodeId;

/// Exact distribution of Delta(u,v) = d1 - d2 over pairs connected in g1,
/// and every pair with Delta >= max - depth (and >= 1).
struct DeltaOracle {
  std::vector<uint64_t> histogram;    // index = Delta
  std::vector<ConvergingPair> pairs;  // (delta desc, u asc, v asc), u < v
  Dist min_stored = 1;

  Dist max_delta() const;
  uint64_t CountAtLeast(Dist delta) const;
  std::vector<ConvergingPair> PairsAtLeast(Dist delta) const;
};

/// Rows come from the serial BFS (BfsDistances), which shares no code with
/// the engines under test.
DeltaOracle ComputeDeltaOracle(const Graph& g1, const Graph& g2, int depth);

bool WriteDeltaOracle(const DeltaOracle& oracle, const std::string& path);
bool ReadDeltaOracle(const std::string& path, DeltaOracle* oracle);

/// Largest top-k set the topk workload asks for.
inline constexpr uint64_t kMaxOracleK = 1000;

/// The paper's threshold rule: the lowest delta = max - {2,1,0} whose pair
/// set has at most kMaxOracleK pairs (max itself if none does).
Dist TopKThreshold(const DeltaOracle& oracle);

/// True when every returned pair at or above `threshold` is in `truth`
/// (all pairs at or above it) with the same Delta, and no pair repeats.
bool CheckTopKPairs(const std::vector<ConvergingPair>& returned,
                    const std::vector<ConvergingPair>& truth, Dist threshold);

/// Share of `truth` that `returned` contains (paper coverage of top-k).
double TopKCoverage(const std::vector<ConvergingPair>& returned,
                    const std::vector<ConvergingPair>& truth);

}  // namespace e2ebench

#endif  // E2EBENCH_ORACLE_H_
