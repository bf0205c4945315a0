// Seeded op sequences. Everything here is a pure function of its
// arguments, so one seed always replays the same ops in the same order.

#ifndef E2EBENCH_SCHEDULE_H_
#define E2EBENCH_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.h"

namespace e2ebench {

/// A seeded permutation of [0, n): the topk workload's repeating cycle
/// over its op types.
std::vector<size_t> SeededPermutation(uint64_t seed, size_t n);

enum class Verb : uint8_t { kDist, kDelta, kCand, kTopK };

/// One request of the serve mix, with its protocol line (no newline).
struct ServeRequest {
  Verb verb = Verb::kDist;
  convpairs::NodeId s = 0;
  convpairs::NodeId t = 0;
  int snapshot = 1;
  std::string line;
};

/// CAND budget and TOPK k used by every request of those verbs.
inline constexpr int kCandBudget = 64;
inline constexpr int kTopK = 10;

/// The serve mix; DIST (either snapshot) takes the rest, about 65%.
inline constexpr double kDeltaShare = 0.30;
inline constexpr double kCandShare = 0.04;
inline constexpr double kTopKShare = 0.01;

/// `count` requests over [0, num_nodes), each verb's share rounded to a
/// whole number of requests.
std::vector<ServeRequest> ServeRequests(uint64_t seed,
                                        convpairs::NodeId num_nodes,
                                        size_t count);

/// Poisson arrival times (ns from the phase start) at `rate` per second
/// over `seconds`.
std::vector<uint64_t> PoissonArrivalsNs(uint64_t seed, double rate,
                                        double seconds);

}  // namespace e2ebench

#endif  // E2EBENCH_SCHEDULE_H_
