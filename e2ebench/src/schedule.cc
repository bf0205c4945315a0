#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/rng.h"

namespace e2ebench {

std::vector<size_t> SeededPermutation(uint64_t seed, size_t n) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  convpairs::Rng rng(seed);
  rng.Shuffle(order);
  return order;
}

std::vector<ServeRequest> ServeRequests(uint64_t seed,
                                        convpairs::NodeId num_nodes,
                                        size_t count) {
  // Exact shares in a seeded order, so that every seed puts its tail
  // percentile on the same mix.
  const auto share = [count](double s) {
    return static_cast<size_t>(std::lround(s * static_cast<double>(count)));
  };
  std::vector<Verb> verbs(count, Verb::kDist);
  auto it = verbs.begin();
  it = std::fill_n(it, share(kTopKShare), Verb::kTopK);
  it = std::fill_n(it, share(kCandShare), Verb::kCand);
  std::fill_n(it, share(kDeltaShare), Verb::kDelta);
  convpairs::Rng rng(seed);
  rng.Shuffle(verbs);

  std::vector<ServeRequest> requests(count);
  for (size_t i = 0; i < count; ++i) {
    ServeRequest& r = requests[i];
    r.verb = verbs[i];
    r.s = static_cast<convpairs::NodeId>(rng.UniformInt(num_nodes));
    r.t = static_cast<convpairs::NodeId>(rng.UniformInt(num_nodes));
    r.snapshot = 1 + static_cast<int>(rng.UniformInt(2));
    const std::string s = std::to_string(r.s);
    const std::string t = std::to_string(r.t);
    switch (r.verb) {
      case Verb::kDist:
        r.line = "DIST " + s + ' ' + t + ' ' + std::to_string(r.snapshot);
        break;
      case Verb::kDelta:
        r.line = "DELTA " + s + ' ' + t;
        break;
      case Verb::kCand:
        r.line = "CAND " + s + ' ' + std::to_string(kCandBudget);
        break;
      case Verb::kTopK:
        r.line = "TOPK " + std::to_string(kTopK);
        break;
    }
  }
  return requests;
}

std::vector<uint64_t> PoissonArrivalsNs(uint64_t seed, double rate,
                                        double seconds) {
  convpairs::Rng rng(seed);
  std::vector<uint64_t> arrivals;
  double now = 0;
  while (true) {
    now += -std::log(1.0 - rng.UniformDouble()) / rate;
    if (now >= seconds) break;
    arrivals.push_back(static_cast<uint64_t>(now * 1e9));
  }
  return arrivals;
}

}  // namespace e2ebench
