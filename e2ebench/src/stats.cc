#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace e2ebench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * (values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - lo) * (values[hi] - values[lo]);
}

Tail TailAt(const std::vector<double>& values, double percentile) {
  return {Quantile(values, percentile / 100),
          static_cast<size_t>(values.size() * (100 - percentile) / 100)};
}

void GroupedSamples::Add(size_t group, double value) {
  if (group >= groups_.size()) groups_.resize(group + 1);
  groups_[group].push_back(value);
}

std::vector<double> GroupedSamples::All() const {
  std::vector<double> all;
  for (const auto& g : groups_) all.insert(all.end(), g.begin(), g.end());
  return all;
}

double GroupedSamples::MedianOfMedians() const {
  std::vector<double> medians;
  for (const auto& g : groups_) {
    if (!g.empty()) medians.push_back(Median(g));
  }
  return Median(std::move(medians));
}

double GroupedSamples::MeanOfMeans() const {
  double sum = 0;
  size_t groups = 0;
  for (const auto& g : groups_) {
    if (g.empty()) continue;
    sum += std::accumulate(g.begin(), g.end(), 0.0) / g.size();
    ++groups;
  }
  return groups == 0 ? 0 : sum / groups;
}

}  // namespace e2ebench
