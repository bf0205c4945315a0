#include "oracle.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <utility>

#include "sssp/bfs.h"
#include "util/parallel.h"

namespace e2ebench {
namespace {

/// Sources per batch of distance rows (two rows of n Dist each).
constexpr size_t kOracleChunk = 256;

bool PairOrder(const ConvergingPair& a, const ConvergingPair& b) {
  if (a.delta != b.delta) return a.delta > b.delta;
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

ConvergingPair Normalized(ConvergingPair p) {
  if (p.u > p.v) std::swap(p.u, p.v);
  return p;
}

}  // namespace

Dist DeltaOracle::max_delta() const {
  for (size_t d = histogram.size(); d-- > 0;) {
    if (histogram[d] > 0) return static_cast<Dist>(d);
  }
  return 0;
}

uint64_t DeltaOracle::CountAtLeast(Dist delta) const {
  uint64_t count = 0;
  for (size_t d = static_cast<size_t>(std::max<Dist>(delta, 0));
       d < histogram.size(); ++d) {
    count += histogram[d];
  }
  return count;
}

std::vector<ConvergingPair> DeltaOracle::PairsAtLeast(Dist delta) const {
  std::vector<ConvergingPair> out;
  for (const ConvergingPair& p : pairs) {
    if (p.delta >= delta) out.push_back(p);
  }
  return out;
}

DeltaOracle ComputeDeltaOracle(const Graph& g1, const Graph& g2, int depth) {
  const NodeId n = g1.num_nodes();
  std::vector<NodeId> sources;
  for (NodeId u = 0; u < n; ++u) {
    if (g1.degree(u) > 0) sources.push_back(u);
  }
  struct Worker {
    std::vector<uint64_t> histogram;
    std::vector<ConvergingPair> pairs;
    Dist max_delta = 0;
  };
  std::vector<Worker> workers(
      static_cast<size_t>(convpairs::MaxParallelWorkers(kOracleChunk)));
  std::vector<Dist> rows[2] = {std::vector<Dist>(kOracleChunk * size_t{n}),
                               std::vector<Dist>(kOracleChunk * size_t{n})};
  for (size_t first = 0; first < sources.size(); first += kOracleChunk) {
    const std::span<const NodeId> chunk(
        sources.data() + first, std::min(kOracleChunk, sources.size() - first));
    for (int s = 0; s < 2; ++s) {
      const Graph& g = s == 0 ? g1 : g2;
      Dist* out = rows[s].data();
      convpairs::ParallelFor(chunk.size(), [&](size_t i) {
        thread_local std::vector<Dist> row;
        convpairs::BfsDistances(g, chunk[i], &row);
        std::copy(row.begin(), row.end(), out + i * size_t{n});
      });
    }
    convpairs::ParallelForBlocks(
        chunk.size(), [&](int thread_index, size_t begin, size_t end) {
          Worker& w = workers[static_cast<size_t>(thread_index)];
          for (size_t i = begin; i < end; ++i) {
            const NodeId u = chunk[i];
            const Dist* d1 = rows[0].data() + i * size_t{n};
            const Dist* d2 = rows[1].data() + i * size_t{n};
            for (NodeId v = u + 1; v < n; ++v) {
              if (!convpairs::IsReachable(d1[v])) continue;
              const Dist delta = d1[v] - d2[v];
              if (static_cast<size_t>(delta) >= w.histogram.size()) {
                w.histogram.resize(static_cast<size_t>(delta) + 1, 0);
              }
              ++w.histogram[static_cast<size_t>(delta)];
              if (delta >= 1 && delta >= w.max_delta - depth) {
                if (delta > w.max_delta) {
                  // Drop what the new maximum puts out of reach.
                  w.max_delta = delta;
                  std::erase_if(w.pairs, [&](const ConvergingPair& p) {
                    return p.delta < delta - depth;
                  });
                }
                w.pairs.push_back({u, v, delta});
              }
            }
          }
        });
  }

  DeltaOracle oracle;
  for (const Worker& w : workers) {
    if (w.histogram.size() > oracle.histogram.size()) {
      oracle.histogram.resize(w.histogram.size(), 0);
    }
    for (size_t d = 0; d < w.histogram.size(); ++d) {
      oracle.histogram[d] += w.histogram[d];
    }
  }
  oracle.min_stored = std::max<Dist>(1, oracle.max_delta() - depth);
  for (const Worker& w : workers) {
    for (const ConvergingPair& p : w.pairs) {
      if (p.delta >= oracle.min_stored) oracle.pairs.push_back(p);
    }
  }
  std::sort(oracle.pairs.begin(), oracle.pairs.end(), PairOrder);
  return oracle;
}

bool WriteDeltaOracle(const DeltaOracle& oracle, const std::string& path) {
  std::ofstream out(path);
  out << oracle.min_stored << ' ' << oracle.histogram.size();
  for (uint64_t count : oracle.histogram) out << ' ' << count;
  out << '\n' << oracle.pairs.size() << '\n';
  for (const ConvergingPair& p : oracle.pairs) {
    out << p.u << ' ' << p.v << ' ' << p.delta << '\n';
  }
  out.close();
  return static_cast<bool>(out);
}

bool ReadDeltaOracle(const std::string& path, DeltaOracle* oracle) {
  std::ifstream in(path);
  size_t buckets = 0;
  if (!(in >> oracle->min_stored >> buckets)) return false;
  oracle->histogram.assign(buckets, 0);
  for (uint64_t& count : oracle->histogram) in >> count;
  size_t num_pairs = 0;
  in >> num_pairs;
  oracle->pairs.assign(num_pairs, {});
  for (ConvergingPair& p : oracle->pairs) in >> p.u >> p.v >> p.delta;
  return static_cast<bool>(in);
}

Dist TopKThreshold(const DeltaOracle& oracle) {
  for (int offset = 2; offset >= 0; --offset) {
    const Dist delta = std::max<Dist>(1, oracle.max_delta() - offset);
    if (delta >= oracle.min_stored &&
        oracle.CountAtLeast(delta) <= kMaxOracleK) {
      return delta;
    }
  }
  return std::max<Dist>(1, oracle.max_delta());
}

bool CheckTopKPairs(const std::vector<ConvergingPair>& returned,
                    const std::vector<ConvergingPair>& truth, Dist threshold) {
  std::map<std::pair<NodeId, NodeId>, Dist> truth_delta;
  for (const ConvergingPair& raw : truth) {
    const ConvergingPair t = Normalized(raw);
    truth_delta[{t.u, t.v}] = t.delta;
  }
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const ConvergingPair& raw : returned) {
    const ConvergingPair p = Normalized(raw);
    if (!seen.insert({p.u, p.v}).second) return false;
    if (p.delta < threshold) continue;
    const auto it = truth_delta.find({p.u, p.v});
    if (it == truth_delta.end() || it->second != p.delta) return false;
  }
  return true;
}

double TopKCoverage(const std::vector<ConvergingPair>& returned,
                    const std::vector<ConvergingPair>& truth) {
  if (truth.empty()) return 1.0;
  std::set<std::pair<NodeId, NodeId>> keys;
  for (const ConvergingPair& raw : returned) {
    const ConvergingPair p = Normalized(raw);
    keys.insert({p.u, p.v});
  }
  size_t found = 0;
  for (const ConvergingPair& raw : truth) {
    const ConvergingPair t = Normalized(raw);
    if (keys.count({t.u, t.v}) != 0) ++found;
  }
  return static_cast<double>(found) / static_cast<double>(truth.size());
}

}  // namespace e2ebench
