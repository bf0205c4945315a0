// serve: the convpairs_server path over varint .cps snapshots.
//
// An in-process ConvpairsServer serves the BA-50k snapshot pair the
// generate step wrote as .cps files. One client thread drives it through
// the line protocol over kConnections loopback connections: first an
// open-loop Poisson phase at kOpenLoopRate (independent users), then a
// closed-loop saturation phase with kInFlight requests outstanding on each
// connection (capacity, which an open loop at a fixed rate cannot show).
// Goal-directed batched MS-BFS over the compressed view and the server
// stages do the work; no extraction or pool code runs in the timed
// phases. The cached TOPK is filled during set-up.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/selector_registry.h"
#include "core/top_k.h"
#include "gen/ba_generator.h"
#include "graph/codec/decompressor.h"
#include "graph/io/snapshot_io.h"
#include "host.h"
#include "obs/registry.h"
#include "oracle.h"
#include "report.h"
#include "schedule.h"
#include "serve_client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/snapshots.h"
#include "spans.h"
#include "sssp/bfs.h"
#include "sssp/dijkstra.h"
#include "stats.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace e2ebench {
namespace {

namespace srv = convpairs::server;

constexpr uint32_t kNodes = 50000;
constexpr uint32_t kEdgesPerNode = 3;
constexpr double kG1Fraction = 0.85;
constexpr size_t kRequestCount = 2048;
// At 500 req/s the dispatchers ran near half load, and the open-loop p50
// and p90 moved by 15% and 22% (IQR over median, five seeds) as steal went
// from 0.2% to 6%; at 250 req/s, alternating with those runs, by 3% and 4%.
constexpr double kOpenLoopRate = 250;
constexpr double kOpenLoopShare = 0.6;
constexpr double kWarmupSeconds = 0.5;
constexpr double kStallMs = 35;
constexpr int kSetupReps = 7;
constexpr int kCalibSlicesPerPause = 20;

std::string CpsPath(const std::string& dir, int snapshot) {
  return dir + "/serve_g" + std::to_string(snapshot) + ".cps";
}

std::string RequestsPath(const std::string& dir) {
  return dir + "/serve.requests";
}

/// The TOPK cache configuration the server runs with (its defaults).
srv::TopKConfig ServerTopKConfig() { return srv::TopKConfig{}; }

/// CAND's reply from v's full rows: partners u with d1 - d2 > 0, best
/// first (ties to the lower id), as many as the budget verifies at two
/// SSSPs each, capped at kMaxCandReply.
std::string CandReply(NodeId v, const std::vector<Dist>& row1,
                      const std::vector<Dist>& row2) {
  struct Partner {
    NodeId u;
    Dist delta;
  };
  std::vector<Partner> partners;
  for (NodeId u = 0; u < row1.size(); ++u) {
    if (u == v || !convpairs::IsReachable(row1[u]) ||
        !convpairs::IsReachable(row2[u])) {
      continue;
    }
    if (row1[u] > row2[u]) partners.push_back({u, row1[u] - row2[u]});
  }
  std::sort(partners.begin(), partners.end(),
            [](const Partner& a, const Partner& b) {
              if (a.delta != b.delta) return a.delta > b.delta;
              return a.u < b.u;
            });
  const size_t keep = std::min({partners.size(), srv::kMaxCandReply,
                                static_cast<size_t>(kCandBudget / 2)});
  std::string reply = "OK " + std::to_string(keep);
  for (size_t i = 0; i < keep; ++i) {
    reply += ' ' + std::to_string(partners[i].u) + ' ' +
             std::to_string(partners[i].delta);
  }
  return reply;
}

bool ReadRequests(const std::string& dir, uint64_t seed,
                  std::vector<ServeRequest>* requests,
                  std::vector<std::string>* expected) {
  std::ifstream in(RequestsPath(dir));
  NodeId num_nodes = 0;
  if (!(in >> num_nodes)) return false;
  *requests = ServeRequests(seed, num_nodes, kRequestCount);
  expected->assign(requests->size(), "");
  in.ignore();
  for (std::string& line : *expected) {
    if (!std::getline(in, line)) return false;
  }
  return true;
}

}  // namespace

bool GenerateServe(const std::string& dir, uint64_t seed) {
  convpairs::Rng rng(kGraphSeed);
  convpairs::BaParams params;
  params.num_nodes = kNodes;
  params.edges_per_node = kEdgesPerNode;
  const convpairs::TemporalGraph temporal =
      convpairs::GenerateBarabasiAlbert(params, rng);
  const Graph g[2] = {temporal.SnapshotAtFraction(kG1Fraction),
                      temporal.SnapshotAtFraction(1.0)};
  for (int s = 0; s < 2; ++s) {
    if (!convpairs::WriteCpsSnapshot(g[s], CpsPath(dir, s + 1),
                                     convpairs::VarintDecompressor::kCodecId)
             .ok()) {
      return false;
    }
  }
  const NodeId n = g[0].num_nodes();
  const std::vector<ServeRequest> requests =
      ServeRequests(seed, n, kRequestCount);

  // TOPK: what the server's cache computes, each pair's Delta checked
  // against serial BFS rows.
  const srv::TopKConfig config = ServerTopKConfig();
  convpairs::TopKOptions options;
  options.k = config.k_cache;
  options.budget_m = config.budget_m;
  options.num_landmarks = config.num_landmarks;
  options.seed = config.seed;
  auto selector = convpairs::MakeSelector(config.selector).value();
  const convpairs::TopKResult topk = convpairs::FindTopKConvergingPairs(
      g[0], g[1], convpairs::BfsEngine(), *selector, options);
  std::string topk_reply = "OK " + std::to_string(std::min<size_t>(
                                       kTopK, topk.pairs.size()));
  for (size_t i = 0; i < topk.pairs.size() && i < kTopK; ++i) {
    const ConvergingPair& p = topk.pairs[i];
    std::vector<Dist> d1;
    std::vector<Dist> d2;
    convpairs::BfsDistances(g[0], p.u, &d1);
    convpairs::BfsDistances(g[1], p.u, &d2);
    if (d1[p.v] - d2[p.v] != p.delta) {
      std::fprintf(stderr, "serve: TOPK pair (%u, %u) has wrong delta\n", p.u,
                   p.v);
      return false;
    }
    topk_reply += ' ' + std::to_string(p.u) + ' ' + std::to_string(p.v) + ' ' +
                  std::to_string(p.delta);
  }

  // Every other reply from two serial BFS rows of its source.
  std::vector<std::vector<size_t>> by_source(n);
  std::vector<std::string> expected(requests.size(), topk_reply);
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].verb != Verb::kTopK) by_source[requests[i].s].push_back(i);
  }
  std::vector<NodeId> sources;
  for (NodeId s = 0; s < n; ++s) {
    if (!by_source[s].empty()) sources.push_back(s);
  }
  struct Rows {
    std::vector<Dist> d[2];
  };
  std::vector<Rows> rows(
      static_cast<size_t>(convpairs::MaxParallelWorkers(sources.size())));
  convpairs::ParallelForBlocks(
      sources.size(), [&](int worker, size_t begin, size_t end) {
        Rows& r = rows[static_cast<size_t>(worker)];
        for (size_t i = begin; i < end; ++i) {
          const NodeId s = sources[i];
          convpairs::BfsDistances(g[0], s, &r.d[0]);
          convpairs::BfsDistances(g[1], s, &r.d[1]);
          for (size_t index : by_source[s]) {
            const ServeRequest& q = requests[index];
            if (q.verb == Verb::kDist) {
              expected[index] = srv::DistReply(r.d[q.snapshot - 1][q.t]);
            } else if (q.verb == Verb::kDelta) {
              expected[index] = srv::DeltaReply(r.d[0][q.t], r.d[1][q.t]);
            } else {
              expected[index] = CandReply(s, r.d[0], r.d[1]);
            }
          }
        }
      });
  std::ofstream out(RequestsPath(dir));
  out << n << '\n';
  for (const std::string& line : expected) out << line << '\n';
  return static_cast<bool>(out);
}

bool RunServe(const RunConfig& config, Result* result) {
  std::vector<ServeRequest> requests;
  std::vector<std::string> expected;
  if (!ReadRequests(config.dir, config.seed, &requests, &expected)) {
    std::fprintf(stderr, "serve: cannot read the request oracle\n");
    return false;
  }
  uint32_t topk_request = 0;
  while (topk_request < requests.size() &&
         requests[topk_request].verb != Verb::kTopK) {
    ++topk_request;
  }
  if (topk_request == requests.size()) return false;

  CalibrationKernel kernel;
  const auto calibrate = [&kernel] {
    for (int i = 0; i < kCalibSlicesPerPause; ++i) kernel.TimeSlice();
  };
  calibrate();

  srv::ConvpairsServer::Options options;
  options.topk = ServerTopKConfig();
  std::unique_ptr<srv::ConvpairsServer> server;
  Client client(&requests, &expected);
  std::vector<double> setup_s, open_ms, warm_ms;
  double resident_mb = 0;
  double first_setup_peak_mb = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server != nullptr) {
      client.Close();
      server->Stop();
      server.reset();
      // Hand the torn-down server's memory back, so the resident set the
      // timed phases start from holds one server's memory, not seven.
      malloc_trim(0);
    }
    const uint64_t start = NowNs();
    auto snapshots = srv::ServingSnapshots::Open(CpsPath(config.dir, 1),
                                                 CpsPath(config.dir, 2));
    if (!snapshots.ok()) {
      std::fprintf(stderr, "serve: %s\n",
                   snapshots.status().ToString().c_str());
      return false;
    }
    open_ms.push_back(MsSince(start));
    resident_mb = (*snapshots)->load_stats().resident_bytes / 1048576.0;
    server = std::make_unique<srv::ConvpairsServer>(std::move(*snapshots),
                                                    options);
    if (!server->Start().ok() || !client.Connect(server->port())) return false;
    const uint64_t warm_start = NowNs();
    result->Check(client.RoundTrip(0, topk_request));
    warm_ms.push_back(MsSince(warm_start));
    setup_s.push_back(MsSince(start) / 1e3);
    if (rep == 0) first_setup_peak_mb = PeakRssMb();
  }
  // peak_rss_mb: the first set-up, in a fresh process, then the timed
  // phases. The later set-ups exist only to time set-up; memory the earlier
  // ones left in per-thread malloc arenas raised their peaks by up to
  // 13 MiB, so VmHWM over all seven moved between 49 and 73 MiB run to run.
  const bool peak_reset = ResetPeakRss();
  AddHostInfo(result);
  result->Info("pool_threads", "none");
  result->Info("peak_rss_reset", peak_reset ? "yes" : "no");
  result->Info("connections", std::to_string(kConnections));
  result->Info("open_loop_rate", std::to_string(kOpenLoopRate));
  result->Info("in_flight_per_connection", std::to_string(kInFlight));

  size_t dist_total = 0;
  size_t dist_ok = 0;
  const auto tally = [&](const std::vector<Sent>& sent) {
    for (const Sent& s : sent) {
      result->Check(s.ok);
      const Verb verb = requests[s.request].verb;
      if (verb == Verb::kDist || verb == Verb::kDelta) {
        ++dist_total;
        if (s.ok) ++dist_ok;
      }
    }
  };
  uint64_t ignored_end = 0;
  tally(client.ClosedLoop(kWarmupSeconds, 0, &ignored_end));  // Warm-up.
  calibrate();

  auto& registry = convpairs::obs::MetricsRegistry::Global();
  registry.Reset();
  SpanRecorder spans;
  if (config.trace) client.set_spans(&spans);
  const CpuStat stat0 = ReadCpuStat();
  const double cpu0 = ProcessCpuMs();
  const std::vector<uint64_t> arrivals = PoissonArrivalsNs(
      config.seed, kOpenLoopRate, config.seconds * kOpenLoopShare);
  const std::vector<Sent> open = client.OpenLoop(
      arrivals, static_cast<uint32_t>(config.seed % kRequestCount),
      config.trace);
  const double open_cpu_ms = ProcessCpuMs() - cpu0;
  client.set_spans(nullptr);
  const double steal = StealShare(stat0, ReadCpuStat());
  tally(open);
  // Server stage figures cover the open-loop phase only.
  const auto stage_histogram =
      [&registry](const char* stage) -> const convpairs::obs::Histogram& {
    return registry
        .GetWindowedHistogram(std::string("server.stage.") + stage +
                              ".latency_us")
        .cumulative();
  };
  double stage_sum_us = 0;
  std::vector<std::pair<std::string, double>> stages;
  for (const char* stage :
       {"parse", "queue_wait", "batch_wait", "scan", "reply_send"}) {
    const auto& histogram = stage_histogram(stage);
    stages.emplace_back(stage, histogram.Percentile(50));
    stage_sum_us += histogram.sum();
  }
  const double flushes = static_cast<double>(
      registry.GetCounter("server.batch.flushes").value());
  const double batched = static_cast<double>(
      registry.GetCounter("server.batch.queries").value());
  const double timeouts = static_cast<double>(
      registry.GetCounter("server.batch.flush.timeout").value());
  calibrate();

  uint64_t saturation_end = 0;
  const uint64_t saturation_start = NowNs();
  const std::vector<Sent> saturated = client.ClosedLoop(
      config.seconds * (1 - kOpenLoopShare),
      static_cast<uint32_t>((config.seed + 1) % kRequestCount),
      &saturation_end);
  tally(saturated);
  calibrate();
  client.Close();
  server->Stop();

  std::vector<double> open_latency, traced_latency, untraced_latency, late,
      dist_latency, cand_latency, saturated_latency;
  double open_latency_sum_us = 0;
  size_t stalls = 0;
  for (const Sent& s : open) {
    if (s.done_ns == 0) continue;
    const double ms = LatencyMs(s);
    open_latency.push_back(ms);
    open_latency_sum_us += ms * 1e3;
    (s.traced ? traced_latency : untraced_latency).push_back(ms);
    late.push_back(static_cast<double>(s.sent_ns - s.due_ns) / 1e6);
    if (ms > kStallMs) ++stalls;
    const Verb verb = requests[s.request].verb;
    if (verb == Verb::kDist) dist_latency.push_back(ms);
    if (verb == Verb::kCand) cand_latency.push_back(ms);
  }
  size_t saturated_replies = 0;
  for (const Sent& s : saturated) {
    if (s.done_ns == 0 || s.done_ns > saturation_end) continue;
    ++saturated_replies;
    saturated_latency.push_back(LatencyMs(s));
  }

  if (!config.trace) {
    result->Add("setup_s", Median(setup_s), "s");
    result->Add("op_ms_p50", Median(open_latency), "ms");
    AddTail(open_latency, kServeTailPercentile, result);
    result->Add("throughput_per_s",
                saturated_replies /
                    (static_cast<double>(saturation_end - saturation_start) /
                     1e9),
                "1/s");
    // The open-loop median sits on the batcher's 2 ms flush window, which
    // does not slow down with the host; the saturated median is CPU-bound.
    result->Add("op_rel_p50", Median(saturated_latency) / kernel.MedianMs(),
                "ratio");
    result->Add("quality",
                dist_total == 0 ? 0 : static_cast<double>(dist_ok) / dist_total,
                "share");
    result->Add("peak_rss_mb", std::max(first_setup_peak_mb, PeakRssMb()),
                "MiB");
    result->Info("timed_ops", std::to_string(open_latency.size()));
    result->Info("host.calib_ms", std::to_string(kernel.MedianMs()));
    result->Info("host.calib_slices", std::to_string(kernel.slices()));
    result->Info("host.steal_share", std::to_string(steal));
    result->Info("host.cpu_ms_per_op",
                 std::to_string(open_cpu_ms /
                                std::max<size_t>(1, open.size())));
    return true;
  }

  result->Add("graph.open_ms", Median(open_ms), "ms");
  result->Add("server.topk_warm_ms", Median(warm_ms), "ms");
  result->Add("graph.resident_mb", resident_mb, "MiB");
  for (const auto& [stage, p50] : stages) {
    result->Add("server.stage." + stage + "_us", p50, "us");
  }
  result->Add("server.batch_occupancy", flushes == 0 ? 0 : batched / flushes,
              "count");
  result->Add("server.flush_timeout_share",
              flushes == 0 ? 0 : timeouts / flushes, "share");
  result->Add("client.dist_ms_p50", Median(dist_latency), "ms");
  result->Add("client.cand_ms_p50", Median(cand_latency), "ms");
  result->Add("load.late_ms_p99", Quantile(late, 0.99), "ms");
  result->Add("load.stall_share",
              open.empty() ? 0 : static_cast<double>(stalls) / open.size(),
              "share");
  result->Add("host.calib_ms", kernel.MedianMs(), "ms");
  result->Add("host.cpu_ms_per_op",
              open_cpu_ms / std::max<size_t>(1, open.size()), "ms");
  result->Add("host.steal_share", steal, "share");
  result->Add("trace.unattributed_share",
              open_latency_sum_us == 0
                  ? 0
                  : std::max(0.0, 1 - stage_sum_us / open_latency_sum_us),
              "share");
  result->Add("obs.trace_overhead",
              Median(traced_latency) / Median(untraced_latency) - 1, "ratio");
  if (!config.spans_out.empty() && !spans.WriteChromeTrace(config.spans_out)) {
    std::fprintf(stderr, "serve: cannot write %s\n", config.spans_out.c_str());
  }
  return true;
}

}  // namespace e2ebench
