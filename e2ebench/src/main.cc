// e2ebench: end-to-end benchmark of convpairs' two user paths.
//
//   e2ebench generate --workload W --seed N --dir D
//       writes workload W's inputs and oracle for seed N into D.
//   e2ebench run --workload W --seed N --dir D --seconds S --trace 0|1
//                [--spans-out FILE]
//       sets up from D, times the workload for S seconds, checks every
//       output, and prints one JSON result as the last line of stdout:
//       the end-to-end metrics with --trace 0, the per-layer metrics of
//       the layers the workload runs with --trace 1 (run.py holds them to
//       BENCHMARK.json). Run facts (host, tail percentile) go on an
//       earlier "e2ebench info" line.
//
// Workloads: topk, exact, serve. Use run.py, which builds this binary and
// runs both steps.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.h"

namespace {

using e2ebench::Metric;
using e2ebench::Result;

void PrintResult(const Result& result) {
  std::printf("e2ebench info {");
  for (size_t i = 0; i < result.info.size(); ++i) {
    std::printf("%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                result.info[i].first.c_str(), result.info[i].second.c_str());
  }
  std::printf("}\n");
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.failed == 0 && result.attempted > 0 ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench generate --workload W --seed N --dir D\n"
               "       e2ebench run --workload W --seed N --dir D "
               "--seconds S --trace 0|1 [--spans-out FILE]\n"
               "workloads: topk, exact, serve\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  const std::string workload = flags["workload"];
  if (flags["dir"].empty() || flags["seed"].empty()) return Usage();
  e2ebench::RunConfig config;
  config.dir = flags["dir"];
  config.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);

  if (mode == "generate") {
    bool ok = false;
    if (workload == "topk") {
      ok = e2ebench::GenerateTopK(config.dir, config.seed);
    } else if (workload == "exact") {
      ok = e2ebench::GenerateExact(config.dir, config.seed);
    } else if (workload == "serve") {
      ok = e2ebench::GenerateServe(config.dir, config.seed);
    } else {
      return Usage();
    }
    if (!ok) {
      std::fprintf(stderr, "e2ebench: generate %s failed\n",
                   workload.c_str());
    }
    return ok ? 0 : 1;
  }
  if (mode != "run" || flags["seconds"].empty()) return Usage();
  config.seconds = std::strtod(flags["seconds"].c_str(), nullptr);
  config.trace = flags["trace"] == "1";
  config.spans_out = flags["spans-out"];
  if (config.seconds <= 0) return Usage();

  Result result;
  bool ok = false;
  if (workload == "topk") {
    ok = e2ebench::RunTopK(config, &result);
  } else if (workload == "exact") {
    ok = e2ebench::RunExact(config, &result);
  } else if (workload == "serve") {
    ok = e2ebench::RunServe(config, &result);
  } else {
    return Usage();
  }
  if (!ok) {
    std::fprintf(stderr, "e2ebench: run %s failed\n", workload.c_str());
    return 1;
  }
  PrintResult(result);
  return 0;
}
