#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "stats.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif
#ifndef E2EBENCH_COMPILER
#define E2EBENCH_COMPILER "unknown"
#endif

namespace e2ebench {
namespace {

constexpr uint32_t kCalibNodes = 1U << 15;
constexpr uint32_t kCalibChords = 3;
constexpr uint32_t kCalibSources[] = {0, 19997};

}  // namespace

CalibrationKernel::CalibrationKernel() {
  // Ring edges plus xorshift chords from a fixed state; undirected, so
  // every edge is stored in both directions.
  std::vector<std::vector<uint32_t>> lists(kCalibNodes);
  uint64_t state = 0x2545F4914F6CDD1DULL;
  for (uint32_t u = 0; u < kCalibNodes; ++u) {
    const uint32_t next = (u + 1) % kCalibNodes;
    lists[u].push_back(next);
    lists[next].push_back(u);
    for (uint32_t c = 0; c < kCalibChords; ++c) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      const uint32_t v = static_cast<uint32_t>(state % kCalibNodes);
      lists[u].push_back(v);
      lists[v].push_back(u);
    }
  }
  offsets_.assign(kCalibNodes + 1, 0);
  for (uint32_t u = 0; u < kCalibNodes; ++u) {
    offsets_[u + 1] = offsets_[u] + static_cast<uint32_t>(lists[u].size());
    adjacency_.insert(adjacency_.end(), lists[u].begin(), lists[u].end());
  }
  dist_.assign(kCalibNodes, -1);
  queue_.assign(kCalibNodes, 0);
}

uint64_t CalibrationKernel::Run() {
  uint64_t work = 0;
  for (uint32_t source : kCalibSources) {
    std::fill(dist_.begin(), dist_.end(), -1);
    size_t head = 0;
    size_t tail = 0;
    queue_[tail++] = source;
    dist_[source] = 0;
    while (head < tail) {
      const uint32_t u = queue_[head++];
      ++work;
      for (uint32_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
        const uint32_t v = adjacency_[e];
        ++work;
        if (dist_[v] < 0) {
          dist_[v] = dist_[u] + 1;
          queue_[tail++] = v;
        }
      }
    }
  }
  return work;
}

void CalibrationKernel::TimeSlice() {
  const uint64_t start = NowNs();
  volatile uint64_t sink = Run();
  (void)sink;
  slices_ms_.push_back(MsSince(start));
}

double CalibrationKernel::MedianMs() const { return Median(slices_ms_); }

CpuStat ReadCpuStat() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuStat stat;
  if (!(in >> label) || label != "cpu") return stat;
  // user nice system idle iowait irq softirq steal [guest guest_nice];
  // guest time is already counted inside user.
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(in >> value)) break;
    stat.total += value;
    if (field == 7) stat.steal = value;
  }
  return stat;
}

double StealShare(const CpuStat& before, const CpuStat& after) {
  if (after.total <= before.total) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return tv.tv_sec * 1e3 + tv.tv_usec / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.close();
  return static_cast<bool>(out);
}

void AddHostInfo(Result* result) {
  result->Info("nproc", std::to_string(std::thread::hardware_concurrency()));
  result->Info("build_type", E2EBENCH_BUILD_TYPE);
  result->Info("compiler", E2EBENCH_COMPILER);
}

}  // namespace e2ebench
