// Host instruments recorded with every run.
//
// A shared VM's speed drifts: on a 4-vCPU host this kernel's per-second
// median moved between 2.0 and 3.0 ms within one minute, and steal time
// ranged from under 1% to 13% between runs. So each run times a
// calibration kernel of its own in short slices between ops. The kernel's
// graph and BFS are private to the benchmark and depend on neither the
// seed nor the library, so op_ms / calib_ms follows the host but not a
// library change.

#ifndef E2EBENCH_HOST_H_
#define E2EBENCH_HOST_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "bench.h"

namespace e2ebench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double MsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// Fixed-work BFS kernel: a 32768-node ring with three pseudo-random chords
/// per node, traversed from two fixed sources per slice.
class CalibrationKernel {
 public:
  CalibrationKernel();

  /// One slice of work. Returns nodes settled plus edges scanned, which is
  /// the same on every call.
  uint64_t Run();

  /// Times one slice and keeps the sample.
  void TimeSlice();

  /// Median slice time in ms (0 before any slice).
  double MedianMs() const;
  size_t slices() const { return slices_ms_.size(); }

 private:
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> adjacency_;
  std::vector<int32_t> dist_;
  std::vector<uint32_t> queue_;
  std::vector<double> slices_ms_;
};

/// Aggregate CPU jiffies from /proc/stat (zeros when unreadable).
struct CpuStat {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuStat ReadCpuStat();
/// Share of host CPU time stolen by the hypervisor between two reads.
double StealShare(const CpuStat& before, const CpuStat& after);

/// User + system CPU time of this process (all threads), in ms.
double ProcessCpuMs();

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

/// Restarts VmHWM from the current resident set (/proc/self/clear_refs).
/// Returns false where the kernel does not allow it; VmHWM then keeps
/// counting from the start of the process.
bool ResetPeakRss();

/// Records nproc, build type and compiler into the run's info.
void AddHostInfo(Result* result);

}  // namespace e2ebench

#endif  // E2EBENCH_HOST_H_
