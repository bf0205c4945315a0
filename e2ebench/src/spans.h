// In-memory spans recorded by the traced run around each public call it
// makes. Nothing is recorded inside the library: a span covers exactly one
// call from the harness (or one op / one request as the parent), so a
// layer's self time is its span's duration minus its children's.

#ifndef E2EBENCH_SPANS_H_
#define E2EBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

struct Span {
  const char* name = "";
  int parent = -1;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class SpanRecorder {
 public:
  /// Opens a span and returns its id.
  int Begin(const char* name, int parent = -1);
  void End(int id);
  /// Records a span whose times were taken elsewhere; returns its id.
  int Add(const char* name, int parent, uint64_t start_ns, uint64_t end_ns);
  /// Ends `id` and returns its duration in ms.
  double EndMs(int id);

  /// Per span: duration minus the durations of its direct children. The
  /// harness makes its calls one after another, so children never overlap.
  std::vector<double> SelfMs() const;

  /// Share of the root spans' (ops' or requests') time that no child span
  /// covers: wall time no layer accounts for.
  double UnattributedShare() const;

  /// Writes every span as a Chrome trace-event file (Perfetto-loadable).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_SPANS_H_
