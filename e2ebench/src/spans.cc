#include "spans.h"

#include <cstdio>

#include "host.h"

namespace e2ebench {

int SpanRecorder::Begin(const char* name, int parent) {
  spans_.push_back({name, parent, NowNs(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

int SpanRecorder::Add(const char* name, int parent, uint64_t start_ns,
                      uint64_t end_ns) {
  spans_.push_back({name, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

double SpanRecorder::EndMs(int id) {
  End(id);
  const Span& span = spans_[static_cast<size_t>(id)];
  return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
}

std::vector<double> SpanRecorder::SelfMs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double ms =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    self[i] += ms;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -= ms;
    }
  }
  return self;
}

double SpanRecorder::UnattributedShare() const {
  const std::vector<double> self = SelfMs();
  double root_ms = 0;
  double unattributed_ms = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) continue;
    root_ms += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    unattributed_ms += self[i];
  }
  return root_ms == 0 ? 0 : unattributed_ms / root_ms;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name, (s.start_ns - origin) / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, i, s.parent);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace e2ebench
