// The serve workload's client: one thread driving a ConvpairsServer over
// kConnections loopback connections with the line protocol, and checking
// every reply against its expected line as it arrives.

#ifndef E2EBENCH_SERVE_CLIENT_H_
#define E2EBENCH_SERVE_CLIENT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "schedule.h"
#include "server/socket.h"
#include "spans.h"

namespace e2ebench {

inline constexpr int kConnections = 4;
inline constexpr int kInFlight = 32;  // Per connection, closed loop.
inline constexpr double kDrainSeconds = 5;

/// One request sent during a phase. It passes only if its reply line
/// equals the expected line: no expected line is an error, so an ERR reply
/// fails, and so does a request that gets no reply (done_ns stays 0).
struct Sent {
  uint32_t request = 0;  // Index into the request list.
  uint64_t due_ns = 0;   // Open loop: scheduled time; closed loop: send time.
  uint64_t sent_ns = 0;
  uint64_t done_ns = 0;  // 0 = no reply.
  bool ok = false;
  bool traced = false;
};

inline double LatencyMs(const Sent& s) {
  return static_cast<double>(s.done_ns - s.due_ns) / 1e6;
}

class Client {
 public:
  /// `expected[i]` is the reply line (no newline) to `requests[i]`.
  Client(const std::vector<ServeRequest>* requests,
         const std::vector<std::string>* expected)
      : requests_(requests), expected_(expected) {}

  bool Connect(uint16_t port);
  void Close() { conns_.clear(); }

  /// Traced runs record a span per traced request, from due to reply.
  void set_spans(SpanRecorder* spans) { spans_ = spans; }

  /// Sends one request on `conn` and waits for its reply.
  bool RoundTrip(int conn, uint32_t request);

  /// Open loop: request i goes out at start + arrivals[i] on connection
  /// i % kConnections, whatever the replies are doing.
  std::vector<Sent> OpenLoop(const std::vector<uint64_t>& arrivals,
                             uint32_t first_request, bool trace);

  /// Closed loop: keeps kInFlight requests outstanding per connection
  /// until `seconds` pass, then drains. Latency runs from the send.
  std::vector<Sent> ClosedLoop(double seconds, uint32_t first_request,
                               uint64_t* end_ns);

 private:
  struct Connection {
    convpairs::server::TcpStream stream;
    std::string inbox;
    std::deque<size_t> waiting;  // Indices into the phase's Sent list.
    bool alive = true;
  };

  void Send(int c, std::vector<Sent>& sent, size_t index);
  /// Waits for replies until `until_ns`, matching each reply line to the
  /// oldest request waiting on its connection.
  void Poll(std::vector<Sent>& sent, uint64_t until_ns);
  void Drain(std::vector<Sent>& sent, uint64_t until_ns);

  const std::vector<ServeRequest>* requests_;
  const std::vector<std::string>* expected_;
  std::vector<std::unique_ptr<Connection>> conns_;
  SpanRecorder* spans_ = nullptr;
};

}  // namespace e2ebench

#endif  // E2EBENCH_SERVE_CLIENT_H_
