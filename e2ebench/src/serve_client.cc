#include "serve_client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <string_view>

#include "host.h"

namespace e2ebench {
namespace {

namespace srv = convpairs::server;

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kDist:
      return "serve.dist";
    case Verb::kDelta:
      return "serve.delta";
    case Verb::kCand:
      return "serve.cand";
    case Verb::kTopK:
      return "serve.topk";
  }
  return "serve.request";
}

}  // namespace

bool Client::Connect(uint16_t port) {
  conns_.clear();
  for (int c = 0; c < kConnections; ++c) {
    auto stream = srv::ConnectLoopback(port);
    if (!stream.ok()) return false;
    const int one = 1;
    setsockopt(stream->fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conns_.push_back(std::make_unique<Connection>());
    conns_.back()->stream = std::move(*stream);
  }
  return true;
}

bool Client::RoundTrip(int conn, uint32_t request) {
  std::vector<Sent> sent(1);
  sent[0].request = request;
  sent[0].due_ns = NowNs();
  Send(conn, sent, 0);
  Drain(sent, NowNs() + static_cast<uint64_t>(kDrainSeconds * 1e9));
  return sent[0].ok;
}

std::vector<Sent> Client::OpenLoop(const std::vector<uint64_t>& arrivals,
                                 uint32_t first_request, bool trace) {
  std::vector<Sent> sent(arrivals.size());
  const uint64_t start = NowNs();
  for (size_t i = 0; i < sent.size(); ++i) {
    sent[i].request =
        static_cast<uint32_t>((first_request + i) % requests_->size());
    sent[i].due_ns = start + arrivals[i];
    sent[i].traced = trace && i % 2 == 0;
  }
  size_t next = 0;
  while (next < sent.size()) {
    const uint64_t now = NowNs();
    while (next < sent.size() && sent[next].due_ns <= now) {
      Send(static_cast<int>(next % kConnections), sent, next);
      ++next;
    }
    if (next < sent.size()) Poll(sent, sent[next].due_ns);
  }
  Drain(sent, NowNs() + static_cast<uint64_t>(kDrainSeconds * 1e9));
  return sent;
}

std::vector<Sent> Client::ClosedLoop(double seconds,
                                   uint32_t first_request,
                                   uint64_t* end_ns) {
  std::vector<Sent> sent;
  sent.reserve(static_cast<size_t>(seconds * 40000) + 1024);
  uint32_t next_request = first_request;
  const auto send_next = [&](int c) {
    sent.push_back({});
    sent.back().request =
        static_cast<uint32_t>(next_request++ % requests_->size());
    sent.back().due_ns = NowNs();
    Send(c, sent, sent.size() - 1);
  };
  for (int c = 0; c < kConnections; ++c) {
    for (int k = 0; k < kInFlight; ++k) send_next(c);
  }
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    Poll(sent, deadline);
    for (int c = 0; c < kConnections; ++c) {
      Connection& conn = *conns_[static_cast<size_t>(c)];
      while (conn.alive && conn.waiting.size() < kInFlight) send_next(c);
    }
  }
  *end_ns = deadline;
  Drain(sent, NowNs() + static_cast<uint64_t>(kDrainSeconds * 1e9));
  return sent;
}

void Client::Send(int c, std::vector<Sent>& sent, size_t index) {
  Connection& conn = *conns_[static_cast<size_t>(c)];
  Sent& s = sent[index];
  s.sent_ns = NowNs();
  if (!conn.alive) return;  // Counts as a missing reply.
  const std::string& line = (*requests_)[s.request].line;
  if (!conn.stream.SendAll(line + '\n').ok()) {
    conn.alive = false;
    return;
  }
  conn.waiting.push_back(index);
}

void Client::Poll(std::vector<Sent>& sent, uint64_t until_ns) {
  pollfd fds[kConnections];
  for (int c = 0; c < kConnections; ++c) {
    const Connection& conn = *conns_[static_cast<size_t>(c)];
    fds[c] = {conn.alive ? conn.stream.fd() : -1, POLLIN, 0};
  }
  const uint64_t now = NowNs();
  const uint64_t wait_ns = until_ns > now ? until_ns - now : 0;
  timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                   static_cast<long>(wait_ns % 1000000000)};
  if (ppoll(fds, kConnections, &timeout, nullptr) <= 0) return;
  char chunk[65536];
  for (int c = 0; c < kConnections; ++c) {
    if (fds[c].revents == 0) continue;
    Connection& conn = *conns_[static_cast<size_t>(c)];
    auto got = conn.stream.Receive(chunk, sizeof(chunk));
    if (!got.ok() || *got == 0) {
      conn.alive = false;
      conn.waiting.clear();
      continue;
    }
    const uint64_t done = NowNs();
    conn.inbox.append(chunk, *got);
    size_t begin = 0;
    for (size_t nl; (nl = conn.inbox.find('\n', begin)) != std::string::npos;
         begin = nl + 1) {
      if (conn.waiting.empty()) break;  // Unrequested output: ignored.
      Sent& s = sent[conn.waiting.front()];
      conn.waiting.pop_front();
      s.done_ns = done;
      const std::string_view line =
          std::string_view(conn.inbox).substr(begin, nl - begin);
      // No expected line is an error, so an ERR reply never passes.
      s.ok = line == (*expected_)[s.request];
      if (s.traced && spans_ != nullptr) {
        spans_->Add(VerbName((*requests_)[s.request].verb), -1, s.due_ns,
                    done);
      }
    }
    conn.inbox.erase(0, begin);
  }
}

void Client::Drain(std::vector<Sent>& sent, uint64_t until_ns) {
  const auto pending = [this] {
    for (const auto& conn : conns_) {
      if (conn->alive && !conn->waiting.empty()) return true;
    }
    return false;
  };
  while (pending() && NowNs() < until_ns) Poll(sent, until_ns);
}

}  // namespace e2ebench
