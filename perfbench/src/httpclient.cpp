#include "httpclient.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <stdexcept>

#include "common/json.hpp"
#include "harness.hpp"

namespace zsb {

namespace {

int connectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("connect() to the HTTP port failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// Content-Length of the header block in [pos, headerEnd), or -1.
long contentLength(const std::string& in, std::size_t pos,
                   std::size_t headerEnd) {
  while (pos < headerEnd) {
    const std::size_t eol = in.find("\r\n", pos);
    if (eol == std::string::npos || eol > headerEnd) {
      break;
    }
    static constexpr char kName[] = "content-length:";
    const std::size_t n = sizeof(kName) - 1;
    if (eol - pos > n &&
        std::equal(kName, kName + n, in.begin() + static_cast<long>(pos),
                   [](char a, char b) {
                     return a == std::tolower(static_cast<unsigned char>(b));
                   })) {
      return std::strtol(in.c_str() + pos + n, nullptr, 10);
    }
    pos = eol + 2;
  }
  return -1;
}

}  // namespace

std::string urlEncode(const std::string& value) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (const char ch : value) {
    const auto c = static_cast<unsigned char>(ch);
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += ch;
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

void MarkerFreshness::onAnswer(const std::string& body, double at,
                               std::vector<std::pair<double, double>>& out) {
  const zerosum::json::Value v = zerosum::json::parse(body);
  const zerosum::json::Value* series = v.find("series");
  if (series == nullptr || !series->isArray() || series->asArray().empty()) {
    return;
  }
  const zerosum::json::Value* fine = series->asArray()[0].find("fine");
  if (fine == nullptr) {
    return;
  }
  const double seq = fine->numberOr("max", -1.0);
  for (double s = seen_ + 1.0; s <= seq; s += 1.0) {
    const double due =
        start_ + (s - static_cast<double>(first_)) / rate_;
    out.push_back({at, (at - due) * 1e3});
  }
  seen_ = std::max(seen_, seq);
}

bool serveQueries(zerosum::aggregator::QueryService& query,
                  zerosum::aggregator::HttpServer& http, double& httpSeconds) {
  const auto before = http.counters().requests;
  const double p0 = nowSeconds();
  query.beginPoll(p0);
  {
    Scope s("aggregator.http:poll", Tracer::newOp());
    http.poll(p0);
  }
  httpSeconds += nowSeconds() - p0;
  return http.counters().requests != before;
}

void ReplyTally::onReply(const Reply& r, bool open, std::size_t kind,
                         const char* span, bool isMarker, bool keep) {
  ++attempted;
  const double from = open ? r.dueSeconds : r.sentSeconds;
  Tracer::record(span, 0, from, r.doneSeconds);
  if (r.status != 200) {
    ++failed;
    if (r.status != 429 && r.status != 0) {
      ++wrong;
    }
    return;
  }
  if (!open) {
    answered.add(r.doneSeconds, 1.0);
    return;
  }
  const double ms = (r.doneSeconds - from) * 1e3;
  all.add(r.doneSeconds, ms);
  perKind[kind].add(r.doneSeconds, ms);
  if (isMarker) {
    freshScratch_.clear();
    try {
      marker_.onAnswer(r.body, r.doneSeconds, freshScratch_);
    } catch (const std::exception&) {
      ++failed;  // not JSON
    }
    for (const auto& [at, v] : freshScratch_) {
      fresh.add(at, v);
    }
  }
  if (keep || attempted % 16 == 0) {
    kept.push_back(r);
  }
}

HttpReaders::HttpReaders(int port, int connections) {
  conns_.resize(static_cast<std::size_t>(connections));
  for (Conn& c : conns_) {
    c.fd = connectLoopback(port);
  }
}

HttpReaders::~HttpReaders() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) {
      ::close(c.fd);
    }
  }
}

void HttpReaders::send(Conn& conn, const std::string& target,
                       std::size_t query, double due) {
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t off = 0;
  while (off < request.size() && conn.fd >= 0) {
    const ssize_t n = ::send(conn.fd, request.data() + off,
                             request.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{conn.fd, POLLOUT, 0};
      ::poll(&p, 1, 10);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      ::close(conn.fd);
      conn.fd = -1;
    }
  }
  conn.pending.push_back({query, due, nowSeconds()});
}

std::size_t HttpReaders::outstanding() const {
  std::size_t n = 0;
  for (const Conn& c : conns_) {
    n += c.pending.size() - c.head;
  }
  return n;
}

std::size_t HttpReaders::pump(double timeoutSeconds, const ReplyFn& onReply) {
  std::vector<pollfd> fds;
  for (const Conn& c : conns_) {
    fds.push_back({c.fd, POLLIN, 0});
  }
  timespec ts{};
  const double wait = std::max(0.0, timeoutSeconds);
  ts.tv_sec = static_cast<time_t>(wait);
  ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
  const int ready =
      ::ppoll(fds.data(), static_cast<nfds_t>(fds.size()), &ts, nullptr);
  if (ready <= 0) {
    return 0;
  }
  std::size_t delivered = 0;
  char buf[65536];
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    if (c.fd < 0 || (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      continue;
    }
    bool closed = false;
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR)) {
        closed = true;
      }
      break;
    }
    const double done = nowSeconds();
    std::size_t consumed = 0;
    while (c.head < c.pending.size()) {
      const std::size_t headerEnd = c.in.find("\r\n\r\n", consumed);
      if (headerEnd == std::string::npos) {
        break;
      }
      const long length = contentLength(c.in, consumed, headerEnd);
      const std::size_t bodyAt = headerEnd + 4;
      if (length < 0 ||
          c.in.size() < bodyAt + static_cast<std::size_t>(length)) {
        break;
      }
      const Pending p = c.pending[c.head++];
      Reply r;
      r.query = p.query;
      r.status = std::atoi(c.in.c_str() + consumed + 9);  // "HTTP/1.1 "
      r.body = c.in.substr(bodyAt, static_cast<std::size_t>(length));
      r.dueSeconds = p.due;
      r.sentSeconds = p.sent;
      r.doneSeconds = done;
      onReply(r);
      ++delivered;
      consumed = bodyAt + static_cast<std::size_t>(length);
    }
    c.in.erase(0, consumed);
    if (c.head == c.pending.size()) {
      c.pending.clear();
      c.head = 0;
    }
    if (closed) {
      ::close(c.fd);
      c.fd = -1;
    }
  }
  return delivered;
}

void HttpReaders::drain(const ReplyFn& onReply) {
  const double deadline = nowSeconds() + 5.0;
  while (outstanding() > 0 && nowSeconds() < deadline) {
    bool anyOpen = false;
    for (const Conn& c : conns_) {
      anyOpen = anyOpen || (c.fd >= 0 && c.head < c.pending.size());
    }
    if (!anyOpen) {
      break;
    }
    pump(0.01, onReply);
  }
  // Whatever is still unanswered failed.
  for (Conn& c : conns_) {
    for (; c.head < c.pending.size(); ++c.head) {
      const Pending& p = c.pending[c.head];
      Reply r;
      r.query = p.query;
      r.dueSeconds = p.due;
      r.sentSeconds = p.sent;
      r.doneSeconds = nowSeconds();
      onReply(r);
    }
    c.pending.clear();
    c.head = 0;
  }
}

std::uint64_t HttpReaders::openLoop(const std::vector<std::string>& targets,
                                    double rate, double start, double until,
                                    const ReplyFn& onReply) {
  std::uint64_t sent = 0;
  double due = start;
  while (due < until) {
    const double now = nowSeconds();
    while (due <= now && due < until) {
      Conn* best = nullptr;
      for (Conn& c : conns_) {
        if (c.fd >= 0 && (best == nullptr || c.pending.size() - c.head <
                                                 best->pending.size() -
                                                     best->head)) {
          best = &c;
        }
      }
      if (best == nullptr) {
        return sent;  // every connection closed: the rest fail upstream
      }
      const std::size_t q = sent % targets.size();
      lateness_.push_back(nowSeconds() - due);
      send(*best, targets[q], q, due);
      ++sent;
      due = start + static_cast<double>(sent) / rate;
    }
    pump(std::min(0.002, std::max(0.0, due - nowSeconds())), onReply);
  }
  drain(onReply);
  return sent;
}

std::uint64_t HttpReaders::closedLoop(const std::vector<std::string>& targets,
                                      double until, const ReplyFn& onReply,
                                      const std::atomic<bool>* stop) {
  std::uint64_t sent = 0;
  for (;;) {
    const double now = nowSeconds();
    if (stop != nullptr ? stop->load() : now >= until) {
      break;
    }
    for (Conn& c : conns_) {
      if (c.fd >= 0 && c.head == c.pending.size()) {
        const std::size_t q = sent % targets.size();
        send(c, targets[q], q, nowSeconds());
        ++sent;
      }
    }
    pump(stop != nullptr ? 0.01 : std::min(0.01, until - now), onReply);
  }
  drain(onReply);
  return sent;
}

}  // namespace zsb
