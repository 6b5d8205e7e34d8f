#include "aggregator/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace zerosum::aggregator {

namespace {

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

sockaddr_in loopbackAddress(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw ConfigError("bad aggregator host address: " + host);
  }
  return addr;
}

}  // namespace

// --- TcpTransport ----------------------------------------------------------

TcpTransport::TcpTransport(std::string host, int port, int timeoutMs)
    : host_(std::move(host)), port_(port), timeoutMs_(timeoutMs) {}

TcpTransport::~TcpTransport() { close(); }

bool TcpTransport::awaitWritable(int waitMs) const {
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLOUT;
  while (true) {
    const int rc = ::poll(&pfd, 1, waitMs);
    if (rc > 0) {
      return (pfd.revents & POLLOUT) != 0 &&
             (pfd.revents & (POLLERR | POLLHUP)) == 0;
    }
    if (rc == 0) {
      return false;  // timed out: the peer is hung, not slow
    }
    if (errno != EINTR) {
      return false;
    }
  }
}

bool TcpTransport::connect() {
  if (fd_ >= 0) {
    return true;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  sockaddr_in addr{};
  try {
    addr = loopbackAddress(host_, port_);
  } catch (const Error&) {
    ::close(fd);
    return false;
  }
  if (timeoutMs_ <= 0) {
    // Blocking connect: loopback either succeeds or refuses immediately.
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return false;
    }
  } else {
    // Bounded connect: start non-blocking, then wait for writability up
    // to the timeout — a hung daemon (or a full accept queue) costs at
    // most timeoutMs_, never an unbounded stall on the publish path.
    setNonBlocking(fd);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      if (errno != EINPROGRESS) {
        ::close(fd);
        return false;
      }
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      int rc = 0;
      do {
        rc = ::poll(&pfd, 1, timeoutMs_);
      } while (rc < 0 && errno == EINTR);
      int soError = 0;
      socklen_t len = sizeof(soError);
      if (rc <= 0 ||
          ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &len) != 0 ||
          soError != 0) {
        ::close(fd);
        return false;
      }
    }
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  setNonBlocking(fd);
  fd_ = fd;
  return true;
}

bool TcpTransport::send(const std::string& bytes) {
  if (fd_ < 0) {
    return false;
  }
  std::size_t sent = 0;
  bool waited = false;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Loopback buffers are large; a full buffer means the daemon has
      // stopped draining.  With a timeout budget, wait once for the
      // socket to drain; past the budget (or without one) a stalled
      // send fails rather than stalling the monitored app.
      if (timeoutMs_ > 0 && !waited) {
        waited = true;
        if (awaitWritable(timeoutMs_)) {
          continue;
        }
      }
      close();
      return false;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    close();
    return false;
  }
  return true;
}

bool TcpTransport::receive(std::string& out) {
  if (fd_ < 0) {
    return false;
  }
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      close();
      return false;  // orderly peer close
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return true;
    }
    if (errno == EINTR) {
      continue;
    }
    close();
    return false;
  }
}

void TcpTransport::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// --- TcpServer -------------------------------------------------------------

TcpServer::TcpServer(int port) {
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0) {
    throw StateError("aggregator: cannot create listen socket: " +
                     std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopbackAddress("127.0.0.1", port);
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listenFd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw StateError("aggregator: cannot listen on 127.0.0.1:" +
                     std::to_string(port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  } else {
    port_ = port;
  }
  setNonBlocking(listenFd_);
}

TcpServer::~TcpServer() {
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) {
      ::close(conn.fd);
    }
  }
  if (listenFd_ >= 0) {
    ::close(listenFd_);
  }
}

std::vector<Delivery> TcpServer::poll() {
  std::vector<Delivery> out;
  // Accept everything pending.
  while (listenFd_ >= 0) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      break;
    }
    // Like the client side: no Nagle delay on batch acks and HTTP
    // replies, which are small writes a peer is waiting on.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    setNonBlocking(fd);
    Conn conn;
    conn.fd = fd;
    conns_.emplace(nextId_++, conn);
  }
  // Drain every connection.
  std::vector<std::uint64_t> dead;
  for (auto& [id, conn] : conns_) {
    Delivery d;
    d.connection = id;
    if (!conn.openedReported) {
      conn.openedReported = true;
      d.opened = true;
    }
    bool closed = false;
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        d.bytes.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        closed = true;
      } else if (errno == EINTR) {
        continue;
      } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
        closed = true;
      }
      break;
    }
    d.closed = closed;
    if (d.opened || d.closed || !d.bytes.empty()) {
      out.push_back(std::move(d));
    }
    if (closed) {
      dead.push_back(id);
    }
  }
  for (const std::uint64_t id : dead) {
    disconnect(id);
  }
  return out;
}

bool TcpServer::send(std::uint64_t connection, const std::string& bytes) {
  const auto it = conns_.find(connection);
  if (it == conns_.end() || it->second.fd < 0) {
    return false;
  }
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(it->second.fd, bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Reader not draining; retry once after a short spin is pointless
      // in a poll loop — drop the response instead of blocking ingest.
      return false;
    }
    return false;
  }
  return true;
}

void TcpServer::disconnect(std::uint64_t connection) {
  const auto it = conns_.find(connection);
  if (it != conns_.end()) {
    if (it->second.fd >= 0) {
      ::close(it->second.fd);
    }
    conns_.erase(it);
  }
}

}  // namespace zerosum::aggregator
