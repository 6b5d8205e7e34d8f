// The dashboard readers: keep-alive HTTP/1.1 connections over loopback
// TCP, driven from one thread.  Open loop, each query is sent when due
// (pipelined behind earlier ones on the least-loaded connection, so a
// stall delays later queries instead of thinning the load) and timed
// from its due time; closed loop, each connection waits for its reply
// before sending the next query.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "aggregator/http.hpp"
#include "aggregator/queryservice.hpp"
#include "harness.hpp"

namespace zsb {

struct Reply {
  std::size_t query = 0;  ///< index into the query list
  int status = 0;         ///< 0 = never answered (timeout, closed)
  std::string body;
  double dueSeconds = 0.0;   ///< when the schedule wanted it sent
  double sentSeconds = 0.0;
  double doneSeconds = 0.0;  ///< when the full reply had arrived
};

using ReplyFn = std::function<void(const Reply&)>;

/// Percent-encodes a query-string value (metric names carry spaces and
/// parentheses).
std::string urlEncode(const std::string& value);

/// Freshness of a marker series whose value is a sequence number, sent
/// open loop: marker `first + k` is due at `start + k / rate`.  Each
/// answer to a snapshot query of the marker shows the newest value
/// visible; every sequence number first seen there yields one sample of
/// (answer time - due time of that number), in ms.
class MarkerFreshness {
 public:
  MarkerFreshness(double start, double rate, std::uint64_t first)
      : start_(start), rate_(rate), first_(first),
        seen_(static_cast<double>(first) - 1.0) {}
  /// Consumes one 200 answer body; appends (at, freshness ms) pairs.
  void onAnswer(const std::string& body, double at,
                std::vector<std::pair<double, double>>& out);

 private:
  double start_;
  double rate_;
  std::uint64_t first_;
  double seen_;
};

/// The query plane's half of one daemon event-loop iteration:
/// QueryService::beginPoll, then a spanned HttpServer::poll.  Adds the
/// time spent to `httpSeconds`; true when a request was served.
bool serveQueries(zerosum::aggregator::QueryService& query,
                  zerosum::aggregator::HttpServer& http, double& httpSeconds);

/// Tallies the replies of one reader pass, as the dashboard and fleet
/// workloads count them: open-loop latencies from the due time (overall
/// and per query kind), closed-loop answers per second, marker
/// freshness, failures (429 and unanswered) and wrong answers (any other
/// status), and a bounded set of bodies kept for the correctness checks.
struct ReplyTally {
  ReplyTally(std::size_t kinds, MarkerFreshness marker)
      : perKind(kinds), marker_(marker) {}

  /// Consumes one reply to a query of `kind` (`span` names its traced
  /// round trip); `isMarker` answers feed freshness.  Open-loop bodies are
  /// kept when `keep` or for every 16th reply, so the kept set does not
  /// grow with the closed-loop rate.
  void onReply(const Reply& r, bool open, std::size_t kind, const char* span,
               bool isMarker, bool keep);

  Latencies all;
  std::vector<Latencies> perKind;
  Latencies fresh;
  Throughput answered;  ///< closed-loop 200s
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;  ///< answered with a status other than 200/429
  std::vector<Reply> kept;

 private:
  MarkerFreshness marker_;
  std::vector<std::pair<double, double>> freshScratch_;
};

class HttpReaders {
 public:
  /// Opens `connections` keep-alive connections to 127.0.0.1:`port`.
  HttpReaders(int port, int connections);
  ~HttpReaders();
  HttpReaders(const HttpReaders&) = delete;
  HttpReaders& operator=(const HttpReaders&) = delete;

  /// Sends `targets` in order, cycling, at `rate` per second from `start`
  /// until `until`; every reply (or timeout) reaches `onReply` with the
  /// target's index.  Returns the number of queries sent.
  std::uint64_t openLoop(const std::vector<std::string>& targets, double rate,
                         double start, double until, const ReplyFn& onReply);

  /// One outstanding query per connection until `until`, or until
  /// `stop` is set when given (then `until` is ignored).
  std::uint64_t closedLoop(const std::vector<std::string>& targets,
                           double until, const ReplyFn& onReply,
                           const std::atomic<bool>* stop = nullptr);

  /// Lateness of each open-loop send behind its due time, seconds.
  [[nodiscard]] const std::vector<double>& lateness() const {
    return lateness_;
  }

 private:
  struct Pending {
    std::size_t query = 0;
    double due = 0.0;
    double sent = 0.0;
  };
  struct Conn {
    int fd = -1;
    std::string in;
    std::vector<Pending> pending;  ///< FIFO of sent, unanswered queries
    std::size_t head = 0;
  };

  void send(Conn& conn, const std::string& target, std::size_t query,
            double due);
  /// Waits up to `timeoutSeconds` for bytes and delivers complete
  /// replies.  Returns the number delivered.
  std::size_t pump(double timeoutSeconds, const ReplyFn& onReply);
  /// Waits for every outstanding reply (bounded), failing the rest.
  void drain(const ReplyFn& onReply);
  [[nodiscard]] std::size_t outstanding() const;

  std::vector<Conn> conns_;
  std::vector<double> lateness_;
};

}  // namespace zsb
