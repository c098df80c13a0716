#ifndef IVR_NET_HTTP_SERVER_H_
#define IVR_NET_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ivr/core/status.h"
#include "ivr/net/event_loop.h"
#include "ivr/net/http_parser.h"
#include "ivr/obs/metrics.h"

namespace ivr {
namespace net {

/// What a handler returns; the server adds the status line, Content-Length
/// and Connection headers when serializing.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Force Connection: close regardless of what the request asked for.
  bool close = false;
};

/// Standard reason phrase for the status codes the stack emits.
std::string_view HttpReasonPhrase(int status);

/// Serializes a full HTTP/1.1 response message (used by the server and by
/// tests asserting on wire bytes).
std::string SerializeResponse(const HttpResponse& response,
                              bool keep_alive);

struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks; read the result from port().
  int port = 0;
  /// Serving-loop threads. Each one accepts its share of connections,
  /// parses, runs the handler (SessionManager calls, JSON codec work)
  /// inline and writes the response; 0 means 1.
  size_t num_workers = 2;
  /// Accepted connections beyond this are closed immediately.
  size_t max_connections = 1024;
  /// Connections idle longer than this are closed by the loop's sweep;
  /// 0 disables the sweep (tests drive their own pacing).
  int64_t idle_timeout_ms = 0;
  HttpParserLimits limits;
};

/// Monitoring counters, readable from any thread while the server runs.
/// These are per-server (the obs registry mirrors them process-wide).
struct HttpServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t requests = 0;
  uint64_t responses_2xx = 0;
  uint64_t responses_4xx = 0;
  uint64_t responses_5xx = 0;
  uint64_t parse_errors = 0;
  uint64_t accept_faults = 0;
  uint64_t read_faults = 0;
  uint64_t write_faults = 0;
  uint64_t idle_closed = 0;
  uint64_t overload_closed = 0;
  /// Requests still in flight when a Drain() deadline expired.
  uint64_t requests_abandoned = 0;
};

/// The epoll front-end: `num_workers` run-to-completion serving loops.
/// Each loop is one thread running its own EventLoop, and it exclusively
/// owns a disjoint set of connections. The thread that reads a complete
/// request runs the handler inline, serializes the response and send()s
/// it directly; EPOLLOUT is armed (and EPOLLIN dropped) only when send()
/// hits EAGAIN, so a keep-alive request costs no epoll_ctl at all.
/// Pipelined requests are answered in order, each only after the previous
/// response has fully flushed.
///
/// Loop 0 also owns the listener and deals accepted connections out
/// round-robin by id ((id - 1) mod num_workers). A connection for another
/// loop is handed over once, through that loop's adopt list and a
/// Wakeup(); after that no state is shared between loops except the
/// atomic counters. The trade-off against a FIFO worker pool: a slow
/// handler delays only the connections on its own loop (and, on loop 0,
/// new accepts), but it does delay them, because no other thread may take
/// their requests.
///
/// Fault sites (chaos tier): "net.accept" closes a just-accepted
/// connection, "net.read" turns a readable socket into a connection
/// error, "net.write" kills a connection mid-response (the client sees a
/// torn response; the server carries on). All three degrade one
/// connection, never the process.
class HttpServer {
 public:
  /// `handler` runs on the serving-loop threads, possibly concurrently; it
  /// must be thread-safe (ServiceHandler over a SessionManager is).
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer(HttpServerOptions options, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the serving loops. A stopped server may be
  /// started again; each Start builds fresh loops.
  Status Start();

  /// Joins the serving loops and tears every connection down. Idempotent;
  /// also run by the destructor.
  void Stop();

  /// Graceful shutdown: stops accepting new connections, serves and
  /// flushes every request whose bytes reached the server before the call,
  /// sheds idle keep-alive connections, then Stop()s. Each loop's drain
  /// pass first reads and serves its connections' buffered requests (the
  /// loop may have been inside a handler when they arrived) and only then
  /// closes the idle ones. Returns true when every loop finished its pass
  /// and nothing was left in flight within `timeout_ms`; a request whose
  /// handler was still running at the deadline counts in
  /// stats().requests_abandoned. Safe to call from any thread except a
  /// serving-loop thread.
  bool Drain(int64_t timeout_ms);

  /// The bound TCP port (the ephemeral choice when options.port was 0).
  /// Valid after Start().
  int port() const { return port_; }

  HttpServerStats stats() const;

 private:
  struct ServingLoop;

  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    ServingLoop* loop = nullptr;
    HttpParser parser;
    /// The response being written; non-empty between handler calls only
    /// while send() is backpressured.
    std::string outbuf;
    size_t out_pos = 0;
    bool close_after_write = false;
    /// EPOLLOUT is armed instead of EPOLLIN.
    bool write_blocked = false;
    /// True while this connection holds an in_flight_ slot: taken when a
    /// handler starts, given back when its response has fully flushed (or
    /// passed straight to a pipelined follow-up), or when the connection
    /// dies.
    bool counted_in_flight = false;
    int64_t last_active_us = 0;
  };

  /// One serving thread. `adopted` and `drain_requested` are the only
  /// members other threads touch.
  struct ServingLoop {
    EventLoop events;
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections;
    /// Connections loop 0 accepted for this loop, not yet registered.
    std::mutex adopt_mu;
    std::vector<std::unique_ptr<Connection>> adopted;
    std::atomic<bool> drain_requested{false};
    /// This loop's drain pass has run: no more keep-alive turnarounds.
    bool drained = false;
    std::thread thread;
  };

  void OnListenerReady();
  /// Registers `conn` with `loop`; runs on that loop's thread.
  void AddConnection(ServingLoop* loop, std::unique_ptr<Connection> conn);
  void OnWake(ServingLoop* loop);
  void DrainPass(ServingLoop* loop);
  void OnConnectionReady(Connection* conn, uint32_t events);
  // The three below return false when they closed `conn` (it is freed).
  /// Reads what the socket holds into the parser.
  bool ReadAvailable(Connection* conn);
  /// Answers every complete buffered request in order, inline, until the
  /// parser needs more bytes or a response is backpressured.
  bool Serve(Connection* conn);
  /// Sends the rest of `outbuf`; on a full flush, turns the connection
  /// around for its next request.
  bool Flush(Connection* conn);
  void CloseConnection(Connection* conn);
  /// Gives back `conn`'s in_flight_ slot, if it holds one.
  void ReleaseInFlight(Connection* conn);
  void SweepIdle(ServingLoop* loop);
  void CountResponse(int status);
  /// Undoes a partial Start().
  Status FailStart(Status status);

  HttpServerOptions options_;
  Handler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  /// Fresh per Start(); loops_[0] owns the listener.
  std::vector<std::unique_ptr<ServingLoop>> loops_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  /// Handlers started whose response has not fully flushed yet.
  std::atomic<uint64_t> in_flight_{0};
  /// Loops whose drain pass has run.
  std::atomic<size_t> drained_loops_{0};
  /// Loop 0 only. Never reset, so connection ids are never recycled.
  uint64_t next_conn_id_ = 1;

  struct AtomicStats {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_active{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> responses_2xx{0};
    std::atomic<uint64_t> responses_4xx{0};
    std::atomic<uint64_t> responses_5xx{0};
    std::atomic<uint64_t> parse_errors{0};
    std::atomic<uint64_t> accept_faults{0};
    std::atomic<uint64_t> read_faults{0};
    std::atomic<uint64_t> write_faults{0};
    std::atomic<uint64_t> idle_closed{0};
    std::atomic<uint64_t> overload_closed{0};
    std::atomic<uint64_t> requests_abandoned{0};
  };
  AtomicStats stats_;

  /// Obs registry mirrors, resolved once at construction.
  struct Metrics {
    obs::Counter* connections_accepted;
    obs::Counter* requests;
    obs::Counter* responses_2xx;
    obs::Counter* responses_4xx;
    obs::Counter* responses_5xx;
    obs::Counter* parse_errors;
    obs::Counter* accept_faults;
    obs::Counter* read_faults;
    obs::Counter* write_faults;
    obs::Counter* requests_abandoned;
    obs::Gauge* connections_active;
    obs::LatencyHistogram* request_us;
  };
  Metrics metrics_;
};

}  // namespace net
}  // namespace ivr

#endif  // IVR_NET_HTTP_SERVER_H_
