#include "ivr/net/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "ivr/core/fault_injection.h"
#include "ivr/core/string_util.h"

namespace ivr {
namespace net {
namespace {

int64_t MonotonicUs() {
  // Deliberately NOT obs::NowUs(): tests freeze the obs clock for
  // bit-reproducible stats, which must not also freeze idle sweeps.
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string_view HttpReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 409:
      return "Conflict";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    case 505:
      return "HTTP Version Not Supported";
    default:
      return status < 400 ? "OK" : "Error";
  }
}

std::string SerializeResponse(const HttpResponse& response,
                              bool keep_alive) {
  const std::string_view reason = HttpReasonPhrase(response.status);
  std::string out = StrFormat(
      "HTTP/1.1 %d %.*s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: %s\r\n\r\n",
      response.status, static_cast<int>(reason.size()), reason.data(),
      response.content_type.c_str(), response.body.size(),
      keep_alive ? "keep-alive" : "close");
  out += response.body;
  return out;
}

HttpServer::HttpServer(HttpServerOptions options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {
  obs::Registry& registry = obs::Registry::Global();
  metrics_.connections_accepted =
      registry.GetCounter("http.connections_accepted");
  metrics_.requests = registry.GetCounter("http.requests");
  metrics_.responses_2xx = registry.GetCounter("http.responses_2xx");
  metrics_.responses_4xx = registry.GetCounter("http.responses_4xx");
  metrics_.responses_5xx = registry.GetCounter("http.responses_5xx");
  metrics_.parse_errors = registry.GetCounter("http.parse_errors");
  metrics_.accept_faults = registry.GetCounter("http.accept_faults");
  metrics_.read_faults = registry.GetCounter("http.read_faults");
  metrics_.write_faults = registry.GetCounter("http.write_faults");
  metrics_.requests_abandoned =
      registry.GetCounter("http.requests_abandoned");
  metrics_.connections_active =
      registry.GetGauge("http.connections_active");
  metrics_.request_us = registry.GetHistogram("http.request_us");
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::FailStart(Status status) {
  loops_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  return status;
}

Status HttpServer::Start() {
  if (started_.load()) {
    return Status::FailedPrecondition("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return FailStart(Status::InvalidArgument("bad bind address: " +
                                             options_.bind_address));
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return FailStart(Status::IOError(
        StrFormat("bind %s:%d: %s", options_.bind_address.c_str(),
                  options_.port, std::strerror(errno))));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return FailStart(
        Status::IOError(StrFormat("listen: %s", std::strerror(errno))));
  }
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) != 0) {
    return FailStart(Status::IOError(
        StrFormat("getsockname: %s", std::strerror(errno))));
  }
  port_ = ntohs(bound.sin_port);

  const size_t num_loops = std::max<size_t>(1, options_.num_workers);
  for (size_t i = 0; i < num_loops; ++i) {
    auto loop = std::make_unique<ServingLoop>();
    ServingLoop* raw = loop.get();
    const Status init = loop->events.Init();
    if (!init.ok()) return FailStart(init);
    loop->events.SetWakeHandler([this, raw] { OnWake(raw); });
    if (options_.idle_timeout_ms > 0) {
      loop->events.SetIdleHandler([this, raw] { SweepIdle(raw); });
    }
    loops_.push_back(std::move(loop));
  }
  const Status listening = loops_[0]->events.Add(
      listen_fd_, EPOLLIN, [this](uint32_t) { OnListenerReady(); });
  if (!listening.ok()) return FailStart(listening);

  in_flight_.store(0);
  drained_loops_.store(0);
  const int sweep_ms =
      options_.idle_timeout_ms > 0
          ? static_cast<int>(
                std::min<int64_t>(options_.idle_timeout_ms, 500))
          : -1;
  for (auto& loop : loops_) {
    ServingLoop* raw = loop.get();
    loop->thread = std::thread([raw, sweep_ms] { raw->events.Run(sweep_ms); });
  }
  started_.store(true);
  return Status::OK();
}

bool HttpServer::Drain(int64_t timeout_ms) {
  if (!started_.load()) return true;
  // Loop 0 runs its pass first: it deregisters the listener, so every
  // hand-off it made is already in an adopt list when it asks the other
  // loops for theirs.
  loops_[0]->drain_requested.store(true, std::memory_order_release);
  loops_[0]->events.Wakeup();
  const int64_t deadline_us =
      MonotonicUs() + std::max<int64_t>(0, timeout_ms) * 1000;
  const auto done = [this] {
    return drained_loops_.load(std::memory_order_acquire) == loops_.size() &&
           in_flight_.load(std::memory_order_acquire) == 0;
  };
  while (!done() && MonotonicUs() < deadline_us) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool clean = done();
  const uint64_t abandoned = in_flight_.load(std::memory_order_acquire);
  if (abandoned > 0) {
    stats_.requests_abandoned.fetch_add(abandoned,
                                        std::memory_order_relaxed);
    metrics_.requests_abandoned->Inc(abandoned);
  }
  Stop();
  return clean;
}

void HttpServer::Stop() {
  if (!started_.load()) return;
  if (stopping_.exchange(true)) return;  // another Stop owns teardown
  for (auto& loop : loops_) loop->events.Stop();
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // The loops are gone; their state is now ours to free.
  for (auto& loop : loops_) {
    for (auto& [id, conn] : loop->connections) {
      (void)id;
      ::close(conn->fd);
      metrics_.connections_active->Add(-1);
    }
    for (auto& conn : loop->adopted) {
      ::close(conn->fd);
      metrics_.connections_active->Add(-1);
    }
  }
  loops_.clear();
  stats_.connections_active.store(0, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  started_.store(false);
  stopping_.store(false);
}

HttpServerStats HttpServer::stats() const {
  HttpServerStats out;
  // Acquire pairs with SweepIdle's release, and is loaded before
  // connections_active so the reaped connections are already uncounted.
  out.idle_closed = stats_.idle_closed.load(std::memory_order_acquire);
  out.connections_accepted =
      stats_.connections_accepted.load(std::memory_order_relaxed);
  out.connections_active =
      stats_.connections_active.load(std::memory_order_relaxed);
  out.requests = stats_.requests.load(std::memory_order_relaxed);
  out.responses_2xx = stats_.responses_2xx.load(std::memory_order_relaxed);
  out.responses_4xx = stats_.responses_4xx.load(std::memory_order_relaxed);
  out.responses_5xx = stats_.responses_5xx.load(std::memory_order_relaxed);
  out.parse_errors = stats_.parse_errors.load(std::memory_order_relaxed);
  out.accept_faults = stats_.accept_faults.load(std::memory_order_relaxed);
  out.read_faults = stats_.read_faults.load(std::memory_order_relaxed);
  out.write_faults = stats_.write_faults.load(std::memory_order_relaxed);
  out.overload_closed =
      stats_.overload_closed.load(std::memory_order_relaxed);
  out.requests_abandoned =
      stats_.requests_abandoned.load(std::memory_order_relaxed);
  return out;
}

void HttpServer::OnListenerReady() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; epoll will re-arm us
    }
    if (FaultInjector::Global().ShouldFail("net.accept")) {
      stats_.accept_faults.fetch_add(1, std::memory_order_relaxed);
      metrics_.accept_faults->Inc();
      ::close(fd);
      continue;
    }
    if (stats_.connections_active.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      stats_.overload_closed.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));

    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->parser = HttpParser(options_.limits);
    conn->last_active_us = MonotonicUs();
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.connections_active.fetch_add(1, std::memory_order_relaxed);
    metrics_.connections_accepted->Inc();
    metrics_.connections_active->Add(1);
    ServingLoop* owner = loops_[(conn->id - 1) % loops_.size()].get();
    if (owner == loops_[0].get()) {
      AddConnection(owner, std::move(conn));
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(owner->adopt_mu);
      owner->adopted.push_back(std::move(conn));
    }
    owner->events.Wakeup();
  }
}

void HttpServer::AddConnection(ServingLoop* loop,
                               std::unique_ptr<Connection> conn) {
  conn->loop = loop;
  Connection* raw = conn.get();
  const Status added = loop->events.Add(
      conn->fd, EPOLLIN | EPOLLRDHUP,
      [this, raw](uint32_t events) { OnConnectionReady(raw, events); });
  if (!added.ok()) {
    ::close(conn->fd);
    stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);
    metrics_.connections_active->Add(-1);
    return;
  }
  loop->connections.emplace(conn->id, std::move(conn));
}

void HttpServer::OnWake(ServingLoop* loop) {
  // Read the request before taking the adopt list: loop 0 asks for the
  // pass only after its last hand-off, so this pass covers every one.
  const bool drain = !loop->drained &&
                     loop->drain_requested.load(std::memory_order_acquire);
  std::vector<std::unique_ptr<Connection>> adopted;
  {
    std::lock_guard<std::mutex> lock(loop->adopt_mu);
    adopted.swap(loop->adopted);
  }
  for (std::unique_ptr<Connection>& conn : adopted) {
    AddConnection(loop, std::move(conn));
  }
  if (drain) DrainPass(loop);
}

void HttpServer::DrainPass(ServingLoop* loop) {
  if (loop == loops_[0].get()) {
    loop->events.Del(listen_fd_);
    for (size_t i = 1; i < loops_.size(); ++i) {
      loops_[i]->drain_requested.store(true, std::memory_order_release);
      loops_[i]->events.Wakeup();
    }
  }
  // Requests that arrived while this loop sat in a handler are still in
  // the sockets: read and serve them, then shed whatever is idle — an
  // idle connection can only ever bring NEW requests.
  std::vector<uint64_t> ids;
  ids.reserve(loop->connections.size());
  for (const auto& [id, conn] : loop->connections) ids.push_back(id);
  for (uint64_t id : ids) {
    auto it = loop->connections.find(id);
    if (it == loop->connections.end()) continue;
    Connection* conn = it->second.get();
    if (!ReadAvailable(conn) || !Serve(conn)) continue;
    if (conn->outbuf.empty()) CloseConnection(conn);
  }
  // Responses still backpressured close once flushed (see Flush).
  loop->drained = true;
  drained_loops_.fetch_add(1, std::memory_order_acq_rel);
}

void HttpServer::OnConnectionReady(Connection* conn, uint32_t events) {
  conn->last_active_us = MonotonicUs();
  if ((events & EPOLLOUT) && !(Flush(conn) && Serve(conn))) return;
  if ((events & EPOLLIN) && !(ReadAvailable(conn) && Serve(conn))) return;
  if (events & (EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
    // Abrupt client disconnect (or half-close): everything readable was
    // served above; a response still backpressured has nowhere to go.
    CloseConnection(conn);
  }
}

bool HttpServer::ReadAvailable(Connection* conn) {
  char chunk[4096];
  while (true) {
    if (FaultInjector::Global().ShouldFail("net.read")) {
      stats_.read_faults.fetch_add(1, std::memory_order_relaxed);
      metrics_.read_faults->Inc();
      CloseConnection(conn);
      return false;
    }
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      CloseConnection(conn);
      return false;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      CloseConnection(conn);
      return false;
    }
    // Between TakeRequest() and Reset() the parser sits in kComplete and
    // Feed only buffers: those bytes wait for the turnaround.
    conn->parser.Feed(std::string_view(chunk, static_cast<size_t>(n)));
    // A short read emptied the socket; epoll is level-triggered, so
    // anything arriving later raises EPOLLIN again.
    if (static_cast<size_t>(n) < sizeof(chunk)) return true;
  }
}

bool HttpServer::Serve(Connection* conn) {
  while (conn->outbuf.empty()) {
    HttpResponse response;
    bool keep_alive = false;
    if (conn->parser.failed()) {
      ReleaseInFlight(conn);
      stats_.parse_errors.fetch_add(1, std::memory_order_relaxed);
      metrics_.parse_errors->Inc();
      response.status = conn->parser.error_status();
      response.body =
          StrFormat("{\"error\": \"%s\"}\n",
                    JsonEscape(conn->parser.error_reason()).c_str());
    } else if (conn->parser.done()) {
      if (!conn->counted_in_flight) {
        conn->counted_in_flight = true;
        in_flight_.fetch_add(1, std::memory_order_acq_rel);
      }
      stats_.requests.fetch_add(1, std::memory_order_relaxed);
      metrics_.requests->Inc();
      const HttpRequest request = conn->parser.TakeRequest();
      const obs::Stopwatch timer;
      response = handler_(request);
      metrics_.request_us->Record(timer.ElapsedUs());
      keep_alive = request.keep_alive && !response.close;
      conn->last_active_us = MonotonicUs();
    } else {
      return true;  // the next request is still incomplete
    }
    CountResponse(response.status);
    conn->outbuf = SerializeResponse(response, keep_alive);
    conn->out_pos = 0;
    conn->close_after_write = !keep_alive;
    if (!Flush(conn)) return false;
  }
  return true;
}

void HttpServer::ReleaseInFlight(Connection* conn) {
  if (!conn->counted_in_flight) return;
  conn->counted_in_flight = false;
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
}

void HttpServer::CountResponse(int status) {
  if (status >= 500) {
    stats_.responses_5xx.fetch_add(1, std::memory_order_relaxed);
    metrics_.responses_5xx->Inc();
  } else if (status >= 400) {
    stats_.responses_4xx.fetch_add(1, std::memory_order_relaxed);
    metrics_.responses_4xx->Inc();
  } else {
    stats_.responses_2xx.fetch_add(1, std::memory_order_relaxed);
    metrics_.responses_2xx->Inc();
  }
}

bool HttpServer::Flush(Connection* conn) {
  while (conn->out_pos < conn->outbuf.size()) {
    if (FaultInjector::Global().ShouldFail("net.write")) {
      // A mid-response write fault: the client gets a torn response and a
      // closed socket; the server sheds exactly this one connection.
      stats_.write_faults.fetch_add(1, std::memory_order_relaxed);
      metrics_.write_faults->Inc();
      CloseConnection(conn);
      return false;
    }
    const ssize_t n =
        ::send(conn->fd, conn->outbuf.data() + conn->out_pos,
               conn->outbuf.size() - conn->out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        CloseConnection(conn);
        return false;
      }
      // Backpressure, the rare path: wait for writability, and read
      // nothing more until this response is out.
      if (!conn->write_blocked) {
        conn->write_blocked = true;
        (void)conn->loop->events.Mod(conn->fd, EPOLLOUT | EPOLLRDHUP);
      }
      return true;
    }
    conn->out_pos += static_cast<size_t>(n);
  }
  conn->outbuf.clear();
  conn->out_pos = 0;
  if (conn->close_after_write) {
    CloseConnection(conn);  // releases the in-flight slot
    return false;
  }
  if (conn->write_blocked) {
    conn->write_blocked = false;
    (void)conn->loop->events.Mod(conn->fd, EPOLLIN | EPOLLRDHUP);
  }
  conn->parser.Reset();
  if (!conn->parser.done() && !conn->parser.failed()) {
    // No pipelined request is buffered. Otherwise the in-flight slot
    // passes straight to it: its bytes were accepted, so a drain must
    // cover it too.
    ReleaseInFlight(conn);
    if (conn->loop->drained) {
      CloseConnection(conn);  // no keep-alive turnaround after a drain
      return false;
    }
  }
  return true;
}

void HttpServer::CloseConnection(Connection* conn) {
  // A dying connection can't be abandoned-in-flight: its request has
  // nowhere to respond to any more.
  ReleaseInFlight(conn);
  ServingLoop* loop = conn->loop;
  loop->events.Del(conn->fd);
  ::close(conn->fd);
  loop->connections.erase(conn->id);  // frees conn
  stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  metrics_.connections_active->Add(-1);
}

void HttpServer::SweepIdle(ServingLoop* loop) {
  const int64_t now_us = MonotonicUs();
  const int64_t limit_us = options_.idle_timeout_ms * 1000;
  std::vector<Connection*> victims;
  for (const auto& [id, conn] : loop->connections) {
    if (now_us - conn->last_active_us <= limit_us) continue;
    // Bytes waiting on a readable connection mean this loop was busy in a
    // handler, not that the client went idle.
    char byte;
    if (!conn->write_blocked &&
        ::recv(conn->fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT) > 0) {
      continue;
    }
    victims.push_back(conn.get());
  }
  for (Connection* conn : victims) {
    // Close first, then count with release: a stats() reader that sees
    // this reap also sees its connections_active decrement.
    CloseConnection(conn);
    stats_.idle_closed.fetch_add(1, std::memory_order_release);
  }
}

}  // namespace net
}  // namespace ivr
