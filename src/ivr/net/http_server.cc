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
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::IOError(StrFormat("bind %s:%d: %s",
                                     options_.bind_address.c_str(),
                                     options_.port, std::strerror(errno)));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::IOError(StrFormat("listen: %s", std::strerror(errno)));
  }
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) != 0) {
    return Status::IOError(StrFormat("getsockname: %s",
                                     std::strerror(errno)));
  }
  port_ = ntohs(bound.sin_port);

  IVR_RETURN_IF_ERROR(loop_.Init());
  IVR_RETURN_IF_ERROR(loop_.Add(listen_fd_, EPOLLIN,
                                [this](uint32_t events) {
                                  OnListenerReady(events);
                                }));
  loop_.SetWakeHandler([this] { DrainMailbox(); });
  if (options_.idle_timeout_ms > 0) {
    loop_.SetIdleHandler([this] { SweepIdle(); });
  }

  const size_t num_workers = std::max<size_t>(1, options_.num_workers);
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerThread(); });
  }
  const int timeout_ms =
      options_.idle_timeout_ms > 0
          ? static_cast<int>(
                std::min<int64_t>(options_.idle_timeout_ms, 500))
          : -1;
  loop_thread_ = std::thread([this, timeout_ms] { loop_.Run(timeout_ms); });
  started_.store(true);
  return Status::OK();
}

bool HttpServer::Drain(int64_t timeout_ms) {
  if (!started_.load()) return true;
  draining_.store(true, std::memory_order_release);
  loop_.Wakeup();  // the wake handler deregisters the listener
  const int64_t deadline_us =
      MonotonicUs() + std::max<int64_t>(0, timeout_ms) * 1000;
  while (in_flight_.load(std::memory_order_acquire) > 0 &&
         MonotonicUs() < deadline_us) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t abandoned = in_flight_.load(std::memory_order_acquire);
  if (abandoned > 0) {
    stats_.requests_abandoned.fetch_add(abandoned,
                                        std::memory_order_relaxed);
    metrics_.requests_abandoned->Inc(abandoned);
  }
  Stop();
  return abandoned == 0;
}

void HttpServer::Stop() {
  if (!started_.load()) return;
  if (stopping_.exchange(true)) return;  // another Stop owns teardown
  loop_.Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    workers_stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Loop and workers are gone; the loop-owned state is now ours to free.
  for (auto& [id, conn] : connections_) {
    (void)id;
    ::close(conn->fd);
    metrics_.connections_active->Add(-1);
  }
  stats_.connections_active.store(0, std::memory_order_relaxed);
  connections_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  started_.store(false);
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

void HttpServer::OnListenerReady(uint32_t events) {
  if ((events & EPOLLIN) == 0) return;
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
    if (connections_.size() >= options_.max_connections) {
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
    Connection* raw = conn.get();
    const uint64_t id = conn->id;
    connections_[id] = std::move(conn);
    const Status added =
        loop_.Add(fd, EPOLLIN | EPOLLRDHUP, [this, raw](uint32_t ev) {
          OnConnectionReady(raw, ev);
        });
    if (!added.ok()) {
      connections_.erase(id);
      ::close(fd);
      continue;
    }
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.connections_active.fetch_add(1, std::memory_order_relaxed);
    metrics_.connections_accepted->Inc();
    metrics_.connections_active->Add(1);
  }
}

void HttpServer::OnConnectionReady(Connection* conn, uint32_t events) {
  conn->last_active_us = MonotonicUs();
  const uint64_t id = conn->id;
  if (events & EPOLLOUT) {
    WriteToConnection(conn);
    if (connections_.count(id) == 0) return;  // write path closed it
  }
  if (events & EPOLLIN) {
    ReadFromConnection(conn);
    if (connections_.count(id) == 0) return;
  }
  if (events & (EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
    // Abrupt client disconnect (or half-close): everything readable was
    // drained above; whatever response might be in flight has nowhere to
    // go. Tear the connection down.
    CloseConnection(id);
  }
}

void HttpServer::ReadFromConnection(Connection* conn) {
  char chunk[4096];
  while (true) {
    if (FaultInjector::Global().ShouldFail("net.read")) {
      stats_.read_faults.fetch_add(1, std::memory_order_relaxed);
      metrics_.read_faults->Inc();
      CloseConnection(conn->id);
      return;
    }
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      CloseConnection(conn->id);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(conn->id);
      return;
    }
    // While a worker owns the current request the parser sits in
    // kComplete and Feed only buffers — the bytes wait for Reset().
    conn->parser.Feed(std::string_view(chunk, static_cast<size_t>(n)));
  }
  if (conn->handling) return;
  if (conn->parser.failed()) {
    stats_.parse_errors.fetch_add(1, std::memory_order_relaxed);
    metrics_.parse_errors->Inc();
    HttpResponse error;
    error.status = conn->parser.error_status();
    error.body = StrFormat("{\"error\": \"%s\"}\n",
                           JsonEscape(conn->parser.error_reason()).c_str());
    StartResponse(conn, SerializeResponse(error, /*keep_alive=*/false),
                  /*close_after=*/true, error.status);
    return;
  }
  if (conn->parser.done()) DispatchRequest(conn);
}

void HttpServer::DispatchRequest(Connection* conn) {
  conn->handling = true;
  if (!conn->counted_in_flight) {
    conn->counted_in_flight = true;
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
  }
  conn->keep_alive = conn->parser.request().keep_alive;
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  metrics_.requests->Inc();
  // Stop reading while the request is in flight; EPOLLRDHUP still tells
  // us about a client that went away mid-handling.
  (void)loop_.Mod(conn->fd, EPOLLRDHUP);
  Job job;
  job.conn_id = conn->id;
  job.request = conn->parser.TakeRequest();
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    jobs_.push_back(std::move(job));
  }
  work_cv_.notify_one();
}

void HttpServer::WorkerThread() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [this] {
        return workers_stop_ || !jobs_.empty();
      });
      if (workers_stop_ && jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    const obs::Stopwatch timer;
    const HttpResponse response = handler_(job.request);
    metrics_.request_us->Record(timer.ElapsedUs());
    const bool keep_alive = job.request.keep_alive && !response.close;
    CompletedResponse done;
    done.conn_id = job.conn_id;
    done.bytes = SerializeResponse(response, keep_alive);
    done.close_after = !keep_alive;
    done.status = response.status;
    {
      std::lock_guard<std::mutex> lock(mailbox_mu_);
      mailbox_.push_back(std::move(done));
    }
    loop_.Wakeup();
  }
}

void HttpServer::ReleaseInFlight(Connection* conn) {
  if (!conn->counted_in_flight) return;
  conn->counted_in_flight = false;
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
}

void HttpServer::DrainMailbox() {
  if (draining_.load(std::memory_order_acquire) && !listener_removed_) {
    // The drain wake: stop accepting, and shed every idle connection —
    // idle ones can only ever bring NEW requests, so closing them bounds
    // the drain by work already dispatched or mid-write.
    listener_removed_ = true;
    loop_.Del(listen_fd_);
    std::vector<uint64_t> idle;
    for (const auto& [id, conn] : connections_) {
      if (!conn->handling && conn->outbuf.empty()) idle.push_back(id);
    }
    for (uint64_t id : idle) CloseConnection(id);
  }
  std::vector<CompletedResponse> batch;
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    batch.swap(mailbox_);
  }
  for (CompletedResponse& done : batch) {
    auto it = connections_.find(done.conn_id);
    if (it == connections_.end()) continue;  // died while handling
    StartResponse(it->second.get(), std::move(done.bytes),
                  done.close_after, done.status);
  }
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

void HttpServer::StartResponse(Connection* conn, std::string bytes,
                               bool close_after, int status) {
  conn->handling = false;
  conn->outbuf = std::move(bytes);
  conn->out_pos = 0;
  conn->close_after_write = close_after;
  conn->last_active_us = MonotonicUs();
  CountResponse(status);
  (void)loop_.Mod(conn->fd, EPOLLOUT | EPOLLRDHUP);
  WriteToConnection(conn);
}

void HttpServer::WriteToConnection(Connection* conn) {
  while (conn->out_pos < conn->outbuf.size()) {
    if (FaultInjector::Global().ShouldFail("net.write")) {
      // A mid-response write fault: the client gets a torn response and a
      // closed socket; the server sheds exactly this one connection.
      stats_.write_faults.fetch_add(1, std::memory_order_relaxed);
      metrics_.write_faults->Inc();
      CloseConnection(conn->id);
      return;
    }
    const ssize_t n =
        ::send(conn->fd, conn->outbuf.data() + conn->out_pos,
               conn->outbuf.size() - conn->out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // EPOLLOUT armed
      if (errno == EINTR) continue;
      CloseConnection(conn->id);
      return;
    }
    conn->out_pos += static_cast<size_t>(n);
  }
  if (conn->out_pos >= conn->outbuf.size() && !conn->outbuf.empty()) {
    FinishResponse(conn);
  }
}

void HttpServer::FinishResponse(Connection* conn) {
  conn->outbuf.clear();
  conn->out_pos = 0;
  if (conn->close_after_write) {
    CloseConnection(conn->id);  // releases the in-flight slot
    return;
  }
  conn->parser.Reset();
  if (conn->parser.failed()) {
    ReleaseInFlight(conn);
    stats_.parse_errors.fetch_add(1, std::memory_order_relaxed);
    metrics_.parse_errors->Inc();
    HttpResponse error;
    error.status = conn->parser.error_status();
    error.body = StrFormat("{\"error\": \"%s\"}\n",
                           JsonEscape(conn->parser.error_reason()).c_str());
    StartResponse(conn, SerializeResponse(error, /*keep_alive=*/false),
                  /*close_after=*/true, error.status);
    return;
  }
  if (conn->parser.done()) {
    // A pipelined request was already buffered; serve it without waiting
    // for more socket readability. The in-flight slot transfers straight
    // to it (its bytes were accepted, so a drain must cover it too).
    DispatchRequest(conn);
    return;
  }
  ReleaseInFlight(conn);
  if (draining_.load(std::memory_order_acquire)) {
    // No new requests during a drain: close instead of keep-alive
    // turnaround.
    CloseConnection(conn->id);
    return;
  }
  (void)loop_.Mod(conn->fd, EPOLLIN | EPOLLRDHUP);
}

void HttpServer::CloseConnection(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  // A dying connection can't be abandoned-in-flight: its request has
  // nowhere to respond to any more.
  ReleaseInFlight(it->second.get());
  loop_.Del(it->second->fd);
  ::close(it->second->fd);
  connections_.erase(it);
  stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  metrics_.connections_active->Add(-1);
}

void HttpServer::SweepIdle() {
  if (options_.idle_timeout_ms <= 0) return;
  const int64_t now_us = MonotonicUs();
  const int64_t limit_us = options_.idle_timeout_ms * 1000;
  std::vector<uint64_t> victims;
  for (const auto& [id, conn] : connections_) {
    if (conn->handling) continue;  // a worker owes this one a response
    if (now_us - conn->last_active_us > limit_us) victims.push_back(id);
  }
  for (uint64_t id : victims) {
    // Close first, then count with release: a stats() reader that sees
    // this reap also sees its connections_active decrement.
    CloseConnection(id);
    stats_.idle_closed.fetch_add(1, std::memory_order_release);
  }
}

}  // namespace net
}  // namespace ivr
