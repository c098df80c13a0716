#include "ivr/net/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "ivr/core/string_util.h"

namespace ivr {
namespace net {
namespace {

/// Offset just past the header terminator, or npos if not buffered yet.
size_t FindHeaderEnd(const std::string& buffer) {
  const size_t crlf = buffer.find("\r\n\r\n");
  const size_t lf = buffer.find("\n\n");
  if (crlf == std::string::npos && lf == std::string::npos) {
    return std::string::npos;
  }
  if (crlf == std::string::npos) return lf + 2;
  if (lf == std::string::npos) return crlf + 4;
  return crlf < lf ? crlf + 4 : lf + 2;
}

}  // namespace

const std::string* HttpClientResponse::FindHeader(
    std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

HttpClient::~HttpClient() { Close(); }

HttpClient::HttpClient(HttpClient&& other) noexcept
    : host_(std::move(other.host_)),
      port_(other.port_),
      timeout_ms_(other.timeout_ms_),
      fd_(other.fd_),
      leftover_(std::move(other.leftover_)) {
  other.fd_ = -1;
}

HttpClient& HttpClient::operator=(HttpClient&& other) noexcept {
  if (this != &other) {
    Close();
    host_ = std::move(other.host_);
    port_ = other.port_;
    timeout_ms_ = other.timeout_ms_;
    fd_ = other.fd_;
    leftover_ = std::move(other.leftover_);
    other.fd_ = -1;
  }
  return *this;
}

Status HttpClient::Connect(const std::string& host, int port,
                           int timeout_ms) {
  Close();
  host_ = host;
  port_ = port;
  timeout_ms_ = timeout_ms;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
  }
  if (timeout_ms > 0) {
    struct timeval tv;
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host literal: " + host);
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status failed = Status::IOError(StrFormat(
        "connect %s:%d: %s", host.c_str(), port, std::strerror(errno)));
    ::close(fd);
    return failed;
  }
  fd_ = fd;
  leftover_.clear();
  return Status::OK();
}

void HttpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  leftover_.clear();
}

Status HttpClient::Reconnect() { return Connect(host_, port_, timeout_ms_); }

Status HttpClient::SendRaw(std::string_view bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("send: %s", std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<HttpClientResponse> HttpClient::ReadResponse() {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  std::string buffer = std::move(leftover_);
  leftover_.clear();

  size_t header_end = FindHeaderEnd(buffer);
  char chunk[4096];
  while (header_end == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      return Status::IOError(buffer.empty()
                                 ? "connection closed before response"
                                 : "connection closed mid-headers");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("recv: %s", std::strerror(errno)));
    }
    buffer.append(chunk, static_cast<size_t>(n));
    header_end = FindHeaderEnd(buffer);
  }

  HttpClientResponse response;
  size_t line_start = 0;
  size_t content_length = 0;
  bool close_after = false;
  bool first_line = true;
  while (line_start < header_end) {
    size_t line_end = buffer.find('\n', line_start);
    std::string line = buffer.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) break;
    if (first_line) {
      first_line = false;
      // "HTTP/1.1 200 OK"
      const size_t sp = line.find(' ');
      if (sp == std::string::npos || !StartsWith(line, "HTTP/")) {
        return Status::Corruption("malformed status line: " + line);
      }
      const Result<int64_t> status = ParseInt(line.substr(sp + 1, 3));
      if (!status.ok() || *status < 100 || *status > 599) {
        return Status::Corruption("malformed status line: " + line);
      }
      response.status = static_cast<int>(*status);
      continue;
    }
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return Status::Corruption("malformed response header: " + line);
    }
    std::string name = ToLower(line.substr(0, colon));
    std::string value(Trim(line.substr(colon + 1)));
    if (name == "content-length") {
      const Result<int64_t> parsed = ParseInt(value);
      if (!parsed.ok() || *parsed < 0) {
        return Status::Corruption("bad content-length: " + value);
      }
      content_length = static_cast<size_t>(*parsed);
    } else if (name == "connection" &&
               ToLower(value).find("close") != std::string::npos) {
      close_after = true;
    }
    response.headers.emplace_back(std::move(name), std::move(value));
  }

  std::string body = buffer.substr(header_end);
  while (body.size() < content_length) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return Status::IOError("connection closed mid-body");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("recv: %s", std::strerror(errno)));
    }
    body.append(chunk, static_cast<size_t>(n));
  }
  leftover_ = body.substr(content_length);
  body.resize(content_length);
  response.body = std::move(body);
  if (close_after) Close();
  return response;
}

Result<HttpClientResponse> HttpClient::Request(const std::string& method,
                                               const std::string& path,
                                               const std::string& body) {
  const std::string wire = StrFormat(
      "%s %s HTTP/1.1\r\nHost: %s:%d\r\nContent-Length: %zu\r\n"
      "Connection: keep-alive\r\n\r\n",
      method.c_str(), path.c_str(), host_.c_str(), port_,
      body.size()) + body;
  // A keep-alive connection the server has since closed (an idle reap)
  // is replaced before sending, never after: once the request went out,
  // the server may have executed it, and sending it again could run a
  // non-idempotent request twice.
  if (fd_ >= 0 && PeerClosed()) Close();
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0) {
      IVR_RETURN_IF_ERROR(Reconnect());
    }
    const Status sent = SendRaw(wire);
    if (!sent.ok()) {
      // The server cannot hold a complete request: retry once on a fresh
      // connection. Second failure is real.
      Close();
      if (attempt == 0) continue;
      return sent;
    }
    Result<HttpClientResponse> response = ReadResponse();
    if (!response.ok()) Close();
    return response;
  }
  return Status::Internal("unreachable");
}

bool HttpClient::PeerClosed() const {
  char byte;
  const ssize_t n = ::recv(fd_, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  return n == 0 ||
         (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR);
}

Result<HttpClientResponse> HttpClient::Get(const std::string& path) {
  return Request("GET", path, "");
}

Result<HttpClientResponse> HttpClient::Post(const std::string& path,
                                            const std::string& body) {
  return Request("POST", path, body);
}

}  // namespace net
}  // namespace ivr
