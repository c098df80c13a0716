#ifndef IVR_NET_HTTP_CLIENT_H_
#define IVR_NET_HTTP_CLIENT_H_

#include <string>
#include <utility>
#include <vector>

#include "ivr/core/result.h"

namespace ivr {
namespace net {

/// One parsed HTTP response as a client sees it.
struct HttpClientResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;  // lower-cased
  std::string body;

  const std::string* FindHeader(std::string_view name) const;
};

/// A small blocking HTTP/1.1 client over one keep-alive connection —
/// the test-side counterpart of HttpServer, and what ivr_http_client
/// drives concurrently (one HttpClient per thread; an instance is NOT
/// thread-safe). Requests carry Content-Length, responses are read to
/// their exact Content-Length. Reconnecting is best-effort: a keep-alive
/// connection the server has already closed (an idle reap) is replaced
/// before the request is sent, and a request is sent again only when
/// sending it failed, so the server never runs it twice. A close that
/// races the send (it lands after the check) surfaces as an error.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;
  HttpClient(HttpClient&& other) noexcept;
  HttpClient& operator=(HttpClient&& other) noexcept;

  /// Connects to host:port (host is a dotted IPv4 literal, e.g.
  /// "127.0.0.1"). `timeout_ms` bounds every subsequent send/recv; 0
  /// means no timeout.
  Status Connect(const std::string& host, int port, int timeout_ms = 10000);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// The raw connected socket, for tests that want to write torn or
  /// otherwise pathological bytes directly. -1 when not connected.
  int fd() const { return fd_; }

  Result<HttpClientResponse> Get(const std::string& path);
  Result<HttpClientResponse> Post(const std::string& path,
                                  const std::string& body);

  /// Sends raw bytes as-is (chaos tests: slow-loris, truncated requests).
  Status SendRaw(std::string_view bytes);
  /// Reads one full response off the socket (after SendRaw).
  Result<HttpClientResponse> ReadResponse();

 private:
  Result<HttpClientResponse> Request(const std::string& method,
                                     const std::string& path,
                                     const std::string& body);
  Status Reconnect();
  /// True when the peer has closed the idle connection (or it failed).
  bool PeerClosed() const;

  std::string host_;
  int port_ = 0;
  int timeout_ms_ = 0;
  int fd_ = -1;
  /// Bytes read past the previous response (keep-alive pipelining slack).
  std::string leftover_;
};

}  // namespace net
}  // namespace ivr

#endif  // IVR_NET_HTTP_CLIENT_H_
