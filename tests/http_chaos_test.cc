// Socket-level chaos tier for the HTTP front-end: slow-loris feeds, torn
// requests, abrupt disconnects, oversized headers, and injected faults on
// the accept/read/write paths. The server must never crash, never lose a
// session that was opened before the chaos, answer garbage with the right
// 4xx, and keep its health accounting consistent.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/core/fault_injection.h"
#include "ivr/core/string_util.h"
#include "ivr/net/http_client.h"
#include "ivr/net/http_server.h"
#include "ivr/net/json.h"
#include "ivr/net/service_handler.h"
#include "ivr/retrieval/engine.h"
#include "ivr/service/session_manager.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace net {
namespace {

class HttpChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.seed = 2008;
    options.num_videos = 8;
    options.num_topics = 5;
    generated_ =
        new GeneratedCollection(GenerateCollection(options).value());
    engine_ = RetrievalEngine::Build(generated_->collection)
                  .value()
                  .release();
    adaptive_ = new AdaptiveEngine(*engine_, AdaptiveOptions(), nullptr);
  }

  void SetUp() override {
    manager_ = std::make_unique<SessionManager>(*adaptive_,
                                                SessionManagerOptions());
    handler_ = std::make_unique<ServiceHandler>(manager_.get());
  }

  void StartServer(HttpServerOptions options) {
    if (server_ != nullptr) server_->Stop();
    server_ = std::make_unique<HttpServer>(
        std::move(options), [this](const HttpRequest& request) {
          return handler_->Handle(request);
        });
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    FaultInjector::Global().Disable();
    if (server_ != nullptr) server_->Stop();
  }

  HttpClient Connected() {
    HttpClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  /// The liveness probe every scenario ends with: a fresh connection must
  /// still be served. Call only with fault injection disabled.
  void ExpectServerAlive() {
    HttpClient client = Connected();
    const Result<HttpClientResponse> response = client.Get("/healthz");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
  }

  /// A serving loop reaps a closed connection after the client sees it
  /// close: waits up to 10 s for the active count to drop to `at_most`,
  /// then returns the count.
  uint64_t ActiveConnectionsSettled(uint64_t at_most) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server_->stats().connections_active > at_most &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return server_->stats().connections_active;
  }

  std::string SearchBody(const std::string& session_id) const {
    const auto& topics = generated_->topics.topics;
    return StrFormat("{\"session_id\": %s, \"query\": {\"text\": %s}}",
                     JsonQuote(session_id).c_str(),
                     JsonQuote(topics[0].title).c_str());
  }

  static GeneratedCollection* generated_;
  static RetrievalEngine* engine_;
  static AdaptiveEngine* adaptive_;
  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<ServiceHandler> handler_;
  std::unique_ptr<HttpServer> server_;
};

GeneratedCollection* HttpChaosTest::generated_ = nullptr;
RetrievalEngine* HttpChaosTest::engine_ = nullptr;
AdaptiveEngine* HttpChaosTest::adaptive_ = nullptr;

TEST_F(HttpChaosTest, SlowLorisRequestIsStillServed) {
  StartServer(HttpServerOptions());
  HttpClient client = Connected();
  const std::string wire = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  for (char c : wire) {
    ASSERT_TRUE(client.SendRaw(std::string_view(&c, 1)).ok());
  }
  const Result<HttpClientResponse> response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
}

TEST_F(HttpChaosTest, StalledConnectionIsReapedByIdleTimeout) {
  HttpServerOptions options;
  options.idle_timeout_ms = 100;
  StartServer(options);
  HttpClient client = Connected();
  // A loris that stalls after a few bytes: the sweep must reap it.
  ASSERT_TRUE(client.SendRaw("GET /hea").ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->stats().idle_closed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GE(server_->stats().idle_closed, 1u);
  EXPECT_EQ(ActiveConnectionsSettled(0), 0u);
  ExpectServerAlive();
}

TEST_F(HttpChaosTest, TornRequestThenAbruptCloseIsHarmless) {
  StartServer(HttpServerOptions());
  {
    HttpClient client = Connected();
    ASSERT_TRUE(client.SendRaw("POST /v1/search HTTP/1.1\r\n"
                               "Content-Length: 500\r\n\r\ntorn")
                    .ok());
    client.Close();  // mid-body
  }
  {
    HttpClient client = Connected();
    ASSERT_TRUE(client.SendRaw("GET /heal").ok());
    client.Close();  // mid-request-line
  }
  ExpectServerAlive();
}

TEST_F(HttpChaosTest, AbruptCloseWhileHandlerRunsDropsTheResponse) {
  StartServer(HttpServerOptions());
  ASSERT_EQ(Connected()
                .Post("/v1/session/open", "{\"session_id\": \"mid\"}")
                ->status,
            200);
  {
    HttpClient client = Connected();
    ASSERT_TRUE(client
                    .SendRaw(StrFormat(
                        "POST /v1/search HTTP/1.1\r\n"
                        "Content-Length: %zu\r\n\r\n%s",
                        SearchBody("mid").size(),
                        SearchBody("mid").c_str()))
                    .ok());
    client.Close();  // gone before the worker finishes
  }
  // The worker's completed response meets a dead connection id in the
  // mailbox and is dropped; nothing crashes and the session survives.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ExpectServerAlive();
  EXPECT_TRUE(manager_->Contains("mid"));
  EXPECT_EQ(Connected().Post("/v1/search", SearchBody("mid"))->status, 200);
}

TEST_F(HttpChaosTest, OversizedHeadersGet431) {
  HttpServerOptions options;
  options.limits.max_header_bytes = 256;
  StartServer(options);
  HttpClient client = Connected();
  std::string wire = "GET /healthz HTTP/1.1\r\n";
  for (int i = 0; i < 64; ++i) {
    wire += StrFormat("X-Flood-%d: %s\r\n", i,
                      std::string(32, 'a').c_str());
  }
  wire += "\r\n";
  ASSERT_TRUE(client.SendRaw(wire).ok());
  const Result<HttpClientResponse> response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 431);
  EXPECT_GE(server_->stats().parse_errors, 1u);
  ExpectServerAlive();
}

TEST_F(HttpChaosTest, ChunkedUploadGets501) {
  StartServer(HttpServerOptions());
  HttpClient client = Connected();
  ASSERT_TRUE(client
                  .SendRaw("POST /v1/search HTTP/1.1\r\n"
                           "Transfer-Encoding: chunked\r\n\r\n"
                           "4\r\nbody\r\n0\r\n\r\n")
                  .ok());
  const Result<HttpClientResponse> response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 501);
  ExpectServerAlive();
}

TEST_F(HttpChaosTest, AcceptFaultsRefuseNewConnectionsThenRecover) {
  StartServer(HttpServerOptions());
  ASSERT_TRUE(
      FaultInjector::Global().Configure("net.accept:1.0", 7).ok());
  // The TCP handshake still completes (the kernel accepts), but the
  // server closes the connection immediately; the request dies.
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  EXPECT_FALSE(client.Get("/healthz").ok());
  EXPECT_GE(server_->stats().accept_faults, 1u);
  FaultInjector::Global().Disable();
  ExpectServerAlive();
}

TEST_F(HttpChaosTest, ReadFaultKillsTheConnectionNotTheServer) {
  StartServer(HttpServerOptions());
  ASSERT_EQ(Connected()
                .Post("/v1/session/open", "{\"session_id\": \"rf\"}")
                ->status,
            200);
  HttpClient client = Connected();  // accepted before the fault arms
  ASSERT_TRUE(
      FaultInjector::Global().Configure("net.read:1.0", 7).ok());
  ASSERT_TRUE(client.SendRaw("GET /healthz HTTP/1.1\r\n\r\n").ok());
  EXPECT_FALSE(client.ReadResponse().ok());
  EXPECT_GE(server_->stats().read_faults, 1u);
  FaultInjector::Global().Disable();
  ExpectServerAlive();
  EXPECT_TRUE(manager_->Contains("rf"));
  EXPECT_EQ(Connected().Post("/v1/search", SearchBody("rf"))->status, 200);
}

TEST_F(HttpChaosTest, WriteFaultMidResponseLosesNoSessionState) {
  StartServer(HttpServerOptions());
  ASSERT_EQ(Connected()
                .Post("/v1/session/open", "{\"session_id\": \"wf\"}")
                ->status,
            200);
  HttpClient client = Connected();
  ASSERT_TRUE(
      FaultInjector::Global().Configure("net.write:1.0", 7).ok());
  // The worker handles the search (mutating session state), then the
  // write path kills the connection before the response goes out.
  EXPECT_FALSE(client.Post("/v1/search", SearchBody("wf")).ok());
  EXPECT_GE(server_->stats().write_faults, 1u);
  FaultInjector::Global().Disable();
  ExpectServerAlive();
  EXPECT_TRUE(manager_->Contains("wf"));
  EXPECT_EQ(Connected().Post("/v1/search", SearchBody("wf"))->status, 200);
}

TEST_F(HttpChaosTest, TornResponseIsNotSentAgain) {
  // A request whose response was lost may already have run: the client
  // must not send it a second time (a duplicated feedback event would
  // change the session, and with it later rankings).
  std::atomic<int> runs{0};
  HttpServer server(HttpServerOptions(), [&runs](const HttpRequest&) {
    runs.fetch_add(1);
    HttpResponse response;
    response.body = "{}\n";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(
      FaultInjector::Global().Configure("net.write:1.0", 7).ok());
  EXPECT_FALSE(client.Post("/v1/feedback", "{\"session_id\": \"x\"}").ok());
  FaultInjector::Global().Disable();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(server.stats().write_faults, 1u);
}

TEST_F(HttpChaosTest, IdleReapedConnectionIsReplacedBeforeSending) {
  HttpServerOptions options;
  options.idle_timeout_ms = 100;
  StartServer(options);
  HttpClient client = Connected();
  ASSERT_EQ(client.Post("/v1/session/open", "{\"session_id\": \"idle\"}")
                ->status,
            200);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->stats().idle_closed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_GE(server_->stats().idle_closed, 1u);
  const Result<HttpClientResponse> response =
      client.Post("/v1/search", SearchBody("idle"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(server_->stats().connections_accepted, 2u);
}

TEST_F(HttpChaosTest, IdleSweepSparesARequestWaitingBehindASlowHandler) {
  // One loop: while it sits in a slow handler, a request arriving on its
  // other connection waits in the socket. That connection is busy, not
  // idle, even though the loop has not touched it for longer than the
  // timeout.
  HttpServerOptions options;
  options.num_workers = 1;
  options.idle_timeout_ms = 100;
  HttpServer server(options, [](const HttpRequest& request) {
    if (request.path == "/slow") {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    HttpResponse response;
    response.body = "{}\n";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  HttpClient slow;
  HttpClient waiting;
  ASSERT_TRUE(slow.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(waiting.Connect("127.0.0.1", server.port()).ok());
  ASSERT_EQ(waiting.Get("/healthz")->status, 200);
  ASSERT_TRUE(slow.SendRaw("GET /slow HTTP/1.1\r\n\r\n").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(waiting.SendRaw("GET /healthz HTTP/1.1\r\n\r\n").ok());
  const Result<HttpClientResponse> response = waiting.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(slow.ReadResponse()->status, 200);
}

TEST_F(HttpChaosTest, OverloadClosesExcessConnections) {
  HttpServerOptions options;
  options.max_connections = 2;
  StartServer(options);
  HttpClient first = Connected();
  HttpClient second = Connected();
  ASSERT_EQ(first.Get("/healthz")->status, 200);
  ASSERT_EQ(second.Get("/healthz")->status, 200);
  // The third connection is accepted by the kernel and closed by the
  // server; its request never gets an answer.
  HttpClient third;
  ASSERT_TRUE(third.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(third.SendRaw("GET /healthz HTTP/1.1\r\n\r\n").ok());
  EXPECT_FALSE(third.ReadResponse().ok());
  EXPECT_GE(server_->stats().overload_closed, 1u);
  // The two admitted connections still work.
  EXPECT_EQ(first.Get("/healthz")->status, 200);
  EXPECT_EQ(second.Get("/healthz")->status, 200);
}

TEST_F(HttpChaosTest, GarbageFloodGetsCleanErrorsAndCleanAccounting) {
  StartServer(HttpServerOptions());
  for (int i = 0; i < 8; ++i) {
    HttpClient client = Connected();
    ASSERT_TRUE(client.SendRaw("\x01\x02garbage\r\nmore\r\n\r\n").ok());
    const Result<HttpClientResponse> response = client.ReadResponse();
    if (response.ok()) {
      EXPECT_EQ(response->status, 400);
    }
  }
  const HttpServerStats stats = server_->stats();
  EXPECT_GE(stats.parse_errors, 8u);
  EXPECT_EQ(stats.responses_5xx, 0u);
  ExpectServerAlive();
  // Every chaos connection above is gone; only the liveness probe's own
  // connection may linger. Active never goes negative.
  EXPECT_LE(ActiveConnectionsSettled(1), 1u);
}

TEST_F(HttpChaosTest, DrainFinishesEveryAcceptedRequest) {
  // A deliberately slow handler so Drain() arrives while requests are
  // mid-flight: the graceful-shutdown contract is that every dispatched
  // request still gets its complete response.
  std::atomic<int> handled{0};
  HttpServer server(HttpServerOptions(), [&handled](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    handled.fetch_add(1);
    HttpResponse response;
    response.status = 200;
    response.body = "slow but served\n";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  // An idle keep-alive connection: drain sheds it immediately and it
  // must NOT count as an abandoned request.
  HttpClient idle;
  ASSERT_TRUE(idle.Connect("127.0.0.1", server.port()).ok());

  constexpr int kClients = 4;
  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&server, &completed] {
      HttpClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) return;
      const Result<HttpClientResponse> response = client.Get("/any");
      if (response.ok() && response->status == 200) {
        completed.fetch_add(1);
      }
    });
  }
  // Let every request reach its handler, then drain under a generous
  // deadline: all in-flight work must finish and flush.
  std::this_thread::sleep_for(std::chrono::milliseconds(75));
  EXPECT_TRUE(server.Drain(10000));
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(completed.load(), kClients);
  EXPECT_EQ(handled.load(), kClients);
  EXPECT_EQ(server.stats().requests_abandoned, 0u);
  // Drain stopped the server once empty: the listener is gone.
  HttpClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server.port()).ok());
}

TEST_F(HttpChaosTest, DrainDeadlineCountsAbandonedRequests) {
  HttpServer server(HttpServerOptions(), [](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    HttpResponse response;
    response.status = 200;
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  std::thread client_thread([&server] {
    HttpClient client;
    if (!client.Connect("127.0.0.1", server.port()).ok()) return;
    (void)client.Get("/too-slow");  // outlives the drain deadline
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(75));
  // The deadline passes with the handler still asleep: Drain reports the
  // truth instead of pretending the shutdown was clean.
  EXPECT_FALSE(server.Drain(10));
  EXPECT_GE(server.stats().requests_abandoned, 1u);
  client_thread.join();
}

}  // namespace
}  // namespace net
}  // namespace ivr
