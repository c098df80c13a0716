#include "ivr/net/http_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/core/string_util.h"
#include "ivr/net/http_client.h"
#include "ivr/net/json.h"
#include "ivr/net/service_handler.h"
#include "ivr/retrieval/engine.h"
#include "ivr/service/session_manager.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace net {
namespace {

/// One shared retrieval stack for the whole suite (index construction is
/// the slow part); each test gets a fresh manager + server.
class HttpServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.seed = 2008;
    options.num_videos = 8;
    options.num_topics = 5;
    generated_ = new GeneratedCollection(
        GenerateCollection(options).value());
    engine_ = RetrievalEngine::Build(generated_->collection)
                  .value()
                  .release();
    adaptive_ = new AdaptiveEngine(*engine_, AdaptiveOptions(), nullptr);
  }

  void SetUp() override {
    manager_ = std::make_unique<SessionManager>(*adaptive_,
                                                SessionManagerOptions());
    handler_ = std::make_unique<ServiceHandler>(manager_.get());
    StartServer(HttpServerOptions());
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
    if (server_ != nullptr) server_->Stop();
  }

  HttpClient Connected() {
    HttpClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  std::string TopicTitle(size_t i) const {
    const auto& topics = generated_->topics.topics;
    return topics[i % topics.size()].title;
  }

  static GeneratedCollection* generated_;
  static RetrievalEngine* engine_;
  static AdaptiveEngine* adaptive_;
  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<ServiceHandler> handler_;
  std::unique_ptr<HttpServer> server_;
};

GeneratedCollection* HttpServerTest::generated_ = nullptr;
RetrievalEngine* HttpServerTest::engine_ = nullptr;
AdaptiveEngine* HttpServerTest::adaptive_ = nullptr;

TEST_F(HttpServerTest, SessionLifecycleOverHttp) {
  HttpClient client = Connected();
  Result<HttpClientResponse> response = client.Post(
      "/v1/session/open", "{\"session_id\": \"s1\", \"user_id\": \"u1\"}");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_TRUE(manager_->Contains("s1"));

  response = client.Post(
      "/v1/search",
      StrFormat("{\"session_id\": \"s1\", \"query\": {\"text\": %s}, "
                "\"k\": 5}",
                JsonQuote(TopicTitle(0)).c_str()));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  const JsonValue body = JsonValue::Parse(response->body).value();
  const JsonValue* results = body.Find("results");
  ASSERT_NE(results, nullptr);
  EXPECT_GT(results->items().size(), 0u);
  EXPECT_LE(results->items().size(), 5u);

  response = client.Post(
      "/v1/feedback",
      "{\"session_id\": \"s1\", \"event\": {\"type\": \"click_keyframe\", "
      "\"shot\": 3, \"time\": 1}}");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);

  response = client.Post("/v1/session/close", "{\"session_id\": \"s1\"}");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_FALSE(manager_->Contains("s1"));
}

TEST_F(HttpServerTest, StatusCodeMapping) {
  HttpClient client = Connected();
  // Unknown session -> NotFound -> 404.
  EXPECT_EQ(client
                .Post("/v1/search",
                      "{\"session_id\": \"ghost\", "
                      "\"query\": {\"text\": \"x\"}}")
                ->status,
            404);
  // Double open -> AlreadyExists -> 409.
  ASSERT_EQ(client.Post("/v1/session/open", "{\"session_id\": \"dup\"}")
                ->status,
            200);
  EXPECT_EQ(client.Post("/v1/session/open", "{\"session_id\": \"dup\"}")
                ->status,
            409);
  // Malformed JSON / missing keys / bad values -> 400.
  EXPECT_EQ(client.Post("/v1/session/open", "notjson")->status, 400);
  EXPECT_EQ(client.Post("/v1/search", "{\"k\": 5}")->status, 400);
  EXPECT_EQ(client
                .Post("/v1/search",
                      "{\"session_id\": \"dup\", \"query\": {}}")
                ->status,
            400);
  EXPECT_EQ(client
                .Post("/v1/search",
                      "{\"session_id\": \"dup\", "
                      "\"query\": {\"text\": \"x\"}, \"k\": 2.5}")
                ->status,
            400);
  EXPECT_EQ(client
                .Post("/v1/feedback",
                      "{\"session_id\": \"dup\", "
                      "\"event\": {\"type\": \"no_such_event\"}}")
                ->status,
            400);
  // Unknown path -> 404; wrong method -> 405.
  EXPECT_EQ(client.Get("/nope")->status, 404);
  EXPECT_EQ(client.Get("/v1/search")->status, 405);
  EXPECT_EQ(client.Post("/healthz", "{}")->status, 405);
  // Error bodies are JSON.
  const Result<HttpClientResponse> error = client.Get("/nope");
  ASSERT_TRUE(error.ok());
  EXPECT_TRUE(JsonValue::Parse(error->body).ok()) << error->body;
}

TEST_F(HttpServerTest, HealthzAndStatszAreLiveJson) {
  HttpClient client = Connected();
  ASSERT_EQ(client.Post("/v1/session/open", "{\"session_id\": \"h1\"}")
                ->status,
            200);
  const Result<HttpClientResponse> healthz = client.Get("/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->status, 200);
  const JsonValue health = JsonValue::Parse(healthz->body).value();
  EXPECT_DOUBLE_EQ(health.GetNumber("sessions_active").value(), 1.0);

  const Result<HttpClientResponse> statsz = client.Get("/statsz");
  ASSERT_TRUE(statsz.ok());
  EXPECT_EQ(statsz->status, 200);
  const JsonValue stats = JsonValue::Parse(statsz->body).value();
  EXPECT_DOUBLE_EQ(stats.GetNumber("schema_version").value(), 1.0);
  ASSERT_NE(stats.Find("counters"), nullptr);
  ASSERT_NE(stats.Find("histograms"), nullptr);
}

TEST_F(HttpServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  HttpClient client = Connected();
  ASSERT_EQ(client.Post("/v1/session/open", "{\"session_id\": \"ka\"}")
                ->status,
            200);
  for (int i = 0; i < 20; ++i) {
    const Result<HttpClientResponse> response = client.Post(
        "/v1/search",
        StrFormat("{\"session_id\": \"ka\", \"query\": {\"text\": %s}}",
                  JsonQuote(TopicTitle(i)).c_str()));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200);
  }
  const HttpServerStats stats = server_->stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests, 21u);
  EXPECT_EQ(stats.responses_2xx, 21u);
}

TEST_F(HttpServerTest, ConnectionCloseRequestHonoured) {
  HttpClient client = Connected();
  ASSERT_TRUE(client
                  .SendRaw("GET /healthz HTTP/1.1\r\n"
                           "Connection: close\r\n\r\n")
                  .ok());
  const Result<HttpClientResponse> response = client.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  // The server closed the socket: the client noticed via the header.
  EXPECT_FALSE(client.connected());
}

TEST_F(HttpServerTest, PipelinedRequestsAllAnswered) {
  HttpClient client = Connected();
  ASSERT_TRUE(client
                  .SendRaw("GET /healthz HTTP/1.1\r\n\r\n"
                           "GET /healthz HTTP/1.1\r\n\r\n")
                  .ok());
  for (int i = 0; i < 2; ++i) {
    const Result<HttpClientResponse> response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
  }
}

TEST_F(HttpServerTest, ConcurrentClientsAllServed) {
  constexpr size_t kThreads = 4;
  constexpr int kRequests = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &failures] {
      HttpClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      const std::string session_id = StrFormat("conc-%zu", t);
      Result<HttpClientResponse> response = client.Post(
          "/v1/session/open",
          StrFormat("{\"session_id\": %s}", JsonQuote(session_id).c_str()));
      if (!response.ok() || response->status != 200) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        response = client.Post(
            "/v1/search",
            StrFormat("{\"session_id\": %s, \"query\": {\"text\": %s}}",
                      JsonQuote(session_id).c_str(),
                      JsonQuote(TopicTitle(i)).c_str()));
        if (!response.ok() || response->status != 200) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const HttpServerStats stats = server_->stats();
  EXPECT_EQ(stats.responses_2xx, kThreads * (kRequests + 1));
  EXPECT_EQ(stats.responses_5xx, 0u);
}

TEST_F(HttpServerTest, OversizedBodyGets413) {
  HttpServerOptions options;
  options.limits.max_body_bytes = 64;
  StartServer(options);
  HttpClient client = Connected();
  const Result<HttpClientResponse> response =
      client.Post("/v1/search", std::string(256, 'x'));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 413);
  EXPECT_EQ(server_->stats().parse_errors, 1u);
}

TEST_F(HttpServerTest, StopIsIdempotentAndRestartable) {
  server_->Stop();
  server_->Stop();
  // The same object starts again with fresh loops and serves.
  ASSERT_TRUE(server_->Start().ok());
  HttpClient client = Connected();
  const Result<HttpClientResponse> response = client.Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  server_.reset();  // the destructor tears the restarted server down
}

TEST_F(HttpServerTest, BackpressuredResponsesFlushInOrder) {
  // Bodies far larger than the loopback socket buffers, so send() hits
  // EAGAIN and the loop has to wait for EPOLLOUT.
  constexpr size_t kBody = 8 << 20;
  server_->Stop();
  server_ = std::make_unique<HttpServer>(
      HttpServerOptions(), [this](const HttpRequest& request) {
        if (!StartsWith(request.path, "/big/")) {
          return handler_->Handle(request);
        }
        HttpResponse response;
        response.content_type = "text/plain";
        response.body.assign(kBody, request.path.back());
        return response;
      });
  ASSERT_TRUE(server_->Start().ok());
  // Two loops deal connections out by id: 1 and 3 land on loop 0, 2 on
  // loop 1.
  HttpClient reader = Connected();
  HttpClient other_loop = Connected();
  HttpClient same_loop = Connected();
  ASSERT_TRUE(reader
                  .SendRaw("GET /big/a HTTP/1.1\r\n\r\n"
                           "GET /big/b HTTP/1.1\r\n\r\n")
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // Neither loop is stuck behind the stalled reader.
  EXPECT_EQ(other_loop.Get("/healthz")->status, 200);
  EXPECT_EQ(same_loop.Get("/healthz")->status, 200);
  // The pipelined second request waits until the first response has
  // fully flushed.
  EXPECT_EQ(server_->stats().requests, 3u);
  for (const char tag : {'a', 'b'}) {
    const Result<HttpClientResponse> response = reader.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
    ASSERT_EQ(response->body.size(), kBody);
    EXPECT_EQ(response->body.find_first_not_of(tag), std::string::npos);
  }
  const HttpServerStats stats = server_->stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.responses_2xx, 4u);
}

}  // namespace
}  // namespace net
}  // namespace ivr
