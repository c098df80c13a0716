// ivr_httpd — the network front-end: serve the multi-session service
// layer (SessionManager over one shared engine) as a JSON HTTP API, from
// run-to-completion epoll serving loops.
//
//   ivr_httpd [--collection c.ivr] [--port 0] [--port-file PATH]
//             [--threads 2] [--shards 8] [--max-sessions N] [--ttl-ms N]
//             [--persist-dir DIR] [--persist-every N]
//             [--cache-mb N] [--cache-shards S]
//             [--max-conns 1024] [--idle-timeout-ms N]
//             [--drain-timeout-ms 2000]
//             [--ingest-dir DIR] [--ingest-stream s.ivr]
//             [--ingest-every 5] [--ingest-delay-ms 0] [--merge-after N]
//             [--fault-spec SPEC] [--fault-seed N]
//             [--stats-json PATH] [--trace PATH]
//
// Endpoints: POST /v1/session/open, /v1/search, /v1/feedback,
// /v1/session/close; GET /healthz, /statsz (the live --stats-json v1
// snapshot). See net/service_handler.h for the request/response schemas.
//
//   curl -s -XPOST localhost:8080/v1/session/open -d '{"session_id":"s1"}'
//   curl -s -XPOST localhost:8080/v1/search
//       -d '{"session_id":"s1","query":{"text":"election"},"k":5}'
//
// --port 0 binds an ephemeral port; the chosen port is printed to stdout
// ("listening on 127.0.0.1:PORT") and, with --port-file, written there
// atomically so scripts can wait for it. --threads sets the number of
// serving loops; each one reads, handles and answers its own connections.
//
// SIGINT/SIGTERM shut down gracefully: the listener closes immediately,
// every request that already reached the server is served and flushed
// under the --drain-timeout-ms deadline, then the process exits 0 and
// writes --stats-json. stats.requests_abandoned counts any request the
// deadline cut off.
//
// --ingest-dir switches the backend to a generational LiveEngine rooted
// at DIR (segments + MANIFEST journal; replayed on startup with salvage).
// --ingest-stream additionally streams the videos of a second collection
// into the live index on a background thread, publishing a new generation
// every --ingest-every videos (pacing --ingest-delay-ms between appends),
// while queries keep being served — each request pinned to one complete
// generation. --merge-after N compacts segments in the background once N
// accumulate.
//
// Without --collection the tools' standard collection is generated in
// process (see ServingStack::OpenCollection).

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "ivr/cache/result_cache.h"
#include "ivr/core/args.h"
#include "ivr/core/file_util.h"
#include "ivr/core/string_util.h"
#include "ivr/net/http_server.h"
#include "ivr/net/service_handler.h"
#include "ivr/obs/report.h"
#include "ivr/service/serving_stack.h"
#include "ivr/video/serialization.h"

namespace ivr {
namespace {

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true); }

int Main(int argc, char** argv) {
  Result<ArgParser> args = obs::StartTool(
      argc, argv,
      {"collection", "port", "port-file", "threads", "shards",
       "max-sessions", "ttl-ms", "persist-dir", "persist-every", "cache-mb",
       "cache-shards", "max-conns", "idle-timeout-ms", "drain-timeout-ms",
       "ingest-dir", "ingest-stream", "ingest-every", "ingest-delay-ms",
       "merge-after", "fault-spec", "fault-seed", "stats-json", "trace"});
  if (!args.ok()) return 2;

  Result<std::shared_ptr<ResultCache>> cache = ResultCacheFromArgs(*args);
  if (!cache.ok()) {
    std::fprintf(stderr, "%s\n", cache.status().ToString().c_str());
    return 2;
  }
  const std::string ingest_dir = args->GetString("ingest-dir");
  const std::string ingest_stream = args->GetString("ingest-stream");
  if (!ingest_stream.empty() && ingest_dir.empty()) {
    std::fprintf(stderr, "--ingest-stream requires --ingest-dir\n");
    return 2;
  }
  Result<GeneratedCollection> g =
      ServingStack::OpenCollection(args->GetString("collection"));
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }

  // An empty --ingest-dir serves a static engine stack; otherwise a
  // generational LiveEngine whose current generation the manager
  // resolves per operation.
  IngestOptions ingest_options;
  ingest_options.dir = ingest_dir;
  ingest_options.cache = *cache;
  ingest_options.merge_after_segments =
      static_cast<size_t>(args->GetInt("merge-after", 0).value_or(0));
  ingest_options.background_merge = ingest_options.merge_after_segments > 0;
  SessionManagerOptions manager_options;
  manager_options.num_shards =
      static_cast<size_t>(args->GetInt("shards", 8).value_or(8));
  manager_options.max_sessions =
      static_cast<size_t>(args->GetInt("max-sessions", 0).value_or(0));
  manager_options.idle_ttl_ms = args->GetInt("ttl-ms", 0).value_or(0);
  manager_options.persist_dir = args->GetString("persist-dir");
  manager_options.persist_every_events =
      static_cast<size_t>(args->GetInt("persist-every", 0).value_or(0));
  Result<std::unique_ptr<ServingStack>> stack = ServingStack::Open(
      std::move(g).value(), std::move(ingest_options), manager_options);
  if (!stack.ok()) {
    std::fprintf(stderr, "%s\n", stack.status().ToString().c_str());
    return 1;
  }
  LiveEngine* live = (*stack)->live();
  if (live != nullptr) {
    std::fprintf(stderr,
                 "ingest: serving generation %llu from %s (%zu shots)\n",
                 static_cast<unsigned long long>(live->Stats().generation),
                 ingest_dir.c_str(), live->Stats().live_shots);
  }
  net::ServiceHandler handler(&(*stack)->manager());

  net::HttpServerOptions server_options;
  server_options.port =
      static_cast<int>(args->GetInt("port", 0).value_or(0));
  server_options.num_workers =
      static_cast<size_t>(args->GetInt("threads", 2).value_or(2));
  server_options.max_connections =
      static_cast<size_t>(args->GetInt("max-conns", 1024).value_or(1024));
  server_options.idle_timeout_ms =
      args->GetInt("idle-timeout-ms", 0).value_or(0);
  net::HttpServer server(server_options,
                         [&handler](const net::HttpRequest& request) {
                           return handler.Handle(request);
                         });
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);
  const std::string port_file = args->GetString("port-file");
  if (!port_file.empty()) {
    const Status written =
        WriteFileAtomic(port_file, StrFormat("%d\n", server.port()));
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      server.Stop();
      return 1;
    }
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // The streaming thread: append the stream collection's videos one at a
  // time, publishing a new generation every --ingest-every. Queries keep
  // flowing the whole time; each is pinned to one complete generation.
  std::thread ingest_thread;
  if (!ingest_stream.empty()) {
    Result<GeneratedCollection> stream_result =
        LoadCollectionRobust(ingest_stream);
    if (!stream_result.ok()) {
      std::fprintf(stderr, "%s\n",
                   stream_result.status().ToString().c_str());
      server.Stop();
      return 1;
    }
    const size_t publish_every = static_cast<size_t>(
        std::max<int64_t>(1, args->GetInt("ingest-every", 5).value_or(5)));
    const int64_t delay_ms =
        args->GetInt("ingest-delay-ms", 0).value_or(0);
    ingest_thread = std::thread([live, publish_every, delay_ms,
                                 stream = std::move(stream_result).value()] {
      size_t since_publish = 0;
      const size_t total = stream.collection.num_videos();
      for (size_t i = 0; i < total && !g_shutdown.load(); ++i) {
        const Status appended = live->AppendVideoFrom(
            stream.collection, static_cast<VideoId>(i));
        if (!appended.ok()) {
          std::fprintf(stderr, "ingest: append %zu: %s\n", i,
                       appended.ToString().c_str());
          continue;
        }
        if (++since_publish >= publish_every) {
          const Result<uint64_t> published = live->Publish();
          if (published.ok()) {
            since_publish = 0;
          } else {
            std::fprintf(stderr, "ingest: publish: %s\n",
                         published.status().ToString().c_str());
          }
        }
        if (delay_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        }
      }
      // Flush the tail (retried: a fault-injected publish keeps the
      // pending delta).
      for (int attempt = 0; attempt < 5; ++attempt) {
        const Result<uint64_t> published = live->Publish();
        if (published.ok()) break;
        std::fprintf(stderr, "ingest: final publish: %s\n",
                     published.status().ToString().c_str());
      }
      const IngestStats s = live->Stats();
      std::fprintf(stderr,
                   "ingest: done — generation %llu, %llu shots appended, "
                   "%llu publishes (%llu failed)\n",
                   static_cast<unsigned long long>(s.generation),
                   static_cast<unsigned long long>(s.shots_appended),
                   static_cast<unsigned long long>(s.publishes),
                   static_cast<unsigned long long>(s.publish_failures));
    });
  }

  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const int64_t drain_ms =
      args->GetInt("drain-timeout-ms", 2000).value_or(2000);
  const bool drained = server.Drain(drain_ms);
  if (ingest_thread.joinable()) ingest_thread.join();

  const net::HttpServerStats stats = server.stats();
  if (!drained) {
    std::fprintf(stderr, "drain: deadline expired, %llu abandoned\n",
                 static_cast<unsigned long long>(stats.requests_abandoned));
  }
  std::printf(
      "served %llu requests on %llu connections "
      "(2xx %llu, 4xx %llu, 5xx %llu, parse errors %llu)\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.responses_2xx),
      static_cast<unsigned long long>(stats.responses_4xx),
      static_cast<unsigned long long>(stats.responses_5xx),
      static_cast<unsigned long long>(stats.parse_errors));
  return obs::FinishToolWithObs(*args, 0, (*stack)->Health());
}

}  // namespace
}  // namespace ivr

int main(int argc, char** argv) { return ivr::Main(argc, argv); }
