// ivr_http_client — concurrent load driver for ivr_httpd: open sessions,
// search, send feedback, close, from many threads over keep-alive
// connections, and report throughput, client-observed request latency
// (p50/p99 from send to full response) and failure counts.
//
//   ivr_http_client --port P [--host 127.0.0.1] [--sessions 8]
//                   [--threads 4] [--queries 4] [--k 10] [--seed 1]
//                   [--prefix http] [--query-file PATH] [--out PATH]
//                   [--statsz-out PATH] [--stats-json PATH] [--trace PATH]
//
// Each session j (id "<prefix>-s<j>") is driven end to end by one thread:
// open, `--queries` searches (deterministic query texts from the seed, a
// click_keyframe feedback on each top hit), close. --query-file supplies
// the query pool (one query per line) — generated collections use a
// synthetic vocabulary, so hitting queries must come from the collection
// (the built-in English pool only exercises the no-match path). --out writes one line
// per search — "session query shot:score ..." with the score text exactly
// as it appeared on the wire — so runs can be diffed byte for byte.
// --statsz-out fetches GET /statsz after the workload and writes the body
// (the server's live --stats-json v1 snapshot) to a file.
//
// Exits 1 if any request failed or returned an unexpected status.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ivr/core/args.h"
#include "ivr/core/file_util.h"
#include "ivr/core/string_util.h"
#include "ivr/net/http_client.h"
#include "ivr/net/json.h"
#include "ivr/obs/report.h"

namespace ivr {
namespace {

/// Deterministic query text for (seed, session, query), drawn from `pool`
/// when --query-file supplied one, else from a built-in English pool.
std::string QueryText(const std::vector<std::string>& pool, uint64_t seed,
                      size_t session, size_t query) {
  static const char* const kTerms[] = {
      "election", "storm",  "football", "concert", "space",
      "market",   "flood",  "protest",  "film",    "health",
  };
  constexpr size_t kNumTerms = sizeof(kTerms) / sizeof(kTerms[0]);
  const uint64_t mix = seed * 1000003 + session * 131 + query * 7;
  if (!pool.empty()) return pool[mix % pool.size()];
  return StrFormat("%s %s", kTerms[mix % kNumTerms],
                   kTerms[(mix / kNumTerms) % kNumTerms]);
}

struct DriverTotals {
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> results_seen{0};
  std::mutex latencies_mu;
  std::vector<double> latencies_us;  // every request, send to full response
};

/// Nearest-rank quantile of sorted `values`; 0 when empty.
double Quantile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

int Main(int argc, char** argv) {
  Result<ArgParser> args = obs::StartTool(
      argc, argv,
      {"host", "port", "sessions", "threads", "queries", "k", "seed",
       "prefix", "query-file", "out", "statsz-out", "stats-json", "trace"});
  if (!args.ok()) return 2;
  const int port = static_cast<int>(args->GetInt("port", 0).value_or(0));
  if (port <= 0) {
    std::fprintf(stderr, "--port is required\n");
    return 2;
  }
  const std::string host = args->GetString("host", "127.0.0.1");
  const size_t sessions =
      static_cast<size_t>(args->GetInt("sessions", 8).value_or(8));
  const size_t threads =
      static_cast<size_t>(args->GetInt("threads", 4).value_or(4));
  const size_t queries =
      static_cast<size_t>(args->GetInt("queries", 4).value_or(4));
  const int64_t k = args->GetInt("k", 10).value_or(10);
  const uint64_t seed =
      static_cast<uint64_t>(args->GetInt("seed", 1).value_or(1));
  const std::string prefix = args->GetString("prefix", "http");
  std::vector<std::string> query_pool;
  const std::string query_file = args->GetString("query-file");
  if (!query_file.empty()) {
    const Result<std::string> loaded = ReadFileToString(query_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 2;
    }
    for (const std::string& line : Split(*loaded, '\n')) {
      const std::string_view trimmed = Trim(line);
      if (!trimmed.empty()) query_pool.emplace_back(trimmed);
    }
    if (query_pool.empty()) {
      std::fprintf(stderr, "--query-file %s has no queries\n",
                   query_file.c_str());
      return 2;
    }
  }

  DriverTotals totals;
  std::vector<std::string> out_lines(sessions * queries);
  std::atomic<size_t> next{0};
  const auto worker = [&] {
    net::HttpClient client;
    std::vector<double> latencies;
    const auto post = [&](const char* path, const std::string& body) {
      const auto sent = std::chrono::steady_clock::now();
      Result<net::HttpClientResponse> response = client.Post(path, body);
      latencies.push_back(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - sent)
                              .count());
      return response;
    };
    const Status connected = client.Connect(host, port);
    if (!connected.ok()) {
      std::fprintf(stderr, "%s\n", connected.ToString().c_str());
      totals.failures.fetch_add(1);
      return;
    }
    for (size_t j = next++; j < sessions; j = next++) {
      const std::string session_id = StrFormat("%s-s%zu", prefix.c_str(), j);
      const std::string user_id = StrFormat("u%zu", j % 4);
      const auto expect = [&](const Result<net::HttpClientResponse>& r,
                              const char* what) {
        totals.requests.fetch_add(1);
        if (!r.ok()) {
          std::fprintf(stderr, "%s %s: %s\n", session_id.c_str(), what,
                       r.status().ToString().c_str());
          totals.failures.fetch_add(1);
          return false;
        }
        if (r->status != 200) {
          std::fprintf(stderr, "%s %s: HTTP %d %s", session_id.c_str(),
                       what, r->status, r->body.c_str());
          totals.failures.fetch_add(1);
          return false;
        }
        return true;
      };

      if (!expect(post("/v1/session/open",
                       StrFormat("{\"session_id\": %s, "
                                 "\"user_id\": %s}",
                                 net::JsonQuote(session_id).c_str(),
                                 net::JsonQuote(user_id).c_str())),
                  "open")) {
        continue;
      }
      for (size_t q = 0; q < queries; ++q) {
        const std::string text = QueryText(query_pool, seed, j, q);
        const Result<net::HttpClientResponse> searched = post(
            "/v1/search",
            StrFormat("{\"session_id\": %s, \"query\": {\"text\": %s}, "
                      "\"k\": %lld}",
                      net::JsonQuote(session_id).c_str(),
                      net::JsonQuote(text).c_str(),
                      static_cast<long long>(k)));
        if (!expect(searched, "search")) continue;
        // Re-serialize the ranking exactly as received: the score text on
        // the wire is the bit-equality currency.
        std::string line = StrFormat("%s q%zu", session_id.c_str(), q);
        long long first_shot = -1;
        const Result<net::JsonValue> body =
            net::JsonValue::Parse(searched->body);
        if (!body.ok()) {
          std::fprintf(stderr, "%s search: bad JSON: %s\n",
                       session_id.c_str(),
                       body.status().ToString().c_str());
          totals.failures.fetch_add(1);
          continue;
        }
        const net::JsonValue* results = body->Find("results");
        if (results != nullptr && results->is_array()) {
          for (const net::JsonValue& entry : results->items()) {
            const net::JsonValue* shot = entry.Find("shot");
            const net::JsonValue* score = entry.Find("score");
            if (shot == nullptr || score == nullptr) continue;
            if (first_shot < 0) {
              first_shot =
                  static_cast<long long>(shot->number_value());
            }
            totals.results_seen.fetch_add(1);
            line += StrFormat(" %.0f:%.17g", shot->number_value(),
                              score->number_value());
          }
        }
        out_lines[j * queries + q] = line + "\n";
        if (first_shot >= 0) {
          (void)expect(
              post(
                  "/v1/feedback",
                  StrFormat("{\"session_id\": %s, \"event\": "
                            "{\"type\": \"click_keyframe\", \"shot\": %lld, "
                            "\"time\": %zu}}",
                            net::JsonQuote(session_id).c_str(), first_shot,
                            j * 1000 + q)),
              "feedback");
        }
      }
      (void)expect(post("/v1/session/close",
                        StrFormat("{\"session_id\": %s}",
                                  net::JsonQuote(session_id).c_str())),
                   "close");
    }
    const std::lock_guard<std::mutex> lock(totals.latencies_mu);
    totals.latencies_us.insert(totals.latencies_us.end(), latencies.begin(),
                               latencies.end());
  };

  const auto started = std::chrono::steady_clock::now();
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  const uint64_t requests = totals.requests.load();
  const uint64_t failures = totals.failures.load();
  std::printf(
      "drove %zu sessions, %llu requests in %.3fs (%.1f req/s), "
      "%llu results, %llu failures\n",
      sessions, static_cast<unsigned long long>(requests), elapsed,
      elapsed > 0 ? requests / elapsed : 0.0,
      static_cast<unsigned long long>(totals.results_seen.load()),
      static_cast<unsigned long long>(failures));
  std::vector<double>& latencies = totals.latencies_us;
  std::sort(latencies.begin(), latencies.end());
  std::printf("request latency p50 %.1f us, p99 %.1f us (client-observed)\n",
              Quantile(latencies, 0.50), Quantile(latencies, 0.99));

  int rc = failures == 0 ? 0 : 1;
  const std::string out_path = args->GetString("out");
  if (!out_path.empty()) {
    std::string all;
    for (const std::string& line : out_lines) all += line;
    const Status written = WriteFileAtomic(out_path, all);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      rc = 1;
    }
  }
  const std::string statsz_path = args->GetString("statsz-out");
  if (!statsz_path.empty()) {
    net::HttpClient client;
    Status fetched = client.Connect(host, port);
    if (fetched.ok()) {
      const Result<net::HttpClientResponse> statsz = client.Get("/statsz");
      if (statsz.ok() && statsz->status == 200) {
        fetched = WriteFileAtomic(statsz_path, statsz->body);
      } else {
        fetched = statsz.ok() ? Status::Internal(StrFormat(
                                    "GET /statsz: HTTP %d", statsz->status))
                              : statsz.status();
      }
    }
    if (!fetched.ok()) {
      std::fprintf(stderr, "%s\n", fetched.ToString().c_str());
      rc = 1;
    }
  }
  return obs::FinishToolWithObs(*args, rc);
}

}  // namespace
}  // namespace ivr

int main(int argc, char** argv) { return ivr::Main(argc, argv); }
