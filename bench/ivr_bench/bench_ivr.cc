// bench_ivr: the end-to-end and per-layer benchmark of the serving stack.
//
//   bench_ivr --workload <session_mix|text_open|http_serve|ingest_live>
//             --seed <n> --seconds <s> --work-dir <dir>
//             [--trace 0|1] [--trace-out trace.jsonl] [--out result.json]
//             [--rate <arrivals/s>]
//   bench_ivr --selftest
//
// One run generates its inputs from the seed, sets the stack up several
// times (setup_s is the median), warms up, then measures --seconds: an
// open-loop phase at the workload's frozen rate (latency timed from each
// arrival's due instant) followed by a closed-loop saturation phase
// (capacity). Correctness gates compare served rankings bit for bit
// against fresh sequential references afterwards. With --trace 1 the run
// also records bench-side layer spans, registry deltas and a retrieval
// probe, and reports the per-layer breakdown. Every metric is printed as
// "<workload> <metric> <value> <unit> (n=<samples>)"; --out writes them
// all as JSON. The exit code is nonzero when any gate fails. README.md
// beside this file documents workloads, metrics and gates.

#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/cache/result_cache.h"
#include "ivr/core/args.h"
#include "ivr/core/file_util.h"
#include "ivr/core/rng.h"
#include "ivr/core/string_util.h"
#include "ivr/iface/session_log.h"
#include "ivr/ingest/live_engine.h"
#include "ivr/net/http_client.h"
#include "ivr/net/http_server.h"
#include "ivr/net/json.h"
#include "ivr/net/service_handler.h"
#include "ivr/obs/metrics.h"
#include "ivr/obs/trace.h"
#include "ivr/retrieval/fusion.h"
#include "ivr/service/managed_backend.h"
#include "ivr/service/session_manager.h"
#include "ivr/sim/simulator.h"
#include "ivr/sim/user_model.h"
#include "ivr/video/serialization.h"
#include "ivr/workload/report.h"
#include "ivr_bench/bench_core.h"

namespace ivr {
namespace ivr_bench {
namespace {

constexpr size_t kActors = 2;
constexpr double kWarmupSeconds = 1.0;
/// Share of --seconds spent in the open-loop phase; the rest measures
/// capacity in the closed-loop saturation phase.
constexpr double kOpenShare = 0.7;
/// Set-up is timed in two batches, before the warm-up and after the gates,
/// each repeated at least this many times and until this much time has
/// been spent (a small stack sets up in ~30 ms, text_open's in ~280 ms),
/// capped; setup_s is the median over both. Two batches sample more of the
/// run: on a shared host a memory-bound thread can run 40% slower for
/// seconds at a time.
constexpr int kMinSetupRepetitions = 5;
constexpr double kSetupBudgetSeconds = 1.0;
constexpr int kMaxSetupRepetitions = 20;
/// Latency percentiles and capacity are medians over slices of their phase
/// about this long.
constexpr double kSliceSeconds = 1.0;
constexpr size_t kTopK = 10;
constexpr size_t kProbeQueries = 2000;
constexpr uint64_t kSignatureStride = 32;
constexpr size_t kHttpSessions = 256;
constexpr size_t kCacheBytes = 16u << 20;
constexpr double kAppendsPerSecond = 8.0;
constexpr double kPublishesPerSecond = 4.0;

/// Salts of the decorrelated input streams (see MixKey).
enum Salt : uint64_t {
  kStreamSalt = 1,
  kPoolSalt,
  kQuerySalt,
  kSessionSalt,
  kScheduleSalt,
};

enum class Kind { kSessionMix, kTextOpen, kHttpServe, kIngestLive };

struct WorkloadSpec {
  Kind kind;
  const char* name;
  size_t corpus_videos;
  /// Text queries drawn Zipf(1.0) from this many transcript snippets;
  /// 0 for session_mix, whose simulated users write their own queries.
  size_t pool_size;
  /// The frozen open-loop arrival rate (arrivals per second).
  double rate;
  const char* arrival;
};

constexpr WorkloadSpec kSpecs[] = {
    {Kind::kSessionMix, "session_mix", 25, 0, 450.0, "session"},
    {Kind::kTextOpen, "text_open", 200, 20000, 3000.0, "one-shot search"},
    {Kind::kHttpServe, "http_serve", 25, 2000, 6000.0, "HTTP search"},
    {Kind::kIngestLive, "ingest_live", 25, 5000, 2000.0, "one-shot search"},
};

struct Config {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double rate = 0.0;
  std::string work_dir;
  std::string out;
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t n = 0;
};

/// Everything one serving stack owns. Members are declared in dependency
/// order, so destruction stops the server before the manager it calls and
/// the engines before the collection they index.
struct Stack {
  GeneratedCollection collection;
  std::shared_ptr<ResultCache> cache;
  std::unique_ptr<RetrievalEngine> engine;
  std::unique_ptr<AdaptiveEngine> adaptive;
  std::unique_ptr<LiveEngine> live;
  std::unique_ptr<SessionManager> manager;
  std::unique_ptr<net::ServiceHandler> handler;
  std::unique_ptr<net::HttpServer> server;
};

std::shared_ptr<ResultCache> MakeCache() {
  ResultCacheOptions options;
  options.max_bytes = kCacheBytes;
  return std::make_shared<ResultCache>(options);
}

/// Engine, adaptive policy and session manager over `stack->collection`.
Status BuildDirect(Stack* stack, std::shared_ptr<ResultCache> cache) {
  IVR_ASSIGN_OR_RETURN(stack->engine,
                       RetrievalEngine::Build(stack->collection.collection));
  stack->cache = std::move(cache);
  stack->engine->AttachCache(stack->cache);
  stack->adaptive = std::make_unique<AdaptiveEngine>(
      *stack->engine, AdaptiveOptions(), nullptr);
  stack->manager = std::make_unique<SessionManager>(*stack->adaptive,
                                                    SessionManagerOptions());
  return Status::OK();
}

/// A direct stack over a freshly loaded copy of the archive. Without a
/// cache it is the sequential reference the ranking gates compare against.
Result<std::unique_ptr<Stack>> DirectStack(const std::string& archive,
                                           std::shared_ptr<ResultCache> cache) {
  auto stack = std::make_unique<Stack>();
  IVR_ASSIGN_OR_RETURN(stack->collection, LoadCollection(archive));
  IVR_RETURN_IF_ERROR(BuildDirect(stack.get(), std::move(cache)));
  return stack;
}

/// The ranking an HTTP /v1/search response carries, in response order, as
/// RankingBytes. %.17g scores round-trip exactly through the JSON parser.
std::string RankingBytesFromBody(const std::string& body) {
  Result<net::JsonValue> json = net::JsonValue::Parse(body);
  if (!json.ok()) return "unparseable response: " + body;
  const net::JsonValue* results = json->Find("results");
  if (results == nullptr || !results->is_array()) {
    return "response without results: " + body;
  }
  std::string bytes;
  for (const net::JsonValue& item : results->items()) {
    const net::JsonValue* shot = item.Find("shot");
    const net::JsonValue* score = item.Find("score");
    if (shot == nullptr || score == nullptr || !shot->is_number() ||
        !score->is_number()) {
      return "malformed result entry: " + body;
    }
    AppendEntry(&bytes, static_cast<ShotId>(shot->number_value()),
                score->number_value());
  }
  return bytes;
}

/// The results member of a /v1/search response as a JSON object of its
/// own: responses for one query through different sessions differ only in
/// the echoed session id, so the ledger stores one copy per ranking.
std::string ResultsOnly(const std::string& body) {
  const size_t at = body.find("\"results\"");
  return at == std::string::npos ? body : "{" + body.substr(at);
}

/// Hash of the event stream plus every per-query ranking at full score
/// precision: two runs of a session are identical exactly when these
/// strings are, so (up to a 64-bit collision) when their hashes are.
size_t SessionSignature(const SimulatedSession& session) {
  std::string sig;
  for (const InteractionEvent& event : session.events) {
    sig += SessionLog::EventToLine(event);
    sig += "\n";
  }
  for (const ResultList& results : session.outcome.per_query_results) {
    for (const RankedShot& entry : results.items()) {
      sig += StrFormat("%u:%.17g ", entry.shot, entry.score);
    }
    sig += "\n";
  }
  return std::hash<std::string>()(sig);
}

/// `n` text queries of 1-4 terms, each drawn from one shot's transcript.
/// Like the corpus, the pool is the same for every seed: the Zipf head
/// carries a tenth of all draws, so a pool drawn per seed would make one
/// or two queries' cost swing a whole run by 40%.
std::vector<std::string> BuildQueryPool(const VideoCollection& collection,
                                        size_t n) {
  std::vector<std::string> pool;
  pool.reserve(n);
  const std::vector<Shot>& shots = collection.shots();
  for (uint64_t j = 0; pool.size() < n && j < 100 * n; ++j) {
    Rng rng(MixKey(0, kPoolSalt, j));
    const Shot& shot = shots[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(shots.size()) - 1))];
    const std::vector<std::string> words = SplitWhitespace(shot.asr_transcript);
    if (words.empty()) continue;
    const int64_t terms = rng.UniformInt(1, 4);
    std::string query;
    for (int64_t t = 0; t < terms; ++t) {
      if (t > 0) query += ' ';
      query += words[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(words.size()) - 1))];
    }
    pool.push_back(std::move(query));
  }
  return pool;
}

/// Lookups into a registry delta (workload::DiffSnapshots), which omits
/// entries that did not change: an absent name reads 0.
double CounterOf(const obs::RegistrySnapshot& delta, const std::string& name) {
  for (const auto& [key, value] : delta.counters) {
    if (key == name) return static_cast<double>(value);
  }
  return 0.0;
}

double CounterPrefixOf(const obs::RegistrySnapshot& delta,
                       const std::string& prefix) {
  double total = 0.0;
  for (const auto& [key, value] : delta.counters) {
    if (StartsWith(key, prefix)) total += static_cast<double>(value);
  }
  return total;
}

obs::HistogramSnapshot HistogramOf(const obs::RegistrySnapshot& delta,
                                   const std::string& name) {
  for (const auto& [key, value] : delta.histograms) {
    if (key == name) return value;
  }
  return obs::HistogramSnapshot();
}

/// Mean per-query time of each retrieval stage, replaying recorded queries
/// through the engine's public functions exactly as AdaptiveEngine::Search
/// composes them (minus expansion and rerank), uncached.
struct ProbeTimes {
  double parse_us = 0.0;
  double text_us = 0.0;
  double visual_us = 0.0;
  double fusion_us = 0.0;
  size_t queries = 0;
  size_t with_examples = 0;
};

ProbeTimes RunRetrievalProbe(const RetrievalEngine& engine,
                             const std::vector<Query>& queries) {
  const size_t pool = AdaptiveOptions().candidate_pool;
  ProbeTimes t;
  int64_t parse = 0, text = 0, visual = 0, fusion = 0;
  for (const Query& query : queries) {
    const int64_t t0 = SteadyNs();
    const TermQuery terms =
        query.HasText() ? engine.ParseText(query.text) : TermQuery();
    const int64_t t1 = SteadyNs();
    std::vector<ResultList> lists;
    std::vector<double> weights;
    if (query.HasText()) {
      lists.push_back(engine.SearchTerms(terms, pool));
      weights.push_back(engine.options().text_weight);
    }
    const int64_t t2 = SteadyNs();
    if (query.HasExamples()) {
      std::vector<ResultList> per_example;
      for (const ColorHistogram& example : query.examples) {
        per_example.push_back(engine.SearchVisual(example, pool));
      }
      lists.push_back(CombSum(per_example));
      weights.push_back(engine.options().visual_weight);
    }
    const int64_t t3 = SteadyNs();
    ResultList fused;
    if (!lists.empty()) {
      fused = lists.size() == 1 ? std::move(lists.front())
                                : WeightedLinear(lists, weights);
      fused.Truncate(kTopK);
    }
    const int64_t t4 = SteadyNs();
    parse += t1 - t0;
    text += t2 - t1;
    visual += t3 - t2;
    fusion += t4 - t3;
    if (query.HasExamples()) ++t.with_examples;
  }
  t.queries = queries.size();
  if (t.queries > 0) {
    const double n = static_cast<double>(t.queries) * 1e3;
    t.parse_us = static_cast<double>(parse) / n;
    t.text_us = static_cast<double>(text) / n;
    t.visual_us = static_cast<double>(visual) / n;
    t.fusion_us = static_cast<double>(fusion) / n;
  }
  return t;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Restarts the kernel's peak-RSS mark (VmHWM) from the current RSS, after
/// handing freed heap pages back, so the peak reflects the kept stack and
/// its traffic rather than the discarded set-up repetitions.
void ResetPeakRss() {
  (void)malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM of this process in MB (0 when /proc is unavailable).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (StartsWith(line, "VmHWM:")) {
      const Result<int64_t> kb =
          ParseInt(Trim(line.substr(6, line.size() - 9)));
      return kb.ok() ? static_cast<double>(*kb) / 1024.0 : 0.0;
    }
  }
  return 0.0;
}

/// Slices of about kSliceSeconds in a phase of `seconds`.
size_t SliceCount(double seconds) {
  return std::max<size_t>(1, static_cast<size_t>(
                                 std::lround(seconds / kSliceSeconds)));
}

/// A phase's search latency: exact percentiles over every sample for the
/// printout, and the medians over about one-second slices of the slice p50
/// and p99 that the end-to-end metrics report.
struct SearchSummary {
  Distribution all;
  double p50 = 0.0;
  double p99 = 0.0;
};

SearchSummary SummarizeSearches(const SampleSet& set, const LoopStats& phase,
                                double seconds) {
  const std::vector<Sample> samples = set.Merged();
  SearchSummary s;
  s.all = Summarize(Values(samples));
  s.p50 = MedianSlicePercentile(samples, phase.start_ns, seconds,
                                SliceCount(seconds), 500);
  s.p99 = MedianSlicePercentile(samples, phase.start_ns, seconds,
                                SliceCount(seconds), 990);
  return s;
}

/// Completed arrivals per second in a closed phase of `seconds`: the
/// median over its slices.
double Capacity(const LoopStats& closed, double seconds) {
  const double slice_s =
      seconds / static_cast<double>(closed.completed_per_slice.size());
  std::vector<double> per_s;
  for (const uint64_t completed : closed.completed_per_slice) {
    per_s.push_back(static_cast<double>(completed) / slice_s);
  }
  std::sort(per_s.begin(), per_s.end());
  return NearestRank(per_s, 500);
}

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

/// JSON has no infinity: a percentile that lands on a failed op reads as
/// the largest double (the run is then incorrect anyway).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  return StrFormat("%.17g", v);
}

class Bench {
 public:
  explicit Bench(Config config)
      : cfg_(std::move(config)), kind_(cfg_.spec->kind) {}

  ~Bench() { StopWriter(); }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  int Run();

 private:
  class TimedSessionBackend;

  Status MakeInputs();
  Result<std::unique_ptr<Stack>> SetUp(int rep);
  Status PrepareTraffic();

  LoopStats OpenPhase(double seconds);
  LoopStats ClosedPhase(double seconds);
  bool Arrival(size_t actor, uint64_t index, int64_t due_ns);
  bool SessionArrival(size_t actor, uint64_t index);
  bool OneShotArrival(size_t actor, uint64_t index, int64_t due_ns);
  bool HttpArrival(size_t actor, uint64_t index, int64_t due_ns);

  uint32_t KeyFor(uint64_t index) const {
    Rng rng(MixKey(cfg_.seed, kQuerySalt, index));
    return static_cast<uint32_t>(zipf_->Sample(&rng));
  }
  Query QueryFor(uint32_t key) const {
    Query query;
    query.text = pool_[key];
    return query;
  }
  void RecordSearch(size_t actor, int64_t start_ns, bool ok) {
    if (search_sink_ == nullptr) return;
    search_sink_->Add(
        actor, start_ns,
        ok ? static_cast<double>(SteadyNs() - start_ns) / 1e3 : kInf);
  }
  void RecordProbeQuery(const Query& query);

  struct SessionPlan {
    const UserModel* user = nullptr;
    const SearchTopic* topic = nullptr;
    SessionSimulator::RunConfig run;
  };
  SessionPlan PlanSession(uint64_t index,
                          const GeneratedCollection& collection) const;

  void StartWriter();
  void StopWriter();
  void WriterMain();

  /// Runs the workload's correctness gate; returns mismatched ops and sets
  /// `*checked` to the comparisons made beyond the window's own ops.
  Result<uint64_t> Gate(uint64_t* checked);
  Result<ProbeTimes> Probe();

  void Add(std::string name, double value, std::string unit, uint64_t n) {
    metrics_.push_back(
        Metric{std::move(name), value, std::move(unit), n});
  }
  void AddPerLayer(const LoopStats& traced_open,
                   const SearchSummary& untraced, const SearchSummary& traced,
                   const obs::RegistrySnapshot& registry,
                   const net::HttpServerStats& net_before,
                   const ProbeTimes& probe, int64_t writes_start_ns,
                   int64_t writes_end_ns);
  void Report(bool correct, uint64_t attempted, uint64_t failed) const;

  Config cfg_;
  Kind kind_;

  // Inputs.
  std::string archive_;
  std::vector<std::string> pool_;
  std::unique_ptr<ZipfDistribution> zipf_;
  GeneratedCollection stream_;
  std::vector<UserModel> users_;
  std::vector<Environment> environments_;
  std::vector<double> user_weights_;

  // Serving stack and load generators.
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<SessionSimulator> simulator_;
  std::vector<std::unique_ptr<net::HttpClient>> clients_;

  // Measurement state. search_sink_ and measuring_ change only while no
  // actor runs (between phases).
  SampleSet* search_sink_ = nullptr;
  bool measuring_ = false;
  /// Arrival indices: every arrival of a run has its own session id and
  /// query draw; closed-loop indices live far above the open-loop ones.
  uint64_t next_open_index_ = 0;
  uint64_t next_closed_index_ = uint64_t{1} << 40;
  RankingLedger ledger_{kActors};
  std::mutex signatures_mu_;
  /// Signature hashes, not the signatures, so the bench's own memory does
  /// not grow with throughput and inflate peak_rss_mb.
  std::map<uint64_t, size_t> signatures_;  // guarded by signatures_mu_
  struct SimCounts {
    uint64_t sessions = 0;
    uint64_t searches = 0;
    uint64_t events = 0;
    uint64_t relevant = 0;
  };
  std::array<SimCounts, kActors> sim_{};
  std::atomic<bool> probe_recording_{false};
  std::mutex probe_mu_;
  std::vector<Query> probe_queries_;  // guarded by probe_mu_
  std::vector<Metric> metrics_;

  // Ingest writer (ingest_live): appends and publishes on deadlines.
  struct Timed {
    int64_t start_ns = 0;
    double us = 0.0;
  };
  std::mutex writer_mu_;
  std::condition_variable writer_cv_;
  bool writer_stop_ = false;               // guarded by writer_mu_
  std::vector<Timed> publishes_;           // guarded by writer_mu_
  std::vector<Timed> appends_;             // guarded by writer_mu_
  uint64_t write_failures_ = 0;            // guarded by writer_mu_
  std::thread writer_;
};

/// Drives one managed session for the simulator and times each call into
/// the service layer. Searches are timed from when the simulated user
/// issues them: a session's arrival is not a search, and the wait before a
/// session starts is its dispatch lag.
class Bench::TimedSessionBackend : public SearchBackend {
 public:
  TimedSessionBackend(Bench* bench, size_t actor, std::string session_id,
                      std::string user_id)
      : bench_(bench),
        actor_(actor),
        session_id_(std::move(session_id)),
        user_id_(std::move(user_id)) {}

  ResultList Search(const Query& query, size_t k) override {
    const int64_t start = SteadyNs();
    ++searches_;
    Result<ResultList> results = [&] {
      BenchSpan span(Span::kServiceSearch);
      return bench_->stack_->manager->Search(session_id_, query, k);
    }();
    bench_->RecordSearch(actor_, start, results.ok());
    bench_->RecordProbeQuery(query);
    if (!results.ok()) {
      Note(results.status());
      return ResultList();
    }
    return std::move(results).value();
  }

  void ObserveEvent(const InteractionEvent& event) override {
    BenchSpan span(Span::kServiceEvent);
    Note(bench_->stack_->manager->ObserveEvent(session_id_, event));
  }

  void BeginSession() override {
    BenchSpan span(Span::kServiceBegin);
    Note(bench_->stack_->manager->BeginSession(session_id_, user_id_));
  }

  Status EndSession() {
    BenchSpan span(Span::kServiceEnd);
    return bench_->stack_->manager->EndSession(session_id_);
  }

  std::string name() const override { return "bench-managed"; }
  const Status& first_error() const { return first_error_; }
  uint64_t searches() const { return searches_; }

 private:
  void Note(const Status& status) {
    if (!status.ok() && first_error_.ok()) first_error_ = status;
  }

  Bench* bench_;
  size_t actor_;
  std::string session_id_;
  std::string user_id_;
  uint64_t searches_ = 0;
  Status first_error_;
};

Status Bench::MakeInputs() {
  IVR_RETURN_IF_ERROR(MakeDirectory(cfg_.work_dir));
  // The corpus is the standard collection at its fixed seed, so runs on
  // different seeds differ in traffic (query draws, sessions, arrival
  // times, the ingest stream), not in the corpus they search: a different
  // corpus alone moves search cost by +-15%.
  GeneratorOptions corpus = bench::StandardCollectionOptions();
  corpus.num_videos = cfg_.spec->corpus_videos;
  IVR_ASSIGN_OR_RETURN(GeneratedCollection generated,
                       GenerateCollection(corpus));
  archive_ = cfg_.work_dir + "/collection.ivr";
  IVR_RETURN_IF_ERROR(SaveCollection(generated, archive_));
  if (cfg_.spec->pool_size > 0) {
    pool_ = BuildQueryPool(generated.collection, cfg_.spec->pool_size);
    zipf_ = std::make_unique<ZipfDistribution>(
        static_cast<int64_t>(pool_.size()), 1.0);
    ledger_.Reserve(pool_.size());
  }
  if (kind_ == Kind::kIngestLive) {
    // As many videos as the writer can append in one run.
    GeneratorOptions stream = bench::StandardCollectionOptions(
        0.3, MixKey(cfg_.seed, kStreamSalt, 0));
    stream.num_videos = static_cast<size_t>(
        kAppendsPerSecond * (kWarmupSeconds + cfg_.seconds + 2.0));
    IVR_ASSIGN_OR_RETURN(stream_, GenerateCollection(stream));
  }
  if (kind_ == Kind::kSessionMix) {
    // The paper's panel: desktop-novice 2 : desktop-expert 1 : tv-couch 2.
    users_ = {NoviceUser(), ExpertUser(), CouchViewerUser()};
    environments_ = {Environment::kDesktop, Environment::kDesktop,
                     Environment::kTv};
    user_weights_ = {2.0, 1.0, 2.0};
  }
  return Status::OK();
}

Result<std::unique_ptr<Stack>> Bench::SetUp(int rep) {
  if (kind_ == Kind::kIngestLive) {
    auto stack = std::make_unique<Stack>();
    IVR_ASSIGN_OR_RETURN(GeneratedCollection base, LoadCollection(archive_));
    IngestOptions options;
    options.dir = StrFormat("%s/ingest-%d", cfg_.work_dir.c_str(), rep);
    // No result cache: with a publish every 250 ms a 2,000/s Zipf stream
    // over the 5k pool hits an epoch's cache about half the time, so the
    // median would sit on the hit/miss boundary. Uncached, every read
    // pays the fan-out the ingest layer shapes.
    IVR_ASSIGN_OR_RETURN(stack->live,
                         LiveEngine::Open(std::move(base), options));
    LiveEngine* live = stack->live.get();
    // The adaptive engine refers to its snapshot's retrieval engine by
    // reference, so an operation pins the whole snapshot (aliasing
    // shared_ptr), not just the adaptive engine: a publish mid-operation
    // would otherwise free the retrieval engine under it.
    stack->manager = std::make_unique<SessionManager>(
        [live] {
          std::shared_ptr<const EngineSnapshot> snapshot = live->Acquire();
          const AdaptiveEngine* adaptive = snapshot->adaptive.get();
          return std::shared_ptr<const AdaptiveEngine>(std::move(snapshot),
                                                       adaptive);
        },
        SessionManagerOptions());
    return stack;
  }
  IVR_ASSIGN_OR_RETURN(
      std::unique_ptr<Stack> stack,
      DirectStack(archive_,
                  kind_ == Kind::kHttpServe ? MakeCache() : nullptr));
  if (kind_ == Kind::kHttpServe) {
    stack->handler = std::make_unique<net::ServiceHandler>(
        stack->manager.get());
    net::ServiceHandler* handler = stack->handler.get();
    net::HttpServerOptions options;
    options.num_workers = 2;
    stack->server = std::make_unique<net::HttpServer>(
        options, [handler](const net::HttpRequest& request) {
          BenchSpan span(Span::kNetHandler);
          return handler->Handle(request);
        });
    IVR_RETURN_IF_ERROR(stack->server->Start());
  }
  return stack;
}

Status Bench::PrepareTraffic() {
  if (kind_ == Kind::kSessionMix) {
    simulator_ = std::make_unique<SessionSimulator>(
        stack_->collection.collection, stack_->collection.qrels);
  }
  if (kind_ == Kind::kHttpServe) {
    for (size_t i = 0; i < kHttpSessions; ++i) {
      IVR_RETURN_IF_ERROR(stack_->manager->BeginSession(
          StrFormat("bench-%zu", i), "bench"));
    }
    for (size_t a = 0; a < kActors; ++a) {
      clients_.push_back(std::make_unique<net::HttpClient>());
      IVR_RETURN_IF_ERROR(
          clients_.back()->Connect("127.0.0.1", stack_->server->port()));
    }
  }
  return Status::OK();
}

void Bench::RecordProbeQuery(const Query& query) {
  if (!probe_recording_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(probe_mu_);
  if (probe_queries_.size() < kProbeQueries) {
    probe_queries_.push_back(query);
  } else {
    probe_recording_.store(false, std::memory_order_relaxed);
  }
}

Bench::SessionPlan Bench::PlanSession(
    uint64_t index, const GeneratedCollection& collection) const {
  Rng rng(MixKey(cfg_.seed, kSessionSalt, index));
  const size_t pick = rng.Categorical(user_weights_);
  const std::vector<SearchTopic>& topics = collection.topics.topics;
  SessionPlan plan;
  plan.user = &users_[pick];
  plan.topic = &topics[index % topics.size()];
  plan.run.environment = environments_[pick];
  plan.run.seed = rng.Next();
  plan.run.session_id =
      StrFormat("mix-%llu", static_cast<unsigned long long>(index));
  plan.run.user_id = plan.user->name + std::to_string(index % 4);
  return plan;
}

bool Bench::Arrival(size_t actor, uint64_t index, int64_t due_ns) {
  BenchSpan op(Span::kOp);
  switch (kind_) {
    case Kind::kSessionMix:
      return SessionArrival(actor, index);
    case Kind::kHttpServe:
      return HttpArrival(actor, index, due_ns);
    case Kind::kTextOpen:
    case Kind::kIngestLive:
      return OneShotArrival(actor, index, due_ns);
  }
  return false;
}

bool Bench::SessionArrival(size_t actor, uint64_t index) {
  const SessionPlan plan = PlanSession(index, stack_->collection);
  TimedSessionBackend backend(this, actor, plan.run.session_id,
                              plan.run.user_id);
  Result<SimulatedSession> session = simulator_->Run(
      &backend, *plan.topic, *plan.user, plan.run, /*log=*/nullptr);
  const Status ended = backend.EndSession();
  const bool ok = session.ok() && backend.first_error().ok() && ended.ok();
  if (!ok) return false;
  if (measuring_) {
    SimCounts& counts = sim_[actor];
    ++counts.sessions;
    counts.searches += backend.searches();
    counts.events += session->events.size();
    counts.relevant += session->outcome.truly_relevant_found;
  }
  if (index % kSignatureStride == 0) {
    const size_t signature = SessionSignature(*session);
    std::lock_guard<std::mutex> lock(signatures_mu_);
    signatures_[index] = signature;
  }
  return true;
}

bool Bench::OneShotArrival(size_t actor, uint64_t index, int64_t due_ns) {
  SessionManager& manager = *stack_->manager;
  const uint32_t key = KeyFor(index);
  const Query query = QueryFor(key);
  const std::string session_id =
      StrFormat("op-%llu", static_cast<unsigned long long>(index));
  const Status begun = [&] {
    BenchSpan span(Span::kServiceBegin);
    return manager.BeginSession(session_id, "openloop");
  }();
  Result<ResultList> results = [&] {
    BenchSpan span(Span::kServiceSearch);
    return manager.Search(session_id, query, kTopK);
  }();
  const bool searched = begun.ok() && results.ok();
  RecordSearch(actor, due_ns, searched);
  const Status ended = [&] {
    BenchSpan span(Span::kServiceEnd);
    return manager.EndSession(session_id);
  }();
  RecordProbeQuery(query);
  // Live rankings legitimately change with every publish; ingest_live is
  // gated on its final generation instead.
  if (searched && kind_ == Kind::kTextOpen) {
    ledger_.Observe(actor, key, RankingBytes(*results));
  }
  return searched && ended.ok();
}

bool Bench::HttpArrival(size_t actor, uint64_t index, int64_t due_ns) {
  const uint32_t key = KeyFor(index);
  const std::string body = StrFormat(
      "{\"session_id\": \"bench-%llu\", \"query\": {\"text\": %s}, "
      "\"k\": %zu}",
      static_cast<unsigned long long>(index % kHttpSessions),
      net::JsonQuote(pool_[key]).c_str(), kTopK);
  Result<net::HttpClientResponse> response = [&] {
    BenchSpan span(Span::kNetRtt);
    return clients_[actor]->Post("/v1/search", body);
  }();
  const bool ok = response.ok() && response->status == 200;
  RecordSearch(actor, due_ns, ok);
  RecordProbeQuery(QueryFor(key));
  if (ok) ledger_.Observe(actor, key, ResultsOnly(response->body));
  return ok;
}

LoopStats Bench::OpenPhase(double seconds) {
  const std::vector<int64_t> schedule = PoissonScheduleUs(
      cfg_.rate, static_cast<int64_t>(seconds * 1e6),
      MixKey(cfg_.seed, kScheduleSalt, next_open_index_));
  OpenLoopPacer pacer([] { return SteadyNs() / 1000; }, PaceSleepUs);
  const LoopStats stats = RunOpenLoop(
      schedule, next_open_index_, kActors, &pacer, SteadyNs,
      [this](size_t actor, uint64_t index, int64_t due_ns) {
        return Arrival(actor, index, due_ns);
      });
  next_open_index_ += stats.arrivals;
  return stats;
}

LoopStats Bench::ClosedPhase(double seconds) {
  const LoopStats stats = RunClosedLoop(
      seconds, SliceCount(seconds), next_closed_index_, kActors,
      [this](size_t actor, uint64_t index, int64_t due_ns) {
        return Arrival(actor, index, due_ns);
      });
  next_closed_index_ += stats.arrivals;
  return stats;
}

void Bench::StartWriter() {
  writer_ = std::thread([this] { WriterMain(); });
}

void Bench::StopWriter() {
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    writer_stop_ = true;
  }
  writer_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
}

void Bench::WriterMain() {
  TightenTimerSlack();
  LiveEngine& live = *stack_->live;
  const int64_t append_every = static_cast<int64_t>(1e9 / kAppendsPerSecond);
  const int64_t publish_every =
      static_cast<int64_t>(1e9 / kPublishesPerSecond);
  int64_t next_append = SteadyNs() + append_every;
  int64_t next_publish = SteadyNs() + publish_every;
  const size_t videos = stream_.collection.num_videos();
  size_t appended = 0;
  bool pending = false;
  std::unique_lock<std::mutex> lock(writer_mu_);
  while (!writer_stop_) {
    const int64_t now = SteadyNs();
    if (now >= next_publish) {
      next_publish += publish_every;
      if (!pending) continue;
      lock.unlock();
      const int64_t start = SteadyNs();
      const bool ok = [&] {
        BenchSpan span(Span::kIngestPublish);
        return live.Publish().ok();
      }();
      const double us = static_cast<double>(SteadyNs() - start) / 1e3;
      lock.lock();
      publishes_.push_back(Timed{start, us});
      if (ok) {
        pending = false;
      } else {
        ++write_failures_;
      }
      continue;
    }
    if (now >= next_append && appended < videos) {
      next_append += append_every;
      const VideoId id = static_cast<VideoId>(appended++);
      lock.unlock();
      const int64_t start = SteadyNs();
      const bool ok = [&] {
        BenchSpan span(Span::kIngestAppend);
        return live.AppendVideoFrom(stream_.collection, id).ok();
      }();
      const double us = static_cast<double>(SteadyNs() - start) / 1e3;
      lock.lock();
      appends_.push_back(Timed{start, us});
      if (ok) {
        pending = true;
      } else {
        ++write_failures_;
      }
      continue;
    }
    const int64_t wake =
        appended < videos ? std::min(next_append, next_publish) : next_publish;
    writer_cv_.wait_for(lock, std::chrono::nanoseconds(wake - now),
                        [this] { return writer_stop_; });
  }
}

Result<uint64_t> Bench::Gate(uint64_t* checked) {
  *checked = 0;
  switch (kind_) {
    case Kind::kSessionMix: {
      // Every 32nd session again, sequentially, on a fresh stack.
      IVR_ASSIGN_OR_RETURN(std::unique_ptr<Stack> fresh,
                           DirectStack(archive_, nullptr));
      const SessionSimulator simulator(fresh->collection.collection,
                                       fresh->collection.qrels);
      uint64_t mismatched = 0;
      for (const auto& [index, signature] : signatures_) {
        const SessionPlan plan = PlanSession(index, fresh->collection);
        ManagedSessionBackend backend(fresh->manager.get(),
                                      plan.run.session_id, plan.run.user_id);
        const Result<SimulatedSession> session = simulator.Run(
            &backend, *plan.topic, *plan.user, plan.run, nullptr);
        (void)backend.EndSession();
        if (!session.ok() || SessionSignature(*session) != signature) {
          ++mismatched;
        }
      }
      return mismatched;
    }
    case Kind::kTextOpen:
    case Kind::kHttpServe: {
      // Every served ranking against a fresh sequential reference.
      IVR_ASSIGN_OR_RETURN(std::unique_ptr<Stack> fresh,
                           DirectStack(archive_, nullptr));
      IVR_RETURN_IF_ERROR(fresh->manager->BeginSession("reference", "ref"));
      const auto reference = [&](uint32_t key) {
        const Result<ResultList> r =
            fresh->manager->Search("reference", QueryFor(key), kTopK);
        return r.ok() ? RankingBytes(*r) : "reference failed";
      };
      if (kind_ == Kind::kHttpServe) {
        return ledger_.CountMismatches(reference, RankingBytesFromBody);
      }
      return ledger_.CountMismatches(
          reference, [](const std::string& bytes) { return bytes; });
    }
    case Kind::kIngestLive: {
      // The final generation against a monolithic rebuild, every pool
      // query through the readers' manager.
      GeneratedCollection exported = stack_->live->ExportCollection();
      Stack rebuilt;
      rebuilt.collection = std::move(exported);
      IVR_RETURN_IF_ERROR(BuildDirect(&rebuilt, nullptr));
      const auto ranking = [&](SessionManager* manager,
                               uint32_t key) -> Result<std::string> {
        const std::string id = StrFormat("gate-%u", key);
        IVR_RETURN_IF_ERROR(manager->BeginSession(id, "ref"));
        const Result<ResultList> r = manager->Search(id, QueryFor(key), kTopK);
        IVR_RETURN_IF_ERROR(manager->EndSession(id));
        return r.ok() ? RankingBytes(*r) : "search failed";
      };
      uint64_t mismatched = 0;
      for (uint32_t key = 0; key < pool_.size(); ++key) {
        IVR_ASSIGN_OR_RETURN(const std::string expected,
                             ranking(rebuilt.manager.get(), key));
        IVR_ASSIGN_OR_RETURN(const std::string served,
                             ranking(stack_->manager.get(), key));
        if (served != expected) ++mismatched;
      }
      *checked = pool_.size();
      return mismatched;
    }
  }
  return Status::Internal("unknown workload");
}

Result<ProbeTimes> Bench::Probe() {
  std::vector<Query> queries;
  {
    std::lock_guard<std::mutex> lock(probe_mu_);
    queries = probe_queries_;
  }
  if (kind_ == Kind::kIngestLive) {
    const std::shared_ptr<const EngineSnapshot> snapshot =
        stack_->live->Acquire();
    return RunRetrievalProbe(*snapshot->engine, queries);
  }
  if (stack_->cache != nullptr) {
    IVR_ASSIGN_OR_RETURN(
        std::unique_ptr<RetrievalEngine> uncached,
        RetrievalEngine::Build(stack_->collection.collection));
    return RunRetrievalProbe(*uncached, queries);
  }
  return RunRetrievalProbe(*stack_->engine, queries);
}

int Bench::Run() {
  if (!RunSelfTest()) {
    std::fprintf(stderr, "bench_ivr: selftest failed; not measuring\n");
    return 3;
  }
  const auto fail = [](const char* what, const Status& status) {
    std::fprintf(stderr, "bench_ivr: %s: %s\n", what,
                 status.ToString().c_str());
    return 2;
  };
  const Status inputs = MakeInputs();
  if (!inputs.ok()) return fail("generating inputs", inputs);

  std::vector<double> setup_s;
  int setups = 0;
  // One batch of timed set-ups; the first batch keeps its last stack as
  // the one the run serves from. Tearing a stack down is not set-up time.
  const auto time_setups = [&](bool keep) -> Status {
    double spent = 0.0;
    for (int i = 0; i < kMaxSetupRepetitions &&
                    (i < kMinSetupRepetitions || spent < kSetupBudgetSeconds);
         ++i) {
      if (keep) stack_.reset();
      const int64_t start = SteadyNs();
      IVR_ASSIGN_OR_RETURN(std::unique_ptr<Stack> stack, SetUp(setups++));
      setup_s.push_back(static_cast<double>(SteadyNs() - start) / 1e9);
      spent += setup_s.back();
      if (keep) stack_ = std::move(stack);
    }
    return Status::OK();
  };
  const Status set_up = time_setups(/*keep=*/true);
  if (!set_up.ok()) return fail("set-up", set_up);
  const Status traffic = PrepareTraffic();
  if (!traffic.ok()) return fail("preparing traffic", traffic);
  ResetPeakRss();
  if (kind_ == Kind::kIngestLive) StartWriter();

  const LoopStats warmup = OpenPhase(kWarmupSeconds);

  const double open_s = cfg_.seconds * kOpenShare;
  const double closed_s = cfg_.seconds - open_s;
  const double measured_open_s = cfg_.trace ? open_s / 2 : open_s;
  SampleSet untraced(kActors);
  SampleSet open_latency(kActors);
  SampleSet closed_latency(kActors);
  LoopStats open_untraced;
  net::HttpServerStats net_before;
  measuring_ = true;
  if (cfg_.trace) {
    // Half the open phase untraced, half traced: their p50 difference is
    // the tracing overhead.
    search_sink_ = &untraced;
    open_untraced = OpenPhase(open_s / 2);
    SpanTable::Global().Enable(true);
    obs::TraceRecorder::Global().Enable();
    probe_recording_ = true;
  }
  const obs::RegistrySnapshot registry_before =
      obs::Registry::Global().TakeSnapshot();
  if (stack_->server != nullptr) net_before = stack_->server->stats();
  const int64_t window_start = SteadyNs();
  search_sink_ = &open_latency;
  const LoopStats open = OpenPhase(measured_open_s);
  const int64_t open_end = SteadyNs();
  // ingest_live's writer runs through the open phase only: the closed
  // phase measures read capacity at the fan-out the run reached, which the
  // wall-clock publish cadence makes the same on every run.
  StopWriter();
  // Only session_mix reports closed-phase latency; elsewhere its samples
  // would make the bench's own memory grow with throughput.
  search_sink_ = kind_ == Kind::kSessionMix ? &closed_latency : nullptr;
  const LoopStats closed = ClosedPhase(closed_s);
  search_sink_ = nullptr;
  const obs::RegistrySnapshot registry = workload::DiffSnapshots(
      registry_before, obs::Registry::Global().TakeSnapshot());
  measuring_ = false;
  probe_recording_ = false;
  SpanTable::Global().Enable(false);
  if (cfg_.trace) {
    if (!cfg_.trace_out.empty()) {
      const Status flushed =
          obs::TraceRecorder::Global().FlushToFile(cfg_.trace_out);
      if (!flushed.ok()) return fail("writing the trace", flushed);
    }
    obs::TraceRecorder::Global().Disable();
  }
  const double peak_rss_mb = PeakRssMb();

  uint64_t gate_checked = 0;
  Result<uint64_t> mismatched = Gate(&gate_checked);
  if (!mismatched.ok()) return fail("correctness gate", mismatched.status());
  const Status set_up_again = time_setups(/*keep=*/false);
  if (!set_up_again.ok()) return fail("set-up", set_up_again);

  // --- End-to-end metrics. ---------------------------------------------
  // Search latency is due-time latency from the open loop, except on
  // session_mix: the paper's panel is a closed loop of two users without
  // think time, each search timed from when the user issues it.
  const SearchSummary open_search =
      SummarizeSearches(open_latency, open, measured_open_s);
  const SearchSummary search =
      kind_ == Kind::kSessionMix
          ? SummarizeSearches(closed_latency, closed, closed_s)
          : open_search;
  const double capacity = Capacity(closed, closed_s);
  std::sort(setup_s.begin(), setup_s.end());
  Add("setup_s", NearestRank(setup_s, 500), "s", setup_s.size());
  Add("peak_rss_mb", peak_rss_mb, "MB", 1);
  Add("search_p50_us", search.p50, "us", search.all.n);
  Add("search_p99_us", search.p99, "us", search.all.n);
  Add("capacity_ops", capacity, "ops/s", closed.arrivals);

  const uint64_t attempted = warmup.arrivals + open_untraced.arrivals +
                             open.arrivals + closed.arrivals + gate_checked;
  uint64_t write_failures = 0;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    write_failures = write_failures_;
  }
  const uint64_t failed = warmup.failed + open_untraced.failed + open.failed +
                          closed.failed + *mismatched + write_failures;

  Add("search.all_p50_us", search.all.p50, "us", search.all.n);
  Add("search.all_p90_us", search.all.p90, "us", search.all.n);
  Add("search.all_p99_us", search.all.p99, "us", search.all.n);
  Add("search.all_tail_us", search.all.tail, "us", search.all.n);
  Add("open_rate", static_cast<double>(open.arrivals) / open.seconds,
      "arrivals/s", open.arrivals);
  Add("error_share", Ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)),
      "ratio", attempted);
  Add("gate.mismatched", static_cast<double>(*mismatched), "count",
      kind_ == Kind::kSessionMix ? signatures_.size()
      : kind_ == Kind::kIngestLive ? gate_checked
                                   : ledger_.distinct_keys());
  if (kind_ == Kind::kSessionMix) {
    Add("sessions_per_s", capacity, "sessions/s", closed.arrivals);
  }
  if (kind_ == Kind::kIngestLive) {
    std::vector<double> publish_ms;
    {
      std::lock_guard<std::mutex> lock(writer_mu_);
      for (const Timed& t : publishes_) {
        if (t.start_ns >= window_start) publish_ms.push_back(t.us / 1e3);
      }
    }
    const Distribution publish = Summarize(publish_ms);
    Add("publish_p50_ms", publish.p50, "ms", publish.n);
    Add("publish_p90_ms", publish.p90, "ms", publish.n);
  }

  if (cfg_.trace) {
    Result<ProbeTimes> probe = Probe();
    if (!probe.ok()) return fail("retrieval probe", probe.status());
    AddPerLayer(open, SummarizeSearches(untraced, open_untraced, open_s / 2),
                open_search, registry, net_before, *probe, window_start,
                open_end);
  }

  const bool correct = failed == 0;
  Report(correct, attempted, failed);
  return correct ? 0 : 1;
}

void Bench::AddPerLayer(const LoopStats& traced_open,
                        const SearchSummary& untraced,
                        const SearchSummary& traced,
                        const obs::RegistrySnapshot& registry,
                        const net::HttpServerStats& net_before,
                        const ProbeTimes& probe, int64_t writes_start_ns,
                        int64_t writes_end_ns) {
  std::array<std::pair<double, uint64_t>, static_cast<size_t>(Span::kCount)>
      span_totals;
  for (size_t i = 0; i < span_totals.size(); ++i) {
    const std::vector<double> samples =
        SpanTable::Global().Samples(static_cast<Span>(i));
    span_totals[i] = {Sum(samples), samples.size()};
  }
  const auto span_sum = [&](Span s) {
    return span_totals[static_cast<size_t>(s)].first;
  };
  const auto span_n = [&](Span s) {
    return span_totals[static_cast<size_t>(s)].second;
  };
  const double ops = static_cast<double>(span_n(Span::kOp));
  const double op_us = span_sum(Span::kOp);
  const double service_us =
      span_sum(Span::kServiceBegin) + span_sum(Span::kServiceSearch) +
      span_sum(Span::kServiceEnd) + span_sum(Span::kServiceEvent);
  const double rtt_us = span_sum(Span::kNetRtt);
  const double handler_us = span_sum(Span::kNetHandler);
  const auto counter = [&](const std::string& name) {
    return CounterOf(registry, name);
  };
  const auto hist_sum = [&](const std::string& name) {
    return static_cast<double>(HistogramOf(registry, name).sum);
  };
  const auto hist_count = [&](const std::string& name) {
    return HistogramOf(registry, name).count;
  };
  const double adaptive_us = hist_sum("adaptive.search_us");
  const double searches = counter("adaptive.searches");
  const double cache_us =
      hist_sum("cache.lookup_us") + hist_sum("cache.insert_us");
  const double hits = counter("cache.hits");
  const double lookups = hits + counter("cache.misses");
  const bool http = kind_ == Kind::kHttpServe;
  const double top_us = http ? rtt_us : service_us;
  const auto share = [&](double us) { return Ratio(us, op_us); };

  // Self times from what was measured inside the window; they partition
  // the op time exactly, with the bench's own code between layer calls as
  // the unattributed residual. Adaptive's self time includes the retrieval
  // calls it makes (nothing times those inside the program); the probe's
  // per-stage times show how that part splits.
  const double net_outside = http ? rtt_us - handler_us : 0.0;
  const double net_handler = http ? handler_us - adaptive_us : 0.0;
  const double service_self = http ? 0.0 : service_us - adaptive_us;
  const double adaptive_self = adaptive_us - cache_us;
  const double unattributed = op_us - top_us;
  const std::array<std::pair<const char*, double>, 5> selves = {{
      {"net", net_outside + net_handler},
      {"service", service_self},
      {"adaptive", adaptive_self},
      {"cache", cache_us},
      {"unattributed", unattributed},
  }};
  for (const auto& [layer, us] : selves) {
    Add(StrFormat("breakdown.%s_self_us_per_op", layer), Ratio(us, ops), "us",
        span_n(Span::kOp));
  }

  const Distribution lag = Summarize(Values(traced_open.samples));
  Add("driver.op_us_mean", Ratio(op_us, ops), "us", span_n(Span::kOp));
  Add("driver.dispatch_lag_p50_us", lag.p50, "us", lag.n);
  Add("driver.dispatch_lag_p99_us", lag.p99, "us", lag.n);
  Add("driver.late_share",
      Ratio(static_cast<double>(traced_open.late),
            static_cast<double>(traced_open.arrivals)),
      "ratio", traced_open.arrivals);
  Add("driver.search_samples", static_cast<double>(traced.all.n), "count",
      traced.all.n);
  Add("driver.search_tail_us", traced.all.tail, "us", traced.all.n);
  Add("driver.trace_overhead_us", traced.p50 - untraced.p50, "us",
      untraced.all.n);
  Add("unattributed_share", share(unattributed), "ratio", span_n(Span::kOp));

  net::HttpServerStats net_after;
  if (stack_->server != nullptr) net_after = stack_->server->stats();
  const auto net_delta = [&](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  Add("net.requests", net_delta(net_after.requests, net_before.requests),
      "count", span_n(Span::kNetRtt));
  Add("net.errors",
      net_delta(net_after.responses_4xx + net_after.responses_5xx +
                    net_after.parse_errors,
                net_before.responses_4xx + net_before.responses_5xx +
                    net_before.parse_errors),
      "count", span_n(Span::kNetRtt));
  Add("net.connections_accepted",
      net_delta(net_after.connections_accepted,
                net_before.connections_accepted),
      "count", span_n(Span::kNetRtt));
  Add("net.outside_handler_share", share(net_outside), "ratio",
      span_n(Span::kNetRtt));
  Add("net.handler_share", share(net_handler), "ratio",
      span_n(Span::kNetHandler));
  Add("net.rtt_us_mean", Ratio(rtt_us, span_n(Span::kNetRtt)), "us",
      span_n(Span::kNetRtt));
  Add("net.handler_us_mean", Ratio(handler_us, span_n(Span::kNetHandler)),
      "us", span_n(Span::kNetHandler));
  Add("net.outside_handler_us_mean",
      Ratio(net_outside, span_n(Span::kNetRtt)), "us", span_n(Span::kNetRtt));

  Add("service.self_share", share(service_self), "ratio",
      span_n(Span::kServiceSearch));
  Add("service.lock_wait_share",
      share(hist_sum("service.shard_lock_wait_us")), "ratio",
      hist_count("service.shard_lock_wait_us"));
  for (const auto& [name, s] :
       std::array<std::pair<const char*, Span>, 4>{{
           {"service.search_us_mean", Span::kServiceSearch},
           {"service.begin_us_mean", Span::kServiceBegin},
           {"service.end_us_mean", Span::kServiceEnd},
           {"service.event_us_mean", Span::kServiceEvent},
       }}) {
    Add(name, Ratio(span_sum(s), span_n(s)), "us", span_n(s));
  }
  Add("service.self_us_mean", Ratio(service_self, span_n(Span::kServiceSearch)),
      "us", span_n(Span::kServiceSearch));

  Add("adaptive.search_us_mean", Ratio(adaptive_us, searches), "us",
      static_cast<uint64_t>(searches));
  Add("adaptive.searches", searches, "count", static_cast<uint64_t>(searches));
  Add("adaptive.expansion_share",
      Ratio(counter("adaptive.feedback_expansions"), searches),
      "ratio", static_cast<uint64_t>(searches));
  Add("adaptive.events_per_search",
      Ratio(CounterPrefixOf(registry, "adaptive.events."), searches), "count",
      static_cast<uint64_t>(searches));
  Add("adaptive.self_share", share(adaptive_self), "ratio",
      static_cast<uint64_t>(searches));

  Add("retrieval.parse_us_mean", probe.parse_us, "us", probe.queries);
  Add("retrieval.text_us_mean", probe.text_us, "us", probe.queries);
  Add("retrieval.visual_us_mean", probe.visual_us, "us", probe.queries);
  Add("retrieval.fusion_us_mean", probe.fusion_us, "us", probe.queries);
  Add("retrieval.visual_share",
      Ratio(static_cast<double>(probe.with_examples),
            static_cast<double>(probe.queries)),
      "ratio", probe.queries);
  const RetrievalEngine* engine =
      stack_->live != nullptr ? stack_->live->Acquire()->engine.get()
                              : stack_->engine.get();
  Add("retrieval.shards", static_cast<double>(engine->num_shards()), "count",
      1);

  const double index_queries = counter("searcher.queries");
  Add("index.postings_per_query",
      Ratio(counter("searcher.postings_scanned"), index_queries),
      "count", static_cast<uint64_t>(index_queries));
  Add("index.candidates_per_query",
      Ratio(counter("searcher.candidates_scored"), index_queries),
      "count", static_cast<uint64_t>(index_queries));
  Add("index.queries", index_queries, "count",
      static_cast<uint64_t>(index_queries));

  Add("cache.hit_ratio", Ratio(hits, lookups), "ratio",
      static_cast<uint64_t>(lookups));
  Add("cache.lookups", lookups, "count", static_cast<uint64_t>(lookups));
  Add("cache.evictions", counter("cache.evictions"), "count",
      static_cast<uint64_t>(lookups));
  Add("cache.rejected_inserts", counter("cache.rejected_inserts"),
      "count", static_cast<uint64_t>(lookups));
  const double cache_bytes =
      stack_->cache != nullptr
          ? static_cast<double>(stack_->cache->Stats().bytes)
          : 0.0;
  Add("cache.bytes_end", cache_bytes, "bytes", 1);
  Add("cache.self_share", share(cache_us), "ratio",
      static_cast<uint64_t>(lookups));
  for (const char* op : {"lookup", "insert"}) {
    const std::string name = StrFormat("cache.%s_us", op);
    Add(name + "_mean",
        Ratio(hist_sum(name), static_cast<double>(hist_count(name))), "us",
        hist_count(name));
  }

  const auto total_us = [&](const std::vector<Timed>& timed, uint64_t* n) {
    double us = 0.0;
    for (const Timed& t : timed) {
      if (t.start_ns >= writes_start_ns && t.start_ns < writes_end_ns) {
        us += t.us;
        ++*n;
      }
    }
    return us;
  };
  uint64_t publishes = 0, appends = 0;
  double publish_us = 0.0, append_us = 0.0;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    publish_us = total_us(publishes_, &publishes);
    append_us = total_us(appends_, &appends);
  }
  const double window_us =
      static_cast<double>(writes_end_ns - writes_start_ns) / 1e3;
  const IngestStats ingest =
      stack_->live != nullptr ? stack_->live->Stats() : IngestStats();
  Add("ingest.publishes", static_cast<double>(publishes), "count", publishes);
  Add("ingest.publish_failures", static_cast<double>(ingest.publish_failures),
      "count", publishes);
  Add("ingest.publish_duty", Ratio(publish_us, window_us), "ratio", publishes);
  Add("ingest.append_duty", Ratio(append_us, window_us), "ratio", appends);
  Add("ingest.publish_us_mean", Ratio(publish_us, publishes), "us",
      publishes);
  Add("ingest.append_us_mean", Ratio(append_us, appends), "us", appends);
  Add("ingest.segments_end", static_cast<double>(ingest.segments), "count", 1);
  Add("ingest.live_shots_end", static_cast<double>(ingest.live_shots),
      "count", 1);

  SimCounts sim;
  for (const SimCounts& c : sim_) {
    sim.sessions += c.sessions;
    sim.searches += c.searches;
    sim.events += c.events;
    sim.relevant += c.relevant;
  }
  const double sessions = static_cast<double>(sim.sessions);
  Add("sim.searches_per_session",
      Ratio(static_cast<double>(sim.searches), sessions), "count",
      sim.sessions);
  Add("sim.events_per_session",
      Ratio(static_cast<double>(sim.events), sessions), "count", sim.sessions);
  Add("sim.relevant_found_per_session",
      Ratio(static_cast<double>(sim.relevant), sessions), "count",
      sim.sessions);
}

void Bench::Report(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const Metric& m : metrics_) {
    std::printf("%s %s %.6g %s (n=%llu)\n", cfg_.spec->name, m.name.c_str(),
                m.value, m.unit.c_str(), static_cast<unsigned long long>(m.n));
  }
  std::printf("%s correct %s attempted %llu failed %llu\n", cfg_.spec->name,
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::fflush(stdout);
  if (cfg_.out.empty()) return;

#ifdef NDEBUG
  constexpr bool kNdebug = true;
#else
  constexpr bool kNdebug = false;
#endif
#ifdef IVR_OBS_OFF
  constexpr bool kObsOff = true;
#else
  constexpr bool kObsOff = false;
#endif
#if defined(__SANITIZE_ADDRESS__)
  constexpr const char* kSanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  constexpr const char* kSanitizer = "thread";
#else
  constexpr const char* kSanitizer = "none";
#endif
  std::string json = StrFormat(
      "{\"type\": \"ivr.bench\", \"schema_version\": 1, \"workload\": "
      "\"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d,\n"
      " \"rates\": {\"open_loop_per_s\": %s, \"arrival\": \"%s\", "
      "\"actors\": %zu, \"ingest_appends_per_s\": %s, "
      "\"ingest_publishes_per_s\": %s},\n"
      " \"build\": {\"ndebug\": %s, \"obs_off\": %s, \"sanitizer\": \"%s\", "
      "\"hardware_concurrency\": %u},\n"
      " \"correct\": %s, \"attempted\": %llu, \"failed\": %llu,\n"
      " \"metrics\": {",
      cfg_.spec->name, static_cast<unsigned long long>(cfg_.seed),
      JsonNumber(cfg_.seconds).c_str(), cfg_.trace ? 1 : 0,
      JsonNumber(cfg_.rate).c_str(), cfg_.spec->arrival, kActors,
      JsonNumber(kAppendsPerSecond).c_str(),
      JsonNumber(kPublishesPerSecond).c_str(), kNdebug ? "true" : "false",
      kObsOff ? "true" : "false", kSanitizer,
      std::thread::hardware_concurrency(), correct ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    json += StrFormat("%s\n  \"%s\": {\"value\": %s, \"unit\": \"%s\", "
                      "\"n\": %llu}",
                      i == 0 ? "" : ",", m.name.c_str(),
                      JsonNumber(m.value).c_str(), m.unit.c_str(),
                      static_cast<unsigned long long>(m.n));
  }
  json += "}}\n";
  const Status written = WriteFileAtomic(cfg_.out, json);
  if (!written.ok()) {
    std::fprintf(stderr, "bench_ivr: writing %s: %s\n", cfg_.out.c_str(),
                 written.ToString().c_str());
  }
}

Result<Config> ParseConfig(const ArgParser& args) {
  IVR_RETURN_IF_ERROR(args.RejectUnknown({"workload", "seed", "seconds",
                                          "trace", "trace-out", "out",
                                          "work-dir", "rate", "selftest"}));
  Config config;
  const std::string name = args.GetString("workload");
  for (const WorkloadSpec& spec : kSpecs) {
    if (name == spec.name) config.spec = &spec;
  }
  if (config.spec == nullptr) {
    return Status::InvalidArgument(
        "--workload must be session_mix, text_open, http_serve or "
        "ingest_live");
  }
  IVR_ASSIGN_OR_RETURN(const int64_t seed, args.GetInt("seed", -1));
  IVR_ASSIGN_OR_RETURN(config.seconds, args.GetDouble("seconds", 10.0));
  IVR_ASSIGN_OR_RETURN(const int64_t trace, args.GetInt("trace", 0));
  IVR_ASSIGN_OR_RETURN(config.rate,
                       args.GetDouble("rate", config.spec->rate));
  if (seed < 0) return Status::InvalidArgument("--seed must be >= 0");
  if (!(config.seconds >= 1.0 && config.seconds <= 600.0)) {
    return Status::InvalidArgument("--seconds must be in [1, 600]");
  }
  if (trace != 0 && trace != 1) {
    return Status::InvalidArgument("--trace must be 0 or 1");
  }
  if (!(config.rate > 0.0)) {
    return Status::InvalidArgument("--rate must be > 0");
  }
  config.seed = static_cast<uint64_t>(seed);
  config.trace = trace == 1;
  config.work_dir = args.GetString("work-dir");
  config.out = args.GetString("out");
  config.trace_out = args.GetString("trace-out");
  if (config.work_dir.empty()) {
    return Status::InvalidArgument("--work-dir is required");
  }
  return config;
}

}  // namespace
}  // namespace ivr_bench
}  // namespace ivr

int main(int argc, char** argv) {
  using namespace ivr;
  const Result<ArgParser> args = ArgParser::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "bench_ivr: %s\n", args.status().ToString().c_str());
    return 2;
  }
  if (args->Has("selftest")) {
    const bool ok = ivr_bench::RunSelfTest();
    std::printf("selftest %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
  }
  const Result<ivr_bench::Config> config = ivr_bench::ParseConfig(*args);
  if (!config.ok()) {
    std::fprintf(stderr, "bench_ivr: %s\n",
                 config.status().ToString().c_str());
    return 2;
  }
  ivr_bench::Bench bench(*config);
  return bench.Run();
}
