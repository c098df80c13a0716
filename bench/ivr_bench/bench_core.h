#ifndef IVR_BENCH_IVR_BENCH_BENCH_CORE_H_
#define IVR_BENCH_IVR_BENCH_BENCH_CORE_H_

// Measurement core of bench_ivr, independent of any workload:
//  - due-time latency samples with exact nearest-rank percentiles;
//  - the open-loop and closed-loop drivers;
//  - bench-side layer spans (exact in-memory sums and percentiles);
//  - the ranking ledger behind the bit-identity correctness gates;
//  - the selftest proving that a stall shows up in every op queued
//    behind it, that a failed op reads as +inf, and that a ranking that
//    differs in one bit is caught.

#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ivr/core/arrivals.h"
#include "ivr/obs/trace.h"
#include "ivr/retrieval/result_list.h"

namespace ivr {
namespace ivr_bench {

constexpr double kInf = std::numeric_limits<double>::infinity();

inline int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Decorrelated 64-bit stream key for (seed, salt, index): every input the
/// bench draws is a pure function of such a key.
inline uint64_t MixKey(uint64_t seed, uint64_t salt, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xD1B54A32D192ED03ull +
               index + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Latency samples and percentiles.

/// Exact nearest-rank percentile of an ascending sample: the
/// ceil(permille * n / 1000)-th smallest value (p50 of 7 values is the 4th).
/// Integer rank arithmetic, so no floating-point rounding moves a rank.
inline double NearestRank(const std::vector<double>& sorted,
                          uint64_t permille) {
  if (sorted.empty()) return 0.0;
  const uint64_t n = sorted.size();
  uint64_t rank = (permille * n + 999) / 1000;
  rank = std::clamp<uint64_t>(rank, 1, n);
  return sorted[rank - 1];
}

/// Everything the bench reports about one sample set.
struct Distribution {
  size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  /// The highest percentile with at least ten samples beyond it: the
  /// (n-10)-th smallest value; 0 when n <= 10.
  double tail = 0.0;
};

inline Distribution Summarize(std::vector<double> values) {
  Distribution d;
  std::sort(values.begin(), values.end());
  d.n = values.size();
  if (d.n == 0) return d;
  d.p50 = NearestRank(values, 500);
  d.p90 = NearestRank(values, 900);
  d.p99 = NearestRank(values, 990);
  if (d.n > 10) d.tail = values[d.n - 11];
  return d;
}

/// A sample tagged with the instant it belongs to (when it was due).
struct Sample {
  int64_t at_ns = 0;
  double value = 0.0;
};

/// Per-actor sample lists: each actor appends only to its own slot, the
/// driver merges after joining the actors. Deques grow in fixed chunks, so
/// the bench's own memory (part of peak_rss_mb) tracks the sample count
/// instead of jumping at each vector doubling.
class SampleSet {
 public:
  explicit SampleSet(size_t actors) : slots_(actors) {}

  void Add(size_t actor, int64_t at_ns, double value) {
    slots_[actor].push_back(Sample{at_ns, value});
  }

  std::vector<Sample> Merged() const {
    std::vector<Sample> all;
    for (const std::deque<Sample>& slot : slots_) {
      all.insert(all.end(), slot.begin(), slot.end());
    }
    return all;
  }

 private:
  std::vector<std::deque<Sample>> slots_;
};

inline std::vector<double> Values(const std::vector<Sample>& samples) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Sample& s : samples) values.push_back(s.value);
  return values;
}

/// Splits [start_ns, start_ns + seconds) into `slices` equal slices
/// (samples outside clamp to the first or last), takes each slice's exact
/// nearest-rank percentile and returns the median over slices. A stall
/// confined to a minority of slices, which on a shared machine is usually
/// another tenant, then cannot move the result; a slowdown in most slices
/// does.
inline double MedianSlicePercentile(const std::vector<Sample>& samples,
                                    int64_t start_ns, double seconds,
                                    size_t slices, uint64_t permille) {
  std::vector<std::vector<double>> bins(std::max<size_t>(slices, 1));
  const double slice_ns = seconds * 1e9 / static_cast<double>(bins.size());
  for (const Sample& s : samples) {
    const double offset = static_cast<double>(s.at_ns - start_ns) / slice_ns;
    const size_t bin = static_cast<size_t>(
        std::clamp(offset, 0.0, static_cast<double>(bins.size() - 1)));
    bins[bin].push_back(s.value);
  }
  std::vector<double> per_slice;
  for (std::vector<double>& bin : bins) {
    std::sort(bin.begin(), bin.end());
    per_slice.push_back(NearestRank(bin, permille));
  }
  std::sort(per_slice.begin(), per_slice.end());
  return NearestRank(per_slice, 500);
}

// ---------------------------------------------------------------------------
// Open and closed loops.

/// One arrival: performs the operation and records whatever latency samples
/// it produces (timed from `due_ns`, the instant the arrival was due).
/// Returns false when the operation failed.
using ArrivalFn =
    std::function<bool(size_t actor, uint64_t index, int64_t due_ns)>;

struct LoopStats {
  uint64_t arrivals = 0;
  uint64_t failed = 0;
  /// Arrivals dispatched more than 1 ms after they were due.
  uint64_t late = 0;
  double seconds = 0.0;
  /// When the loop started (the open loop's schedule origin).
  int64_t start_ns = 0;
  /// Open loop: dispatch lag (dispatch instant - due instant) per arrival,
  /// in us.
  std::vector<Sample> samples;
  /// Closed loop: arrivals completed in each equal slice of the loop.
  /// Counters, not samples, so the bench's memory (part of peak_rss_mb)
  /// does not grow with throughput.
  std::vector<uint64_t> completed_per_slice;
};

constexpr int64_t kLateNs = 1000000;

/// Lets actor threads sleep to microsecond precision: the default 50 us
/// timer slack would otherwise show up as dispatch lag on every arrival.
inline void TightenTimerSlack() { (void)prctl(PR_SET_TIMERSLACK, 1UL); }

/// The last stretch of every pacer sleep is spun (yielding) rather than
/// slept: a timer wake-up on a virtual machine lands tens of microseconds
/// late, by an amount that follows the host's load, and the open loop
/// would charge that lag to the program as due-time latency.
constexpr int64_t kSpinUs = 100;

/// SleepFn for the real OpenLoopPacer: returns at now + `us`.
inline void PaceSleepUs(int64_t us) {
  const int64_t deadline = SteadyNs() + us * 1000;
  if (us > kSpinUs) {
    std::this_thread::sleep_for(std::chrono::microseconds(us - kSpinUs));
  }
  while (SteadyNs() < deadline) std::this_thread::yield();
}

/// Open loop: arrival i is due at origin + schedule_us[i] whether or not
/// earlier arrivals finished. Each of `actors` threads takes the next
/// arrival, waits for its due instant (never past it: a late arrival is
/// dispatched at once) and runs it, so an arrival that queues behind a slow
/// one is charged the wait. `now_ns` must tick in the same clock as the
/// pacer's NowFn (pacer microseconds = now_ns / 1000); tests inject both.
inline LoopStats RunOpenLoop(const std::vector<int64_t>& schedule_us,
                             uint64_t first_index, size_t actors,
                             OpenLoopPacer* pacer,
                             const std::function<int64_t()>& now_ns,
                             const ArrivalFn& arrival) {
  LoopStats stats;
  std::atomic<size_t> next{0};
  SampleSet lag(actors);
  std::vector<uint64_t> failed(actors, 0);
  std::vector<uint64_t> late(actors, 0);
  const auto actor_main = [&](size_t actor) {
    TightenTimerSlack();
    for (size_t i = next++; i < schedule_us.size(); i = next++) {
      (void)pacer->WaitUntil(schedule_us[i]);
      const int64_t due_ns = (pacer->origin_us() + schedule_us[i]) * 1000;
      const int64_t lag_ns = std::max<int64_t>(0, now_ns() - due_ns);
      lag.Add(actor, due_ns, static_cast<double>(lag_ns) / 1e3);
      if (lag_ns > kLateNs) ++late[actor];
      if (!arrival(actor, first_index + i, due_ns)) ++failed[actor];
    }
  };
  const int64_t start = now_ns();
  pacer->Start();
  stats.start_ns = pacer->origin_us() * 1000;
  std::vector<std::thread> threads;
  for (size_t a = 0; a < actors; ++a) threads.emplace_back(actor_main, a);
  for (std::thread& t : threads) t.join();
  stats.seconds = static_cast<double>(now_ns() - start) / 1e9;
  stats.arrivals = schedule_us.size();
  for (size_t a = 0; a < actors; ++a) {
    stats.failed += failed[a];
    stats.late += late[a];
  }
  stats.samples = lag.Merged();
  return stats;
}

/// Closed loop: `actors` threads issue arrivals back to back, no think
/// time, until `seconds` have passed. Each arrival is due when issued.
/// Completions are counted per slice of `seconds` / `slices`; one that
/// ends past the deadline counts in the last slice.
inline LoopStats RunClosedLoop(double seconds, size_t slices,
                               uint64_t first_index, size_t actors,
                               const ArrivalFn& arrival) {
  LoopStats stats;
  std::atomic<uint64_t> next{0};
  std::mutex mu;
  stats.completed_per_slice.assign(slices, 0);
  stats.start_ns = SteadyNs();
  const int64_t deadline =
      stats.start_ns + static_cast<int64_t>(seconds * 1e9);
  const double slice_ns = seconds * 1e9 / static_cast<double>(slices);
  const auto actor_main = [&](size_t actor) {
    std::vector<uint64_t> completed(slices, 0);
    uint64_t failed = 0;
    while (SteadyNs() < deadline) {
      const uint64_t i = next++;
      if (arrival(actor, first_index + i, SteadyNs())) {
        const double slice =
            static_cast<double>(SteadyNs() - stats.start_ns) / slice_ns;
        ++completed[std::min(slices - 1, static_cast<size_t>(slice))];
      } else {
        ++failed;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    for (size_t s = 0; s < slices; ++s) {
      stats.completed_per_slice[s] += completed[s];
    }
    stats.failed += failed;
  };
  std::vector<std::thread> threads;
  for (size_t a = 0; a < actors; ++a) threads.emplace_back(actor_main, a);
  for (std::thread& t : threads) t.join();
  stats.seconds = static_cast<double>(SteadyNs() - stats.start_ns) / 1e9;
  stats.arrivals = next.load();
  return stats;
}

// ---------------------------------------------------------------------------
// Bench-side spans around calls into a layer's public functions.

enum class Span : size_t {
  kOp,  ///< one arrival, dispatch to completion
  kServiceBegin,
  kServiceSearch,
  kServiceEnd,
  kServiceEvent,
  kNetRtt,
  kNetHandler,
  kIngestAppend,
  kIngestPublish,
  kCount,
};

/// Trace names of the bench spans (string literals: obs::ScopedSpan keeps
/// the pointer).
inline const char* SpanName(Span span) {
  static constexpr std::array<const char*, static_cast<size_t>(Span::kCount)>
      kNames = {"bench.op",           "bench.service.begin_session",
                "bench.service.search", "bench.service.end_session",
                "bench.service.event", "bench.net.rtt",
                "bench.net.handler",  "bench.ingest.append",
                "bench.ingest.publish"};
  return kNames[static_cast<size_t>(span)];
}

/// Exact per-span samples, kept per recording thread (actors, HTTP
/// workers, the ingest writer) and merged on demand. Recording is off
/// unless Enable()d, so untraced runs pay one relaxed load per span.
class SpanTable {
 public:
  static SpanTable& Global() {
    static SpanTable table;
    return table;
  }

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Add(Span span, int64_t ns) {
    thread_local PerThread* mine = nullptr;
    if (mine == nullptr) mine = Register();
    std::lock_guard<std::mutex> lock(mine->mu);
    mine->samples_us[static_cast<size_t>(span)].push_back(
        static_cast<double>(ns) / 1e3);
  }

  std::vector<double> Samples(Span span) const {
    std::vector<double> all;
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<PerThread>& t : threads_) {
      std::lock_guard<std::mutex> inner(t->mu);
      const std::vector<double>& s = t->samples_us[static_cast<size_t>(span)];
      all.insert(all.end(), s.begin(), s.end());
    }
    return all;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<PerThread>& t : threads_) {
      std::lock_guard<std::mutex> inner(t->mu);
      for (std::vector<double>& s : t->samples_us) s.clear();
    }
  }

 private:
  struct PerThread {
    std::mutex mu;  // uncontended except against Samples()/Clear()
    std::array<std::vector<double>, static_cast<size_t>(Span::kCount)>
        samples_us;
  };

  PerThread* Register() {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<PerThread>());
    return threads_.back().get();
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards threads_
  std::vector<std::unique_ptr<PerThread>> threads_;
};

/// Times one call into a layer when tracing is on, and opens an
/// obs::ScopedSpan of the same name so the program's own spans on this
/// thread (adaptive.search, service.begin_session, ...) nest under it.
class BenchSpan {
 public:
  explicit BenchSpan(Span span) : span_(span) {
    if (!SpanTable::Global().enabled()) return;
    trace_.emplace(SpanName(span));
    start_ns_ = SteadyNs();
  }
  ~BenchSpan() {
    if (trace_.has_value()) {
      SpanTable::Global().Add(span_, SteadyNs() - start_ns_);
    }
  }

  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  Span span_;
  int64_t start_ns_ = 0;
  std::optional<obs::ScopedSpan> trace_;
};

// ---------------------------------------------------------------------------
// Correctness: rankings compared bit for bit.

/// Appends one ranking entry as raw bytes: shot id, then score bits.
inline void AppendEntry(std::string* bytes, ShotId shot, double score) {
  bytes->append(reinterpret_cast<const char*>(&shot), sizeof shot);
  bytes->append(reinterpret_cast<const char*>(&score), sizeof score);
}

/// A ranking as raw bytes. Two rankings are equal exactly when these
/// strings are.
inline std::string RankingBytes(const ResultList& results) {
  std::string bytes;
  for (const RankedShot& entry : results.items()) {
    AppendEntry(&bytes, entry.shot, entry.score);
  }
  return bytes;
}

/// Every served observation of a keyed operation (a query), grouped per
/// actor and deduplicated with counts, so the gate computes one reference
/// per distinct key and still counts every mismatched op.
class RankingLedger {
 public:
  explicit RankingLedger(size_t actors) : per_actor_(actors) {}

  /// Sizes every actor's table for `keys` distinct keys up front, so its
  /// memory does not step with the number of keys the run happened to see.
  void Reserve(size_t keys) {
    for (auto& actor : per_actor_) actor.reserve(keys);
  }

  void Observe(size_t actor, uint32_t key, std::string observation) {
    std::vector<Seen>& seen = per_actor_[actor][key];
    for (Seen& s : seen) {
      if (s.observation == observation) {
        ++s.count;
        return;
      }
    }
    seen.push_back(Seen{std::move(observation), 1});
  }

  /// Ops whose observation, mapped through `canonical`, differs from
  /// `reference(key)`. `reference` runs once per distinct key.
  uint64_t CountMismatches(
      const std::function<std::string(uint32_t)>& reference,
      const std::function<std::string(const std::string&)>& canonical) const {
    std::unordered_map<uint32_t, std::string> refs;
    uint64_t mismatches = 0;
    for (const auto& actor : per_actor_) {
      for (const auto& [key, seen] : actor) {
        auto it = refs.find(key);
        if (it == refs.end()) it = refs.emplace(key, reference(key)).first;
        for (const Seen& s : seen) {
          if (canonical(s.observation) != it->second) mismatches += s.count;
        }
      }
    }
    return mismatches;
  }

  uint64_t distinct_keys() const {
    std::unordered_map<uint32_t, bool> keys;
    for (const auto& actor : per_actor_) {
      for (const auto& entry : actor) keys[entry.first] = true;
    }
    return keys.size();
  }

 private:
  struct Seen {
    std::string observation;
    uint64_t count = 0;
  };
  std::vector<std::unordered_map<uint32_t, std::vector<Seen>>> per_actor_;
};

// ---------------------------------------------------------------------------
// Selftest: runs before every measurement; a failure aborts the run.

inline bool SelfTestCheck(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "selftest FAILED: %s\n", what);
  return ok;
}

/// Drives the real RunOpenLoop under a fake clock: ten arrivals due every
/// 100 us, each taking 50 us, except arrival 3 which stalls for 10 ms and
/// arrival 6 which fails. The stall must be charged to every arrival due
/// before it ended, the failure must read as +inf, and the nearest-rank
/// and ranking-equality helpers must behave exactly.
inline bool RunSelfTest() {
  bool ok = true;

  const std::vector<double> seven = {7, 1, 6, 2, 5, 3, 4};
  const Distribution d7 = Summarize(seven);
  ok &= SelfTestCheck(d7.p50 == 4.0, "p50 of 7 samples is the 4th smallest");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const Distribution d100 = Summarize(hundred);
  ok &= SelfTestCheck(d100.p99 == 99.0, "p99 of 1..100 is 99");
  ok &= SelfTestCheck(d100.tail == 90.0, "tail of 100 samples is rank 90");

  int64_t fake_us = 1000;  // single-threaded below: one actor
  OpenLoopPacer pacer([&] { return fake_us; },
                      [&](int64_t us) { fake_us += us; });
  std::vector<int64_t> schedule;
  for (int64_t i = 0; i < 10; ++i) schedule.push_back(i * 100);
  std::vector<double> latency(schedule.size(), 0.0);
  const auto arrival = [&](size_t, uint64_t index, int64_t due_ns) {
    fake_us += index == 3 ? 10000 : 50;
    const bool succeeded = index != 6;
    latency[index] = succeeded
                         ? static_cast<double>(fake_us * 1000 - due_ns) / 1e3
                         : kInf;
    return succeeded;
  };
  const LoopStats stats = RunOpenLoop(
      schedule, 0, 1, &pacer, [&] { return fake_us * 1000; }, arrival);
  ok &= SelfTestCheck(latency[0] == 50.0 && latency[2] == 50.0,
                      "an unobstructed arrival costs only its own work");
  ok &= SelfTestCheck(latency[3] == 10000.0, "the stalled arrival reads 10 ms");
  bool queued = true;
  const int64_t stall_end_us = 1000 + 300 + 10000;
  for (size_t k = 4; k < schedule.size(); ++k) {
    const double due_us = 1000.0 + static_cast<double>(schedule[k]);
    if (k != 6 && latency[k] < static_cast<double>(stall_end_us) - due_us) {
      queued = false;
    }
  }
  ok &= SelfTestCheck(queued,
                      "the stall is charged to every arrival queued behind it");
  ok &= SelfTestCheck(stats.failed == 1 && std::isinf(latency[6]),
                      "a failed arrival reads as +inf");
  ok &= SelfTestCheck(stats.late == 6, "six arrivals dispatched >1 ms late");
  ok &= SelfTestCheck(std::isinf(Summarize(latency).p99),
                      "the failed arrival ranks above every finite latency");

  ResultList truth(std::vector<RankedShot>{{3, 0.75}, {9, 0.5}});
  ResultList perturbed = truth;
  std::vector<RankedShot> items = perturbed.items();
  uint64_t bits = 0;
  std::memcpy(&bits, &items[1].score, sizeof bits);
  bits ^= 1;  // one ulp: invisible at %.6g, caught bit for bit
  std::memcpy(&items[1].score, &bits, sizeof bits);
  perturbed = ResultList(items);
  RankingLedger ledger(1);
  ledger.Observe(0, 7, RankingBytes(truth));
  ledger.Observe(0, 7, RankingBytes(truth));
  ledger.Observe(0, 7, RankingBytes(perturbed));
  const uint64_t mismatches = ledger.CountMismatches(
      [&](uint32_t) { return RankingBytes(truth); },
      [](const std::string& s) { return s; });
  ok &= SelfTestCheck(mismatches == 1,
                      "an injected one-bit ranking mismatch is caught once");
  return ok;
}

}  // namespace ivr_bench
}  // namespace ivr

#endif  // IVR_BENCH_IVR_BENCH_BENCH_CORE_H_
