#include "ivr/workload/orchestrator.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "ivr/cache/result_cache.h"
#include "ivr/core/arrivals.h"
#include "ivr/core/fault_injection.h"
#include "ivr/core/rng.h"
#include "ivr/core/string_util.h"
#include "ivr/iface/session_log.h"
#include "ivr/net/http_client.h"
#include "ivr/service/managed_backend.h"
#include "ivr/service/serving_stack.h"
#include "ivr/sim/simulator.h"
#include "ivr/workload/http_backend.h"

namespace ivr {
namespace workload {
namespace {

constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;

int64_t NowSteadyUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t PhaseSeed(uint64_t workload_seed, size_t phase_index) {
  return workload_seed * 1000003ull + phase_index * 8191ull;
}

/// A session's canonical signature: event lines plus every per-query
/// ranking with full score bits.
std::string SessionSignature(const SimulatedSession& session) {
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
  return sig;
}

std::string RankingLine(const ResultList& results) {
  std::string line;
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) line += " ";
    const RankedShot& entry = results.at(i);
    line += StrFormat("%u:%.17g", entry.shot, entry.score);
  }
  return line;
}

/// Latency recording that works in EVERY build flavor: under IVR_OBS_OFF
/// the registry histograms compile Record() to a no-op, but the canary's
/// latency bounds must still be measurable — so the orchestrator keeps
/// its own mutex-guarded buckets, reusing only the (never compiled out)
/// pure bucketing function.
class LocalHistogram {
 public:
  LocalHistogram() {
    snap_.buckets.assign(obs::LatencyHistogram::kNumBuckets, 0);
  }

  void Record(int64_t value) {
    if (value < 0) value = 0;
    std::lock_guard<std::mutex> lock(mu_);
    ++snap_.count;
    snap_.sum += value;
    if (value > snap_.max) snap_.max = value;
    ++snap_.buckets[obs::LatencyHistogram::BucketIndex(value)];
  }

  obs::HistogramSnapshot Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snap_;
  }

 private:
  mutable std::mutex mu_;
  obs::HistogramSnapshot snap_;
};

/// Per-phase shared counters, reset by the driver between phases.
struct PhaseCounters {
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> late{0};
  std::atomic<uint64_t> events{0};
  std::atomic<uint64_t> relevant{0};
  std::atomic<uint64_t> appends{0};
  std::atomic<uint64_t> publishes{0};
};

/// Resolved per-phase constants actors read after the start barrier.
struct PhasePlan {
  std::vector<UserModel> users;    // closed: resolved session mix
  std::vector<double> weights;     // closed: mix weights
  uint64_t closed_base = 0;        // closed: global index of session 0
  std::vector<int64_t> schedule;   // open: Poisson arrival offsets
  std::vector<double> query_weights;  // open: query mix weights
};

}  // namespace

void PhaseBarrier::Arrive() {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t generation = generation_;
  if (++waiting_ == parties_) {
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] { return generation_ != generation; });
}

std::string RunArtifacts::RankingsText() const {
  std::string out;
  for (size_t j = 0; j < sessions.size(); ++j) {
    for (size_t q = 0; q < sessions[j].rankings.size(); ++q) {
      out += StrFormat("s%zu q%zu %s\n", j, q,
                       sessions[j].rankings[q].c_str());
    }
  }
  for (size_t p = 0; p < open_rankings.size(); ++p) {
    for (size_t i = 0; i < open_rankings[p].size(); ++i) {
      out += StrFormat("p%zu o%zu %s\n", p, i,
                       open_rankings[p][i].c_str());
    }
  }
  return out;
}

Status CheckableSpec(const WorkloadSpec& spec) {
  if (spec.service.max_sessions > 0 || spec.service.ttl_ms > 0) {
    return Status::InvalidArgument(
        "--check needs an eviction-free manager: with max_sessions/ttl_ms "
        "the choice of eviction victim depends on thread interleaving");
  }
  if (spec.HasWrites()) {
    return Status::InvalidArgument(
        "--check cannot cover ingest writes: which generation an arrival "
        "is served by depends on append/publish interleaving");
  }
  if (spec.HasFaultPhases()) {
    return Status::InvalidArgument(
        "--check cannot cover fault phases: the injector's per-site "
        "decisions depend on which thread reaches a site first");
  }
  return Status::OK();
}

Orchestrator::Orchestrator(WorkloadSpec spec, OrchestratorConfig config)
    : spec_(std::move(spec)), config_(std::move(config)) {}

Result<RunArtifacts> Orchestrator::Run() {
  const size_t num_phases = spec_.phases.size();
  const bool has_writer = spec_.HasWrites();

  if (spec_.ingest.has_value() && config_.ingest_dir.empty()) {
    return Status::InvalidArgument(
        "this workload has an \"ingest\" block: pass an ingest directory");
  }
  if (spec_.target == TargetKind::kHttp && spec_.http.port <= 0) {
    return Status::InvalidArgument(
        "http target needs a port (spec $.http.port or --port)");
  }

  // --- Engine stack (direct target) or server probe (http target). ----
  std::shared_ptr<ResultCache> cache;
  if (spec_.cache.mb > 0) {
    ResultCacheOptions cache_options;
    cache_options.max_bytes = spec_.cache.mb << 20;
    cache_options.num_shards = spec_.cache.shards;
    cache = std::make_shared<ResultCache>(cache_options);
  }

  std::unique_ptr<ServingStack> stack;
  LiveEngine* live = nullptr;
  GeneratedCollection stream;
  /// Pins one complete materialized generation for the whole run when
  /// the collection was moved into a LiveEngine (GeneratedCollection is
  /// move-only); the simulator's collection/qrels/topics references
  /// point into it.
  GeneratedCollection exported;

  if (spec_.target == TargetKind::kDirect) {
    IngestOptions options;
    options.cache = cache;
    if (spec_.ingest.has_value()) {
      options.dir = config_.ingest_dir;
      options.merge_after_segments = spec_.ingest->merge_after;
      options.background_merge = spec_.ingest->background_merge;
    }
    SessionManagerOptions manager_options;
    manager_options.num_shards = spec_.service.shards;
    manager_options.max_sessions = spec_.service.max_sessions;
    manager_options.idle_ttl_ms = spec_.service.ttl_ms;
    IVR_ASSIGN_OR_RETURN(
        stack, ServingStack::Open(std::move(config_.collection),
                                  std::move(options), manager_options));
    live = stack->live();
    if (live != nullptr) {
      exported = live->ExportCollection();
      GeneratorOptions stream_options;
      stream_options.seed = spec_.ingest->stream_seed;
      stream_options.num_videos = spec_.ingest->stream_videos;
      stream_options.num_topics = spec_.ingest->stream_topics;
      IVR_ASSIGN_OR_RETURN(stream, GenerateCollection(stream_options));
    }
  } else {
    net::HttpClient probe;
    IVR_RETURN_IF_ERROR(probe.Connect(spec_.http.host, spec_.http.port));
    IVR_ASSIGN_OR_RETURN(const net::HttpClientResponse health,
                         probe.Get("/healthz"));
    if (health.status != 200) {
      return Status::Internal(StrFormat(
          "server %s:%d /healthz -> %d", spec_.http.host.c_str(),
          spec_.http.port, health.status));
    }
  }

  const GeneratedCollection& base = live != nullptr    ? exported
                                    : stack != nullptr ? stack->collection()
                                                       : config_.collection;
  const SessionSimulator simulator(base.collection, base.qrels);
  const std::vector<SearchTopic>& topics = base.topics.topics;
  if (topics.empty()) {
    return Status::InvalidArgument("the collection has no topics");
  }

  // --- Phase plans (resolved once; actors only read them). -------------
  std::vector<PhasePlan> plans(num_phases);
  uint64_t total_closed = 0;
  for (size_t p = 0; p < num_phases; ++p) {
    const PhaseSpec& phase = spec_.phases[p];
    if (phase.mode == PhaseMode::kClosed) {
      plans[p].closed_base = total_closed;
      total_closed += phase.sessions;
      for (const SessionMixEntry& entry : phase.session_mix) {
        IVR_ASSIGN_OR_RETURN(UserModel user, UserModelByName(entry.user));
        plans[p].users.push_back(std::move(user));
        plans[p].weights.push_back(entry.weight);
      }
    } else {
      plans[p].schedule = PoissonScheduleUs(
          phase.rate, phase.duration_ms * 1000,
          PhaseSeed(spec_.seed, p));
      for (const QueryMixEntry& entry : phase.query_mix) {
        plans[p].query_weights.push_back(entry.weight);
      }
    }
  }

  // Vet every fault spec BEFORE the threads launch: a Configure failure
  // mid-run would strand the actors at a barrier.
  const bool manage_faults = spec_.HasFaultPhases();
  if (manage_faults) {
    for (const PhaseSpec& phase : spec_.phases) {
      if (phase.fault_spec.empty()) continue;
      IVR_RETURN_IF_ERROR(FaultInjector::Global().Configure(
          phase.fault_spec, phase.fault_seed));
    }
    FaultInjector::Global().Disable();
  }

  RunArtifacts artifacts;
  artifacts.report.workload = spec_.name;
  artifacts.report.seed = spec_.seed;
  artifacts.report.target = spec_.target;
  artifacts.sessions.resize(total_closed);
  artifacts.open_rankings.resize(num_phases);
  for (size_t p = 0; p < num_phases; ++p) {
    artifacts.open_rankings[p].assign(plans[p].schedule.size(), "");
  }

  // --- Shared run state. ----------------------------------------------
  size_t num_actors = 1;
  if (!config_.sequential) {
    for (const PhaseSpec& phase : spec_.phases) {
      if (phase.actors > num_actors) num_actors = phase.actors;
    }
  }
  PhaseBarrier barrier(num_actors + (has_writer ? 1 : 0) + 1);
  std::unique_ptr<PhaseCounters[]> counters(new PhaseCounters[num_phases]);
  std::vector<LocalHistogram> latency(num_phases);
  std::vector<LocalHistogram> publish_latency(num_phases);
  std::atomic<size_t> next_job{0};
  std::atomic<int64_t> active_readers{0};
  OpenLoopPacer pacer;
  std::mutex artifacts_mu;  // guards artifacts.sessions / open_rankings

  const auto record_session =
      [&](uint64_t global_index, const SimulatedSession& session) {
        SessionArtifact artifact;
        artifact.signature = SessionSignature(session);
        for (const ResultList& results :
             session.outcome.per_query_results) {
          artifact.rankings.push_back(RankingLine(results));
        }
        std::lock_guard<std::mutex> lock(artifacts_mu);
        artifacts.sessions[global_index] = std::move(artifact);
      };

  const auto closed_work = [&](size_t p, net::HttpClient* client) {
    const PhaseSpec& phase = spec_.phases[p];
    const PhasePlan& plan = plans[p];
    const TimeMs think = config_.sequential ? 0 : phase.think_ms;
    for (size_t j = next_job++; j < phase.sessions; j = next_job++) {
      const uint64_t global = plan.closed_base + j;
      // The mix draw depends only on the global session number, never on
      // which actor picked the job — determinism across interleavings.
      Rng mix_rng(spec_.seed ^ (kGolden * (global + 1)));
      const size_t pick = mix_rng.Categorical(plan.weights);
      const UserModel& user = plan.users[pick];

      SessionSimulator::RunConfig run_config;
      run_config.environment = phase.env;
      run_config.seed = spec_.seed + global * 131;
      run_config.session_id =
          StrFormat("serve-s%llu", static_cast<unsigned long long>(global));
      run_config.user_id =
          user.name + std::to_string(static_cast<size_t>(global % 4));

      const int64_t t0 = NowSteadyUs();
      Result<SimulatedSession> session = [&]() -> Result<SimulatedSession> {
        if (spec_.target == TargetKind::kDirect) {
          ManagedSessionBackend backend(&stack->manager(),
                                        run_config.session_id,
                                        run_config.user_id, think);
          Result<SimulatedSession> run =
              simulator.Run(&backend, topics[global % topics.size()], user,
                            run_config, nullptr);
          (void)backend.EndSession();
          return run;
        }
        HttpSessionBackend backend(client, run_config.session_id,
                                   run_config.user_id, think);
        Result<SimulatedSession> run =
            simulator.Run(&backend, topics[global % topics.size()], user,
                          run_config, nullptr);
        (void)backend.EndSession();
        if (run.ok() && !backend.first_error().ok()) {
          return backend.first_error();
        }
        return run;
      }();
      latency[p].Record(NowSteadyUs() - t0);

      if (session.ok()) {
        counters[p].ops.fetch_add(1, std::memory_order_relaxed);
        counters[p].events.fetch_add(session->events.size(),
                                     std::memory_order_relaxed);
        counters[p].relevant.fetch_add(
            session->outcome.truly_relevant_found,
            std::memory_order_relaxed);
        record_session(global, *session);
      } else {
        counters[p].failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  const auto open_work = [&](size_t p, net::HttpClient* client) {
    const PhaseSpec& phase = spec_.phases[p];
    const PhasePlan& plan = plans[p];
    const uint64_t phase_seed = PhaseSeed(spec_.seed, p);
    for (size_t i = next_job++; i < plan.schedule.size(); i = next_job++) {
      if (!config_.sequential) {
        const int64_t late = pacer.WaitUntil(plan.schedule[i]);
        if (late > 0) {
          counters[p].late.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Query choice is a pure function of (phase seed, arrival index):
      // identical regardless of the arrival-to-actor assignment.
      Query query;
      if (plan.query_weights.empty()) {
        query.text = topics[i % topics.size()].title;
      } else {
        Rng query_rng(phase_seed + kGolden * (i + 1));
        query.text =
            phase.query_mix[query_rng.Categorical(plan.query_weights)].text;
      }
      const std::string session_id = StrFormat(
          "op-p%zu-%llu", p, static_cast<unsigned long long>(i));

      const int64_t t0 = NowSteadyUs();
      if (config_.canary_delay_us > 0) {
        // The injected slowdown lands inside the measured window — the
        // hook the canary test uses to prove its bounds can trip.
        std::this_thread::sleep_for(
            std::chrono::microseconds(config_.canary_delay_us));
      }
      bool ok = true;
      std::string line;
      if (spec_.target == TargetKind::kDirect) {
        SessionManager& manager = stack->manager();
        const Status begun = manager.BeginSession(session_id, "openloop");
        Result<ResultList> results =
            manager.Search(session_id, query, phase.k);
        (void)manager.EndSession(session_id);
        ok = begun.ok() && results.ok();
        if (ok) line = RankingLine(*results);
      } else {
        HttpSessionBackend backend(client, session_id, "openloop", 0);
        backend.BeginSession();
        const ResultList results = backend.Search(query, phase.k);
        (void)backend.EndSession();
        ok = backend.first_error().ok();
        if (ok) line = RankingLine(results);
      }
      latency[p].Record(NowSteadyUs() - t0);

      if (ok) {
        counters[p].ops.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(artifacts_mu);
        artifacts.open_rankings[p][i] = std::move(line);
      } else {
        counters[p].failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  // First actor-thread setup error (e.g. HTTP connect); checked at end.
  std::mutex setup_error_mu;
  Status setup_error;

  const auto actor_main = [&](size_t actor) {
    net::HttpClient client;
    bool connected = false;
    if (spec_.target == TargetKind::kHttp) {
      const Status status =
          client.Connect(spec_.http.host, spec_.http.port);
      connected = status.ok();
      if (!connected) {
        std::lock_guard<std::mutex> lock(setup_error_mu);
        if (setup_error.ok()) setup_error = status;
      }
    }
    for (size_t p = 0; p < num_phases; ++p) {
      barrier.Arrive();  // phase start
      if (config_.phase_observer) config_.phase_observer(p, actor, true);
      const bool working = actor < spec_.phases[p].actors ||
                           (config_.sequential && actor == 0);
      if (working) {
        if (spec_.target != TargetKind::kHttp || connected) {
          if (spec_.phases[p].mode == PhaseMode::kClosed) {
            closed_work(p, &client);
          } else {
            open_work(p, &client);
          }
        }
        active_readers.fetch_sub(1, std::memory_order_acq_rel);
      }
      if (config_.phase_observer) config_.phase_observer(p, actor, false);
      barrier.Arrive();  // phase end
    }
  };

  const auto writer_main = [&] {
    uint64_t appended_total = 0;
    for (size_t p = 0; p < num_phases; ++p) {
      barrier.Arrive();  // phase start
      const PhaseSpec& phase = spec_.phases[p];
      if (phase.writes.has_value() && live != nullptr) {
        const WritesSpec& writes = *phase.writes;
        const int64_t interval_us =
            static_cast<int64_t>(1e6 / writes.rate);
        // publish_rate > 0: publishes fire on their own deadline clock,
        // decoupled from how many appends landed in between (the shape
        // that measures publish latency at a fixed cadence).
        const int64_t publish_interval_us =
            writes.publish_rate > 0.0
                ? static_cast<int64_t>(1e6 / writes.publish_rate)
                : 0;
        const int64_t origin = NowSteadyUs();
        int64_t deadline = origin + interval_us;
        int64_t publish_deadline = origin + publish_interval_us;
        size_t since_publish = 0;
        const auto timed_publish = [&] {
          const int64_t t0 = NowSteadyUs();
          if (config_.canary_delay_us > 0) {
            // Same canary hook as the read path: the injected slowdown
            // lands inside the measured publish window.
            std::this_thread::sleep_for(
                std::chrono::microseconds(config_.canary_delay_us));
          }
          const bool ok = live->Publish().ok();
          publish_latency[p].Record(NowSteadyUs() - t0);
          if (ok) {
            counters[p].publishes.fetch_add(1, std::memory_order_relaxed);
          } else {
            counters[p].failures.fetch_add(1, std::memory_order_relaxed);
          }
          since_publish = 0;
        };
        while (active_readers.load(std::memory_order_acquire) > 0) {
          const int64_t now = NowSteadyUs();
          if (publish_interval_us > 0 && now >= publish_deadline) {
            if (since_publish > 0) timed_publish();
            publish_deadline += publish_interval_us;
            continue;
          }
          if (now < deadline) {
            int64_t nap = deadline - now;
            if (publish_interval_us > 0 && publish_deadline - now < nap) {
              nap = publish_deadline - now;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(
                nap < 50000 ? (nap > 0 ? nap : 1) : 50000));
            continue;
          }
          const VideoId id = static_cast<VideoId>(
              appended_total % stream.collection.num_videos());
          ++appended_total;
          if (live->AppendVideoFrom(stream.collection, id).ok()) {
            counters[p].appends.fetch_add(1, std::memory_order_relaxed);
            ++since_publish;
          } else {
            counters[p].failures.fetch_add(1, std::memory_order_relaxed);
          }
          if (writes.publish_every > 0 &&
              since_publish >= writes.publish_every) {
            timed_publish();
          }
          deadline += interval_us;
        }
        if (since_publish > 0) timed_publish();
      }
      barrier.Arrive();  // phase end
    }
  };

  // --- Drive the phases. ----------------------------------------------
  std::vector<std::thread> pool;
  pool.reserve(num_actors + (has_writer ? 1 : 0));
  for (size_t a = 0; a < num_actors; ++a) {
    pool.emplace_back(actor_main, a);
  }
  if (has_writer) pool.emplace_back(writer_main);

  for (size_t p = 0; p < num_phases; ++p) {
    const PhaseSpec& phase = spec_.phases[p];
    if (manage_faults) {
      if (!phase.fault_spec.empty()) {
        // Pre-vetted above; a failure here would strand the barriers.
        (void)FaultInjector::Global().Configure(phase.fault_spec,
                                                phase.fault_seed);
      } else {
        FaultInjector::Global().Disable();
      }
    }
    next_job.store(0, std::memory_order_relaxed);
    const size_t working = config_.sequential
                               ? 1
                               : (phase.actors < num_actors ? phase.actors
                                                            : num_actors);
    active_readers.store(static_cast<int64_t>(working),
                         std::memory_order_release);
    if (phase.mode == PhaseMode::kOpen && !config_.sequential) {
      pacer.Start();
    }
    const obs::RegistrySnapshot before =
        obs::Registry::Global().TakeSnapshot();

    barrier.Arrive();  // release the actors into the phase
    const int64_t t0 = NowSteadyUs();
    barrier.Arrive();  // every actor is done
    const double duration_s = (NowSteadyUs() - t0) / 1e6;

    const obs::RegistrySnapshot after =
        obs::Registry::Global().TakeSnapshot();

    PhaseResult result;
    result.name = phase.name;
    result.mode = phase.mode;
    result.actors = config_.sequential ? 1 : phase.actors;
    result.planned_ops = phase.mode == PhaseMode::kClosed
                             ? phase.sessions
                             : plans[p].schedule.size();
    result.ops = counters[p].ops.load();
    result.failures = counters[p].failures.load();
    result.late_arrivals = counters[p].late.load();
    result.duration_s = duration_s;
    result.offered_rate = phase.mode == PhaseMode::kOpen ? phase.rate : 0.0;
    result.achieved_rate =
        duration_s > 0.0 ? static_cast<double>(result.ops) / duration_s
                         : 0.0;
    result.appends = counters[p].appends.load();
    result.publishes = counters[p].publishes.load();
    result.events = counters[p].events.load();
    result.relevant_found = counters[p].relevant.load();
    result.latency = latency[p].Snapshot();
    result.publish_latency = publish_latency[p].Snapshot();
    result.stats = DiffSnapshots(before, after);
    artifacts.report.phases.push_back(std::move(result));
  }
  if (manage_faults) FaultInjector::Global().Disable();

  for (std::thread& t : pool) t.join();

  if (!setup_error.ok()) return setup_error;
  return artifacts;
}

}  // namespace workload
}  // namespace ivr
