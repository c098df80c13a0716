// ivr_workload — run a declarative workload file (see src/ivr/workload)
// through the phase orchestrator: closed-loop simulated-user sessions and
// open-loop Poisson arrivals, against an in-process SessionManager or a
// running ivr_httpd, with a per-phase report and optional canary bounds.
//
//   ivr_workload --workload w.json [--collection c.ivr] [--seed N]
//                [--host H] [--port P] [--ingest-dir DIR]
//                [--report out.json] [--bounds bounds.json]
//                [--rankings out.txt] [--check]
//                [--fault-spec SPEC] [--fault-seed N]
//                [--stats-json PATH] [--trace PATH]
//
// --seed / --host / --port override the workload file's values, so one
// canonical file serves many seeds and an ephemeral server port.
// --rankings dumps every ranking ("s<j> q<i> shot:score ..." lines for
// closed sessions, "p<phase> o<arrival> ..." for open-loop ops) — equal
// files mean bit-identical serving. --check re-runs the workload
// sequentially and verifies the concurrent run's sessions and open-loop
// rankings match bit for bit (rejected for specs whose semantics are
// legitimately interleaving-dependent: eviction, ingest writes, fault
// phases).
// --bounds evaluates the report against a committed bounds file and exits
// non-zero on any violation — the perf-canary contract. The environment
// variable IVR_WORKLOAD_CANARY_DELAY_US injects a per-operation slowdown
// into open-loop ops (inside the measured latency window), which is how
// the canary test proves its bounds can actually trip.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "ivr/core/args.h"
#include "ivr/core/file_util.h"
#include "ivr/core/string_util.h"
#include "ivr/obs/report.h"
#include "ivr/service/serving_stack.h"
#include "ivr/workload/orchestrator.h"
#include "ivr/workload/report.h"
#include "ivr/workload/spec.h"

namespace ivr {
namespace workload {
namespace {

void PrintPhase(const PhaseResult& phase) {
  std::printf(
      "phase %-16s %s  ops %llu/%llu  failures %llu  late %llu  "
      "%.3fs  %.1f ops/s  p50<=%lldus p99<=%lldus",
      phase.name.c_str(), std::string(PhaseModeName(phase.mode)).c_str(),
      static_cast<unsigned long long>(phase.ops),
      static_cast<unsigned long long>(phase.planned_ops),
      static_cast<unsigned long long>(phase.failures),
      static_cast<unsigned long long>(phase.late_arrivals),
      phase.duration_s, phase.achieved_rate,
      static_cast<long long>(phase.latency.Quantile(0.50)),
      static_cast<long long>(phase.latency.Quantile(0.99)));
  if (phase.appends > 0 || phase.publishes > 0) {
    std::printf("  appends %llu publishes %llu",
                static_cast<unsigned long long>(phase.appends),
                static_cast<unsigned long long>(phase.publishes));
  }
  std::printf("\n");
}

int Main(int argc, char** argv) {
  Result<ArgParser> args = obs::StartTool(
      argc, argv,
      {"workload", "collection", "seed", "host", "port", "ingest-dir",
       "report", "bounds", "rankings", "check", "fault-spec", "fault-seed",
       "stats-json", "trace"});
  if (!args.ok()) return 2;

  const std::string workload_path = args->GetString("workload");
  if (workload_path.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    return 2;
  }
  Result<WorkloadSpec> spec = LoadWorkloadFile(workload_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  if (args->Has("seed")) {
    const Result<int64_t> seed = args->GetInt("seed", 1);
    if (!seed.ok() || *seed < 0) {
      std::fprintf(stderr, "--seed must be a non-negative integer\n");
      return 2;
    }
    spec->seed = static_cast<uint64_t>(*seed);
  }
  if (args->Has("host")) spec->http.host = args->GetString("host");
  if (args->Has("port")) {
    const Result<int64_t> port = args->GetInt("port", 0);
    if (!port.ok() || *port < 1 || *port > 65535) {
      std::fprintf(stderr, "--port must be in [1, 65535]\n");
      return 2;
    }
    spec->http.port = static_cast<int>(*port);
  }

  const Result<bool> check = args->GetBool("check");
  if (!check.ok()) {
    std::fprintf(stderr, "%s\n", check.status().ToString().c_str());
    return 2;
  }
  if (*check) {
    const Status checkable = CheckableSpec(*spec);
    if (!checkable.ok()) {
      std::fprintf(stderr, "%s\n", checkable.ToString().c_str());
      return 2;
    }
  }

  int64_t canary_delay_us = 0;
  if (const char* delay = std::getenv("IVR_WORKLOAD_CANARY_DELAY_US")) {
    canary_delay_us = std::atoll(delay);
    if (canary_delay_us > 0) {
      std::fprintf(stderr,
                   "note: IVR_WORKLOAD_CANARY_DELAY_US=%lld (injected "
                   "open-loop slowdown)\n",
                   static_cast<long long>(canary_delay_us));
    }
  }

  const std::string collection_path = args->GetString("collection");
  const std::string ingest_dir = args->GetString("ingest-dir");

  Result<GeneratedCollection> collection =
      ServingStack::OpenCollection(collection_path);
  if (!collection.ok()) {
    std::fprintf(stderr, "%s\n", collection.status().ToString().c_str());
    return 1;
  }

  OrchestratorConfig config;
  config.collection = std::move(collection).value();
  config.ingest_dir = ingest_dir;
  config.canary_delay_us = canary_delay_us;
  Orchestrator orchestrator(*spec, std::move(config));
  Result<RunArtifacts> run = orchestrator.Run();
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }

  std::printf("workload %s seed %llu target %s\n", spec->name.c_str(),
              static_cast<unsigned long long>(spec->seed),
              std::string(TargetKindName(spec->target)).c_str());
  for (const PhaseResult& phase : run->report.phases) PrintPhase(phase);

  int rc = 0;
  if (*check) {
    Result<GeneratedCollection> reference_collection =
        ServingStack::OpenCollection(collection_path);
    if (!reference_collection.ok()) {
      std::fprintf(stderr, "%s\n",
                   reference_collection.status().ToString().c_str());
      return 1;
    }
    OrchestratorConfig reference_config;
    reference_config.collection = std::move(reference_collection).value();
    reference_config.ingest_dir = ingest_dir;
    reference_config.sequential = true;
    Orchestrator reference(*spec, std::move(reference_config));
    Result<RunArtifacts> reference_run = reference.Run();
    if (!reference_run.ok()) {
      std::fprintf(stderr, "%s\n",
                   reference_run.status().ToString().c_str());
      return 1;
    }
    size_t mismatches = 0;
    for (size_t j = 0; j < run->sessions.size(); ++j) {
      if (run->sessions[j].signature !=
          reference_run->sessions[j].signature) {
        ++mismatches;
        std::fprintf(stderr, "check: session %zu diverged\n", j);
      }
    }
    for (size_t p = 0; p < run->open_rankings.size(); ++p) {
      for (size_t i = 0; i < run->open_rankings[p].size(); ++i) {
        if (run->open_rankings[p][i] !=
            reference_run->open_rankings[p][i]) {
          ++mismatches;
          std::fprintf(stderr, "check: open op p%zu/%zu diverged\n", p, i);
        }
      }
    }
    if (mismatches == 0) {
      std::printf("check: concurrent run bit-identical to the sequential "
                  "rerun\n");
    } else {
      std::fprintf(stderr, "check FAILED: %zu artifacts diverged\n",
                   mismatches);
      rc = 1;
    }
  }

  const std::string report_path = args->GetString("report");
  if (!report_path.empty()) {
    const Status written =
        WriteFileAtomic(report_path, run->report.ToJson());
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      rc = 1;
    }
  }
  const std::string rankings_path = args->GetString("rankings");
  if (!rankings_path.empty()) {
    const Status written =
        WriteFileAtomic(rankings_path, run->RankingsText());
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      rc = 1;
    }
  }

  const std::string bounds_path = args->GetString("bounds");
  if (!bounds_path.empty()) {
    Result<std::string> bounds_text = ReadFileToString(bounds_path);
    if (!bounds_text.ok()) {
      std::fprintf(stderr, "%s\n",
                   bounds_text.status().ToString().c_str());
      return 2;
    }
    Result<std::vector<std::string>> violations =
        CheckBounds(run->report, *bounds_text);
    if (!violations.ok()) {
      std::fprintf(stderr, "%s: %s\n", bounds_path.c_str(),
                   violations.status().ToString().c_str());
      return 2;
    }
    if (violations->empty()) {
      std::printf("bounds: all phases within %s\n", bounds_path.c_str());
    } else {
      for (const std::string& violation : *violations) {
        std::fprintf(stderr, "bounds VIOLATION: %s\n", violation.c_str());
      }
      std::fprintf(stderr, "bounds FAILED: %zu violation(s) against %s\n",
                   violations->size(), bounds_path.c_str());
      rc = 1;
    }
  }

  return obs::FinishToolWithObs(*args, rc);
}

}  // namespace
}  // namespace workload
}  // namespace ivr

int main(int argc, char** argv) {
  return ivr::workload::Main(argc, argv);
}
