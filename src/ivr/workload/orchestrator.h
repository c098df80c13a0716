#ifndef IVR_WORKLOAD_ORCHESTRATOR_H_
#define IVR_WORKLOAD_ORCHESTRATOR_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "ivr/core/result.h"
#include "ivr/video/generator.h"
#include "ivr/workload/report.h"
#include "ivr/workload/spec.h"

namespace ivr {
namespace workload {

/// Runs actor threads through a declarative workload's phase sequence —
/// the genny-style Orchestrator. Every actor (and the ingest writer, and
/// the driver) meets at a barrier before a phase starts and again after it
/// ends, so no actor can enter phase N+1 while any actor is still inside
/// phase N; the driver uses the gap between barriers to re-arm faults,
/// snapshot metrics and build the per-phase report entry.

/// A cyclic barrier: `parties` threads block in Arrive() until all have
/// arrived, then all release together and the barrier re-arms for the
/// next rendezvous.
class PhaseBarrier {
 public:
  explicit PhaseBarrier(size_t parties) : parties_(parties) {}

  void Arrive();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t parties_;
  size_t waiting_ = 0;
  uint64_t generation_ = 0;
};

struct OrchestratorConfig {
  /// Base collection the workload runs over (topics/qrels drive closed
  /// sessions and the default open-loop query pool).
  GeneratedCollection collection;

  /// Segment/manifest directory; required when the spec has an "ingest"
  /// block. The live engine opens (or replays) it.
  std::string ingest_dir;

  /// Sequential reference mode: one actor per phase, no pacing, no think
  /// time — the rerun a --check compares the concurrent run against.
  bool sequential = false;

  /// Injected per-operation slowdown for open-loop ops and writer
  /// publishes, in microseconds. Counted inside the measured latency
  /// window — this is how the canary test proves its bounds (including
  /// the publish-latency bound) can actually trip.
  int64_t canary_delay_us = 0;

  /// Test hook: called by each actor right after it clears a phase's
  /// start barrier (`entering` = true) and right before it arrives at the
  /// end barrier (false). Must be thread-safe.
  std::function<void(size_t phase, size_t actor, bool entering)>
      phase_observer;
};

/// One closed session's reproducibility record.
struct SessionArtifact {
  /// Event stream + per-query rankings (score bits included),
  /// byte-comparable across runs.
  std::string signature;
  /// One "%u:%.17g %u:%.17g ..." line per query, for the rankings dump.
  std::vector<std::string> rankings;
};

/// Everything a run produces beyond the report: the bit-comparable
/// artifacts determinism checks diff.
struct RunArtifacts {
  WorkloadReport report;
  /// Indexed by global closed-session number (phase order).
  std::vector<SessionArtifact> sessions;
  /// open_rankings[phase_index][arrival] — ranking line of each open-loop
  /// op ("" when the op failed); empty inner vector for closed phases.
  std::vector<std::vector<std::string>> open_rankings;

  /// Rankings dump: "s<j> q<i> <shot>:<score> ..." lines for closed
  /// sessions, then "p<phase> o<arrival> ..." lines for open-loop ops.
  /// Equal files <=> equal rankings, bit for bit.
  std::string RankingsText() const;
};

/// Validates that `spec` admits a sequential determinism check: eviction
/// (max_sessions/ttl), ingest writes and fault phases all make the
/// concurrent run legitimately interleaving-dependent.
Status CheckableSpec(const WorkloadSpec& spec);

class Orchestrator {
 public:
  Orchestrator(WorkloadSpec spec, OrchestratorConfig config);

  /// Runs the whole workload: builds the ServingStack (direct target) or
  /// probes the server (http target), launches the actor threads, walks
  /// them through the phases, and returns the report + artifacts.
  /// Operation-level errors degrade to counted failures; only setup
  /// errors (bad collection, unreachable server, ingest dir) fail the
  /// run.
  Result<RunArtifacts> Run();

  const WorkloadSpec& spec() const { return spec_; }

 private:
  WorkloadSpec spec_;
  OrchestratorConfig config_;
};

}  // namespace workload
}  // namespace ivr

#endif  // IVR_WORKLOAD_ORCHESTRATOR_H_
