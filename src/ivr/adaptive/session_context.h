#ifndef IVR_ADAPTIVE_SESSION_CONTEXT_H_
#define IVR_ADAPTIVE_SESSION_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ivr/feedback/estimator.h"
#include "ivr/feedback/events.h"
#include "ivr/obs/metrics.h"
#include "ivr/profile/user_profile.h"

namespace ivr {

/// All mutable state of ONE user session, extracted out of AdaptiveEngine
/// so a single immutable engine can serve any number of concurrent
/// sessions: the engine is the policy, a SessionContext is the state the
/// policy acts on. A context is a plain value — movable, persistable,
/// owned by whoever manages the session: the SessionManager in the
/// service layer, or the caller itself for a one-off in-process session.
///
/// Thread-safety: a context is confined to one session and therefore to
/// one logical actor; callers that share contexts across threads (the
/// SessionManager) serialise access per context. The engine never shares
/// state between contexts, so distinct contexts never race.
struct SessionContext {
  std::string session_id;
  std::string user_id;

  /// Per-session profile snapshot; null falls back to the engine's default
  /// profile (and to no personalisation when that is null too). Shared
  /// ownership, never borrowed: an evicted and later rebuilt session can
  /// outlive the store it was created from without dangling.
  std::shared_ptr<const UserProfile> profile;

  /// The within-session interaction stream, in arrival order.
  std::vector<InteractionEvent> events;

  /// Degraded-mode counters for this session (folded into HealthReport;
  /// the SessionManager keeps them past the session's end).
  /// Relaxed-atomic because Health() snapshots them from monitoring
  /// threads while the session's own thread increments (the rest of the
  /// context stays single-writer per the confinement contract above).
  obs::RelaxedU64 feedback_skipped = 0;
  obs::RelaxedU64 profile_reranks_skipped = 0;

  /// How many leading entries of `events` have already been written to the
  /// session's on-disk journal. Lets eviction persistence append only the
  /// new suffix — O(new events), not O(session).
  size_t events_persisted = 0;

  /// Memoised implicit-relevance evidence: valid iff `evidence_events`
  /// equals events.size() (events are append-only within a session).
  std::vector<RelevanceEvidence> evidence_cache;
  size_t evidence_events = kEvidenceInvalid;

  static constexpr size_t kEvidenceInvalid = static_cast<size_t>(-1);
};

}  // namespace ivr

#endif  // IVR_ADAPTIVE_SESSION_CONTEXT_H_
