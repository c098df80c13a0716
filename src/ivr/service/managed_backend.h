#ifndef IVR_SERVICE_MANAGED_BACKEND_H_
#define IVR_SERVICE_MANAGED_BACKEND_H_

#include <string>
#include <utility>

#include "ivr/core/clock.h"
#include "ivr/feedback/backend.h"
#include "ivr/service/session_manager.h"

namespace ivr {

/// Binds ONE session of a SessionManager behind the SearchBackend seam,
/// so the whole simulation stack (SessionSimulator, LogReplayer, the
/// interfaces, every behaviour policy) can drive managed sessions. This is
/// the one way to put an adaptive session behind SearchBackend. One
/// backend = one session at a time = one driving thread; many backends
/// over one manager is the concurrent-service workload.
///
/// BeginSession opens the session (ending the previous one under the same
/// id first). An operation before BeginSession reaches the manager, which
/// rejects it like any unknown session: NotFound lands in first_error()
/// and the manager counts it in rejected_ops.
///
/// Optional think-time pacing: when `think_time_ms` > 0 every operation
/// sleeps that long first, modelling a user who reads results before
/// acting. Paced sessions spend most wall-clock time off-CPU, which is
/// what lets a multi-threaded driver multiplex many of them — the
/// genny-style open-loop workload shape.
class ManagedSessionBackend : public SearchBackend {
 public:
  /// `manager` must outlive the backend.
  ManagedSessionBackend(SessionManager* manager, std::string session_id,
                        std::string user_id, TimeMs think_time_ms = 0)
      : manager_(manager),
        session_id_(std::move(session_id)),
        user_id_(std::move(user_id)),
        think_time_ms_(think_time_ms) {}

  /// Ends the bound session if still live (ignores NotFound).
  ~ManagedSessionBackend() override;

  ResultList Search(const Query& query, size_t k) override;
  void ObserveEvent(const InteractionEvent& event) override;
  void BeginSession() override;
  std::string name() const override { return "managed"; }

  /// Ends the bound session explicitly; NotFound when already gone.
  Status EndSession();

  const std::string& session_id() const { return session_id_; }
  /// First error any operation hit (operations themselves degrade to
  /// empty results / dropped events, as SearchBackend's interface has no
  /// error channel).
  const Status& first_error() const { return first_error_; }

 private:
  void Pace() const;
  void Note(const Status& status);

  SessionManager* manager_;
  std::string session_id_;
  std::string user_id_;
  TimeMs think_time_ms_ = 0;
  bool open_ = false;
  Status first_error_;
};

}  // namespace ivr

#endif  // IVR_SERVICE_MANAGED_BACKEND_H_
