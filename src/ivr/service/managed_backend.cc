#include "ivr/service/managed_backend.h"

#include <chrono>
#include <thread>

namespace ivr {

ManagedSessionBackend::~ManagedSessionBackend() {
  if (open_) (void)manager_->EndSession(session_id_);
}

void ManagedSessionBackend::Pace() const {
  if (think_time_ms_ > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(think_time_ms_));
  }
}

void ManagedSessionBackend::Note(const Status& status) {
  if (!status.ok() && first_error_.ok()) first_error_ = status;
}

void ManagedSessionBackend::BeginSession() {
  // Re-beginning = a fresh session under the same id: end the old one
  // first.
  if (open_) {
    Note(manager_->EndSession(session_id_));
    open_ = false;
  }
  const Status begun = manager_->BeginSession(session_id_, user_id_);
  Note(begun);
  open_ = begun.ok();
}

ResultList ManagedSessionBackend::Search(const Query& query, size_t k) {
  Pace();
  Result<ResultList> results = manager_->Search(session_id_, query, k);
  if (!results.ok()) {
    // Not live (evicted by capacity/TTL, or never begun): degrade to an
    // empty page; the manager already counted the rejection.
    Note(results.status());
    return ResultList();
  }
  return std::move(results).value();
}

void ManagedSessionBackend::ObserveEvent(const InteractionEvent& event) {
  Pace();
  Note(manager_->ObserveEvent(session_id_, event));
}

Status ManagedSessionBackend::EndSession() {
  open_ = false;
  return manager_->EndSession(session_id_);
}

}  // namespace ivr
