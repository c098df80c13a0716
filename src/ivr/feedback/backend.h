#ifndef IVR_FEEDBACK_BACKEND_H_
#define IVR_FEEDBACK_BACKEND_H_

#include <string>

#include "ivr/feedback/events.h"
#include "ivr/retrieval/engine.h"
#include "ivr/retrieval/result_list.h"

namespace ivr {

/// What an interface talks to: something that answers queries and may
/// observe the interaction stream. A plain engine ignores the stream; a
/// managed adaptive session (ManagedSessionBackend over a SessionManager)
/// uses it to personalise subsequent results. This is the seam the
/// simulator, the log replayer and the experiments swap systems through.
/// Degraded-mode health is reported by the serving stack, not per backend.
class SearchBackend {
 public:
  virtual ~SearchBackend() = default;

  /// Answers a query. Non-const because adaptive backends consult and
  /// update per-session state.
  virtual ResultList Search(const Query& query, size_t k) = 0;

  /// Receives every interaction event the interface logs. Default: ignore.
  virtual void ObserveEvent(const InteractionEvent& event) { (void)event; }

  /// Starts a fresh session, dropping any previous session's adaptation
  /// state. Drivers call it before a session's first operation. Default:
  /// nothing.
  virtual void BeginSession() {}

  virtual std::string name() const = 0;
};

/// The non-adaptive baseline: forwards to a RetrievalEngine verbatim.
class StaticBackend : public SearchBackend {
 public:
  /// The engine must outlive the backend.
  explicit StaticBackend(const RetrievalEngine& engine) : engine_(&engine) {}

  ResultList Search(const Query& query, size_t k) override {
    return engine_->Search(query, k);
  }
  std::string name() const override { return "static-" +
                                             engine_->options().scorer; }

 private:
  const RetrievalEngine* engine_;
};

}  // namespace ivr

#endif  // IVR_FEEDBACK_BACKEND_H_
