#ifndef IVR_NET_EVENT_LOOP_H_
#define IVR_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "ivr/core/status.h"

namespace ivr {
namespace net {

/// A thin epoll wrapper: non-blocking fds register a callback, Run()
/// dispatches readiness events until Stop(). Single-threaded by design —
/// every method except Stop()/Wakeup() must be called from the thread
/// running Run() (or before Run() starts). Other threads communicate with
/// the loop exclusively through Wakeup(), which makes the loop invoke the
/// wake handler on its own thread; that is the ONLY cross-thread seam, so
/// fd lifecycle and callback state need no locks.
class EventLoop {
 public:
  /// Called with the epoll event mask (EPOLLIN | EPOLLOUT | ...).
  using FdCallback = std::function<void(uint32_t events)>;

  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll instance and the wakeup eventfd.
  Status Init();

  /// Registers `fd` (must already be non-blocking) for `events`.
  Status Add(int fd, uint32_t events, FdCallback callback);
  Status Mod(int fd, uint32_t events);
  /// Unregisters `fd`; does not close it.
  void Del(int fd);

  /// Installed handler runs on the loop thread after every Wakeup().
  void SetWakeHandler(std::function<void()> handler) {
    wake_handler_ = std::move(handler);
  }
  /// Runs on the loop thread once every `timeout_ms` period passed to
  /// Run(), whether or not events arrived meanwhile.
  void SetIdleHandler(std::function<void()> handler) {
    idle_handler_ = std::move(handler);
  }

  /// Dispatches until Stop(). `timeout_ms` < 0 blocks indefinitely;
  /// otherwise the idle handler (connection idle sweeps) runs at most, and
  /// as nearly as the dispatch batches allow at least, once per
  /// `timeout_ms`.
  void Run(int timeout_ms = -1);

  /// Thread-safe: ask Run() to return after the current dispatch batch.
  void Stop();

  /// Thread-safe: force an epoll_wait wakeup (and the wake handler).
  void Wakeup();

  bool initialized() const { return epoll_fd_ >= 0; }

 private:
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::unordered_map<int, FdCallback> callbacks_;
  std::function<void()> wake_handler_;
  std::function<void()> idle_handler_;
};

}  // namespace net
}  // namespace ivr

#endif  // IVR_NET_EVENT_LOOP_H_
