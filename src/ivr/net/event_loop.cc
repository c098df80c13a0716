#include "ivr/net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "ivr/core/string_util.h"

namespace ivr {
namespace net {
namespace {

int64_t SteadyMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::Init() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IOError(StrFormat("epoll_create1: %s",
                                     std::strerror(errno)));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return Status::IOError(StrFormat("eventfd: %s", std::strerror(errno)));
  }
  struct epoll_event event;
  std::memset(&event, 0, sizeof(event));
  event.events = EPOLLIN;
  event.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event) != 0) {
    return Status::IOError(StrFormat("epoll_ctl(wakeup): %s",
                                     std::strerror(errno)));
  }
  return Status::OK();
}

Status EventLoop::Add(int fd, uint32_t events, FdCallback callback) {
  struct epoll_event event;
  std::memset(&event, 0, sizeof(event));
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
    return Status::IOError(StrFormat("epoll_ctl(add fd %d): %s", fd,
                                     std::strerror(errno)));
  }
  callbacks_[fd] = std::move(callback);
  return Status::OK();
}

Status EventLoop::Mod(int fd, uint32_t events) {
  struct epoll_event event;
  std::memset(&event, 0, sizeof(event));
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event) != 0) {
    return Status::IOError(StrFormat("epoll_ctl(mod fd %d): %s", fd,
                                     std::strerror(errno)));
  }
  return Status::OK();
}

void EventLoop::Del(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  callbacks_.erase(fd);
}

void EventLoop::Run(int timeout_ms) {
  constexpr int kMaxEvents = 64;
  struct epoll_event events[kMaxEvents];
  const bool periodic = timeout_ms >= 0 && idle_handler_ != nullptr;
  int64_t now_ms = periodic ? SteadyMs() : 0;
  int64_t next_idle_ms = now_ms + timeout_ms;
  while (!stop_.load(std::memory_order_acquire)) {
    const int wait_ms =
        periodic ? static_cast<int>(std::max<int64_t>(0, next_idle_ms - now_ms))
                 : -1;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, wait_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable epoll failure: stop serving, don't spin
    }
    bool woken = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        woken = true;
        continue;
      }
      // The callback may Del() other fds in this batch (e.g. close a
      // sibling connection); look each one up at dispatch time.
      auto it = callbacks_.find(fd);
      if (it == callbacks_.end()) continue;
      it->second(events[i].events);
    }
    if (woken && wake_handler_) wake_handler_();
    if (!periodic) continue;
    now_ms = SteadyMs();
    if (now_ms >= next_idle_ms) {
      idle_handler_();
      next_idle_ms = now_ms + timeout_ms;
    }
  }
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  Wakeup();
}

void EventLoop::Wakeup() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
}

}  // namespace net
}  // namespace ivr
