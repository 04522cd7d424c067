// Level-triggered epoll event loop for the fleet ingest thread.
//
// One EventLoop multiplexes thousands of non-blocking fds — the fleet
// listener, every accepted client socket, and any pipe/file descriptors —
// onto a single thread. Registration binds an fd to a callback; poll()
// waits up to a timeout and invokes the callback of every ready fd with the
// epoll event mask. Level-triggered semantics keep the callbacks simple: a
// handler that drains only part of a socket's buffer is re-notified on the
// next poll, so no handler needs its own readiness bookkeeping.
//
// Callbacks may add and remove fds freely, including their own, while a
// poll() dispatch is in flight: dispatch re-checks registration per event,
// so a handler that closes a peer's fd never sees the peer's stale callback
// fire.
//
// Thread model: single-owner. All calls — registration and poll — happen on
// the ingest thread; the detector shards live behind SPSC queues.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

namespace rejuv::monitor {

/// Puts `fd` into non-blocking mode; false (and errno set) on failure.
bool set_nonblocking(int fd);

class EventLoop {
 public:
  /// Called with the ready fd and its epoll event mask (EPOLLIN & co.).
  using Callback = std::function<void(int fd, std::uint32_t events)>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// False when the epoll instance could not be created (error() says why).
  bool ok() const noexcept { return epoll_fd_ >= 0; }
  const std::string& error() const noexcept { return error_; }

  /// Registers `fd` for `events` (e.g. EPOLLIN). The fd is not owned; the
  /// caller closes it after remove(). False on EPOLL_CTL_ADD failure, with
  /// errno preserved (EPERM: the fd is a regular file or another
  /// descriptor epoll cannot watch).
  bool add(int fd, std::uint32_t events, Callback callback);
  /// Changes the event mask of a registered fd.
  bool modify(int fd, std::uint32_t events);
  /// Unregisters `fd`; safe to call from inside a callback, including for
  /// fds with dispatches still pending in the current poll.
  void remove(int fd);

  /// Waits up to `timeout` and dispatches every ready fd's callback.
  /// Returns the number of callbacks invoked, 0 on timeout, -1 on a poll
  /// failure (EINTR is retried internally, not reported).
  int poll(std::chrono::milliseconds timeout);

  /// Number of registered fds.
  std::size_t size() const noexcept { return callbacks_.size(); }

 private:
  int epoll_fd_ = -1;
  std::string error_;
  std::unordered_map<int, Callback> callbacks_;
};

}  // namespace rejuv::monitor
