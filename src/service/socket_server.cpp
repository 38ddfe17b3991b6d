#include "service/socket_server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "support/ensure.hpp"

namespace hyperrec::service {

namespace {

/// Hard cap on one request line.  The protocol is one JSON document per
/// line; anything past this is a broken or hostile peer whose newline-free
/// stream must not grow daemon memory without bound.
constexpr std::size_t kMaxLineBytes = std::size_t{8} << 20;

/// True on threads running serve_connection(); stop() uses it to avoid
/// waiting for the calling thread's own exit.
thread_local bool t_connection_thread = false;

/// send() the whole buffer; MSG_NOSIGNAL turns a dead peer into an error
/// return instead of SIGPIPE.
bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

SocketServer::SocketServer(std::string path, Handler handler)
    : path_(std::move(path)), handler_(std::move(handler)) {
  HYPERREC_ENSURE(handler_ != nullptr, "socket server needs a handler");
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  HYPERREC_ENSURE(path_.size() < sizeof(address.sun_path),
                  "socket path too long: " + path_);
  std::memcpy(address.sun_path, path_.c_str(), path_.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  HYPERREC_ENSURE(listen_fd_ >= 0,
                  std::string("socket() failed: ") + std::strerror(errno));
  ::unlink(path_.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    HYPERREC_ENSURE(false, "bind(" + path_ +
                               ") failed: " + std::strerror(saved));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(path_.c_str());
    HYPERREC_ENSURE(false, "listen(" + path_ +
                               ") failed: " + std::strerror(saved));
  }
  acceptor_ = std::thread([this, fd = listen_fd_] { accept_loop(fd); });
}

SocketServer::~SocketServer() { stop(); }

void SocketServer::accept_loop(int listen_fd) {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Transient fd/memory pressure: back off and keep accepting.  A
        // persistent daemon must not silently stop serving forever over a
        // condition that clears as soon as a connection closes.
        std::this_thread::sleep_for(std::chrono::milliseconds{10});
        continue;
      }
      break;  // listener closed (stop) or unrecoverable
    }
    const MutexLock lock(mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    connection_fds_.push_back(fd);
    ++active_connections_;
    try {
      std::thread([this, fd] { serve_connection(fd); }).detach();
    } catch (...) {
      connection_fds_.pop_back();
      --active_connections_;
      ::close(fd);
    }
  }
  // Unrecoverable accept failure: wake wait() so the driver can stop()
  // and exit loudly instead of lingering alive but deaf.
  const MutexLock lock(mutex_);
  stopped_ = true;
  stopped_cv_.notify_all();
}

void SocketServer::serve_connection(int fd) {
  t_connection_thread = true;
  std::string buffer;
  // buffer[0, scanned) holds no '\n': each received byte is searched once,
  // so a newline-free line costs linear, not quadratic, scanning up to the
  // cap.
  std::size_t scanned = 0;
  char chunk[4096];
  bool stop_requested = false;
  while (!stop_requested) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // peer closed or connection shut down by stop()
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;  // first byte of the next line
    std::size_t newline = 0;
    while ((newline = buffer.find('\n', scanned)) != std::string::npos) {
      std::string line = buffer.substr(start, newline - start);
      start = scanned = newline + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      LineResponse response = handler_(line);
      response.line.push_back('\n');
      if (!send_all(fd, response.line)) {
        stop_requested = response.stop;
        break;
      }
      if (response.stop) {
        stop_requested = true;
        break;
      }
    }
    buffer.erase(0, start);
    // After a break the unanswered lines are searched again from the start.
    scanned = newline == std::string::npos ? buffer.size() : 0;
    if (buffer.size() > kMaxLineBytes) break;  // oversized line: drop peer
  }
  ::shutdown(fd, SHUT_RDWR);
  if (stop_requested) {
    stopping_.store(true, std::memory_order_release);
  }
  const MutexLock lock(mutex_);
  if (stop_requested && listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wake the acceptor
  }
  connection_fds_.erase(
      std::remove(connection_fds_.begin(), connection_fds_.end(), fd),
      connection_fds_.end());
  // Close under mutex_, after untracking: stop() snapshots the fd list
  // under the same lock and must never shutdown() a recycled fd number.
  ::close(fd);
  --active_connections_;
  connections_cv_.notify_all();
  if (stop_requested) {
    // Handler asked for shutdown: wake wait(); stop() runs on the waiter.
    stopped_ = true;
    stopped_cv_.notify_all();
  }
}

void SocketServer::wait() {
  const MutexLock lock(mutex_);
  while (!stopped_) stopped_cv_.wait(mutex_);
}

bool SocketServer::wait_for(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  const MutexLock lock(mutex_);
  while (!stopped_) {
    if (stopped_cv_.wait_until(mutex_, deadline) ==
        std::cv_status::timeout) {
      return stopped_;
    }
  }
  return true;
}

void SocketServer::stop() {
  stopping_.store(true, std::memory_order_release);
  std::thread acceptor;
  {
    const MutexLock lock(mutex_);
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    for (const int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    stopped_ = true;
    stopped_cv_.notify_all();
    acceptor.swap(acceptor_);  // claim the join; stop() may race itself
  }
  if (acceptor.joinable()) acceptor.join();
  // Connection threads are detached and reclaim themselves; wait for the
  // fleet to drain.  From a connection thread stop() cannot wait for its
  // own exit, so that one thread is excluded — it finishes right after.
  const std::size_t self = t_connection_thread ? 1u : 0u;
  const MutexLock lock(mutex_);
  while (active_connections_ > self) connections_cv_.wait(mutex_);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(path_.c_str());
  }
}

}  // namespace hyperrec::service
