// SocketServer transport tests: round-trips over a real AF_UNIX socket,
// handler-requested shutdown unblocking wait()/wait_for(), and — the
// regression targets for the guarded-field sweep — stop() draining the
// per-connection counter before reclaiming the listener, and the accept
// loop working off a by-value fd snapshot so no unlocked read of the
// guarded listen_fd_ member exists.  Framing: lines split across writes,
// several lines in one write, CRLF endings, and the 8 MiB line cap.
#include "service/socket_server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace hyperrec::service {
namespace {

std::string test_socket_path(const std::string& tag) {
  return "/tmp/hyperrec-test-" + tag + "-" + std::to_string(::getpid()) +
         ".sock";
}

/// Minimal blocking line client for the tests.
class LineClient {
 public:
  explicit LineClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    // The acceptor may still be between listen() and accept(); retry briefly.
    for (int attempt = 0; attempt < 50; ++attempt) {
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                    sizeof(address)) == 0) {
        connected_ = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds{10});
    }
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  bool send_line(const std::string& line) { return send_raw(line + "\n"); }

  /// Sends bytes as-is — no newline, so the server parks in recv() on them.
  bool send_raw(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads until '\n' (stripped) or the peer closes (returns false).
  bool recv_line(std::string* line) {
    while (buffer_.find('\n') == std::string::npos) {
      char chunk[256];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::size_t newline = buffer_.find('\n');
    *line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return true;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

TEST(SocketServer, EchoRoundTripInOrder) {
  const std::string path = test_socket_path("echo");
  SocketServer server(path, [](const std::string& line) {
    return SocketServer::LineResponse{"echo:" + line, false};
  });

  LineClient client(path);
  ASSERT_TRUE(client.connected());
  std::string reply;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.send_line("ping-" + std::to_string(i)));
    ASSERT_TRUE(client.recv_line(&reply));
    EXPECT_EQ(reply, "echo:ping-" + std::to_string(i));
  }
  server.stop();
}

TEST(SocketServer, WaitForTimesOutWhileRunning) {
  const std::string path = test_socket_path("waitfor");
  SocketServer server(path, [](const std::string& line) {
    return SocketServer::LineResponse{line, false};
  });
  EXPECT_FALSE(server.wait_for(std::chrono::milliseconds{50}));
  server.stop();
  EXPECT_TRUE(server.wait_for(std::chrono::milliseconds{50}));
}

TEST(SocketServer, HandlerStopUnblocksWaiters) {
  // The guarded stopped_ flag must flip exactly once and wake every waiter
  // when a handler requests shutdown — the drain path the daemon takes.
  const std::string path = test_socket_path("stopline");
  SocketServer server(path, [](const std::string& line) {
    return SocketServer::LineResponse{"bye", line == "quit"};
  });

  std::atomic<int> woken{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&]() {
      server.wait();
      woken.fetch_add(1, std::memory_order_relaxed);
    });
  }

  LineClient client(path);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line("quit"));
  std::string reply;
  ASSERT_TRUE(client.recv_line(&reply));
  EXPECT_EQ(reply, "bye");

  for (std::thread& w : waiters) w.join();
  EXPECT_EQ(woken.load(), 3);
  server.stop();  // idempotent after handler-requested shutdown
}

TEST(SocketServer, StopDrainsEveryActiveConnection) {
  // Regression for the per-connection counter: stop() must block until
  // active_connections_ reaches zero, so when it returns no connection
  // thread can still be touching server state.  Clients park mid-request
  // (connected, no newline sent) to keep their connection threads alive in
  // recv() when stop() runs.
  const std::string path = test_socket_path("drain");
  std::atomic<int> handled{0};
  SocketServer server(path, [&](const std::string& line) {
    handled.fetch_add(1, std::memory_order_relaxed);
    return SocketServer::LineResponse{line, false};
  });

  constexpr int kClients = 8;
  std::vector<std::unique_ptr<LineClient>> clients;
  std::string reply;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<LineClient>(path));
    ASSERT_TRUE(clients.back()->connected());
    // One full round-trip proves the connection thread is up ...
    ASSERT_TRUE(clients.back()->send_line("warm"));
    ASSERT_TRUE(clients.back()->recv_line(&reply));
    // ... then a half-line (no newline) parks it inside recv().
    ASSERT_TRUE(clients.back()->send_raw("never-terminated partial"));
  }
  EXPECT_EQ(handled.load(), kClients);

  server.stop();
  // stop() returned: the drain loop saw the counter hit zero, so every
  // parked connection was shut down and untracked.  A second stop() must
  // find nothing left to do.
  server.stop();
  // Every parked client observes its connection closing (recv -> 0).
  for (const auto& client : clients) {
    EXPECT_FALSE(client->recv_line(&reply));
  }
  EXPECT_EQ(handled.load(), kClients)
      << "the parked bytes held no full line, so no extra handler call";
}

TEST(SocketServer, AcceptsNewConnectionsWhileOthersAreParked) {
  // The accept loop runs off its by-value fd and must keep admitting
  // clients while earlier connections sit in recv(); the connection
  // bookkeeping is per-fd, not global.
  const std::string path = test_socket_path("parked");
  SocketServer server(path, [](const std::string& line) {
    return SocketServer::LineResponse{"ok:" + line, false};
  });

  LineClient parked(path);
  ASSERT_TRUE(parked.connected());  // never sends: parked in recv()

  std::string reply;
  for (int i = 0; i < 3; ++i) {
    LineClient active(path);
    ASSERT_TRUE(active.connected());
    std::string request = "n";
    request += std::to_string(i);
    ASSERT_TRUE(active.send_line(request));
    ASSERT_TRUE(active.recv_line(&reply));
    std::string expected = "ok:";
    expected += request;
    EXPECT_EQ(reply, expected);
  }
  server.stop();
  EXPECT_FALSE(parked.recv_line(&reply)) << "stop() shut the parked fd";
}

TEST(SocketServer, LineDeliveredOneByteAtATimeIsAnsweredOnce) {
  const std::string path = test_socket_path("bytewise");
  std::atomic<int> handled{0};
  SocketServer server(path, [&](const std::string& line) {
    handled.fetch_add(1, std::memory_order_relaxed);
    return SocketServer::LineResponse{"echo:" + line, false};
  });

  LineClient client(path);
  ASSERT_TRUE(client.connected());
  for (const char c : std::string("split-across-writes\n")) {
    ASSERT_TRUE(client.send_raw(std::string(1, c)));
  }
  std::string reply;
  ASSERT_TRUE(client.recv_line(&reply));
  EXPECT_EQ(reply, "echo:split-across-writes");
  EXPECT_EQ(handled.load(), 1);
  server.stop();
}

TEST(SocketServer, SeveralLinesInOneWriteAreAnsweredInOrder) {
  const std::string path = test_socket_path("batched");
  SocketServer server(path, [](const std::string& line) {
    return SocketServer::LineResponse{"echo:" + line, false};
  });

  LineClient client(path);
  ASSERT_TRUE(client.connected());
  // Three whole lines and the head of a fourth, then its tail.
  ASSERT_TRUE(client.send_raw("a\nbb\nccc\nd"));
  ASSERT_TRUE(client.send_raw("d\n"));
  std::string reply;
  for (const char* expected : {"echo:a", "echo:bb", "echo:ccc", "echo:dd"}) {
    ASSERT_TRUE(client.recv_line(&reply));
    EXPECT_EQ(reply, expected);
  }
  server.stop();
}

TEST(SocketServer, CrlfEndingsAreStripped) {
  const std::string path = test_socket_path("crlf");
  SocketServer server(path, [](const std::string& line) {
    return SocketServer::LineResponse{"echo:" + line, false};
  });

  LineClient client(path);
  ASSERT_TRUE(client.connected());
  // The bare "\r\n" is an empty line: skipped, not answered.
  ASSERT_TRUE(client.send_raw("first\r\n\r\nin\rside\r\n"));
  std::string reply;
  ASSERT_TRUE(client.recv_line(&reply));
  EXPECT_EQ(reply, "echo:first");
  ASSERT_TRUE(client.recv_line(&reply));
  EXPECT_EQ(reply, "echo:in\rside") << "only the trailing '\\r' goes";
  server.stop();
}

TEST(SocketServer, OversizedLineDropsOnlyThatPeer) {
  // A newline-free stream past the transport's 8 MiB line cap closes that
  // connection without a handler call; other connections keep being served.
  const std::string path = test_socket_path("oversized");
  std::atomic<int> handled{0};
  SocketServer server(path, [&](const std::string& line) {
    handled.fetch_add(1, std::memory_order_relaxed);
    return SocketServer::LineResponse{"echo:" + line, false};
  });

  LineClient other(path);
  ASSERT_TRUE(other.connected());
  std::string reply;
  ASSERT_TRUE(other.send_line("before"));
  ASSERT_TRUE(other.recv_line(&reply));

  LineClient hostile(path);
  ASSERT_TRUE(hostile.connected());
  // The send may fail part-way once the server hangs up; either is fine.
  (void)hostile.send_raw(std::string((std::size_t{8} << 20) + 8192, 'x'));
  EXPECT_FALSE(hostile.recv_line(&reply)) << "the oversized peer is dropped";

  ASSERT_TRUE(other.send_line("after"));
  ASSERT_TRUE(other.recv_line(&reply));
  EXPECT_EQ(reply, "echo:after");
  EXPECT_EQ(handled.load(), 2) << "the oversized line never reached the handler";
  server.stop();
}

}  // namespace
}  // namespace hyperrec::service
