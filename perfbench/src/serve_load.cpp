// serve_cold / serve_hot: load generator against the real hyperrec_serve.
//
// One process, one thread, at most 4 AF_UNIX connections multiplexed with
// ppoll.  Every request line is encoded during set-up, so the per-request
// cost of the generator is one write and one read.
//
//   serve_cold  closed loop, 4 clients; request k is the distinct inline
//               trace k of a 640-trace pool (more traces than the daemon's
//               512-entry cache, so cycling the pool never hits).
//   serve_hot   open loop at a fixed Poisson rate, round-robin over the 4
//               connections; requests draw from 16 traces that set-up
//               solved once, so every timed request is a cache hit.
//               Latency counts from when a request was DUE, so a stalled
//               daemon or generator shows as latency, and the generator's
//               own lateness is reported.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <cctype>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "service/json.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

using hyperrec::service::JsonValue;
using hyperrec::service::parse_json;

constexpr const char* kSocket = "hr.sock";
constexpr std::size_t kColdPool = 640;   ///< > the daemon's 512 cache entries
constexpr std::size_t kColdCostWindow = 24;  ///< requests summed in cost_sum
constexpr std::size_t kHotPool = 16;
constexpr double kHotRate = 400.0;       ///< Poisson arrivals per second

struct Shape {
  std::size_t tasks, steps, universe;
};

Shape serve_shape(const Args& args) {
  return args.smoke ? Shape{2, 24, 12} : Shape{4, 96, 32};
}

std::size_t connection_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 4 : hw, 1, 4);
}

int connect_socket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, kSocket, sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocking request/response on a fresh connection (set-up and audit only).
std::string round_trip(const std::string& line) {
  const int fd = connect_socket();
  if (fd < 0) throw std::runtime_error("cannot connect to the daemon");
  std::string response;
  if (write_all(fd, line + "\n")) {
    char buffer[65536];
    while (response.find('\n') == std::string::npos) {
      const ssize_t n = ::read(fd, buffer, sizeof(buffer));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      response.append(buffer, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  const std::size_t nl = response.find('\n');
  return nl == std::string::npos ? response : response.substr(0, nl);
}

/// A hyperrec_serve child at default flags, listening on ./hr.sock.
class Daemon {
 public:
  explicit Daemon(const std::string& binary) {
    ::unlink(kSocket);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 2, "serve.log",
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const std::string socket_flag = std::string("--socket=") + kSocket;
    std::vector<char*> argv{const_cast<char*>(binary.c_str()),
                            const_cast<char*>(socket_flag.c_str()), nullptr};
    const Clock::time_point start = Clock::now();
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot spawn " + binary);
    // Ready = the socket accepts a connection.
    for (;;) {
      const int fd = connect_socket();
      if (fd >= 0) {
        ::close(fd);
        break;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("hyperrec_serve exited at start-up");
      }
      if (seconds_between(start, Clock::now()) > 30.0) {
        throw std::runtime_error("hyperrec_serve did not accept in 30 s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    start_s_ = seconds_between(start, Clock::now());
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int pid() const noexcept { return pid_; }
  [[nodiscard]] double start_seconds() const noexcept { return start_s_; }

  /// Graceful shutdown op, then reap; SIGKILL when it hangs.
  void stop() {
    if (pid_ <= 0) return;
    try {
      (void)round_trip("{\"op\":\"shutdown\"}");
    } catch (const std::exception&) {
    }
    const Clock::time_point start = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_between(start, Clock::now()) > 20.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  double start_s_ = 0.0;
};

// --- the multiplexed load loop ----------------------------------------------

struct LoadResult {
  std::vector<double> latency_ms;      ///< per sent request, +inf = failed
  std::vector<std::string> responses;  ///< per sent request
  std::vector<std::size_t> line_of;    ///< pool index per sent request
  std::vector<double> lag_ms;          ///< open loop: first write − due
  double elapsed_s = 0.0;
};

/// Drives the connections.  Closed loop (`due_s` empty): each connection
/// sends its next request as soon as the previous answer arrived, until
/// `send_seconds` passed or `limit` requests were sent; request k uses
/// pool line `pick(k)`.  Open loop: request k is due at t0 + due_s[k].
LoadResult run_load(const std::vector<std::string>& pool,
                    const std::vector<std::size_t>& picks,
                    const std::vector<double>& due_s, double send_seconds,
                    std::size_t limit) {
  struct Conn {
    int fd = -1;
    std::deque<std::size_t> to_write;  ///< request indices, FIFO
    std::size_t write_offset = 0;
    std::deque<std::size_t> awaiting;  ///< written or queued, unanswered
    std::string inbox;
    bool dead = false;
  };
  const bool open_loop = !due_s.empty();
  const std::size_t total = open_loop ? due_s.size() : limit;
  std::vector<Conn> conns(connection_count());
  for (Conn& conn : conns) {
    conn.fd = connect_socket();
    if (conn.fd < 0) throw std::runtime_error("cannot connect to the daemon");
    ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
  }

  LoadResult result;
  std::vector<Clock::time_point> due;
  std::vector<bool> lag_recorded;
  auto enqueue = [&](Conn& conn, Clock::time_point when) {
    const std::size_t k = result.latency_ms.size();
    result.latency_ms.push_back(failed_latency());
    result.responses.emplace_back();
    result.line_of.push_back(picks[k % picks.size()]);
    due.push_back(when);
    lag_recorded.push_back(false);
    conn.to_write.push_back(k);
    conn.awaiting.push_back(k);
  };

  const Clock::time_point t0 = Clock::now();
  const double give_up_s =
      (open_loop ? due_s.back() : send_seconds) + 60.0;
  std::vector<pollfd> fds(conns.size());
  char buffer[1 << 16];
  Clock::time_point last_answer = t0;
  std::size_t next = 0;
  for (;;) {
    Clock::time_point now = Clock::now();
    const double elapsed = seconds_between(t0, now);
    if (open_loop) {
      while (next < total &&
             t0 + std::chrono::duration<double>(due_s[next]) <= now) {
        enqueue(conns[next % conns.size()],
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[next])));
        ++next;
      }
    } else if (elapsed < send_seconds) {
      for (Conn& conn : conns) {
        if (!conn.dead && conn.awaiting.empty() && next < total) {
          enqueue(conn, now);
          ++next;
        }
      }
    }
    bool busy = false;
    for (const Conn& conn : conns) busy = busy || (!conn.dead && !conn.awaiting.empty());
    const bool sending =
        open_loop ? next < total : (elapsed < send_seconds && next < total);
    if (!busy && !sending) break;
    if (elapsed > give_up_s) break;  // unanswered requests stay failed

    for (std::size_t c = 0; c < conns.size(); ++c) {
      fds[c].fd = conns[c].dead ? -1 : conns[c].fd;
      fds[c].events = static_cast<short>(
          POLLIN | (conns[c].to_write.empty() ? 0 : POLLOUT));
      fds[c].revents = 0;
    }
    double wait_s = 0.05;
    if (open_loop && next < total) {
      wait_s = std::max(0.0, due_s[next] - elapsed);
    } else if (!open_loop && sending) {
      wait_s = std::max(0.0, std::min(wait_s, send_seconds - elapsed));
    }
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait_s);
    timeout.tv_nsec = static_cast<long>((wait_s - std::floor(wait_s)) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
    if (ready <= 0) continue;
    now = Clock::now();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      Conn& conn = conns[c];
      if (conn.dead) continue;
      if ((fds[c].revents & POLLOUT) != 0) {
        while (!conn.to_write.empty()) {
          const std::size_t k = conn.to_write.front();
          const std::string& line = pool[result.line_of[k]];
          if (!lag_recorded[k]) {
            lag_recorded[k] = true;
            if (open_loop) {
              result.lag_ms.push_back(
                  std::chrono::duration<double, std::milli>(now - due[k])
                      .count());
            }
          }
          const ssize_t n =
              ::send(conn.fd, line.data() + conn.write_offset,
                     line.size() - conn.write_offset, MSG_NOSIGNAL);
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n <= 0) {
            conn.dead = true;
            break;
          }
          conn.write_offset += static_cast<std::size_t>(n);
          if (conn.write_offset < line.size()) break;
          conn.write_offset = 0;
          conn.to_write.pop_front();
        }
      }
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        const ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
        if (n <= 0) {
          if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
          conn.dead = true;
          continue;
        }
        conn.inbox.append(buffer, static_cast<std::size_t>(n));
        std::size_t begin = 0;
        for (std::size_t nl = conn.inbox.find('\n');
             nl != std::string::npos; nl = conn.inbox.find('\n', begin)) {
          if (conn.awaiting.empty()) {
            conn.dead = true;  // an answer nobody asked for
            break;
          }
          const std::size_t k = conn.awaiting.front();
          conn.awaiting.pop_front();
          result.responses[k] = conn.inbox.substr(begin, nl - begin);
          result.latency_ms[k] = due_latency_ms(due[k], now);
          last_answer = now;
          begin = nl + 1;
        }
        conn.inbox.erase(0, begin);
      }
    }
  }
  for (Conn& conn : conns) ::close(conn.fd);
  result.elapsed_s = seconds_between(t0, last_answer);
  return result;
}

// --- response checks -----------------------------------------------------------

/// The job of a one-job batch response; nullptr for error/reject lines.
const JsonValue* response_job(const JsonValue& doc) {
  const JsonValue* jobs = doc.get("jobs");
  if (jobs == nullptr || jobs->as_array().size() != 1) return nullptr;
  return &jobs->as_array().front();
}

/// The response with its timing fields (every "elapsed_us", the queue
/// envelope and the cumulative cache counters) stripped: the part of a hit
/// that must repeat exactly.
std::string strip_timing(const std::string& response) {
  const std::size_t jobs = response.find("\"jobs\":");
  std::string body =
      jobs == std::string::npos ? response : response.substr(jobs);
  std::string out;
  out.reserve(body.size());
  const std::string key = "\"elapsed_us\":";
  std::size_t pos = 0;
  for (std::size_t hit = body.find(key); hit != std::string::npos;
       hit = body.find(key, pos)) {
    out.append(body, pos, hit - pos);
    pos = hit + key.size();
    while (pos < body.size() &&
           (std::isdigit(static_cast<unsigned char>(body[pos])) != 0)) {
      ++pos;
    }
  }
  out.append(body, pos, std::string::npos);
  return out;
}

/// Integer value of `"key":<digits>` after `from`; -1 when absent.
long long int_after(const std::string& text, const std::string& key,
                    std::size_t from = 0) {
  const std::size_t at = text.find("\"" + key + "\":", from);
  if (at == std::string::npos) return -1;
  return std::atoll(text.c_str() + at + key.size() + 3);
}

struct SolveFacts {
  double total = 0.0;
  double bound = 0.0;
};

/// Request id (and job name) of pool line `i`: "c12", "h3".
std::string request_id(char prefix, std::size_t i) {
  std::string id(1, prefix);
  id += std::to_string(i);
  return id;
}

/// serve_cold checks: ok, right request, breakdown sums to total,
/// certified with lower_bound ≤ total.
bool check_solve(const std::string& response, const std::string& name,
                 SolveFacts& facts, std::string& why) {
  try {
    const JsonValue doc = parse_json(response);
    const JsonValue* job = response_job(doc);
    if (job == nullptr) {
      why = "not a solve result: " + response.substr(0, 160);
      return false;
    }
    if (!job->get("ok")->as_bool()) {
      why = "job failed: " + job->get("error")->as_string();
      return false;
    }
    if (job->get("name")->as_string() != name) {
      why = "response for " + job->get("name")->as_string() + " answered " + name;
      return false;
    }
    const JsonValue& cost = *job->get("cost");
    const std::int64_t total = cost.get("total")->as_int();
    if (cost.get("hyper")->as_int() + cost.get("reconfig")->as_int() +
            cost.get("global_hyper")->as_int() !=
        total) {
      why = name + ": cost breakdown does not sum to its total";
      return false;
    }
    const JsonValue* bound = job->get("lower_bound");
    if (bound == nullptr || bound->is_null() || bound->as_int() > total ||
        bound->as_int() <= 0) {
      why = name + ": missing certificate or lower_bound > total";
      return false;
    }
    facts.total = static_cast<double>(total);
    facts.bound = static_cast<double>(bound->as_int());
    return true;
  } catch (const std::exception& error) {
    why = std::string("unparseable response: ") + error.what();
    return false;
  }
}

/// End-of-run /statz audit: per-tenant admission identity, empty queue, no
/// leaked cache flights.
void audit_statz(Report& report, ServeFacts* facts) {
  const std::string statz = round_trip("{\"op\":\"statz\"}");
  try {
    const JsonValue doc = parse_json(statz);
    if (doc.get("queue")->get("depth")->as_int() != 0) {
      report.fail("statz: queue depth is not 0 after the run");
    }
    const JsonValue& cache = *doc.get("cache");
    if (cache.get("inflight")->as_int() != 0) {
      report.fail("statz: cache inflight is not 0 after the run");
    }
    for (const JsonValue& tenant : doc.get("tenants")->as_array()) {
      const std::int64_t received = tenant.get("received")->as_int();
      const std::int64_t accounted =
          tenant.get("admitted")->as_int() +
          tenant.get("rejected_rate")->as_int() +
          tenant.get("rejected_backpressure")->as_int() +
          tenant.get("rejected_draining")->as_int();
      if (received != accounted) {
        report.fail("statz: tenant " + tenant.get("name")->as_string() +
                    " received != admitted + rejected_*");
      }
    }
    const double hits = static_cast<double>(cache.get("hits")->as_int());
    const double misses = static_cast<double>(cache.get("misses")->as_int());
    report.note("statz: cache hits " + std::to_string(cache.get("hits")->as_int()) +
                ", misses " + std::to_string(cache.get("misses")->as_int()) +
                ", evictions " +
                std::to_string(cache.get("evictions")->as_int()));
    if (facts != nullptr) {
      facts->cache_hits = hits;
      facts->cache_lookups = hits + misses;
      facts->cache_evictions =
          static_cast<double>(cache.get("evictions")->as_int());
    }
  } catch (const std::exception& error) {
    report.fail(std::string("statz unreadable: ") + error.what());
  }
}

}  // namespace

void run_serve(const Args& args, Report& report, ServeFacts* facts) {
  const bool hot = args.workload == "serve_hot";
  const Shape shape = serve_shape(args);
  const std::size_t pool_size =
      hot ? kHotPool : (args.smoke ? std::size_t{8} : kColdPool);

  // Set-up, part 1: input generation (three times; the median counts).
  std::vector<std::string> pool;
  std::vector<double> generate_s;
  for (int round = 0; round < 3; ++round) {
    const Clock::time_point start = Clock::now();
    pool.clear();
    pool.reserve(pool_size);
    for (std::size_t i = 0; i < pool_size; ++i) {
      const hyperrec::MultiTaskTrace trace =
          make_trace(family_for(i), shape.tasks, shape.steps, shape.universe,
                     args.seed, i);
      pool.push_back(solve_line(trace, request_id(hot ? 'h' : 'c', i)) +
                     "\n");
    }
    generate_s.push_back(seconds_between(start, Clock::now()));
  }

  // Set-up, part 2: daemon start to socket accept (three starts; the
  // median counts, the last daemon serves the run).
  std::vector<double> start_s;
  std::unique_ptr<Daemon> daemon;
  for (int round = 0; round < 3; ++round) {
    daemon.reset();  // stop the previous one before the next starts
    daemon = std::make_unique<Daemon>(args.serve);
    start_s.push_back(daemon->start_seconds());
  }

  std::vector<std::size_t> identity(pool.size());
  for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;

  // Set-up, part 3 (serve_hot): fill the cache — solve every pool trace
  // once, then ask again to record each one's hit response.
  double fill_s = 0.0;
  std::vector<std::string> reference(pool.size());
  std::vector<SolveFacts> pool_facts(pool.size());
  if (hot) {
    const Clock::time_point start = Clock::now();
    const LoadResult solved = run_load(pool, identity, {}, 1e9, pool.size());
    const LoadResult hits = run_load(pool, identity, {}, 1e9, pool.size());
    fill_s = seconds_between(start, Clock::now());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      std::string why;
      if (!check_solve(solved.responses[i], request_id('h', i),
                       pool_facts[i], why)) {
        report.fail("set-up solve: " + why);
      }
      if (hits.responses[i].find("\"cache\":\"hit\"") == std::string::npos) {
        report.fail("set-up: second request for h" + std::to_string(i) +
                    " was not a cache hit");
      }
      reference[i] = strip_timing(hits.responses[i]);
    }
  }
  const double setup_s = median(start_s) + median(generate_s) + fill_s;

  // Timed phase.
  LoadResult load;
  if (hot) {
    std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 7);
    std::exponential_distribution<double> gap(kHotRate);
    std::uniform_int_distribution<std::size_t> draw(0, pool.size() - 1);
    std::vector<double> due;
    std::vector<std::size_t> picks;
    for (double t = gap(rng); t < args.seconds; t += gap(rng)) {
      due.push_back(t);
      picks.push_back(draw(rng));
    }
    load = run_load(pool, picks, due, 0.0, 0);
  } else {
    load = run_load(pool, identity, {}, args.seconds, SIZE_MAX);
  }

  // Checks (untimed).
  std::size_t completed = 0;
  double cost_sum = 0.0;
  double ratio_sum = 0.0;
  std::size_t ratio_count = 0;
  for (std::size_t k = 0; k < load.responses.size(); ++k) {
    const std::string& response = load.responses[k];
    bool ok = false;
    if (hot) {
      ok = !response.empty() &&
           strip_timing(response) == reference[load.line_of[k]];
      if (!ok) {
        report.fail("hit " + std::to_string(k) + " differs from its set-up "
                    "response: " + response.substr(0, 120));
      }
    } else {
      SolveFacts solve;
      std::string why;
      ok = check_solve(response, request_id('c', load.line_of[k]), solve,
                       why);
      if (!ok) report.fail("request " + std::to_string(k) + ": " + why);
      if (ok && k < kColdCostWindow) {
        cost_sum += solve.total;
        ratio_sum += solve.total / solve.bound;
        ++ratio_count;
      }
    }
    if (!ok) load.latency_ms[k] = failed_latency();
    if (ok) ++completed;
    if (facts != nullptr) {
      const long long wait = int_after(response, "wait_us");
      if (wait >= 0) facts->queue_wait_us.push_back(static_cast<double>(wait));
    }
  }
  if (hot) {
    for (const SolveFacts& solve : pool_facts) {
      cost_sum += solve.total;
      ratio_sum += solve.bound > 0 ? solve.total / solve.bound : 0.0;
      ++ratio_count;
    }
  } else if (load.responses.size() < kColdCostWindow && !args.smoke) {
    report.note("cost_sum covers only " + std::to_string(ratio_count) +
                " requests (fewer than the fixed window)");
  }

  audit_statz(report, facts);
  const double rss = peak_rss_mb(daemon->pid());
  daemon->stop();

  report.attempted += load.responses.size();
  report.add("setup_s", setup_s, "s");
  add_latency(report, load.latency_ms, tail_pct_for_workload(args.workload));
  report.add("throughput_per_s",
             load.elapsed_s > 0 ? static_cast<double>(completed) / load.elapsed_s
                                : 0.0,
             "1/s");
  report.add("cost_sum", cost_sum, "cost");
  report.add("bound_ratio_mean",
             ratio_count > 0 ? ratio_sum / static_cast<double>(ratio_count) : 0.0,
             "ratio");
  report.add("peak_rss_mb", rss, "MiB");
  report.note("failed_share " + std::to_string(failed_share(report)));
  if (hot) {
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "open loop: %zu requests due at %.0f/s; generator lag "
                  "p50 %.3f ms, p99 %.3f ms, max %.3f ms",
                  load.responses.size(), kHotRate, quantile(load.lag_ms, 0.5),
                  quantile(load.lag_ms, 0.99), quantile(load.lag_ms, 1.0));
    report.note(buffer);
  } else {
    report.note("closed loop: " + std::to_string(connection_count()) +
                " clients, " + std::to_string(load.responses.size()) +
                " requests");
  }
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "set-up: daemon start %.4f s, input generation %.4f s, cache "
                "fill %.3f s",
                median(start_s), median(generate_s), fill_s);
  report.note(buffer);
  if (facts != nullptr) {
    facts->client_ms = load.latency_ms;
    facts->pool_lines.clear();
    for (const std::string& line : pool) {
      facts->pool_lines.push_back(line.substr(0, line.size() - 1));
    }
  }
}

}  // namespace perfbench
