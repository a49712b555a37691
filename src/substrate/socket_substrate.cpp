#include "substrate/socket_substrate.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "substrate/wire.h"

namespace dowork::substrate {

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kWorkerFlag = "--dowork-socket-worker";
// The setup deadline: the coordinator waits this long for every worker's
// spawn, connect and hello, and a worker retries its connect (with backoff)
// for as long.
constexpr std::uint64_t kSetupTimeoutMs = 10'000;

// --- low-level socket helpers ----------------------------------------------

// All writes go through send(MSG_NOSIGNAL): a worker SIGKILLed between our
// poll and our write must surface as EPIPE, not take the harness down with
// SIGPIPE (and the hosting binary's signal dispositions stay untouched).
bool write_all(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t w = ::send(fd, p, len, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    len -= static_cast<std::size_t>(w);
  }
  return true;
}

bool write_all(int fd, const std::string& bytes) { return write_all(fd, bytes.data(), bytes.size()); }

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

const std::string& self_exe_path() {
  static const std::string path = [] {
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0) return std::string();
    return std::string(buf, static_cast<std::size_t>(n));
  }();
  return path;
}

// Transport address as passed on the worker command line:
//   uds:<path>   or   tcp:<port>   (always 127.0.0.1)
int connect_to(const std::string& addr) {
  if (addr.rfind("uds:", 0) == 0) {
    const std::string path = addr.substr(4);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (path.size() >= sizeof sa.sun_path) return -1;
    std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  if (addr.rfind("tcp:", 0) == 0) {
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<std::uint16_t>(std::atoi(addr.c_str() + 4)));
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      ::close(fd);
      return -1;
    }
    set_nodelay(fd);
    return fd;
  }
  return -1;
}

// Bounded retry + backoff: the coordinator's listener races the exec, so
// the first connect attempts may find nothing bound yet.
int connect_with_retry(const std::string& addr, std::uint64_t deadline_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
  std::uint64_t backoff_us = 2'000;
  for (;;) {
    const int fd = connect_to(addr);
    if (fd >= 0) return fd;
    if (Clock::now() >= deadline) return -1;
    ::usleep(static_cast<useconds_t>(backoff_us));
    backoff_us = std::min<std::uint64_t>(backoff_us * 2, 100'000);
  }
}

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

// --- worker side ------------------------------------------------------------

int socket_worker_main(const std::string& addr, int self, const std::string& protocol,
                       std::int64_t n, int t, std::optional<std::int64_t> param) {
  DoAllConfig cfg{n, t};
  std::unique_ptr<IProcess> proc;
  try {
    // Same deterministic construction as the coordinator's model run, for
    // this worker's one process: its siblings live in other address spaces.
    if (self < 0 || self >= t) throw std::out_of_range("process id " + std::to_string(self));
    proc = make_process(find_protocol(protocol), cfg, self, param);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dowork socket worker %d: bad setup: %s\n", self, e.what());
    return 2;
  }

  const int fd = connect_with_retry(addr, kSetupTimeoutMs);
  if (fd < 0) {
    std::fprintf(stderr, "dowork socket worker %d: connect failed (%s)\n", self, addr.c_str());
    return 3;
  }

  // Supervision test hooks, inherited through exec: a worker that hangs
  // forever at its first step (watchdog coverage) or exits unannounced
  // (EPIPE/ECONNRESET-mapping coverage).
  const int hang_proc = env_int("DOWORK_SOCKET_TEST_HANG_PROC", -1);
  const int exit_proc = env_int("DOWORK_SOCKET_TEST_EXIT_PROC", -1);

  try {
    if (!write_all(fd, wire::encode_hello(
                           {self, proc->next_wake(Round{0}), proc->known_done_units()})))
      return 4;

    // The round's mailbox: one record per delivered frame, addressed to
    // self -- this process's whole ledger.
    std::vector<DeliveryRecord> mail;
    wire::FrameReader reader;
    char buf[65536];
    for (;;) {
      wire::FrameType type;
      std::string body;
      while (!reader.next(&type, &body)) {
        const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
        if (r < 0 && errno == EINTR) continue;
        // Coordinator gone (its run aborted, or our kill raced the read):
        // nothing left to do.
        if (r <= 0) return 0;
        reader.feed(buf, static_cast<std::size_t>(r));
      }
      switch (type) {
        case wire::FrameType::kDeliver:
          mail.push_back(wire::decode_deliver(body, self));
          break;
        case wire::FrameType::kStep: {
          if (self == hang_proc)
            for (;;) ::pause();
          if (self == exit_proc) ::_exit(7);
          const Round round = wire::decode_step(body);
          const Action action =
              proc->on_round(RoundContext{round, self}, InboxView(mail, self, !mail.empty()));
          Round next = round;
          ++next;
          if (!write_all(fd, wire::encode_reply(action, proc->next_wake(next),
                                                proc->known_done_units())))
            return 4;
          mail.clear();
          break;
        }
        case wire::FrameType::kKill: {
          // Mid-broadcast crash realization: flush the first N bytes of a
          // framed record, then die at the kill point.  The coordinator's
          // reader sees a genuinely torn frame followed by EOF.
          std::uint32_t tear = wire::decode_kill(body);
          const std::string ghost = wire::encode_reply(Action{}, never_round(), 0);
          if (tear >= ghost.size()) tear = static_cast<std::uint32_t>(ghost.size()) - 1;
          if (tear > 0) write_all(fd, ghost.data(), tear);
          ::raise(SIGKILL);
          return 0;  // unreachable
        }
        case wire::FrameType::kExit:
          ::close(fd);
          return 0;
        default:
          std::fprintf(stderr, "dowork socket worker %d: unexpected frame type %d\n", self,
                       static_cast<int>(type));
          return 4;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dowork socket worker %d: %s\n", self, e.what());
    return 4;
  }
}

// --- coordinator side -------------------------------------------------------

struct Conn {
  int fd = -1;
  pid_t pid = -1;
  wire::FrameReader reader;
  Round wake;             // latest next_wake the worker announced (absolute)
  std::int64_t known = 0; // latest known_done_units the worker announced
  bool model_dead = false;  // retired in the model (crash or terminate)
  bool eof = false;         // stream fully drained
  bool reaped = false;
  int wstatus = 0;
};

class SocketExecutor;

// The coordinator-resident stand-in for one worker: on_round forwards the
// step over the socket (the returned Action is a placeholder -- the real
// one arrives in the worker's kReply and is substituted by the executor's
// pump; eval_one has no other side effects, so the simulator never sees
// the difference), next_wake/known_done_units answer from the per-reply
// cache.  next_wake's monotonicity contract makes the cache exact:
// next_wake(now') == max(next_wake(now), now'), and the cached value IS
// the worker's next_wake at its last reply.
class SocketProxyProcess final : public IProcess {
 public:
  SocketProxyProcess(SocketExecutor* coord, int self) : coord_(coord), self_(self) {}

  Action on_round(const RoundContext& ctx, const InboxView& inbox) override;
  Round next_wake(const Round& now) const override;
  std::int64_t known_done_units() const override;
  std::string describe() const override { return "socket-proxy[" + std::to_string(self_) + "]"; }

 private:
  SocketExecutor* coord_;
  int self_;
};

class SocketExecutor final : public StepExecutor {
 public:
  SocketExecutor(const ProtocolInfo& info, const DoAllConfig& cfg,
                 std::optional<std::int64_t> param, const LiveOptions& opts)
      : info_(info), cfg_(cfg), param_(param), opts_(opts),
        conns_(static_cast<std::size_t>(cfg.t)),
        outbox_(static_cast<std::size_t>(cfg.t)),
        actions_(static_cast<std::size_t>(cfg.t)),
        pending_(static_cast<std::size_t>(cfg.t), 0) {}

  ~SocketExecutor() override { shutdown(); }

  // Spawns the workers and collects their hellos.  Throws AbortRun on a
  // setup failure (run_socket degrades it into aborted metrics).
  void start();
  // Reaps every worker: kExit to the live ones, waitpid with the join
  // grace, SIGKILL for stragglers.  Processes are always reapable, so the
  // socket backend never leaks a run.
  void shutdown();

  // StepExecutor.
  void run_steps(StepEval& eval, const Round& round, const std::vector<int>& steps,
                 std::vector<Ready>& out) override;
  void on_retire(int proc, ProcState state, KillPoint kp) override;

  // Proxy hooks.
  void post_step(int p, const Round& round, const InboxView& inbox);
  const Round& wake_of(int p) const { return conns_[static_cast<std::size_t>(p)].wake; }
  std::int64_t known_of(int p) const { return conns_[static_cast<std::size_t>(p)].known; }

 private:
  void spawn_workers(const std::string& addr);
  [[noreturn]] void abort_run(const std::string& reason, const std::string& detail) {
    throw AbortRun{reason, detail};
  }
  // Reads whatever is available on conn p, parsing frames.  kReply frames
  // complete pending steps; EOF/ECONNRESET from a model-dead worker is a
  // crash observation (torn trailing bytes dropped -- that IS the
  // partial-write recovery), from a model-alive worker a structured abort.
  void drain_conn(int p, const Round& round);
  void reap_nohang(Conn& c) {
    if (c.pid <= 0 || c.reaped) return;
    if (::waitpid(c.pid, &c.wstatus, WNOHANG) == c.pid) c.reaped = true;
  }

  const ProtocolInfo& info_;
  DoAllConfig cfg_;
  std::optional<std::int64_t> param_;
  LiveOptions opts_;

  int listen_fd_ = -1;
  std::string uds_path_;
  std::string addr_;
  bool started_ = false;
  bool shut_down_ = false;

  std::vector<Conn> conns_;
  std::vector<std::string> outbox_;      // per-worker buffered frames for this round
  std::vector<Action> actions_;          // decoded replies, by proc id
  std::vector<std::uint8_t> pending_;    // 1 = this round awaits p's reply
  std::vector<int> completion_order_;    // arrival order (free schedule commits in it)
  std::size_t arrived_ = 0;
  std::size_t expected_ = 0;
  // Frame bytes per broadcast, keyed by payload identity: one ledger
  // record = one payload object (message.h's ownership rules), so every
  // recipient of a broadcast reuses the same serialized record.
  std::unordered_map<const Payload*, std::string> frame_cache_;
  std::uint32_t tear_seq_ = 0;
};

Action SocketProxyProcess::on_round(const RoundContext& ctx, const InboxView& inbox) {
  coord_->post_step(self_, ctx.round, inbox);
  return Action{};  // placeholder; see class comment
}

Round SocketProxyProcess::next_wake(const Round& now) const {
  const Round& wake = coord_->wake_of(self_);
  return wake < now ? now : wake;
}

std::int64_t SocketProxyProcess::known_done_units() const { return coord_->known_of(self_); }

void SocketExecutor::spawn_workers(const std::string& addr) {
  // argv is fully materialized BEFORE fork: the scenario runner is
  // multi-threaded, so the child may only make async-signal-safe calls
  // until exec.
  const std::string& exe = self_exe_path();
  if (exe.empty()) abort_run("socket substrate: cannot resolve /proc/self/exe", "cause=spawn");
  for (int p = 0; p < cfg_.t; ++p) {
    std::vector<std::string> args = {exe,
                                     kWorkerFlag,
                                     addr,
                                     std::to_string(p),
                                     info_.name,
                                     std::to_string(cfg_.n),
                                     std::to_string(cfg_.t),
                                     param_ ? std::to_string(*param_) : "-"};
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    if (pid < 0)
      abort_run("socket substrate: fork failed: " + std::string(std::strerror(errno)),
                "cause=spawn errno=" + std::to_string(errno) + " proc=" + std::to_string(p));
    conns_[static_cast<std::size_t>(p)].pid = pid;
  }
}

void SocketExecutor::start() {
  started_ = true;

  if (opts_.transport == Transport::kUds) {
    static std::atomic<std::uint64_t> seq{0};
    const char* tmp = std::getenv("TMPDIR");
    uds_path_ = std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") + "/dowork-skt-" +
                std::to_string(::getpid()) + "-" + std::to_string(seq.fetch_add(1));
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (uds_path_.size() >= sizeof sa.sun_path)
      abort_run("socket substrate: TMPDIR path too long for AF_UNIX", "cause=spawn");
    std::memcpy(sa.sun_path, uds_path_.c_str(), uds_path_.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0 || ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0 ||
        ::listen(listen_fd_, cfg_.t) != 0)
      abort_run("socket substrate: UDS listen failed: " + std::string(std::strerror(errno)),
                "cause=spawn errno=" + std::to_string(errno));
    addr_ = "uds:" + uds_path_;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = 0;  // ephemeral
    socklen_t slen = sizeof sa;
    if (listen_fd_ < 0 || ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0 ||
        ::listen(listen_fd_, cfg_.t) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&sa), &slen) != 0)
      abort_run("socket substrate: TCP listen failed: " + std::string(std::strerror(errno)),
                "cause=spawn errno=" + std::to_string(errno));
    addr_ = "tcp:" + std::to_string(ntohs(sa.sin_port));
  }

  spawn_workers(addr_);

  // Accept + hello under the setup deadline.  Connections identify
  // themselves by the proc id in their kHello, so accept order is free.
  const auto deadline = Clock::now() + std::chrono::milliseconds(kSetupTimeoutMs);
  struct PendingConn {
    int fd;
    wire::FrameReader reader;
  };
  std::vector<PendingConn> pending;
  int hellos = 0;
  char buf[65536];
  while (hellos < cfg_.t) {
    std::vector<pollfd> pfds;
    if (static_cast<int>(pending.size()) + hellos < cfg_.t)
      pfds.push_back({listen_fd_, POLLIN, 0});
    for (const PendingConn& pc : pending) pfds.push_back({pc.fd, POLLIN, 0});
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    if (left.count() <= 0 || ::poll(pfds.data(), pfds.size(), static_cast<int>(left.count())) <= 0) {
      int dead = 0;
      for (Conn& c : conns_) {
        reap_nohang(c);
        if (c.reaped) ++dead;
      }
      for (const PendingConn& pc : pending) ::close(pc.fd);
      abort_run("socket substrate: " + std::to_string(cfg_.t - hellos) + " worker(s) missed the " +
                    std::to_string(kSetupTimeoutMs) + "ms setup deadline",
                "cause=spawn-timeout missing=" + std::to_string(cfg_.t - hellos) +
                    " dead_children=" + std::to_string(dead));
    }
    std::size_t pi = 0;
    if (static_cast<int>(pending.size()) + hellos < cfg_.t) {
      if ((pfds[0].revents & POLLIN) != 0) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd >= 0) {
          if (opts_.transport == Transport::kTcp) set_nodelay(fd);
          pending.push_back(PendingConn{fd, {}});
        }
      }
      pi = 1;
    }
    for (std::size_t i = 0; i < pending.size() && pi + i < pfds.size(); ++i) {
      if ((pfds[pi + i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      PendingConn& pc = pending[i];
      const ssize_t r = ::recv(pc.fd, buf, sizeof buf, 0);
      if (r <= 0) {
        if (r < 0 && errno == EINTR) continue;
        ::close(pc.fd);
        pc.fd = -1;
        continue;
      }
      pc.reader.feed(buf, static_cast<std::size_t>(r));
      wire::FrameType type;
      std::string body;
      try {
        if (!pc.reader.next(&type, &body)) continue;
        if (type != wire::FrameType::kHello) throw wire::WireError("expected hello");
        const wire::HelloMsg h = wire::decode_hello(body);
        if (h.proc < 0 || h.proc >= cfg_.t || conns_[static_cast<std::size_t>(h.proc)].fd >= 0)
          throw wire::WireError("bad hello proc id");
        Conn& c = conns_[static_cast<std::size_t>(h.proc)];
        c.fd = pc.fd;
        c.wake = h.wake0;
        c.known = h.known0;
        pc.fd = -1;
        ++hellos;
      } catch (const wire::WireError& e) {
        for (const PendingConn& q : pending)
          if (q.fd >= 0) ::close(q.fd);
        abort_run(std::string("socket substrate: handshake error: ") + e.what(),
                  "cause=handshake");
      }
    }
    std::erase_if(pending, [](const PendingConn& pc) { return pc.fd < 0; });
  }
}

void SocketExecutor::post_step(int p, const Round& round, const InboxView& inbox) {
  std::string& out = outbox_[static_cast<std::size_t>(p)];
  for (const Msg& m : inbox) {
    const Payload* key = m.payload().get();
    if (key == nullptr) {
      out += wire::encode_deliver(m.from, m.kind, m.sent_round(), nullptr);
      continue;
    }
    auto it = frame_cache_.find(key);
    if (it == frame_cache_.end())
      it = frame_cache_.emplace(key, wire::encode_deliver(m.from, m.kind, m.sent_round(), key))
               .first;
    out += it->second;
  }
  out += wire::encode_step(round);
  pending_[static_cast<std::size_t>(p)] = 1;
  ++expected_;
}

void SocketExecutor::drain_conn(int p, const Round& round) {
  Conn& c = conns_[static_cast<std::size_t>(p)];
  char buf[65536];
  const ssize_t r = ::recv(c.fd, buf, sizeof buf, 0);
  if (r < 0) {
    if (errno == EINTR || errno == EAGAIN) return;
    if (errno != ECONNRESET && errno != EPIPE)
      abort_run("socket substrate: recv from proc " + std::to_string(p) +
                    " failed: " + std::strerror(errno),
                "cause=recv proc=" + std::to_string(p) + " pid=" + std::to_string(c.pid) +
                    " errno=" + std::to_string(errno) + " round=" + round.to_string());
    // fall through to the EOF paths: a SIGKILLed peer with queued data
    // resets the connection instead of half-closing it.
  }
  if (r <= 0) {
    c.eof = true;
    reap_nohang(c);
    if (!c.model_dead) {
      // A worker the model says is alive died underneath us: structured
      // abort, never a harness error.
      abort_run("socket substrate: worker for proc " + std::to_string(p) +
                    " died unexpectedly (round " + round.to_string() + ")",
                "cause=worker-eof proc=" + std::to_string(p) + " pid=" + std::to_string(c.pid) +
                    " round=" + round.to_string() +
                    " status=" + (c.reaped ? std::to_string(c.wstatus) : std::string("unreaped")));
    }
    // Crash observation: the kill point's torn trailing bytes (if any) stay
    // in the reader and are dropped here -- partial-write recovery.
    return;
  }
  c.reader.feed(buf, static_cast<std::size_t>(r));
  wire::FrameType type;
  std::string body;
  while (c.reader.next(&type, &body)) {
    if (type != wire::FrameType::kReply || pending_[static_cast<std::size_t>(p)] == 0)
      abort_run("socket substrate: unexpected frame from proc " + std::to_string(p),
                "cause=protocol proc=" + std::to_string(p) + " round=" + round.to_string());
    wire::ReplyMsg reply = wire::decode_reply(body);
    actions_[static_cast<std::size_t>(p)] = std::move(reply.action);
    c.wake = std::move(reply.next_wake);
    c.known = reply.known;
    pending_[static_cast<std::size_t>(p)] = 0;
    completion_order_.push_back(p);
    ++arrived_;
  }
}

void SocketExecutor::run_steps(StepEval& eval, const Round& round, const std::vector<int>& steps,
                               std::vector<Ready>& out) {
  // Phase 1 -- evaluate: each proxy's on_round serializes its mail (one
  // frame per broadcast, shared across recipients via frame_cache_) and a
  // step request into its worker's outbox.
  frame_cache_.clear();
  completion_order_.clear();
  arrived_ = 0;
  expected_ = 0;
  for (int p : steps) (void)eval.eval_step(p);

  // Phase 2 -- flush.  A write failing with EPIPE means the worker died
  // mid-round while the model holds it alive; surface it as the structured
  // worker-eof abort, not a harness error.
  for (int p : steps) {
    std::string& box = outbox_[static_cast<std::size_t>(p)];
    const bool ok = write_all(conns_[static_cast<std::size_t>(p)].fd, box);
    box.clear();
    if (!ok) {
      Conn& c = conns_[static_cast<std::size_t>(p)];
      reap_nohang(c);
      abort_run("socket substrate: send to proc " + std::to_string(p) + " failed: " +
                    std::strerror(errno) + " (round " + round.to_string() + ")",
                "cause=worker-eof proc=" + std::to_string(p) + " pid=" + std::to_string(c.pid) +
                    " errno=" + std::to_string(errno) + " round=" + round.to_string());
    }
  }

  // Phase 3 -- pump replies under the watchdog deadline.  Model-dead
  // workers' streams stay in the poll set until EOF so a mid-broadcast
  // kill's torn frame is observed and dropped promptly.
  const auto deadline = Clock::now() + std::chrono::milliseconds(opts_.watchdog_ms);
  while (arrived_ < expected_) {
    std::vector<pollfd> pfds;
    std::vector<int> procs;
    for (int p = 0; p < cfg_.t; ++p) {
      const Conn& c = conns_[static_cast<std::size_t>(p)];
      if (c.fd < 0 || c.eof) continue;
      if (pending_[static_cast<std::size_t>(p)] != 0 || c.model_dead) {
        pfds.push_back({c.fd, POLLIN, 0});
        procs.push_back(p);
      }
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    const int nready =
        left.count() > 0 ? ::poll(pfds.data(), pfds.size(), static_cast<int>(left.count())) : 0;
    if (nready < 0 && errno == EINTR) continue;
    if (nready <= 0 && arrived_ < expected_) {
      // Watchdog: degrade the hang into a structured abort.  SIGKILL every
      // remaining worker first -- unlike threads they cannot wedge teardown.
      int first_stalled = -1;
      std::size_t missing = 0;
      for (int p = 0; p < cfg_.t; ++p) {
        if (pending_[static_cast<std::size_t>(p)] == 0) continue;
        ++missing;
        if (first_stalled < 0) first_stalled = p;
      }
      for (Conn& c : conns_)
        if (c.pid > 0 && !c.reaped) ::kill(c.pid, SIGKILL);
      out.clear();
      abort_run("watchdog: " + std::to_string(missing) + " worker(s) missed the " +
                    std::to_string(opts_.watchdog_ms) + "ms round deadline (first stalled: proc " +
                    std::to_string(first_stalled) + ", round " + round.to_string() + ")",
                "cause=watchdog proc=" + std::to_string(first_stalled) + " pid=" +
                    std::to_string(conns_[static_cast<std::size_t>(first_stalled)].pid) +
                    " missing=" + std::to_string(missing) + " round=" + round.to_string() +
                    " deadline_ms=" + std::to_string(opts_.watchdog_ms));
    }
    for (std::size_t i = 0; i < pfds.size(); ++i)
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) drain_conn(procs[i], round);
  }

  // Phase 4 -- hand back.  Deterministic: ascending id (steps order), the
  // simulator's serial interleaving.  Free: arrival order, so the OS
  // scheduler is a real adversary.
  if (opts_.schedule == LiveOptions::Schedule::kDeterministic) {
    for (int p : steps) out.push_back(Ready{p, std::move(actions_[static_cast<std::size_t>(p)])});
  } else {
    for (int p : completion_order_)
      out.push_back(Ready{p, std::move(actions_[static_cast<std::size_t>(p)])});
  }
}

void SocketExecutor::on_retire(int proc, ProcState state, KillPoint kp) {
  Conn& c = conns_[static_cast<std::size_t>(proc)];
  c.model_dead = true;
  if (state != ProcState::kCrashed) {
    // Voluntary termination: clean shutdown frame; the worker exits 0.
    if (c.fd >= 0 && !c.eof) write_all(c.fd, wire::encode_exit());
    return;
  }
  if (kp == KillPoint::kMidBroadcast && c.fd >= 0 && !c.eof) {
    // Tear offsets cycle through the frame header and into the body so the
    // reader's resynchronization is exercised at every boundary class.
    const std::uint32_t tear = 1 + (tear_seq_++ % 11);
    write_all(c.fd, wire::encode_kill(tear));
    return;  // the worker SIGKILLs itself after flushing the torn prefix
  }
  if (c.pid > 0) ::kill(c.pid, SIGKILL);
}

void SocketExecutor::shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;

  for (Conn& c : conns_)
    if (c.fd >= 0 && !c.eof && !c.model_dead) write_all(c.fd, wire::encode_exit());

  const auto deadline = Clock::now() + std::chrono::milliseconds(opts_.join_grace_ms);
  bool escalated = false;
  for (;;) {
    bool all = true;
    for (Conn& c : conns_) {
      reap_nohang(c);
      if (c.pid > 0 && !c.reaped) all = false;
    }
    if (all) break;
    if (Clock::now() >= deadline && !escalated) {
      escalated = true;
      for (Conn& c : conns_)
        if (c.pid > 0 && !c.reaped) ::kill(c.pid, SIGKILL);
    }
    if (escalated) {
      // Post-SIGKILL the children are collectible; block on them directly.
      for (Conn& c : conns_)
        if (c.pid > 0 && !c.reaped && ::waitpid(c.pid, &c.wstatus, 0) == c.pid) c.reaped = true;
      break;
    }
    ::usleep(2'000);
  }

  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  if (!uds_path_.empty()) ::unlink(uds_path_.c_str());
}

}  // namespace

RunMetrics run_socket(const ProtocolInfo& info, const DoAllConfig& cfg,
                      std::unique_ptr<FaultInjector> faults, const RunOptions& opts,
                      RunStats& stats) {
  (void)find_protocol(info.name);  // workers build by registry name: run-scoped infos throw
  SocketExecutor executor(info, cfg, opts.protocol_param, opts.live);
  RunMetrics metrics;
  try {
    executor.start();
    std::vector<std::unique_ptr<IProcess>> proxies;
    proxies.reserve(static_cast<std::size_t>(cfg.t));
    for (int p = 0; p < cfg.t; ++p)
      proxies.push_back(std::make_unique<SocketProxyProcess>(&executor, p));
    Simulator sim(std::move(proxies), std::move(faults), simulator_options(info, cfg, opts));
    sim.set_step_executor(&executor);
    metrics = sim.run();
  } catch (AbortRun& abort) {
    // Setup failure (spawn/accept/hello): same structured degradation as a
    // mid-run watchdog abort -- mid-run AbortRuns are caught by sim.run()
    // itself and never reach here.
    metrics.aborted = true;
    metrics.aborted_reason = std::move(abort.reason);
    metrics.abort_detail = std::move(abort.detail);
  }
  executor.shutdown();
  stats.threads = cfg.t;
  return metrics;
}

int maybe_socket_worker(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], kWorkerFlag) != 0) return -1;
  if (argc != 8) {
    std::fprintf(stderr, "usage: %s %s <addr> <proc> <protocol> <n> <t> <param|->\n", argv[0],
                 kWorkerFlag);
    return 2;
  }
  const std::string addr = argv[2];
  const int self = std::atoi(argv[3]);
  const std::string protocol = argv[4];
  const std::int64_t n = std::atoll(argv[5]);
  const int t = std::atoi(argv[6]);
  std::optional<std::int64_t> param;
  if (std::strcmp(argv[7], "-") != 0) param = std::atoll(argv[7]);
  if (self < 0 || self >= t || n < 1) {
    std::fprintf(stderr, "dowork socket worker: bad shape (proc=%d n=%lld t=%d)\n", self,
                 static_cast<long long>(n), t);
    return 2;
  }
  return socket_worker_main(addr, self, protocol, n, t, param);
}

}  // namespace dowork::substrate
