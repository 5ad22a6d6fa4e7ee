#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "net/line_framer.h"
#include "service/protocol.h"

namespace vblock {
namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

// One queued input line, framed but not yet executed.
struct PendingLine {
  std::string text;
  bool overlong = false;
};

// Result slot a worker thread fills; the event loop polls `ready` after a
// mailbox wakeup. `text` is written before the release store, read after
// the acquire load — no lock needed.
struct CompletionSlot {
  std::atomic<bool> ready{false};
  std::string text;
};

struct TcpServer::Mailbox {
  int event_fd = -1;
  std::mutex mutex;
  std::vector<int> ready_fds;  // connection fds with a completion to pump

  ~Mailbox() {
    if (event_fd >= 0) ::close(event_fd);
  }

  void Post(int fd) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ready_fds.push_back(fd);
    }
    const uint64_t one = 1;
    // A full eventfd counter still wakes the loop; ignore short writes.
    [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof(one));
  }

  std::vector<int> Drain() {
    uint64_t counter = 0;
    [[maybe_unused]] ssize_t n =
        ::read(event_fd, &counter, sizeof(counter));
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<int> out;
    out.swap(ready_fds);
    return out;
  }
};

// All connection state is owned by the event-loop thread; worker threads
// only ever touch the CompletionSlot and the mailbox.
struct TcpServer::Connection {
  int fd = -1;
  uint32_t epoll_mask = 0;
  LineFramer framer;
  std::deque<PendingLine> pending;
  std::string out;      // unsent response bytes
  size_t out_off = 0;   // sent prefix of `out`
  bool busy = false;    // a command is executing
  bool peer_eof = false;
  bool closing = false;  // close once `out` drains (QUIT / drain / error)
  bool read_paused = false;
  std::unique_ptr<ServiceSession> session;
  std::shared_ptr<CompletionSlot> inflight;

  explicit Connection(size_t max_line_bytes) : framer(max_line_bytes) {}
};

TcpServer::TcpServer(GraphRegistry* registry, QueryService* service,
                     const TcpServerOptions& options)
    : registry_(registry), service_(service), options_(options),
      mailbox_(std::make_shared<Mailbox>()),
      // Re-Gets of the cells the service registered (with their HELP
      // text) at construction.
      connections_total_(
          service->metrics().GetCounter("vblock_net_connections_total", "")),
      active_(service->metrics().GetGauge("vblock_net_active", "")),
      bytes_in_(service->metrics().GetCounter("vblock_net_bytes_in_total", "")),
      bytes_out_(
          service->metrics().GetCounter("vblock_net_bytes_out_total", "")),
      lines_(service->metrics().GetCounter("vblock_net_lines_total", "")),
      errors_(service->metrics().GetCounter("vblock_net_errors_total", "")) {
  mailbox_->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
}

TcpServer::~TcpServer() {
  // Run() closes every connection through CloseConnection before it
  // returns; connections still open here (Run never ran, or failed) are
  // closed directly and leave the active gauge too.
  for (auto& [fd, conn] : connections_) {
    if (conn->fd < 0) continue;
    ::close(conn->fd);
    conn->fd = -1;
    active_->Add(-1);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status TcpServer::Start() {
  if (listen_fd_ >= 0) return Status::OK();
  if (mailbox_->event_fd < 0) {
    return Status::IoError("eventfd: " + std::string(std::strerror(errno)));
  }
  return Listen();
}

Status TcpServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IoError("socket: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(),
                  &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::IoError("bind " + options_.bind_address + ":" +
                           std::to_string(options_.port) + ": " +
                           std::strerror(errno));
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    return Status::IoError("listen: " + std::string(std::strerror(errno)));
  }
  if (!SetNonBlocking(listen_fd_)) {
    return Status::IoError("fcntl: " + std::string(std::strerror(errno)));
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &len) != 0) {
    return Status::IoError("getsockname: " +
                           std::string(std::strerror(errno)));
  }
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IoError("epoll_create1: " +
                           std::string(std::strerror(errno)));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.events = EPOLLIN;
  ev.data.fd = mailbox_->event_fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, mailbox_->event_fd, &ev);
  return Status::OK();
}

int TcpServer::Run() {
  if (listen_fd_ < 0) {
    Status started = Start();
    if (!started.ok()) return 1;
  }
  Timer drain_timer;
  std::vector<epoll_event> events(256);
  while (true) {
    if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
      BeginDrain();
      drain_timer.Reset();
    }
    if (draining_ && connections_.empty()) return 0;
    if (draining_ &&
        drain_timer.ElapsedSeconds() > options_.drain_grace_seconds) {
      // Peers that never read their responses do not get to wedge
      // shutdown: force-close whatever is left.
      while (!connections_.empty()) {
        CloseConnection(connections_.begin()->second);
      }
      return 0;
    }

    const int timeout_ms = draining_ ? 50 : -1;
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return 1;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t mask = events[i].events;
      if (fd == listen_fd_) {
        if (!draining_) Accept();
        continue;
      }
      if (fd == mailbox_->event_fd) {
        for (int ready_fd : mailbox_->Drain()) {
          auto it = connections_.find(ready_fd);
          if (it != connections_.end()) Pump(it->second);
        }
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if (mask & (EPOLLERR | EPOLLHUP)) {
        // EPOLLHUP with unread data still delivers EPOLLIN first under
        // level triggering, but a hard error ends the conversation.
        if ((mask & EPOLLERR) != 0) {
          errors_->Increment();
          CloseConnection(conn);
          continue;
        }
      }
      if (mask & EPOLLIN) HandleReadable(conn);
      if (conn->fd >= 0 && (mask & EPOLLOUT)) {
        FlushWrites(conn);
        if (conn->fd >= 0) UpdateInterest(conn);
      }
      if (conn->fd >= 0 && (mask & EPOLLHUP) && conn->out_off >= conn->out.size() &&
          !conn->busy && conn->pending.empty()) {
        CloseConnection(conn);
      }
    }
  }
}

void TcpServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  // write(2) is async-signal-safe; the mailbox mutex is not, so poke the
  // eventfd directly — Run() notices the flag on wakeup.
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n =
      ::write(mailbox_->event_fd, &one, sizeof(one));
}

void TcpServer::BeginDrain() {
  draining_ = true;
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Snapshot: Pump may close connections and invalidate iterators.
  std::vector<std::shared_ptr<Connection>> open;
  open.reserve(connections_.size());
  for (auto& [fd, conn] : connections_) open.push_back(conn);
  for (auto& conn : open) {
    // Stop reading; whatever was already framed still executes, then the
    // flushed socket closes.
    conn->peer_eof = true;
    Pump(conn);
  }
}

void TcpServer::Accept() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      errors_->Increment();
      return;
    }
    if (connections_.size() >=
        static_cast<size_t>(options_.max_connections)) {
      errors_->Increment();
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>(options_.max_line_bytes);
    conn->fd = fd;
    conn->session = std::make_unique<ServiceSession>(registry_, service_);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      errors_->Increment();
      ::close(fd);
      continue;
    }
    conn->epoll_mask = EPOLLIN;
    connections_[fd] = conn;
    connections_total_->Increment();
    active_->Add(1);
  }
}

void TcpServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  // Bounded read per event (level triggering re-arms what remains) keeps
  // one firehose client from starving the rest of the loop.
  char buffer[16384];
  size_t budget = 4 * sizeof(buffer);
  while (budget > 0 && !conn->read_paused) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      bytes_in_->Increment(static_cast<uint64_t>(n));
      conn->framer.Append(buffer, static_cast<size_t>(n));
      budget -= static_cast<size_t>(n) < budget
                    ? static_cast<size_t>(n)
                    : budget;
      PullLines(conn);
      continue;
    }
    if (n == 0) {
      conn->peer_eof = true;
      PullLines(conn);
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    errors_->Increment();
    CloseConnection(conn);
    return;
  }
  Pump(conn);
}

void TcpServer::PullLines(const std::shared_ptr<Connection>& conn) {
  PendingLine line;
  while (conn->pending.size() < options_.max_queued_lines &&
         conn->framer.Next(&line.text, &line.overlong)) {
    lines_->Increment();
    conn->pending.push_back(std::move(line));
  }
  if (conn->peer_eof && conn->pending.size() < options_.max_queued_lines) {
    // The stream may have ended mid-line; that partial line is still a
    // command (same contract as the stdin REPL at EOF).
    while (conn->framer.Next(&line.text, &line.overlong) ||
           conn->framer.TakeFinal(&line.text, &line.overlong)) {
      lines_->Increment();
      conn->pending.push_back(std::move(line));
    }
  }
}

void TcpServer::StartNext(const std::shared_ptr<Connection>& conn) {
  PendingLine line = std::move(conn->pending.front());
  conn->pending.pop_front();
  auto slot = std::make_shared<CompletionSlot>();
  conn->inflight = slot;
  conn->busy = true;
  if (line.overlong) {
    slot->text = OverlongLineResponse(conn->framer.max_line_bytes());
    slot->ready.store(true, std::memory_order_release);
    return;
  }
  // The callback runs on a worker thread (or synchronously right here for
  // immediate commands). It holds the connection and mailbox alive by
  // shared_ptr and touches nothing but the slot — the event loop owns all
  // other connection state.
  std::shared_ptr<Mailbox> mailbox = mailbox_;
  const int fd = conn->fd;
  std::shared_ptr<Connection> keepalive = conn;
  conn->session->ExecuteAsync(
      line.text,
      [slot, mailbox, fd, keepalive](std::string response) {
        slot->text = std::move(response);
        slot->ready.store(true, std::memory_order_release);
        mailbox->Post(fd);
      });
}

void TcpServer::Pump(std::shared_ptr<Connection> conn) {
  if (conn->fd < 0) return;
  while (true) {
    if (conn->busy) {
      if (!conn->inflight->ready.load(std::memory_order_acquire)) break;
      std::string response = std::move(conn->inflight->text);
      conn->inflight.reset();
      conn->busy = false;
      if (!response.empty()) {
        if (response.compare(0, 3, "ERR") == 0) {
          errors_->Increment();
        }
        conn->out += response;
        conn->out += '\n';
      }
      if (conn->session->done()) conn->closing = true;  // QUIT
    }
    if (conn->closing || conn->pending.empty()) break;
    StartNext(conn);
  }
  FlushWrites(conn);
  if (conn->fd < 0) return;
  const bool drained = conn->out_off >= conn->out.size();
  if (drained && !conn->busy &&
      (conn->closing || (conn->peer_eof && conn->pending.empty()))) {
    CloseConnection(conn);
    return;
  }
  UpdateInterest(conn);
}

void TcpServer::FlushWrites(const std::shared_ptr<Connection>& conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_off,
               conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      bytes_out_->Increment(static_cast<uint64_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    errors_->Increment();
    CloseConnection(conn);
    return;
  }
  if (conn->out_off == conn->out.size() && !conn->out.empty()) {
    conn->out.clear();
    conn->out_off = 0;
  }
}

void TcpServer::UpdateInterest(const std::shared_ptr<Connection>& conn) {
  const size_t unsent = conn->out.size() - conn->out_off;
  // Hysteresis at half the caps so interest does not flap per byte.
  if (!conn->read_paused &&
      (conn->pending.size() >= options_.max_queued_lines ||
       unsent >= options_.write_pause_bytes)) {
    conn->read_paused = true;
  } else if (conn->read_paused &&
             conn->pending.size() <= options_.max_queued_lines / 2 &&
             unsent <= options_.write_pause_bytes / 2) {
    conn->read_paused = false;
  }
  uint32_t want = 0;
  if (!conn->peer_eof && !conn->closing && !conn->read_paused) {
    want |= EPOLLIN;
  }
  if (unsent > 0) want |= EPOLLOUT;
  if (want == conn->epoll_mask) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->epoll_mask = want;
}

void TcpServer::CloseConnection(std::shared_ptr<Connection> conn) {
  if (conn->fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  connections_.erase(conn->fd);
  conn->fd = -1;
  active_->Add(-1);
}

}  // namespace vblock
