#include "net/event_loop.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ssa::net {

namespace detail {

/// Cross-thread mailbox shared between the loop thread and every
/// EventConnection handle. Posts append under the mutex; the eventfd is
/// written only when the queue was empty, so a burst of posts (the
/// pipelined client's completion storm) costs one wake syscall, and the
/// frames it carried flush as one batched write per connection. Posts
/// from the loop thread never wake: it applies the queue before sleeping.
struct LoopCore {
  struct Command {
    std::uint64_t connection = 0;
    std::string frame;  ///< empty = close_after_flush marker
  };

  std::mutex mutex;
  std::vector<Command> commands;
  bool stopped = false;       ///< loop exited: posts become no-ops
  bool stop_posted = false;   ///< stop() asked the loop to exit
  std::thread::id loop_thread;
  int wake_fd = -1;

  ~LoopCore() {
    // Closed here, NOT in the loop teardown: a handle mid-post still
    // holds the shared_ptr, and writing a recycled descriptor number
    // would be far worse than holding one eventfd slightly longer.
    if (wake_fd >= 0) ::close(wake_fd);
  }

  void post(std::uint64_t connection, std::string frame) {
    bool wake = false;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (stopped) return;
      wake = commands.empty() && std::this_thread::get_id() != loop_thread;
      commands.push_back(Command{connection, std::move(frame)});
    }
    if (wake) notify();
  }

  void notify() const noexcept {
    const std::uint64_t one = 1;
    // A saturated counter or EINTR only delays the wake; the loop drains
    // the queue before every sleep anyway.
    (void)!::write(wake_fd, &one, sizeof one);
  }
};

}  // namespace detail

void EventConnection::send(std::string frame) {
  if (frame.empty()) return;  // reserved as the close marker
  if (const std::shared_ptr<detail::LoopCore> core = core_.lock()) {
    core->post(id_, std::move(frame));
  }
}

void EventConnection::close_after_flush() {
  if (const std::shared_ptr<detail::LoopCore> core = core_.lock()) {
    core->post(id_, std::string());
  }
}

namespace {

constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kWakeTag = 1;
constexpr std::uint64_t kFirstConnectionTag = 2;

/// Best-effort flush budget of stop(): enough for loopback peers that
/// are actually reading, bounded so a stalled peer cannot wedge the stop.
constexpr std::chrono::milliseconds kStopFlushBudget{250};

}  // namespace

struct EventLoop::Impl {
  struct Conn {
    TcpConnection socket;
    EventConnectionPtr handle;
    std::string inbuf;
    std::size_t inpos = 0;
    std::string outbuf;
    std::size_t outpos = 0;
    bool want_close = false;
    bool reads_paused = false;
    bool write_armed = false;

    [[nodiscard]] std::size_t outstanding() const noexcept {
      return outbuf.size() - outpos;
    }
  };

  FrameHandler handler;
  EventLoopOptions options;
  TcpListener listener;
  std::shared_ptr<detail::LoopCore> core;
  int epoll_fd = -1;
  bool accepting = true;
  bool stop_requested = false;
  std::unordered_map<std::uint64_t, Conn> conns;
  std::uint64_t next_tag = kFirstConnectionTag;
  std::thread thread;  ///< last: joined before the members above die

  ~Impl() {
    if (epoll_fd >= 0) ::close(epoll_fd);
  }

  // -- epoll registration helpers -------------------------------------------

  void update_mask(std::uint64_t tag, Conn& conn) noexcept {
    epoll_event event{};
    event.data.u64 = tag;
    event.events = (conn.reads_paused ? 0u : static_cast<unsigned>(EPOLLIN)) |
                   (conn.write_armed ? static_cast<unsigned>(EPOLLOUT) : 0u);
    (void)::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.socket.fd(), &event);
  }

  void destroy(std::uint64_t tag) {
    const auto it = conns.find(tag);
    if (it == conns.end()) return;
    (void)::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, it->second.socket.fd(),
                      nullptr);
    conns.erase(it);  // TcpConnection destructor closes the descriptor
  }

  void deregister_listener() noexcept {
    if (!accepting) return;
    accepting = false;
    (void)::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listener.fd(), nullptr);
  }

  // -- accept path ----------------------------------------------------------

  void accept_ready() {
    for (;;) {
      const int fd = ::accept(listener.fd(), nullptr, nullptr);
      if (fd >= 0) {
        const int one = 1;
        (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        const std::uint64_t tag = next_tag++;
        Conn conn;
        conn.socket = TcpConnection(fd);
        conn.socket.set_nonblocking(true);
        conn.handle = EventConnectionPtr(new EventConnection(core, tag));
        epoll_event event{};
        event.data.u64 = tag;
        event.events = EPOLLIN;
        if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
          continue;  // conn dies with this scope; keep accepting
        }
        conns.emplace(tag, std::move(conn));
        continue;
      }
      // Same transient-errno discipline as the blocking accept loop had:
      // an aborted queued peer is skipped, fd exhaustion backs off (the
      // backlog keeps the peer; the pause stops a level-triggered spin).
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return;
      }
      // shutdown_listener() (EINVAL) or a dead descriptor: stop accepting;
      // live connections keep being served until stop().
      deregister_listener();
      return;
    }
  }

  // -- read path ------------------------------------------------------------

  /// Appends a loop-generated kError and marks the connection for a
  /// flush-then-close: after a framing error the stream is untrustworthy.
  void protocol_error(Conn& conn, const std::string& reason) {
    conn.outbuf += wire::encode_frame(
        wire::MessageType::kError, 0,
        wire::encode_error(wire::ErrorKind::kRuntime,
                           options.error_key + ": " + reason));
    conn.want_close = true;
  }

  /// Parses every complete frame out of the read buffer and hands it to
  /// the handler. Consumed bytes are trimmed lazily (inpos) so a burst of
  /// pipelined frames costs one compaction, not one memmove per frame.
  void parse_frames(Conn& conn) {
    while (!conn.want_close) {
      const std::size_t avail = conn.inbuf.size() - conn.inpos;
      std::uint32_t length = 0;
      if (avail < sizeof length) break;
      std::memcpy(&length, conn.inbuf.data() + conn.inpos, sizeof length);
      if (length > wire::kMaxFrameBytes) {
        protocol_error(conn, "malformed frame");
        break;
      }
      if (avail < sizeof length + length) break;
      std::optional<wire::Frame> frame = wire::decode_frame_body(
          std::string_view(conn.inbuf.data() + conn.inpos + sizeof length,
                           length));
      conn.inpos += sizeof length + length;
      if (!frame) {
        protocol_error(conn, "malformed frame");
        break;
      }
      try {
        handler(conn.handle, *std::move(frame));
      } catch (...) {
        // A handler must not take the loop down; this connection ends
        // like any other protocol failure.
        protocol_error(conn, "internal handler failure");
        break;
      }
    }
    if (conn.inpos == conn.inbuf.size()) {
      conn.inbuf.clear();
      conn.inpos = 0;
    } else if (conn.inpos >= (std::size_t{64} << 10) &&
               conn.inpos * 2 >= conn.inbuf.size()) {
      conn.inbuf.erase(0, conn.inpos);
      conn.inpos = 0;
    }
  }

  /// Drains the socket into the read buffer; false when the peer is gone.
  [[nodiscard]] bool read_ready(Conn& conn) {
    char buffer[64 << 10];
    for (;;) {
      const ssize_t n = ::recv(conn.socket.fd(), buffer, sizeof buffer, 0);
      if (n > 0) {
        conn.inbuf.append(buffer, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof buffer) break;
        continue;
      }
      if (n == 0) return false;  // EOF
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;  // transport error
    }
    parse_frames(conn);
    return true;
  }

  // -- write path -----------------------------------------------------------

  void maybe_pause(std::uint64_t tag, Conn& conn) {
    if (!conn.reads_paused &&
        conn.outstanding() > options.outbox_pause_bytes) {
      conn.reads_paused = true;
      update_mask(tag, conn);
    }
  }

  void maybe_resume(std::uint64_t tag, Conn& conn) {
    if (conn.reads_paused &&
        conn.outstanding() < options.outbox_resume_bytes) {
      conn.reads_paused = false;
      update_mask(tag, conn);
    }
  }

  /// Writes as much of the outbox as the socket takes; arms EPOLLOUT on a
  /// short write. Returns false when the connection must be destroyed
  /// (peer gone, or want_close and fully flushed).
  [[nodiscard]] bool flush(std::uint64_t tag, Conn& conn) {
    while (conn.outpos < conn.outbuf.size()) {
      const ssize_t n =
          ::send(conn.socket.fd(), conn.outbuf.data() + conn.outpos,
                 conn.outbuf.size() - conn.outpos, MSG_NOSIGNAL);
      if (n >= 0) {
        conn.outpos += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.write_armed) {
          conn.write_armed = true;
          update_mask(tag, conn);
        }
        maybe_resume(tag, conn);
        return true;
      }
      return false;  // peer gone
    }
    conn.outbuf.clear();
    conn.outpos = 0;
    if (conn.write_armed) {
      conn.write_armed = false;
      update_mask(tag, conn);
    }
    if (conn.want_close) return false;
    maybe_resume(tag, conn);
    return true;
  }

  // -- command + event pump -------------------------------------------------

  void drain_wake() const noexcept {
    std::uint64_t count = 0;
    (void)!::read(core->wake_fd, &count, sizeof count);
  }

  void apply_commands() {
    std::vector<detail::LoopCore::Command> batch;
    {
      const std::lock_guard<std::mutex> lock(core->mutex);
      batch.swap(core->commands);
      stop_requested = core->stop_posted;
    }
    for (detail::LoopCore::Command& command : batch) {
      const auto it = conns.find(command.connection);
      if (it == conns.end()) continue;  // late completion for a gone peer
      Conn& conn = it->second;
      if (command.frame.empty()) {
        conn.want_close = true;
        continue;
      }
      if (conn.outbuf.empty()) {
        conn.outbuf = std::move(command.frame);
      } else {
        conn.outbuf += command.frame;
      }
      maybe_pause(command.connection, conn);
    }
  }

  /// One batched write per connection with queued output -- the
  /// small-frame coalescing point: every frame posted since the last
  /// flush leaves in a single send().
  void flush_all() {
    std::vector<std::uint64_t> dead;
    for (auto& [tag, conn] : conns) {
      const bool pending = conn.outpos < conn.outbuf.size();
      if ((pending && !conn.write_armed) || (conn.want_close && !pending)) {
        if (!flush(tag, conn)) dead.push_back(tag);
      }
    }
    for (const std::uint64_t tag : dead) destroy(tag);
  }

  void run() {
    {
      const std::lock_guard<std::mutex> lock(core->mutex);
      core->loop_thread = std::this_thread::get_id();
    }
    epoll_event events[64];
    for (;;) {
      const int n = ::epoll_wait(epoll_fd, events, 64, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // epoll itself failed: tear down
      }
      for (int i = 0; i < n; ++i) {
        const std::uint64_t tag = events[i].data.u64;
        if (tag == kListenerTag) {
          accept_ready();
          continue;
        }
        if (tag == kWakeTag) {
          drain_wake();
          continue;
        }
        const auto it = conns.find(tag);
        if (it == conns.end()) continue;  // destroyed earlier in this batch
        Conn& conn = it->second;
        const std::uint32_t flags = events[i].events;
        if ((flags & EPOLLIN) && !read_ready(conn)) {
          destroy(tag);
          continue;
        }
        if ((flags & EPOLLOUT) && !flush(tag, conn)) {
          destroy(tag);
          continue;
        }
        if ((flags & (EPOLLHUP | EPOLLERR)) &&
            !(flags & (EPOLLIN | EPOLLOUT))) {
          destroy(tag);
        }
      }
      if (options.after_turn) options.after_turn();
      apply_commands();
      flush_all();
      if (stop_requested) break;
    }
    shutdown_flush();
  }

  /// Loop exit: take the mailbox down, apply what it still held, give
  /// every outbox one bounded chance to reach its peer (the wire-shutdown
  /// ack travels this path), then close everything.
  void shutdown_flush() {
    std::vector<detail::LoopCore::Command> batch;
    {
      const std::lock_guard<std::mutex> lock(core->mutex);
      core->stopped = true;
      batch.swap(core->commands);
    }
    for (detail::LoopCore::Command& command : batch) {
      const auto it = conns.find(command.connection);
      if (it == conns.end() || command.frame.empty()) continue;
      it->second.outbuf += command.frame;
    }
    const auto deadline = std::chrono::steady_clock::now() + kStopFlushBudget;
    for (auto& [tag, conn] : conns) {
      while (conn.outpos < conn.outbuf.size()) {
        const ssize_t n =
            ::send(conn.socket.fd(), conn.outbuf.data() + conn.outpos,
                   conn.outbuf.size() - conn.outpos, MSG_NOSIGNAL);
        if (n >= 0) {
          conn.outpos += static_cast<std::size_t>(n);
          continue;
        }
        if (errno == EINTR) continue;
        const auto now = std::chrono::steady_clock::now();
        if ((errno != EAGAIN && errno != EWOULDBLOCK) || now >= deadline) {
          break;
        }
        pollfd waiter{conn.socket.fd(), POLLOUT, 0};
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  now);
        (void)::poll(&waiter, 1, static_cast<int>(remaining.count()) + 1);
      }
    }
    conns.clear();
  }
};

EventLoop::EventLoop(TcpListener listener, FrameHandler handler,
                     EventLoopOptions options)
    : impl_(std::make_unique<Impl>()) {
  if (!listener.valid()) {
    throw std::invalid_argument("event-loop: invalid listener");
  }
  impl_->handler = std::move(handler);
  impl_->options = std::move(options);
  impl_->listener = std::move(listener);
  impl_->core = std::make_shared<detail::LoopCore>();
  impl_->core->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  impl_->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (impl_->core->wake_fd < 0 || impl_->epoll_fd < 0) {
    throw std::runtime_error("event-loop: epoll/eventfd setup failed");
  }
  impl_->listener.set_nonblocking(true);
  epoll_event listen_event{};
  listen_event.data.u64 = kListenerTag;
  listen_event.events = EPOLLIN;
  epoll_event wake_event{};
  wake_event.data.u64 = kWakeTag;
  wake_event.events = EPOLLIN;
  if (::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->listener.fd(),
                  &listen_event) != 0 ||
      ::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->core->wake_fd,
                  &wake_event) != 0) {
    throw std::runtime_error("event-loop: epoll registration failed");
  }
  impl_->thread = std::thread([this] { impl_->run(); });
}

EventLoop::~EventLoop() { stop(); }

std::uint16_t EventLoop::port() const noexcept {
  return impl_->listener.port();
}

void EventLoop::shutdown_listener() noexcept {
  // Wakes the loop through the listener fd itself (EPOLLHUP); accept then
  // fails with EINVAL and the loop deregisters it.
  impl_->listener.shutdown();
}

void EventLoop::stop() {
  {
    const std::lock_guard<std::mutex> lock(impl_->core->mutex);
    impl_->core->stop_posted = true;
  }
  impl_->core->notify();
  if (impl_->thread.joinable()) impl_->thread.join();
  impl_->listener.close();
}

}  // namespace ssa::net
