#pragma once
/// \file event_loop.hpp
/// The epoll-based server core behind every wire server (ServiceServer,
/// FrontDoor): ONE loop thread multiplexes the listener and every accepted
/// connection over non-blocking sockets, replacing the PR-5
/// thread-per-connection skeleton. This is what makes request pipelining
/// real on the server side -- a connection with ten in-flight requests
/// costs one epoll registration and two buffers, not ten parked threads.
///
/// Responsibilities split:
///  - the LOOP owns all sockets and their per-connection read/write
///    buffers, parses length-prefixed v3 frames out of the read buffer and
///    hands each decoded wire::Frame to the owner's handler;
///  - the HANDLER (called on the loop thread) implements the protocol. It
///    must not block -- slow work is handed to worker threads which answer
///    later through the thread-safe EventConnection::send;
///  - responses are queued on the connection's outbox and flushed by the
///    loop. Frames queued while the loop is busy elsewhere coalesce into
///    one write() (small-frame batching -- the pipelined client's chatty
///    submit/get pairs ride the same syscall). A send from the loop
///    thread itself (a handler answering inline) needs no wake-up: the
///    loop applies it before it sleeps;
///  - EventLoopOptions::after_turn runs on the loop thread once per turn,
///    after that turn's handlers -- the FrontDoor sends each backend's
///    batch of forwarded frames there.
///
/// Backpressure: a connection whose outbox exceeds
/// EventLoopOptions::outbox_pause_bytes stops being READ until the peer
/// drains it below outbox_resume_bytes -- a slow reader throttles its own
/// request stream instead of ballooning the server's memory.
///
/// Malformed input (bad length prefix, undecodable envelope) answers one
/// kError frame with request id 0 and closes the connection after the
/// flush: after a framing error nothing later on the stream can be
/// trusted. This mirrors the PR-5 handler behavior exactly.
///
/// Teardown: shutdown_listener() stops accepting while live connections
/// keep being served (the wire-kShutdown path); stop() drains the command
/// queue, makes a bounded best-effort flush of every outbox (a stalled
/// peer cannot wedge the stop), closes everything and joins the loop
/// thread. The destructor performs a full stop().

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/socket.hpp"
#include "wire/protocol.hpp"

namespace ssa::net {

namespace detail {
struct LoopCore;
}  // namespace detail

/// Thread-safe handle to one accepted connection. Handlers receive a
/// shared_ptr and may keep it as long as they like (worker threads answer
/// through it after the handler returned); once the peer disconnects or
/// the loop stops, send() becomes a silent no-op -- exactly what a late
/// completion wants.
class EventConnection {
 public:
  /// Queues one pre-encoded frame (length prefix included,
  /// wire::encode_frame) for sending and wakes the loop. Never blocks,
  /// never throws; a no-op once the connection or loop is gone.
  void send(std::string frame);

  /// Asks the loop to close this connection once its queued writes have
  /// flushed -- the "answered a fatal protocol error" path.
  void close_after_flush();

 private:
  friend class EventLoop;  // Impl (a member) constructs handles
  EventConnection(std::weak_ptr<detail::LoopCore> core, std::uint64_t id)
      : core_(std::move(core)), id_(id) {}

  std::weak_ptr<detail::LoopCore> core_;
  std::uint64_t id_;
};

using EventConnectionPtr = std::shared_ptr<EventConnection>;

struct EventLoopOptions {
  /// Outbox size past which the loop stops reading from that connection.
  std::size_t outbox_pause_bytes = std::size_t{4} << 20;
  /// Outbox size below which a paused connection resumes reading.
  std::size_t outbox_resume_bytes = std::size_t{512} << 10;
  /// Protocol key used in loop-generated kError messages
  /// ("service-server", "front-door").
  std::string error_key = "event-loop";
  /// Called on the loop thread at the end of every turn, after the turn's
  /// handlers and before its queued responses are written. Empty = none.
  std::function<void()> after_turn;
};

/// One listener + one epoll loop thread serving every connection.
/// Thread-safe surface; the destructor performs a full stop().
class EventLoop {
 public:
  /// Called on the loop thread for every complete, well-formed frame.
  using FrameHandler =
      std::function<void(const EventConnectionPtr&, wire::Frame)>;

  /// Takes ownership of \p listener and starts serving immediately.
  EventLoop(TcpListener listener, FrameHandler handler,
            EventLoopOptions options = {});
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Stops accepting new connections; live connections keep being served.
  /// Safe from any thread including the loop thread's handlers.
  void shutdown_listener() noexcept;

  /// Full stop (see the file comment). Idempotent; must NOT be called
  /// from the loop thread itself.
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ssa::net
