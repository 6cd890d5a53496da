#pragma once
/// \file socket.hpp
/// Minimal RAII TCP primitives for the serving front door and its clients
/// (POSIX sockets; the library's deployment targets are Linux hosts).
/// TcpConnection sends/receives whole wire frames (wire/protocol.hpp) --
/// the length prefix is handled here, so the layers above only ever see
/// complete frame bodies. send_frame/recv_frame block; the event loop
/// (net/event_loop.hpp) drives its own descriptors non-blocking and uses
/// neither. The blocking users are the multiplexed client connections
/// (net/mux_connection.hpp): one reader thread per connection calls
/// recv_frame, any thread may send.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace ssa::net {

/// One established, blocking TCP stream. Movable, not copyable; the
/// destructor closes the socket.
class TcpConnection {
 public:
  TcpConnection() = default;
  /// Adopts an already-connected file descriptor (accept(), tests).
  explicit TcpConnection(int fd) : fd_(fd) {}
  ~TcpConnection();

  TcpConnection(TcpConnection&& other) noexcept;
  TcpConnection& operator=(TcpConnection&& other) noexcept;
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Connects to \p host:\p port; throws std::runtime_error on failure.
  [[nodiscard]] static TcpConnection connect(const std::string& host,
                                             std::uint16_t port);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  /// Sends pre-encoded bytes whole: one frame (length prefix included,
  /// wire::encode_frame) or several such frames back to back. Throws
  /// std::runtime_error when the peer is gone.
  void send_frame(std::string_view frame);

  /// Receives one frame and returns its BODY (the bytes after the length
  /// prefix, ready for wire::decode_frame_body). Reads in bulk: one recv()
  /// takes up to kReadChunk bytes into a per-connection buffer, and the
  /// frames already in it are returned without another syscall; a frame
  /// larger than the chunk reads its remainder straight into the body.
  /// nullopt on clean EOF between frames (after every buffered frame was
  /// returned); throws std::runtime_error on mid-frame EOF, transport
  /// errors, or a length beyond wire::kMaxFrameBytes (before allocating
  /// the body). Not thread-safe against itself: one reader per connection.
  [[nodiscard]] std::optional<std::string> recv_frame();

  /// True when recv_frame can return a frame without calling recv().
  [[nodiscard]] bool frame_buffered() const noexcept;

  /// Most bytes one recv() in recv_frame asks for.
  static constexpr std::size_t kReadChunk = std::size_t{64} << 10;

  /// Half-closes both directions WITHOUT releasing the descriptor: a peer
  /// thread blocked in recv_frame() observes EOF and exits cleanly, after
  /// which the owner may close(). (Closing under a live recv() races the
  /// kernel reusing the fd number, exactly like the listener case.)
  void shutdown_both() noexcept;

  void close() noexcept;

  /// The raw descriptor (still owned by this object) -- what the event
  /// loop registers with epoll and drives with non-blocking reads/writes.
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Switches the descriptor between blocking (the default) and
  /// non-blocking mode. send_frame/recv_frame assume blocking mode; the
  /// event loop owns non-blocking descriptors and never uses them.
  void set_nonblocking(bool nonblocking) noexcept;

 private:
  /// Reads until at least \p count (<= kReadChunk) bytes are buffered.
  /// False on EOF with nothing buffered; EOF after a partial frame throws.
  bool buffer_at_least(std::size_t count);

  int fd_ = -1;
  /// recv_frame's read buffer (kReadChunk bytes, allocated on first use
  /// and never zero-filled); bytes [read_begin_, read_end_) are received
  /// but not yet returned.
  std::unique_ptr<char[]> read_buffer_;
  std::size_t read_begin_ = 0;
  std::size_t read_end_ = 0;
};

/// A listening socket bound to the loopback interface. close() (or the
/// destructor) unblocks a concurrent accept().
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds 127.0.0.1:\p port (0 = ephemeral; port() reports the choice)
  /// and listens. Throws std::runtime_error on failure.
  [[nodiscard]] static TcpListener bind_loopback(std::uint16_t port);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Blocks for the next connection; nullopt once shutdown()/close() was
  /// called (the accept-loop exit signal).
  [[nodiscard]] std::optional<TcpConnection> accept();

  /// Unblocks a concurrent accept() WITHOUT closing the descriptor, so a
  /// stop sequence can join its accept thread before close() releases the
  /// fd (closing first would race the kernel reusing the number).
  void shutdown() noexcept;

  void close() noexcept;

  /// The raw descriptor (still owned); the event loop polls it directly.
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Non-blocking mode for event-loop accepting (accept() here assumes
  /// blocking mode and must not be mixed with it).
  void set_nonblocking(bool nonblocking) noexcept;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// The loopback address every component of this library binds/dials.
inline constexpr const char* kLoopbackHost = "127.0.0.1";

}  // namespace ssa::net
