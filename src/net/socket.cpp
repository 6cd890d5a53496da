#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "wire/codec.hpp"
#include "wire/protocol.hpp"

namespace ssa::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Writes the whole buffer, retrying on EINTR and partial writes.
/// MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
void send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("net: send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Reads exactly \p size bytes of a frame whose head was already read, so
/// EOF before the last byte throws.
void recv_all(int fd, char* data, std::size_t size) {
  std::size_t received = 0;
  while (received < size) {
    const ssize_t n = ::recv(fd, data + received, size - received, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("net: recv");
    }
    if (n == 0) throw std::runtime_error("net: connection closed mid-frame");
    received += static_cast<std::size_t>(n);
  }
}

/// Sets/clears O_NONBLOCK; best-effort (fcntl on a live socket only fails
/// for programming errors, which the callers cannot act on anyway).
void set_nonblocking_fd(int fd, bool nonblocking) noexcept {
  if (fd < 0) return;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  const int wanted = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (wanted != flags) (void)::fcntl(fd, F_SETFL, wanted);
}

}  // namespace

// -- TcpConnection ----------------------------------------------------------

TcpConnection::~TcpConnection() { close(); }

TcpConnection::TcpConnection(TcpConnection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      read_buffer_(std::move(other.read_buffer_)),
      read_begin_(std::exchange(other.read_begin_, 0)),
      read_end_(std::exchange(other.read_end_, 0)) {}

TcpConnection& TcpConnection::operator=(TcpConnection&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    read_buffer_ = std::move(other.read_buffer_);
    read_begin_ = std::exchange(other.read_begin_, 0);
    read_end_ = std::exchange(other.read_end_, 0);
  }
  return *this;
}

TcpConnection TcpConnection::connect(const std::string& host,
                                     std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("net: socket");
  TcpConnection connection(fd);  // owns fd from here on
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    throw std::runtime_error("net: bad address " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) != 0) {
    throw_errno("net: connect to " + host + ":" + std::to_string(port));
  }
  // Frames are request/response pairs; Nagle would add latency for free.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return connection;
}

void TcpConnection::send_frame(std::string_view frame) {
  if (!valid()) throw std::runtime_error("net: send on a closed connection");
  send_all(fd_, frame.data(), frame.size());
}

bool TcpConnection::buffer_at_least(std::size_t count) {
  if (!read_buffer_) {
    read_buffer_ = std::make_unique_for_overwrite<char[]>(kReadChunk);
  }
  if (read_begin_ == read_end_) {
    read_begin_ = read_end_ = 0;
  } else if (read_begin_ + count > kReadChunk) {
    std::memmove(read_buffer_.get(), read_buffer_.get() + read_begin_,
                 read_end_ - read_begin_);
    read_end_ -= read_begin_;
    read_begin_ = 0;
  }
  while (read_end_ - read_begin_ < count) {
    const ssize_t n = ::recv(fd_, read_buffer_.get() + read_end_,
                             kReadChunk - read_end_, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("net: recv");
    }
    if (n == 0) {
      if (read_begin_ == read_end_) return false;
      throw std::runtime_error("net: connection closed mid-frame");
    }
    read_end_ += static_cast<std::size_t>(n);
  }
  return true;
}

bool TcpConnection::frame_buffered() const noexcept {
  std::uint32_t length = 0;
  if (read_end_ - read_begin_ < sizeof length) return false;
  std::memcpy(&length, read_buffer_.get() + read_begin_, sizeof length);
  return read_end_ - read_begin_ >= sizeof length + std::size_t{length};
}

std::optional<std::string> TcpConnection::recv_frame() {
  if (!valid()) throw std::runtime_error("net: recv on a closed connection");
  std::uint32_t length = 0;
  if (!buffer_at_least(sizeof length)) {
    return std::nullopt;  // clean EOF between frames
  }
  std::memcpy(&length, read_buffer_.get() + read_begin_, sizeof length);
  if (length > wire::kMaxFrameBytes) {
    throw std::runtime_error("net: frame length " + std::to_string(length) +
                             " exceeds the protocol cap");
  }
  const std::size_t frame_size = sizeof length + std::size_t{length};
  if (frame_size <= kReadChunk) {
    (void)buffer_at_least(frame_size);
    std::string body(read_buffer_.get() + read_begin_ + sizeof length,
                     length);
    read_begin_ += frame_size;
    return body;
  }
  // Larger than the buffer: take the buffered head, then receive the rest
  // straight into the body.
  const std::size_t head = read_end_ - read_begin_ - sizeof length;
  std::string body(length, '\0');
  std::memcpy(body.data(), read_buffer_.get() + read_begin_ + sizeof length,
              head);
  read_begin_ = read_end_ = 0;
  recv_all(fd_, body.data() + head, body.size() - head);
  return body;
}

void TcpConnection::shutdown_both() noexcept {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
}

void TcpConnection::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpConnection::set_nonblocking(bool nonblocking) noexcept {
  set_nonblocking_fd(fd_, nonblocking);
}

// -- TcpListener ------------------------------------------------------------

TcpListener::~TcpListener() { close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

TcpListener TcpListener::bind_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("net: socket");
  TcpListener listener;
  listener.fd_ = fd;  // owns fd from here on
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, kLoopbackHost, &address.sin_addr) != 1) {
    throw std::runtime_error("net: bad loopback address");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof address) != 0) {
    throw_errno("net: bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, SOMAXCONN) != 0) throw_errno("net: listen");
  sockaddr_in bound{};
  socklen_t bound_size = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_size) !=
      0) {
    throw_errno("net: getsockname");
  }
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

std::optional<TcpConnection> TcpListener::accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return TcpConnection(fd);
    }
    // Transient conditions must not kill the accept loop for the rest of
    // the server's life: a peer that aborted while queued (ECONNABORTED,
    // routine under load) is simply skipped, and momentary fd exhaustion
    // is retried after a breather (the pending connection keeps waiting
    // in the backlog).
    if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) continue;
    if (errno == EMFILE || errno == ENFILE) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    // shutdown()/close() took the listening socket down (EINVAL/EBADF):
    // signal the accept loop to exit.
    return std::nullopt;
  }
}

void TcpListener::shutdown() noexcept {
  // Unblocks a thread parked in accept() (it returns EINVAL); plain
  // close() alone would leave it waiting forever on Linux, and closing
  // the fd under a live accept() races the kernel reusing the number.
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
}

void TcpListener::close() noexcept {
  if (fd_ >= 0) {
    (void)::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpListener::set_nonblocking(bool nonblocking) noexcept {
  set_nonblocking_fd(fd_, nonblocking);
}

}  // namespace ssa::net
