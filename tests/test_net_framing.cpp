// TcpConnection::recv_frame's bulk reader on a socketpair: one recv()
// fills a per-connection buffer and frames are cut out of it, so these
// tests write frames in shapes a single recv() sees whole, in part, or
// byte by byte, and pin the framing contract -- clean EOF between frames
// returns nullopt, EOF mid-frame throws, and a length over kMaxFrameBytes
// throws before any body is allocated. Labelled `net` (CMakeLists).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "wire/protocol.hpp"

namespace {

/// Largest single allocation made on this thread while `tracking` is set:
/// the over-cap test checks that recv_frame rejects a length before it
/// allocates a body for it.
thread_local bool tracking = false;
thread_local std::size_t largest_tracked = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (tracking && size > largest_tracked) largest_tracked = size;
  if (void* memory = std::malloc(size == 0 ? 1 : size)) return memory;
  throw std::bad_alloc();
}
void operator delete(void* memory) noexcept { std::free(memory); }
void operator delete(void* memory, std::size_t) noexcept {
  std::free(memory);
}

namespace ssa {
namespace {

/// A connected socketpair: the reading end adopted by a TcpConnection,
/// the writing end a raw descriptor the test writes bytes to.
struct Pair {
  net::TcpConnection reader;
  int writer = -1;

  Pair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    // A recv that would wait for bytes nobody sends fails the test after
    // 5 s instead of hanging it.
    timeval timeout{5, 0};
    (void)::setsockopt(fds[0], SOL_SOCKET, SO_RCVTIMEO, &timeout,
                       sizeof timeout);
    reader = net::TcpConnection(fds[0]);
    writer = fds[1];
  }
  ~Pair() { close_writer(); }

  void write(std::string_view bytes) const {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(writer, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("socketpair write failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  void close_writer() {
    if (writer >= 0) ::close(writer);
    writer = -1;
  }
};

/// Frame \p id with a payload of \p size pattern bytes.
std::string frame(std::uint64_t id, std::size_t size) {
  std::string payload(size, '\0');
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<char>((i * 131 + id) & 0xff);
  }
  return wire::encode_frame(wire::MessageType::kReport, id, payload);
}

/// The body recv_frame should return for \p encoded.
std::string body_of(const std::string& encoded) {
  return encoded.substr(sizeof(std::uint32_t));
}

std::string length_prefix(std::uint32_t length) {
  std::string bytes(sizeof length, '\0');
  std::memcpy(bytes.data(), &length, sizeof length);
  return bytes;
}

TEST(FramingTest, SixtyFourFramesInOneWrite) {
  Pair pair;
  std::vector<std::string> frames;
  std::string all;
  for (std::uint64_t id = 0; id < 64; ++id) {
    frames.push_back(frame(id, 16 * id));
    all += frames.back();
  }
  pair.write(all);
  for (const std::string& expected : frames) {
    const std::optional<std::string> body = pair.reader.recv_frame();
    ASSERT_TRUE(body.has_value());
    EXPECT_EQ(*body, body_of(expected));
  }
  EXPECT_FALSE(pair.reader.frame_buffered());
}

TEST(FramingTest, OneMebibyteFrameLargerThanTheReadChunk) {
  Pair pair;
  const std::string large = frame(1, std::size_t{1} << 20);
  const std::string small = frame(2, 40);
  ASSERT_GT(large.size(), net::TcpConnection::kReadChunk);
  // More than a socket buffer holds: write from another thread.
  std::thread writer([&] { pair.write(large + small); });
  const std::optional<std::string> first = pair.reader.recv_frame();
  const std::optional<std::string> second = pair.reader.recv_frame();
  writer.join();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(*first == body_of(large));
  EXPECT_EQ(*second, body_of(small));
}

TEST(FramingTest, FrameWrittenOneByteAtATime) {
  Pair pair;
  const std::string first = frame(7, 45);
  const std::string second = frame(8, 3);
  std::thread writer([&] {
    for (const char byte : first + second) {
      pair.write(std::string_view(&byte, 1));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const std::optional<std::string> a = pair.reader.recv_frame();
  const std::optional<std::string> b = pair.reader.recv_frame();
  writer.join();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, body_of(first));
  EXPECT_EQ(*b, body_of(second));
}

TEST(FramingTest, CleanEofAfterBufferedFramesReturnsEachFrameThenNullopt) {
  Pair pair;
  const std::vector<std::string> frames = {frame(1, 10), frame(2, 0),
                                           frame(3, 300)};
  pair.write(frames[0] + frames[1] + frames[2]);
  pair.close_writer();
  for (const std::string& expected : frames) {
    const std::optional<std::string> body = pair.reader.recv_frame();
    ASSERT_TRUE(body.has_value());
    EXPECT_EQ(*body, body_of(expected));
  }
  EXPECT_FALSE(pair.reader.recv_frame().has_value());
  EXPECT_FALSE(pair.reader.recv_frame().has_value());  // stays at EOF
}

TEST(FramingTest, EofMidFrameThrows) {
  {
    Pair pair;  // EOF inside the body
    const std::string whole = frame(4, 100);
    pair.write(frame(3, 5) + whole.substr(0, whole.size() - 1));
    pair.close_writer();
    ASSERT_TRUE(pair.reader.recv_frame().has_value());
    EXPECT_THROW((void)pair.reader.recv_frame(), std::runtime_error);
  }
  {
    Pair pair;  // EOF inside the length prefix
    pair.write(frame(5, 5).substr(0, 2));
    pair.close_writer();
    EXPECT_THROW((void)pair.reader.recv_frame(), std::runtime_error);
  }
}

TEST(FramingTest, OverCapLengthThrowsBeforeAnyBodyAllocation) {
  Pair pair;
  // Only the length: a reader that went on to receive the body would
  // wait for bytes that never come and fail with a timeout instead.
  pair.write(length_prefix(wire::kMaxFrameBytes + 1));
  std::string message;
  tracking = true;
  largest_tracked = 0;
  try {
    (void)pair.reader.recv_frame();
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  tracking = false;
  EXPECT_NE(message.find("exceeds the protocol cap"), std::string::npos)
      << message;
  EXPECT_LE(largest_tracked, net::TcpConnection::kReadChunk);
}

}  // namespace
}  // namespace ssa
