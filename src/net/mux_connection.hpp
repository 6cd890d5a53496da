#pragma once
/// \file mux_connection.hpp
/// One multiplexed client connection: the sending half of request
/// pipelining. Many calls may be in flight at once on the single TCP
/// stream -- each request frame is stamped with a connection-unique
/// wire request id, the callback is parked in a pending map, and a
/// dedicated reader thread dispatches every response frame to its
/// caller by that id, in whatever order the server answers.
///
/// This is the shared client-side transport of the serving stack:
/// TcpClient layers the blocking/async AuctionClient surface over
/// call()/call_sync(), and the FrontDoor keeps exactly one MuxConnection
/// per backend (its continuation-style forwarding rides the callback
/// form, so a blocking backend get parks a map entry, never a thread).
///
/// Sending: call() appends the encoded frame to the connection's outbox,
/// and flush() sends everything queued there in one write, in call order.
/// A call with Flush::kNow (the default, and what TcpClient uses) flushes
/// before it returns; the FrontDoor queues with Flush::kLater during one
/// event-loop turn and flushes each backend's outbox once at the end of
/// the turn, so a turn that forwards many frames costs one send() per
/// backend. The reader thread receives with TcpConnection::recv_frame,
/// which reads in bulk, and its own turn works the same way: a call made
/// from a callback (a get chained to its submit's ack, say) is queued,
/// and the reader flushes once it has dispatched every frame it already
/// received, just before it waits for more.
///
/// Failure model: any transport error, EOF, undecodable response, or a
/// response id that matches no pending call (which covers duplicated
/// ids -- the first response consumed the entry) POISONS the connection:
/// every pending and future call fails with std::runtime_error carrying
/// the original reason. Reconnect by constructing a new MuxConnection;
/// the stream past a protocol violation is untrustworthy by definition.
///
/// Callbacks run on the reader thread (or inline on the calling thread
/// when the failure is immediate); they must not block for long and must
/// not call back into close()/the destructor (deadlock: close joins the
/// reader). Server-reported kError frames are NOT failures at this layer
/// -- they dispatch like any response, and the caller maps them to
/// exceptions (client/tcp_client.cpp does).

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "net/socket.hpp"
#include "wire/protocol.hpp"

namespace ssa::net {

/// Multiplexed request/response client over one TCP connection.
/// Thread-safe: call() freely from any thread.
class MuxConnection {
 public:
  /// Exactly one of the two arguments is meaningful: a response frame on
  /// success, or the poison reason when the transport failed first.
  using Callback =
      std::function<void(std::optional<wire::Frame>, const std::string&)>;

  /// Connects immediately (throws std::runtime_error when nobody
  /// listens) and starts the reader thread.
  MuxConnection(const std::string& host, std::uint16_t port);
  ~MuxConnection();

  MuxConnection(const MuxConnection&) = delete;
  MuxConnection& operator=(const MuxConnection&) = delete;

  /// When call() hands its frame to the socket.
  enum class Flush {
    kNow,    ///< before call() returns, with everything queued before it
             ///< (from a callback: when the reader's turn ends)
    kLater,  ///< at the next flush() (or the next kNow call)
  };

  /// Starts one call: assigns the next request id, parks \p callback in
  /// the pending map, appends the frame to the outbox and, for
  /// Flush::kNow, sends the outbox. The callback is invoked exactly once
  /// -- with the response, or with the poison reason (possibly inline,
  /// when the connection is already poisoned or the send fails).
  /// \p context is the span context stamped into the v6 envelope
  /// ({0, 0} = untraced; purely observability, see wire/protocol.hpp).
  void call(wire::MessageType type, std::string_view payload,
            Callback callback, obs::SpanContext context = {},
            Flush flush = Flush::kNow);

  /// Sends every queued frame in one write. A failed send poisons the
  /// connection (failing every parked call, this batch's included).
  void flush();

  /// Blocking convenience over call(): waits for this call's own
  /// response (other calls proceed concurrently) and returns the frame.
  /// Throws std::runtime_error on transport failure/poisoning.
  [[nodiscard]] wire::Frame call_sync(wire::MessageType type,
                                      std::string_view payload,
                                      obs::SpanContext context = {});

  /// True once a transport failure or protocol violation was observed;
  /// every later call fails fast with the recorded reason.
  [[nodiscard]] bool poisoned() const;

  /// Poisons with "connection closed" (failing all pending calls) and
  /// joins the reader thread. Idempotent; must not be called from a
  /// callback. The destructor calls it.
  void close();

 private:
  void reader_loop();
  /// Fails all pending calls with \p reason and half-closes the socket;
  /// first reason wins. Safe from any thread.
  void poison(const std::string& reason);

  TcpConnection connection_;

  mutable std::mutex mutex_;  ///< pending map, id counter, outbox, poison
  std::unordered_map<std::uint64_t, Callback> pending_;
  std::uint64_t next_id_ = 1;
  std::string outbox_;  ///< encoded frames not yet handed to the socket
  bool poisoned_ = false;
  std::string poison_reason_;

  std::mutex send_mutex_;  ///< one flush at a time, so batches stay in order

  std::thread reader_;  ///< last: joined before the members above die
};

}  // namespace ssa::net
