#include "net/mux_connection.hpp"

#include <future>
#include <stdexcept>
#include <utility>

namespace ssa::net {

namespace {

/// The connection whose reader thread is the calling thread, if any.
thread_local const MuxConnection* dispatching = nullptr;

}  // namespace

MuxConnection::MuxConnection(const std::string& host, std::uint16_t port)
    : connection_(TcpConnection::connect(host, port)) {
  reader_ = std::thread([this] { reader_loop(); });
}

MuxConnection::~MuxConnection() { close(); }

bool MuxConnection::poisoned() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return poisoned_;
}

void MuxConnection::close() {
  poison("mux: connection closed");
  if (reader_.joinable()) reader_.join();
}

void MuxConnection::poison(const std::string& reason) {
  std::unordered_map<std::uint64_t, Callback> victims;
  std::string recorded;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!poisoned_) {
      poisoned_ = true;
      poison_reason_ = reason;
    }
    recorded = poison_reason_;  // first reason wins for everyone
    victims.swap(pending_);
    outbox_.clear();
  }
  // Unblocks the reader thread (recv observes EOF) without releasing the
  // descriptor under it.
  connection_.shutdown_both();
  for (auto& [id, callback] : victims) {
    callback(std::nullopt, recorded);
  }
}

void MuxConnection::call(wire::MessageType type, std::string_view payload,
                         Callback callback, obs::SpanContext context,
                         Flush flush_when) {
  std::uint64_t id = 0;
  std::string reason;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (poisoned_) {
      reason = poison_reason_;
    } else {
      // Parked BEFORE the send: the response may race back before
      // the flush even returns on this thread.
      id = next_id_++;
      pending_.emplace(id, std::move(callback));
    }
  }
  if (id == 0) {
    callback(std::nullopt, reason);
    return;
  }

  std::string frame;
  try {
    frame = wire::encode_frame(type, id, payload, context);
  } catch (const std::exception& e) {
    // Oversized payload: nothing was queued, so the STREAM is fine --
    // fail only this call, not the connection.
    Callback parked;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = pending_.find(id);
      if (it == pending_.end()) return;  // a concurrent poison beat us
      parked = std::move(it->second);
      pending_.erase(it);
    }
    parked(std::nullopt, std::string("mux: ") + e.what());
    return;
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // A poison since the park already failed this call.
    if (poisoned_) return;
    if (outbox_.empty()) {
      outbox_ = std::move(frame);
    } else {
      outbox_ += frame;
    }
  }
  // A callback's call on the reader thread leaves with the reader's next
  // flush, once every frame already received has been dispatched.
  if (flush_when == Flush::kNow && dispatching != this) flush();
}

void MuxConnection::flush() {
  {
    // Nothing queued: do not wait for the send lock. The reader thread
    // must not block behind a writer the peer may be throttling until
    // the reader drains the peer's replies.
    const std::lock_guard<std::mutex> lock(mutex_);
    if (outbox_.empty()) return;
  }
  std::string bytes;
  try {
    // Taking the outbox under the send lock keeps batches in queue order
    // when several threads flush.
    const std::lock_guard<std::mutex> send_lock(send_mutex_);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      bytes.swap(outbox_);
    }
    if (bytes.empty()) return;
    connection_.send_frame(bytes);
  } catch (const std::exception& e) {
    // A partial frame may be on the wire: the stream is unusable. poison
    // fails every pending call, this batch's included.
    poison(std::string("mux: ") + e.what());
  }
}

wire::Frame MuxConnection::call_sync(wire::MessageType type,
                                     std::string_view payload,
                                     obs::SpanContext context) {
  std::promise<wire::Frame> promise;
  std::future<wire::Frame> future = promise.get_future();
  call(type, payload,
       [&promise](std::optional<wire::Frame> frame, const std::string& error) {
         if (frame) {
           promise.set_value(*std::move(frame));
         } else {
           promise.set_exception(
               std::make_exception_ptr(std::runtime_error(error)));
         }
       },
       context);
  return future.get();
}

void MuxConnection::reader_loop() {
  dispatching = this;
  std::string reason = "mux: server closed the connection";
  try {
    for (;;) {
      // About to wait for the server: first send what callbacks queued.
      if (!connection_.frame_buffered()) flush();
      std::optional<std::string> body = connection_.recv_frame();
      if (!body) break;  // EOF (server gone, or close() unblocked us)
      std::optional<wire::Frame> frame = wire::decode_frame_body(*body);
      if (!frame) {
        reason = "mux: malformed response frame";
        break;
      }
      Callback callback;
      bool unknown = false;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = pending_.find(frame->request_id);
        if (it == pending_.end()) {
          unknown = true;
        } else {
          callback = std::move(it->second);
          pending_.erase(it);
        }
      }
      if (unknown) {
        // No pending call owns this id: either the server invented one or
        // it answered the same id twice (the first response consumed the
        // entry). Both are protocol violations.
        reason = "mux: response for unknown request id " +
                 std::to_string(frame->request_id);
        break;
      }
      callback(*std::move(frame), std::string());
    }
  } catch (const std::exception& e) {
    reason = std::string("mux: ") + e.what();
  }
  poison(reason);
}

}  // namespace ssa::net
