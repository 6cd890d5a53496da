#pragma once
/// \file service_server.hpp
/// One AuctionService behind a wire-protocol listener: the backend process
/// of the cross-process serving topology. A ServiceServer binds a loopback
/// port and serves every connection from one epoll event loop
/// (net/event_loop.hpp). Gets are answered on the loop thread: a
/// non-blocking get is a claim plus a report encode, and a BLOCKING get
/// parks a completion watcher on the service (AuctionService::watch)
/// instead of a thread, fired inline when the request already completed.
/// Repeat submits are answered there too: the loop digests the payload
/// bytes into the request's wire key (AuctionService::wire_key) and, when
/// the result cache holds it, completes the request and acks it without
/// decoding anything (AuctionService::submit_cached). Cache-missing
/// submits, stats, telemetry and shutdown frames go to a small request
/// pump (worker threads), because decoding a submit's instance is the
/// expensive step; the pump submits a decoded miss under its wire key. A
/// connection may have any number of submits and gets in flight, answered
/// out of order by wire request id.
///
/// Error passthrough: solver/domain failures stay INSIDE SolveReport::
/// error (already "<solver-key>: <reason>"-pinned) and travel as normal
/// kReport frames; only API-surface exceptions (bad request id, submit
/// after shutdown, malformed frames) become kError frames, tagged with
/// the exception kind so a remote client rethrows exactly what the
/// in-process call would have thrown.
///
/// A wire kShutdown stops the whole server: the service completes its
/// queue and writes its snapshot (when configured), the listener stops
/// accepting, wait() returns; the ack frame is sent only after the drain,
/// so a client that saw it knows every prior submission completed. That
/// is the remote analogue of AuctionService::shutdown() and what the demo
/// uses to reap its spawned backend processes.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>

#include "net/event_loop.hpp"
#include "service/auction_service.hpp"

namespace ssa::net {

struct ServiceServerOptions {
  /// Configuration of the served AuctionService (shards, caches, policy,
  /// snapshot persistence -- everything the in-process service accepts).
  service::ServiceOptions service;
  /// Loopback port to listen on; 0 picks an ephemeral port (port()).
  std::uint16_t port = 0;
  /// Request-pump worker threads answering, off the loop thread, every
  /// frame but gets and cache-hit submits (clamped to >= 1). Decoding a
  /// cache-missing submit is the expensive step; more pumps let one
  /// connection's pipelined misses decode in parallel.
  int pump_threads = 3;
};

/// Serves one AuctionService over the wire protocol. Thread-safe surface;
/// the destructor performs a full stop().
class ServiceServer {
 public:
  explicit ServiceServer(ServiceServerOptions options = {});
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// The bound loopback port (resolved when options.port was 0).
  [[nodiscard]] std::uint16_t port() const noexcept;

  /// The served service (tests inspect stats; the server owns it).
  [[nodiscard]] service::AuctionService& service() noexcept;

  /// Blocks until a wire kShutdown arrives or stop() is called.
  void wait();

  /// Full stop: shuts the service down (draining its queues), stops
  /// accepting, joins the pump and the loop. Idempotent; safe from any
  /// thread except a pump worker or the loop thread.
  void stop();

 private:
  struct Pump;

  void handle_frame(const EventConnectionPtr& connection, wire::Frame frame);
  /// Pump side; \p key is the wire key of a kSubmit.
  void process(const EventConnectionPtr& connection, const wire::Frame& frame,
               const Fingerprint& key);
  void process_submit(const EventConnectionPtr& connection,
                      const wire::Frame& frame, const Fingerprint& key);
  void process_get(const EventConnectionPtr& connection,
                   const wire::Frame& frame);
  /// Shutdown initiation usable FROM a pump thread (no joins): flags the
  /// stop, shuts the service and listener down, wakes wait().
  void request_stop();

  service::AuctionService service_;

  std::mutex mutex_;
  std::condition_variable stopped_cv_;
  bool stopping_ = false;

  /// Declared after the service, before the loop: the stop order is pump
  /// first (no new work), then loop.
  std::unique_ptr<Pump> pump_;

  /// Last: its stop() quiesces all network activity before the members
  /// above die.
  std::optional<EventLoop> loop_;
};

}  // namespace ssa::net
