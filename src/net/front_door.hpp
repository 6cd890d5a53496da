#pragma once
/// \file front_door.hpp
/// The cross-process sharding front door: a wire-protocol server that owns
/// no solver at all. It routes each submit by a 128-bit hash of its
/// payload bytes (FingerprintHasher over the raw bytes,
/// support/fingerprint.hpp): backend = hash.hi mod backend count, and the
/// original frame bytes are forwarded untouched. The door never decodes
/// or fingerprints the instance. Equal submits (same bytes) therefore
/// always meet the same backend process, which is what keeps the
/// per-backend result caches and coalescing tables effective with zero
/// cross-process coordination. Equal instances sent with other encodings
/// (other options, say) may meet different backends; that costs cache
/// hits, never correctness, since every backend computes the same report.
///
/// Per backend the door keeps ONE multiplexed connection
/// (net/mux_connection.hpp): every forwarded call is a pipelined request
/// correlated by the v3 wire request id, so a blocking get parks a map
/// entry -- not a connection, not a thread -- and any number of calls
/// share the channel. The door itself serves its clients from one epoll
/// event loop (net/event_loop.hpp). The frames its handlers forward
/// during one loop turn are queued per backend and leave in one write per
/// backend at the end of the turn, in handler order. Responses are
/// relayed as continuations with the envelope id rewritten to the
/// client's and the payload bytes untouched, so a TcpClient behind the
/// door receives byte-for-byte what the backend produced, and kError
/// frames pass through with their "<solver-key>: <reason>"-pinned
/// messages intact. Door-level failures (unknown id, unreachable or
/// failed backend) use the "front-door" key: a failed send or a dead
/// backend link fails every call parked on that link with it.
///
/// Request ids are door-assigned: the door maps its id to (backend,
/// backend id) at submit, routes get/try_get by the map, and drops the
/// entry once the report is claimed. stats aggregates all backends.
/// A wire kShutdown fans out to every backend, then stops the door.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/socket.hpp"

namespace ssa::net {

/// One backend address (ServiceServer processes on this machine or
/// elsewhere; the demo and tests use loopback ports).
struct Endpoint {
  std::string host = kLoopbackHost;
  std::uint16_t port = 0;
};

struct FrontDoorOptions {
  /// Backend wire servers, in keyspace order: backend i receives the
  /// submits whose payload hash has hi % backends.size() == i. The list
  /// must not be empty and its ORDER is the routing contract -- permuting
  /// it re-keys the split (caches go cold), exactly like changing a shard
  /// count.
  std::vector<Endpoint> backends;
  /// Loopback port to listen on; 0 picks an ephemeral port (port()).
  std::uint16_t port = 0;
};

/// Routing front door over N backend service processes. Thread-safe; the
/// destructor performs a full stop() (the backends keep running unless a
/// wire kShutdown reached them).
class FrontDoor {
 public:
  explicit FrontDoor(FrontDoorOptions options);
  ~FrontDoor();

  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;
  [[nodiscard]] std::size_t backend_count() const noexcept;

  /// Blocks until a wire kShutdown arrives or stop() is called.
  void wait();

  /// Stops the door: no new connections, backend channels closed (every
  /// in-flight forward fails fast -- a stalled backend cannot wedge the
  /// stop), event loop joined. Does NOT shut the backends down (only a
  /// wire kShutdown does).
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ssa::net
