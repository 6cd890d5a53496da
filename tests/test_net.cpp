// Cross-process serving path, end to end on loopback: AuctionClient
// surface semantics (LocalClient and TcpClient must be interchangeable),
// ServiceServer round trips, and the FrontDoor topology -- TcpClient ->
// FrontDoor -> N in-process ServiceServer backends -- pinned bitwise
// against a LocalClient run of the same request stream, welfare invariant
// across backend counts, the admission verdicts (reject, degrade) through
// the door, and merged telemetry that stays exact under concurrent
// clients. Labelled `net` (CMakeLists), so the service-smoke CI job runs
// all of this under sanitizers too and the tsan job under TSan.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <future>
#include <thread>

#include "client/client.hpp"
#include "core/asymmetric.hpp"
#include "core/bundle.hpp"
#include "core/valuation.hpp"
#include "gen/scenario.hpp"
#include "graph/conflict_graph.hpp"
#include "graph/ordering.hpp"
#include "load/workload.hpp"
#include "net/front_door.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "net/mux_connection.hpp"
#include "net/service_server.hpp"
#include "net/socket.hpp"
#include "support/fingerprint.hpp"
#include "support/random.hpp"
#include "wire/codec.hpp"
#include "wire/protocol.hpp"

namespace ssa {
namespace {

using client::AuctionClient;
using client::LocalClient;
using client::TcpClient;

/// The mixed request stream every topology replays: rotations over a
/// fixed scenario suite, so each distinct instance recurs and the repeat
/// behavior (cache hits) is part of what gets compared.
std::vector<gen::NamedInstance> mixed_scenarios() {
  std::vector<gen::NamedInstance> scenarios;
  for (std::uint64_t day = 0; day < 2; ++day) {
    for (gen::NamedInstance& named :
         gen::mixed_scenario_suite(10, 2, 4200 + 31 * day)) {
      scenarios.push_back(std::move(named));
    }
  }
  return scenarios;
}

SolveOptions stream_options() {
  SolveOptions options;
  options.pipeline.rounding_repetitions = 8;
  return options;
}

/// Replays \p total requests over the rotating scenario set in lockstep
/// (submit then immediately claim), so cache-hit provenance is
/// deterministic for every topology.
std::vector<SolveReport> replay(AuctionClient& client,
                                const std::vector<gen::NamedInstance>& set,
                                int total) {
  std::vector<SolveReport> reports;
  reports.reserve(static_cast<std::size_t>(total));
  const SolveOptions options = stream_options();
  for (int r = 0; r < total; ++r) {
    const gen::NamedInstance& scenario = set[static_cast<std::size_t>(r) %
                                             set.size()];
    const client::RequestId id =
        client.submit(scenario.view(), client::kAutoSolver, options);
    reports.push_back(client.get(id));
  }
  return reports;
}

service::ServiceOptions small_service() {
  service::ServiceOptions config;
  config.shards = 2;
  config.threads_per_shard = 1;
  return config;
}

// ------------------------------------------------------------ LocalClient

TEST(LocalClientTest, ApiSurfaceMatchesServiceSemantics) {
  LocalClient local(small_service());
  const AuctionInstance instance =
      gen::make_disk_auction(8, 2, gen::ValuationMix::kMixed, 11);
  const auto id = local.submit(instance);
  const SolveReport report = local.get(id);
  EXPECT_TRUE(report.error.empty());
  EXPECT_GT(report.welfare, 0.0);
  EXPECT_THROW((void)local.get(id), std::invalid_argument);  // second claim
  EXPECT_THROW((void)local.try_get(id), std::invalid_argument);
  EXPECT_EQ(local.stats().submitted, 1u);
  local.shutdown();
  EXPECT_THROW((void)local.submit(instance), std::runtime_error);
}

// ---------------------------------------------- TcpClient <-> ServiceServer

TEST(ServiceServerTest, TcpClientMatchesLocalClientOnTheSameStream) {
  const std::vector<gen::NamedInstance> scenarios = mixed_scenarios();
  LocalClient local(small_service());
  const std::vector<SolveReport> local_reports = replay(local, scenarios, 24);

  net::ServiceServer server({small_service(), 0});
  TcpClient remote(server.port());
  const std::vector<SolveReport> remote_reports =
      replay(remote, scenarios, 24);

  ASSERT_EQ(local_reports.size(), remote_reports.size());
  for (std::size_t i = 0; i < local_reports.size(); ++i) {
    EXPECT_TRUE(wire::reports_payload_equal(local_reports[i],
                                            remote_reports[i]))
        << "request " << i << " diverged across the wire";
  }
  // Same traffic profile: the remote cache behaves like the local one.
  const auto local_stats = local.stats();
  const auto remote_stats = remote.stats();
  EXPECT_EQ(local_stats.submitted, remote_stats.submitted);
  EXPECT_EQ(local_stats.cache_hits, remote_stats.cache_hits);
  local.shutdown();
  remote.shutdown();
  EXPECT_THROW((void)remote.submit(scenarios[0].view()), std::runtime_error);
}

TEST(ServiceServerTest, ExceptionKindsCrossTheWire) {
  net::ServiceServer server({small_service(), 0});
  TcpClient remote(server.port());
  // Bad request id: std::invalid_argument, exactly like in process.
  EXPECT_THROW((void)remote.try_get(0xdeadbeef), std::invalid_argument);

  // Solver-layer failure: stays INSIDE the report with the pinned
  // "<solver-key>: <reason>" format, never an exception.
  const AsymmetricInstance asymmetric =
      gen::make_random_asymmetric(6, 2, 0.3, gen::ValuationMix::kAdditive, 5);
  const auto id = remote.submit(asymmetric, "lp-rounding");
  const SolveReport report = remote.get(id);
  EXPECT_EQ(report.error.rfind("lp-rounding: ", 0), 0u) << report.error;
  remote.shutdown();
}

TEST(ServiceServerTest, TryGetPollsAcrossTheWire) {
  net::ServiceServer server({small_service(), 0});
  TcpClient remote(server.port());
  const AuctionInstance instance =
      gen::make_disk_auction(8, 2, gen::ValuationMix::kAdditive, 3);
  const auto id = remote.submit(instance);
  std::optional<SolveReport> report;
  while (!report) report = remote.try_get(id);
  EXPECT_TRUE(report->error.empty());
  remote.shutdown();
}

// ------------------------------------------------------------- wire keys

/// Submits a pre-encoded payload over a raw connection and returns the
/// backend's request id.
client::RequestId submit_payload(net::MuxConnection& mux,
                                 const std::string& payload) {
  const wire::Frame ack = mux.call_sync(wire::MessageType::kSubmit, payload);
  EXPECT_EQ(ack.type, wire::MessageType::kSubmitOk);
  wire::Reader reader(ack.payload);
  return reader.u64();
}

/// Blocking get of \p id over a raw connection.
SolveReport get_report(net::MuxConnection& mux, client::RequestId id) {
  wire::Writer request;
  request.u64(id);
  request.boolean(true);
  const wire::Frame frame =
      mux.call_sync(wire::MessageType::kGet, request.buffer());
  EXPECT_EQ(frame.type, wire::MessageType::kReport);
  wire::Reader reader(frame.payload);
  EXPECT_EQ(reader.u8(), 1);
  return wire::read_report(reader);
}

/// Payload equality up to the cache-hit provenance flag.
bool same_answer(SolveReport a, SolveReport b) {
  a.cache_hit = false;
  b.cache_hit = false;
  return wire::reports_payload_equal(a, b);
}

TEST(ServiceServerTest, EqualContentInOtherBytesMissesTheWireKey) {
  // The backend keys a wire submit by its payload bytes, which is finer
  // than the content key: the same request with a nonzero retired
  // thread-count slot (what a peer built before the slot was retired
  // sends; test_wire's LegacyThreadCountIsReadAndDropped) decodes to the
  // same options, yet misses the cache and re-solves to the same payload.
  net::ServiceServer server({small_service(), 0});
  const AuctionInstance instance =
      gen::make_disk_auction(8, 2, gen::ValuationMix::kMixed, 41);
  const SolveOptions options = stream_options();
  const std::string solver = client::kAutoSolver;
  const std::string canonical =
      wire::encode_submit(instance, solver, options);
  // The options block follows the solver string (u64 length + bytes); the
  // retired u32 slot sits after its u64 seed and f64 time budget.
  std::string legacy = canonical;
  const std::size_t slot = 8 + solver.size() + 16;
  ASSERT_EQ(legacy.substr(slot, 4), std::string(4, '\0'));
  legacy[slot] = 3;
  ASSERT_TRUE(wire::decode_submit(legacy).has_value());

  net::MuxConnection mux(net::kLoopbackHost, server.port());
  const SolveReport first = get_report(mux, submit_payload(mux, canonical));
  const SolveReport repeat = get_report(mux, submit_payload(mux, canonical));
  const SolveReport other = get_report(mux, submit_payload(mux, legacy));
  ASSERT_TRUE(first.error.empty()) << first.error;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_TRUE(wire::reports_payload_equal(first, other));
  EXPECT_FALSE(other.cache_hit);
  mux.close();
}

TEST(ServiceServerTest, LoopThreadHitTicksEachCounterOnce) {
  // perfbench's hot-door identity check reads these counters: a cache hit
  // answered on the loop thread counts as one submitted, one cache hit
  // and one completed request, and runs no solver.
  std::atomic<int> solves{0};
  service::ServiceOptions config = small_service();
  config.on_solve = [&](const Fingerprint&) { solves.fetch_add(1); };
  net::ServiceServer server({config, 0});
  TcpClient remote(server.port());
  const AuctionInstance instance =
      gen::make_disk_auction(8, 2, gen::ValuationMix::kMixed, 43);
  const SolveReport solved = remote.get(remote.submit(instance));
  ASSERT_TRUE(solved.error.empty()) << solved.error;
  EXPECT_FALSE(solved.cache_hit);
  ASSERT_EQ(solves.load(), 1);

  const service::ServiceStats before = server.service().stats();
  const SolveReport hit = remote.get(remote.submit(instance));
  const service::ServiceStats after = server.service().stats();
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_TRUE(same_answer(solved, hit));
  EXPECT_EQ(after.submitted - before.submitted, 1u);
  EXPECT_EQ(after.cache_hits - before.cache_hits, 1u);
  EXPECT_EQ(after.completed - before.completed, 1u);
  EXPECT_EQ(solves.load(), 1);
  remote.shutdown();
}

TEST(ServiceServerTest, CachedSubmitAfterShutdownThrowsOnAnOpenConnection) {
  // A wire kShutdown closes only the connection that sent it; the others
  // are still served. A repeat submit on one of them must fail like an
  // in-process submit after shutdown(), although its wire key is cached.
  net::ServiceServer server({small_service(), 0});
  TcpClient remote(server.port());
  TcpClient other(server.port());
  const AuctionInstance instance =
      gen::make_disk_auction(8, 2, gen::ValuationMix::kMixed, 45);
  const SolveReport solved = other.get(other.submit(instance));
  ASSERT_TRUE(solved.error.empty()) << solved.error;
  EXPECT_TRUE(other.get(other.submit(instance)).cache_hit);
  remote.shutdown();
  EXPECT_THROW((void)other.submit(instance), std::runtime_error);
}

/// The default policy under another name(): same chains, other keys.
class RenamedPolicy final : public service::SelectionPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "renamed"; }
  [[nodiscard]] std::vector<std::string> chain(
      const std::string& requested, const AnyInstance& instance,
      const SolveOptions& options) const override {
    return inner_.chain(requested, instance, options);
  }

 private:
  service::DefaultSelectionPolicy inner_;
};

TEST(ServiceServerTest, SnapshotServesWireHitsAfterARestart) {
  // A backend's snapshot holds wire keys: the restarted backend answers
  // the same payload from the restored cache, while a backend restarted
  // under a policy of another name() solves it afresh.
  const std::string path = "test_net_wire_snapshot.bin";
  std::remove(path.c_str());
  const AuctionInstance instance =
      gen::make_disk_auction(8, 2, gen::ValuationMix::kMixed, 47);
  std::atomic<int> solves{0};
  const auto serve = [&](service::SelectionPolicyPtr policy) {
    service::ServiceOptions config = small_service();
    config.snapshot_path = path;
    config.policy = std::move(policy);
    config.on_solve = [&](const Fingerprint&) { solves.fetch_add(1); };
    net::ServiceServer server({config, 0});
    TcpClient remote(server.port());
    const std::uint64_t restored = server.service().stats().snapshot_restored;
    SolveReport report = remote.get(remote.submit(instance));
    remote.shutdown();  // drains and writes the snapshot
    return std::make_pair(restored, std::move(report));
  };

  const auto [none, solved] = serve(nullptr);
  ASSERT_TRUE(solved.error.empty()) << solved.error;
  EXPECT_EQ(none, 0u);
  EXPECT_FALSE(solved.cache_hit);
  EXPECT_EQ(solves.exchange(0), 1);

  const auto [restored, replayed] = serve(nullptr);
  EXPECT_EQ(restored, 1u);
  EXPECT_TRUE(replayed.cache_hit);
  EXPECT_TRUE(same_answer(solved, replayed));
  EXPECT_EQ(solves.exchange(0), 0);

  const auto [kept, resolved] = serve(std::make_shared<RenamedPolicy>());
  EXPECT_EQ(kept, 1u);
  EXPECT_FALSE(resolved.cache_hit);
  EXPECT_TRUE(wire::reports_payload_equal(solved, resolved));
  EXPECT_EQ(solves.load(), 1);
  std::remove(path.c_str());
}

// ------------------------------------------------------- multiplexed wire

TEST(MuxTest, ManyInFlightRequestsResolveToTheRightCallers) {
  // One connection, a deep pipeline: every submit is in flight before the
  // first get resolves, the server's pump answers out of submission
  // order, and the per-frame request id must route each response to its
  // own caller. Repeats of one scenario pin the payload (identical
  // allocation/welfare); a crossed response would surface as a mismatch.
  net::ServiceServer server({small_service(), 0});
  TcpClient remote(server.port());
  const std::vector<gen::NamedInstance> scenarios = mixed_scenarios();
  const SolveOptions options = stream_options();
  const int kRequests = 120;

  std::vector<std::future<client::RequestId>> submits;
  submits.reserve(kRequests);
  for (int r = 0; r < kRequests; ++r) {
    const auto& scenario = scenarios[static_cast<std::size_t>(r) %
                                     scenarios.size()];
    submits.push_back(
        remote.submit_async(scenario.view(), client::kAutoSolver, options));
  }
  std::vector<client::RequestId> ids;
  ids.reserve(kRequests);
  for (auto& submit : submits) ids.push_back(submit.get());
  EXPECT_EQ(std::set<client::RequestId>(ids.begin(), ids.end()).size(),
            ids.size());

  std::vector<std::future<SolveReport>> gets;
  gets.reserve(kRequests);
  for (const client::RequestId id : ids) gets.push_back(remote.get_async(id));
  std::vector<SolveReport> reports;
  reports.reserve(kRequests);
  for (auto& get : gets) reports.push_back(get.get());

  for (int r = 0; r < kRequests; ++r) {
    const auto s = static_cast<std::size_t>(r) % scenarios.size();
    EXPECT_TRUE(reports[static_cast<std::size_t>(r)].error.empty());
    EXPECT_EQ(reports[static_cast<std::size_t>(r)].welfare,
              reports[s].welfare);
    EXPECT_EQ(reports[static_cast<std::size_t>(r)].allocation.bundles,
              reports[s].allocation.bundles);
  }
  EXPECT_EQ(remote.stats().submitted,
            static_cast<std::uint64_t>(kRequests));
  remote.shutdown();
}

TEST(ServiceServerTest, InterleavedResponsesArriveOutOfOrder) {
  // A later request's response overtakes an earlier one on the SAME
  // connection: the first solve is held in flight while the second
  // completes, so the blocking get for request 2 resolves while the get
  // for request 1 is still pending -- impossible under one-in-flight v2,
  // the defining behavior of the v3 multiplexed path.
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<int> solves{0};
  service::ServiceOptions config;
  config.shards = 1;
  config.threads_per_shard = 2;  // worker 2 overtakes while worker 1 waits
  config.on_solve = [&](const Fingerprint&) {
    if (solves.fetch_add(1) == 0) released.wait();
  };
  net::ServiceServer server({net::ServiceServerOptions{config, 0}});
  TcpClient remote(server.port());

  const AuctionInstance slow =
      gen::make_disk_auction(8, 2, gen::ValuationMix::kMixed, 101);
  const AuctionInstance fast =
      gen::make_disk_auction(8, 2, gen::ValuationMix::kMixed, 102);

  const auto slow_id = remote.submit(slow);
  std::future<SolveReport> slow_report = remote.get_async(slow_id);
  while (solves.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto fast_id = remote.submit(fast);
  const SolveReport fast_report = remote.get(fast_id);
  EXPECT_TRUE(fast_report.error.empty());
  EXPECT_EQ(slow_report.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "the held request resolved before its solver ran";

  release.set_value();
  const SolveReport resolved = slow_report.get();
  EXPECT_TRUE(resolved.error.empty());
  // Distinct instances, distinct payloads: each future got its own.
  EXPECT_FALSE(wire::reports_payload_equal(resolved, fast_report));
  remote.shutdown();
}

/// Hand-rolled misbehaving server: answers every request with a scripted
/// list of response ids (empty stats payload), so client-side protocol
/// enforcement can be probed directly.
void serve_scripted_ids(
    net::TcpListener& listener,
    const std::function<std::vector<std::uint64_t>(std::uint64_t)>& script) {
  auto connection = listener.accept();
  if (!connection) return;
  wire::Writer stats;
  stats.u32(1);
  wire::write_stats(stats, service::ServiceStats{});
  while (auto body = connection->recv_frame()) {
    const auto frame = wire::decode_frame_body(*body);
    if (!frame) return;
    for (const std::uint64_t id : script(frame->request_id)) {
      connection->send_frame(wire::encode_frame(wire::MessageType::kStatsOk,
                                                id, stats.buffer()));
    }
  }
}

TEST(MuxTest, ResponseForUnknownRequestIdPoisonsTheConnection) {
  net::TcpListener listener = net::TcpListener::bind_loopback(0);
  std::thread server([&listener] {
    serve_scripted_ids(listener, [](std::uint64_t id) {
      return std::vector<std::uint64_t>{id + 1000};  // an id nobody sent
    });
  });
  net::MuxConnection mux(net::kLoopbackHost, listener.port());
  try {
    (void)mux.call_sync(wire::MessageType::kStats, {});
    FAIL() << "a response for an unknown id must fail the pending call";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown request id"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(mux.poisoned());
  mux.close();
  listener.shutdown();
  server.join();
  listener.close();
}

TEST(MuxTest, DuplicateResponseIdPoisonsAfterTheFirstDelivery) {
  net::TcpListener listener = net::TcpListener::bind_loopback(0);
  std::thread server([&listener] {
    serve_scripted_ids(listener, [](std::uint64_t id) {
      return std::vector<std::uint64_t>{id, id};  // answers the same id twice
    });
  });
  net::MuxConnection mux(net::kLoopbackHost, listener.port());
  // The first response delivers normally...
  const wire::Frame frame = mux.call_sync(wire::MessageType::kStats, {});
  EXPECT_EQ(frame.type, wire::MessageType::kStatsOk);
  // ...and the duplicate matches no pending call (the first consumed the
  // entry), which is a protocol violation: the connection poisons.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!mux.poisoned() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(mux.poisoned());
  EXPECT_THROW((void)mux.call_sync(wire::MessageType::kStats, {}),
               std::runtime_error);
  mux.close();
  listener.shutdown();
  server.join();
  listener.close();
}

// --------------------------------------------------------------- FrontDoor

std::vector<net::Endpoint> loopback_backends(
    const std::vector<std::unique_ptr<net::ServiceServer>>& servers) {
  std::vector<net::Endpoint> endpoints;
  endpoints.reserve(servers.size());
  for (const auto& server : servers) {
    endpoints.push_back(net::Endpoint{net::kLoopbackHost, server->port()});
  }
  return endpoints;
}

/// The acceptance topology: TcpClient -> FrontDoor -> \p backend_count
/// in-process backends, replaying \p total mixed requests.
struct FrontDoorRun {
  std::vector<SolveReport> reports;
  service::ServiceStats stats;  // aggregated across backends
};

FrontDoorRun run_front_door(const std::vector<gen::NamedInstance>& scenarios,
                            int backend_count, int total) {
  std::vector<std::unique_ptr<net::ServiceServer>> backends;
  for (int b = 0; b < backend_count; ++b) {
    backends.push_back(std::make_unique<net::ServiceServer>(
        net::ServiceServerOptions{small_service(), 0}));
  }
  net::FrontDoor door({loopback_backends(backends), 0});
  TcpClient client(door.port());
  FrontDoorRun run;
  run.reports = replay(client, scenarios, total);
  run.stats = client.stats();
  client.shutdown();  // fans out to both backends, stops the door
  for (const auto& backend : backends) backend->wait();
  return run;
}

TEST(FrontDoorTest, TwoBackendsMatchLocalClientBitwiseOn200Requests) {
  const std::vector<gen::NamedInstance> scenarios = mixed_scenarios();
  const int kRequests = 200;

  LocalClient local(small_service());
  const std::vector<SolveReport> local_reports =
      replay(local, scenarios, kRequests);
  const service::ServiceStats local_stats = local.stats();
  local.shutdown();

  const FrontDoorRun door_run =
      run_front_door(scenarios, /*backend_count=*/2, kRequests);

  ASSERT_EQ(door_run.reports.size(), local_reports.size());
  double local_welfare = 0.0;
  double door_welfare = 0.0;
  for (std::size_t i = 0; i < local_reports.size(); ++i) {
    EXPECT_TRUE(
        wire::reports_payload_equal(local_reports[i], door_run.reports[i]))
        << "request " << i << " diverged through the front door";
    local_welfare += local_reports[i].welfare;
    door_welfare += door_run.reports[i].welfare;
  }
  EXPECT_EQ(local_welfare, door_welfare);  // bitwise, not approximately

  // Aggregated stats describe the same traffic; the keyspace split means
  // both backends saw work (fingerprints spread over 2 buckets).
  EXPECT_EQ(door_run.stats.submitted,
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(door_run.stats.cache_hits, local_stats.cache_hits);
}

TEST(FrontDoorTest, TwoBackendsMatchLocalClientBitwiseWith256InFlight) {
  // The pipelined twin of the pin above: one TcpClient keeps 256 requests
  // in flight, so the door's loop turns forward many frames at once and
  // each backend's batch leaves in one write. Every request carries its
  // own seed, so no payload repeats: each report is a fresh solve on both
  // sides and its provenance does not depend on timing.
  const std::vector<gen::NamedInstance> scenarios = mixed_scenarios();
  constexpr int kRequests = 256;
  const auto scenario = [&](int r) -> const gen::NamedInstance& {
    return scenarios[static_cast<std::size_t>(r) % scenarios.size()];
  };
  const auto options = [](int r) {
    SolveOptions seeded = stream_options();
    seeded.seed = 5000 + static_cast<std::uint64_t>(r);
    return seeded;
  };

  LocalClient local(small_service());
  std::vector<SolveReport> expected;
  for (int r = 0; r < kRequests; ++r) {
    expected.push_back(local.get(
        local.submit(scenario(r).view(), client::kAutoSolver, options(r))));
  }
  local.shutdown();

  std::vector<std::unique_ptr<net::ServiceServer>> backends;
  for (int b = 0; b < 2; ++b) {
    backends.push_back(std::make_unique<net::ServiceServer>(
        net::ServiceServerOptions{small_service(), 0}));
  }
  net::FrontDoor door({loopback_backends(backends), 0});
  TcpClient client(door.port());
  std::vector<std::future<client::RequestId>> submits;
  for (int r = 0; r < kRequests; ++r) {
    submits.push_back(client.submit_async(scenario(r).view(),
                                          client::kAutoSolver, options(r)));
  }
  std::vector<std::future<SolveReport>> gets;
  for (auto& submit : submits) gets.push_back(client.get_async(submit.get()));
  for (int r = 0; r < kRequests; ++r) {
    const SolveReport report = gets[static_cast<std::size_t>(r)].get();
    EXPECT_TRUE(wire::reports_payload_equal(
        expected[static_cast<std::size_t>(r)], report))
        << "request " << r << " diverged through the pipelined door";
  }

  const obs::TelemetrySnapshot telemetry = client.telemetry();
  EXPECT_EQ(telemetry.counter_or("door.submits"),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(telemetry.counter_or("door.backend_failures"), 0u);
  for (const auto& backend : backends) {
    EXPECT_GT(backend->service().stats().submitted, 0u);
  }
  client.shutdown();
  for (const auto& backend : backends) backend->wait();
}

TEST(FrontDoorTest, StoppedBackendFailsEveryPendingGetWithTheDoorKey) {
  // The dead-backend contract on the batched path: 64 requests are in
  // flight when backend 1 goes away. Backend 1 is scripted: it acks every
  // submit and parks every get, then closes its link once all of its gets
  // arrived. Each get parked there must resolve, in bounded time, with a
  // front-door-keyed runtime error; backend 0's requests complete.
  net::ServiceServer live({small_service(), 0});
  net::TcpListener listener = net::TcpListener::bind_loopback(0);
  std::atomic<int> acked{0};
  std::atomic<int> parked{0};
  std::atomic<int> link_fd{-1};
  std::thread dying([&] {
    std::optional<net::TcpConnection> link = listener.accept();
    if (!link) return;
    link_fd.store(link->fd());
    try {
      while (const std::optional<std::string> body = link->recv_frame()) {
        const std::optional<wire::Frame> frame =
            wire::decode_frame_body(*body);
        if (!frame) break;
        if (frame->type == wire::MessageType::kSubmit) {
          wire::Writer ack;
          ack.u64(static_cast<std::uint64_t>(acked.fetch_add(1) + 1));
          link->send_frame(wire::encode_frame(wire::MessageType::kSubmitOk,
                                              frame->request_id,
                                              ack.buffer()));
        } else if (frame->type == wire::MessageType::kGet) {
          parked.fetch_add(1);
        }
      }
    } catch (const std::exception&) {
      // The test shut the link down under a send: the same stop.
    }
  });

  constexpr int kRequests = 64;
  std::vector<std::future<SolveReport>> gets;
  int hung = 0;
  {
    net::FrontDoor door({{net::Endpoint{net::kLoopbackHost, live.port()},
                          net::Endpoint{net::kLoopbackHost, listener.port()}},
                         0});
    TcpClient client(door.port());
    const std::vector<gen::NamedInstance> scenarios = mixed_scenarios();
    std::vector<std::future<client::RequestId>> submits;
    for (int r = 0; r < kRequests; ++r) {
      SolveOptions options = stream_options();
      options.seed = 9000 + static_cast<std::uint64_t>(r);
      submits.push_back(client.submit_async(
          scenarios[static_cast<std::size_t>(r) % scenarios.size()].view(),
          client::kAutoSolver, options));
    }
    for (auto& submit : submits) {
      gets.push_back(client.get_async(submit.get()));
    }
    // Every get routed to backend 1 is parked there; now stop it.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (parked.load() < acked.load() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(parked.load(), acked.load());
    if (link_fd.load() >= 0) (void)::shutdown(link_fd.load(), SHUT_RDWR);
    for (auto& get : gets) {
      if (get.wait_for(std::chrono::seconds(10)) !=
          std::future_status::ready) {
        ++hung;
      }
    }
    // Backend 1 is gone for good: its port refuses, so the wire shutdown
    // counts it as shut down.
    listener.shutdown();
    dying.join();
    listener.close();
    client.shutdown();
  }
  live.wait();
  ASSERT_EQ(hung, 0) << "pending gets hung after their backend stopped";

  // Read the outcomes only now that the client's reader thread is joined:
  // the exception objects are then released on this thread alone.
  int failed = 0;
  int completed = 0;
  for (auto& get : gets) {
    try {
      const SolveReport report = get.get();
      EXPECT_TRUE(report.error.empty()) << report.error;
      ++completed;
    } catch (const std::runtime_error& e) {
      ++failed;
      EXPECT_EQ(std::string(e.what()).rfind("front-door: backend 1 ", 0), 0u)
          << e.what();
    }
  }
  EXPECT_GT(acked.load(), 0) << "no request routed to backend 1";
  EXPECT_LT(acked.load(), kRequests) << "no request routed to backend 0";
  EXPECT_EQ(failed, acked.load());
  EXPECT_EQ(completed, kRequests - acked.load());
}

TEST(FrontDoorTest, WelfareInvariantAcrossBackendCounts) {
  const std::vector<gen::NamedInstance> scenarios = mixed_scenarios();
  const int kRequests = 40;
  const FrontDoorRun one = run_front_door(scenarios, 1, kRequests);
  const FrontDoorRun two = run_front_door(scenarios, 2, kRequests);
  ASSERT_EQ(one.reports.size(), two.reports.size());
  for (std::size_t i = 0; i < one.reports.size(); ++i) {
    EXPECT_TRUE(wire::reports_payload_equal(one.reports[i], two.reports[i]))
        << "request " << i << " depends on the backend count";
  }
}

// ------------------------------------------------ admission over the wire

/// The admission twins' topology: TcpClient -> FrontDoor -> ONE backend
/// with one shard and one worker, so every request queues behind that
/// worker. hold() primes the admission cost estimate with one real solve,
/// parks the worker inside on_solve on the next request and queues four
/// more behind it; release() lets the queue move. The backend's on_solve
/// holds `this`, so the door is neither copied nor moved.
class HeldDoor {
 public:
  explicit HeldDoor(AdmissionPolicy admission)
      : blocked_future_(blocked_.get_future()),
        release_future_(release_.get_future()),
        backend_({held_service(admission), 0}),
        door_({{net::Endpoint{net::kLoopbackHost, backend_.port()}}, 0}),
        client_(door_.port()) {}
  HeldDoor(const HeldDoor&) = delete;
  HeldDoor& operator=(const HeldDoor&) = delete;

  /// A held worker would keep the backend's shutdown waiting forever.
  ~HeldDoor() { release(); }

  [[nodiscard]] TcpClient& client() { return client_; }

  void hold() {
    (void)client_.get(client_.submit(slow_, "lp-rounding", seeded(1)));
    gate_on_.store(true);
    held_.push_back(client_.submit(slow_, "lp-rounding", seeded(2)));
    ASSERT_EQ(blocked_future_.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    for (std::uint64_t seed = 3; seed < 7; ++seed) {
      held_.push_back(client_.submit(slow_, "lp-rounding", seeded(seed)));
    }
  }

  void release() {
    if (released_) return;
    released_ = true;
    gate_on_.store(false);
    release_.set_value();
  }

  /// Releases the worker and claims every held request.
  void drain() {
    release();
    for (const client::RequestId id : held_) (void)client_.get(id);
    held_.clear();
  }

  /// Submits a request whose 0.1 ms budget no queue position can meet.
  [[nodiscard]] client::RequestId submit_hopeless() {
    SolveOptions hopeless = seeded(99);
    hopeless.time_budget_seconds = 1e-4;
    return client_.submit(slow_, client::kAutoSolver, hopeless);
  }

 private:
  [[nodiscard]] static SolveOptions seeded(std::uint64_t seed) {
    SolveOptions options;
    options.seed = seed;  // distinct payloads, so nothing coalesces
    options.pipeline.rounding_repetitions = 48;
    return options;
  }

  [[nodiscard]] service::ServiceOptions held_service(
      AdmissionPolicy admission) {
    service::ServiceOptions config;
    config.shards = 1;
    config.threads_per_shard = 1;
    config.admission = admission;
    config.on_solve = [this](const Fingerprint&) {
      if (!gate_on_.load()) return;
      if (!blocked_signalled_.exchange(true)) blocked_.set_value();
      release_future_.wait();
    };
    return config;
  }

  std::atomic<bool> gate_on_{false};
  std::atomic<bool> blocked_signalled_{false};
  bool released_ = false;
  std::promise<void> blocked_;
  std::future<void> blocked_future_;
  std::promise<void> release_;
  std::shared_future<void> release_future_;
  const AuctionInstance slow_ =
      gen::make_disk_auction(40, 2, gen::ValuationMix::kMixed, 705);
  std::vector<client::RequestId> held_;
  net::ServiceServer backend_;
  net::FrontDoor door_;
  TcpClient client_;
};

TEST(FrontDoorTest, RejectPolicyCompletesUnmeetableDeadlinesImmediately) {
  // The wire twin of test_service's pin: behind a held worker, a hopeless
  // budget comes back through the door rejected before the queue moves.
  HeldDoor door(AdmissionPolicy::kReject);
  ASSERT_NO_FATAL_FAILURE(door.hold());
  const client::RequestId rejected = door.submit_hopeless();
  const std::optional<SolveReport> polled = door.client().try_get(rejected);
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(polled->admission, Admission::kRejected)
      << "verdict: " << to_string(polled->admission);
  EXPECT_NE(polled->error.find("admission rejected"), std::string::npos)
      << polled->error;
  EXPECT_FALSE(polled->feasible);

  door.drain();
  const obs::TelemetrySnapshot telemetry = door.client().telemetry();
  EXPECT_EQ(telemetry.counter_or("service.admission_rejected"), 1u);
  EXPECT_EQ(telemetry.counter_or("service.admission_degraded"), 0u);
}

TEST(FrontDoorTest, UnmeetableDeadlinesDegradeByDefault) {
  // Under the default policy the same hopeless request still completes,
  // with its budget clamped, and is never cached: its payload depends on
  // queue timing.
  HeldDoor door(service::ServiceOptions{}.admission);
  ASSERT_NO_FATAL_FAILURE(door.hold());
  const std::size_t cached_before = door.client().stats().cache_entries;
  const client::RequestId tight = door.submit_hopeless();
  door.release();
  const SolveReport report = door.client().get(tight);
  EXPECT_EQ(report.admission, Admission::kDegraded)
      << "verdict: " << to_string(report.admission);
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_FALSE(report.cache_hit);

  door.drain();
  // The holder and the four queued requests are cached; the degraded one
  // is not.
  EXPECT_EQ(door.client().stats().cache_entries, cached_before + 5u);
  const obs::TelemetrySnapshot telemetry = door.client().telemetry();
  EXPECT_EQ(telemetry.counter_or("service.admission_degraded"), 1u);
  EXPECT_EQ(telemetry.counter_or("service.admission_rejected"), 0u);
}

TEST(FrontDoorTest, UnknownIdAndErrorPassthrough) {
  net::ServiceServer backend({small_service(), 0});
  net::FrontDoor door(
      {{net::Endpoint{net::kLoopbackHost, backend.port()}}, 0});
  TcpClient client(door.port());
  EXPECT_THROW((void)client.try_get(12345), std::invalid_argument);

  // A solver-layer error report passes through the door with its pinned
  // format -- the door never rewrites backend payloads.
  const AuctionInstance instance =
      gen::make_disk_auction(6, 2, gen::ValuationMix::kAdditive, 9);
  const auto id = client.submit(instance, "no-such-solver");
  const SolveReport report = client.get(id);
  EXPECT_EQ(report.error.rfind("no-such-solver: ", 0), 0u) << report.error;

  // Claiming an id the backend already served: invalid_argument, and the
  // door's own map agrees with the backend's claim bookkeeping.
  EXPECT_THROW((void)client.get(id), std::invalid_argument);
  client.shutdown();
  backend.wait();
}

TEST(FrontDoorTest, StopDoesNotWaitOutAStalledBackend) {
  // A backend that accepts and never answers: the door's forwarding rpc
  // parks in recv. stop() must half-close the busy pool connection and
  // return promptly instead of waiting out the stall (the client then
  // sees a door-keyed backend-failure error).
  net::TcpListener stalled = net::TcpListener::bind_loopback(0);
  std::thread sink([&] {
    std::vector<net::TcpConnection> accepted;
    while (auto connection = stalled.accept()) {
      accepted.push_back(std::move(*connection));  // hold open, never reply
    }
  });

  const AuctionInstance instance =
      gen::make_disk_auction(6, 2, gen::ValuationMix::kAdditive, 13);
  std::future<void> submitter;
  {
    net::FrontDoor door(
        {{net::Endpoint{net::kLoopbackHost, stalled.port()}}, 0});
    auto client = std::make_shared<client::TcpClient>(door.port());
    std::promise<void> sent;
    std::future<void> sent_future = sent.get_future();
    submitter = std::async(std::launch::async, [client, &instance, &sent] {
      sent.set_value();
      // The submit is forwarded to the stalled backend; it must resolve
      // as a runtime_error once the door stops, not hang.
      EXPECT_THROW((void)client->submit(instance), std::runtime_error);
    });
    sent_future.wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Destructor runs stop(): must not block on the in-flight rpc.
  }
  submitter.wait();
  stalled.shutdown();  // unblocks the sink's accept; close after the join
  sink.join();
  stalled.close();
}

TEST(FrontDoorTest, ServesNewRegistryEntriesWithNoNewEntryPoints) {
  // The arXiv:1110.5753 submodular-greedy entry went in as one registry
  // add(); the transport-agnostic API serves it everywhere unchanged.
  const AuctionInstance instance =
      gen::make_disk_auction(10, 2, gen::ValuationMix::kMixed, 21);

  LocalClient local(small_service());
  const SolveReport local_report =
      local.get(local.submit(instance, "submodular-greedy"));
  local.shutdown();

  net::ServiceServer backend({small_service(), 0});
  net::FrontDoor door(
      {{net::Endpoint{net::kLoopbackHost, backend.port()}}, 0});
  TcpClient client(door.port());
  const SolveReport remote_report =
      client.get(client.submit(instance, "submodular-greedy"));
  client.shutdown();
  backend.wait();

  EXPECT_TRUE(local_report.error.empty());
  EXPECT_EQ(local_report.solver_selected, "submodular-greedy");
  EXPECT_TRUE(wire::reports_payload_equal(local_report, remote_report));
}

// ------------------------------------------------------------- telemetry

TEST(FrontDoorTest, TelemetryExportsLinkedSpanTree) {
  // The acceptance pin of the tracing subsystem: a request entering via
  // TcpClient -> FrontDoor -> backend yields ONE trace whose spans link
  // causally -- the client's minted root parents the door's "door/submit"
  // span, which parents the backend's "service/queue" span, which parents
  // "service/solve". All of it retrievable through the kGetTelemetry frame
  // (the door merges its own registry with every backend's).
  std::vector<std::unique_ptr<net::ServiceServer>> backends;
  for (int b = 0; b < 2; ++b) {
    backends.push_back(std::make_unique<net::ServiceServer>(
        net::ServiceServerOptions{small_service(), 0}));
  }
  net::FrontDoor door({loopback_backends(backends), 0});
  TcpClient client(door.port());

  const std::vector<gen::NamedInstance> scenarios = mixed_scenarios();
  constexpr int kRequests = 8;  // distinct instances: all solve, no hits
  for (int r = 0; r < kRequests; ++r) {
    const client::RequestId id = client.submit(
        scenarios[static_cast<std::size_t>(r)].view(), client::kAutoSolver,
        stream_options());
    const SolveReport report = client.get(id);
    ASSERT_TRUE(report.error.empty()) << report.error;
  }

  // Backend workers record their spans just AFTER publishing the report a
  // blocking get() waits on; poll briefly instead of racing them.
  obs::TelemetrySnapshot telemetry;
  int solve_spans = 0;
  for (int attempt = 0; attempt < 200; ++attempt) {
    telemetry = client.telemetry();
    solve_spans = 0;
    for (const obs::SpanRecord& span : telemetry.spans) {
      solve_spans += span.name == "service/solve" ? 1 : 0;
    }
    if (solve_spans >= kRequests) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(solve_spans, kRequests);

  // The merged snapshot reads as one fleet: door counters and the summed
  // backend counters describe the same traffic.
  EXPECT_EQ(telemetry.counter_or("door.submits"),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(telemetry.counter_or("service.submitted"),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(telemetry.counter_or("service.solves"),
            static_cast<std::uint64_t>(kRequests));

  // Every door/submit span roots a complete linked chain.
  int linked_chains = 0;
  for (const obs::SpanRecord& door_span : telemetry.spans) {
    if (door_span.name != "door/submit") continue;
    EXPECT_NE(door_span.trace_id, 0u);
    EXPECT_NE(door_span.parent_span_id, 0u);  // the client's root span
    for (const obs::SpanRecord& queue_span : telemetry.spans) {
      if (queue_span.name != "service/queue" ||
          queue_span.trace_id != door_span.trace_id) {
        continue;
      }
      EXPECT_EQ(queue_span.parent_span_id, door_span.span_id);
      for (const obs::SpanRecord& solve_span : telemetry.spans) {
        if (solve_span.name != "service/solve" ||
            solve_span.trace_id != door_span.trace_id) {
          continue;
        }
        EXPECT_EQ(solve_span.parent_span_id, queue_span.span_id);
        EXPECT_NE(solve_span.note.find("solver="), std::string::npos);
        ++linked_chains;
      }
    }
  }
  EXPECT_EQ(linked_chains, kRequests);

  // Latency histograms rode along and saw every solve.
  bool found_solve_hist = false;
  for (const auto& [name, histogram] : telemetry.histograms) {
    if (name != "service.solve_seconds") continue;
    found_solve_hist = true;
    EXPECT_EQ(histogram.count(), static_cast<std::uint64_t>(kRequests));
  }
  EXPECT_TRUE(found_solve_hist);

  client.shutdown();
  for (const auto& backend : backends) backend->wait();
}

TEST(FrontDoorTest, ConcurrentClientsKeepMergedTelemetryExact) {
  // Four client threads, each on its own TcpClient, drive a door over two
  // backends with a seeded, budget-free mix of ScenarioPool repeats and
  // churn variants, while a fifth thread polls the merged telemetry. The
  // registries' striped counters, the span rings and the door's telemetry
  // fan-out race live traffic here (CI runs this label under TSan).
  load::TraceSpec spec;
  spec.seed = 20260808;
  spec.pool_size = 8;
  spec.bidders = 10;
  spec.channels = 2;
  load::ScenarioPool pool(spec);
  constexpr int kClients = 4;
  constexpr int kPerClient = 48;
  constexpr std::uint64_t kRequests = kClients * kPerClient;
  // Every stream is drawn up front: the pool is single-threaded.
  std::vector<std::vector<const gen::NamedInstance*>> streams(kClients);
  Rng rng(20261022);
  for (int c = 0; c < kClients; ++c) {
    Rng draw = rng.split(static_cast<std::uint64_t>(c));
    for (int r = 0; r < kPerClient; ++r) {
      const auto scenario =
          static_cast<std::uint32_t>(draw.uniform_int(spec.pool_size));
      const auto variant = draw.bernoulli(0.3)
                               ? static_cast<std::uint32_t>(
                                     1 + draw.uniform_int(3))
                               : 0u;
      streams[static_cast<std::size_t>(c)].push_back(
          &pool.instance(scenario, variant));
    }
  }
  // cache_hit and coalesced depend on which request got there first.
  const auto timing_free = [](SolveReport report) {
    report.cache_hit = false;
    report.coalesced = false;
    return report;
  };

  LocalClient local(small_service());
  std::vector<std::vector<SolveReport>> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (const gen::NamedInstance* named :
         streams[static_cast<std::size_t>(c)]) {
      expected[static_cast<std::size_t>(c)].push_back(timing_free(
          local.get(local.submit(named->view(), client::kAutoSolver,
                                 stream_options()))));
    }
  }
  local.shutdown();

  std::vector<std::unique_ptr<net::ServiceServer>> backends;
  for (int b = 0; b < 2; ++b) {
    backends.push_back(std::make_unique<net::ServiceServer>(
        net::ServiceServerOptions{small_service(), 0}));
  }
  net::FrontDoor door({loopback_backends(backends), 0});

  std::vector<std::vector<SolveReport>> reports(kClients);
  std::atomic<int> running{kClients};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        TcpClient client(door.port());
        for (const gen::NamedInstance* named :
             streams[static_cast<std::size_t>(c)]) {
          reports[static_cast<std::size_t>(c)].push_back(
              client.get(client.submit(named->view(), client::kAutoSolver,
                                       stream_options())));
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "client " << c << ": " << e.what();
      }
      running.fetch_sub(1);
    });
  }
  int polls = 0;
  std::thread poller([&] {
    try {
      TcpClient client(door.port());
      std::uint64_t last = 0;
      do {
        const std::uint64_t completed =
            client.telemetry().counter_or("service.completed");
        EXPECT_GE(completed, last) << "service.completed went backwards";
        last = completed;
        ++polls;
      } while (running.load() > 0);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "poller: " << e.what();
    }
  });
  for (std::thread& thread : clients) thread.join();
  poller.join();
  EXPECT_GT(polls, 0);

  for (std::size_t c = 0; c < expected.size(); ++c) {
    ASSERT_EQ(reports[c].size(), expected[c].size());
    for (std::size_t r = 0; r < expected[c].size(); ++r) {
      EXPECT_TRUE(wire::reports_payload_equal(expected[c][r],
                                              timing_free(reports[c][r])))
          << "client " << c << " request " << r << " diverged";
    }
  }

  // A solve ticks service.completed just after its get() can return, so
  // the last few may trail the final claim briefly.
  TcpClient client(door.port());
  obs::TelemetrySnapshot telemetry;
  for (int attempt = 0; attempt < 500; ++attempt) {
    telemetry = client.telemetry();
    if (telemetry.counter_or("service.completed") >= kRequests) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(telemetry.counter_or("door.submits"), kRequests);
  EXPECT_EQ(telemetry.counter_or("service.submitted"), kRequests);
  EXPECT_EQ(telemetry.counter_or("service.completed"), kRequests);
  // Every request was answered exactly one way.
  EXPECT_EQ(telemetry.counter_or("service.solves") +
                telemetry.counter_or("service.cache_hits") +
                telemetry.counter_or("service.coalesced"),
            kRequests);

  client.shutdown();
  for (const auto& backend : backends) backend->wait();
}

/// Support-preserving churn (as in test_service.cpp): rescales one
/// bidder's positive values so the structural fingerprint -- the column
/// pool key -- holds while the result cache misses.
AsymmetricInstance rescale_asym_bidder(const AsymmetricInstance& instance,
                                       std::size_t v, double factor) {
  std::vector<double> values(num_bundles(instance.num_channels()), 0.0);
  for (Bundle t = 1; t < num_bundles(instance.num_channels()); ++t) {
    const double old = instance.value(v, t);
    if (old > 0.0) values[t] = old * factor;
  }
  return instance.with_valuation(
      v, std::make_shared<ExplicitValuation>(instance.num_channels(),
                                             std::move(values)));
}

AsymmetricInstance weighted_asymmetric_chain(std::size_t n) {
  std::vector<ConflictGraph> graphs;
  for (int channel = 0; channel < 2; ++channel) {
    ConflictGraph graph(n);
    for (std::size_t u = 0; u + 1 < n; ++u) {
      graph.set_weight(u, u + 1, 0.4);
      graph.set_weight(u + 1, u, 0.4);
    }
    graphs.push_back(std::move(graph));
  }
  std::vector<ValuationPtr> valuations;
  for (std::size_t v = 0; v < n; ++v) {
    valuations.push_back(std::make_shared<AdditiveValuation>(
        std::vector<double>{3.0 + static_cast<double>(v), 2.0}));
  }
  return AsymmetricInstance(std::move(graphs), identity_ordering(n),
                            std::move(valuations));
}

TEST(FrontDoorTest, StatsAggregationPreservesEveryField) {
  // Regression pin for the read-once stats fan-out: the door's aggregated
  // ServiceStats must equal the per-backend stats summed field-for-field.
  // colgen_warm is the field the old per-field accumulation silently
  // dropped, so the workload is an asymmetric churn stream that warm-starts
  // the column pools (making the field nonzero on the backends).
  std::vector<std::unique_ptr<net::ServiceServer>> backends;
  for (int b = 0; b < 2; ++b) {
    backends.push_back(std::make_unique<net::ServiceServer>(
        net::ServiceServerOptions{small_service(), 0}));
  }
  net::FrontDoor door({loopback_backends(backends), 0});
  TcpClient client(door.port());

  const AsymmetricInstance base = weighted_asymmetric_chain(12);
  SolveOptions options;
  options.seed = 17;
  options.pipeline.rounding_repetitions = 8;
  constexpr int kVariants = 24;
  for (int i = 0; i < kVariants; ++i) {
    const AsymmetricInstance churned = rescale_asym_bidder(
        base, static_cast<std::size_t>(i) % base.num_bidders(),
        1.0 + 0.03 * static_cast<double>(i + 1));
    const SolveReport report =
        client.get(client.submit(churned, "asymmetric-colgen", options));
    ASSERT_TRUE(report.error.empty()) << "variant " << i << ": "
                                      << report.error;
  }

  const service::ServiceStats door_stats = client.stats();
  service::ServiceStats summed;
  for (const auto& backend : backends) {
    TcpClient direct(backend->port());
    const service::ServiceStats stats = direct.stats();
    summed.submitted += stats.submitted;
    summed.completed += stats.completed;
    summed.cache_hits += stats.cache_hits;
    summed.warm_starts += stats.warm_starts;
    summed.colgen_warm += stats.colgen_warm;
  }
  EXPECT_EQ(door_stats.submitted, static_cast<std::uint64_t>(kVariants));
  EXPECT_EQ(door_stats.submitted, summed.submitted);
  EXPECT_EQ(door_stats.completed, summed.completed);
  EXPECT_EQ(door_stats.cache_hits, summed.cache_hits);
  EXPECT_EQ(door_stats.warm_starts, summed.warm_starts);
  EXPECT_EQ(door_stats.colgen_warm, summed.colgen_warm);
  // Each (backend, shard) pool runs cold at most once; the rest of the
  // churn stream warm-starts, so the once-dropped field is nonzero here.
  EXPECT_GE(door_stats.colgen_warm, static_cast<std::uint64_t>(kVariants) -
                                        2u * small_service().shards);

  client.shutdown();
  for (const auto& backend : backends) backend->wait();
}

}  // namespace
}  // namespace ssa
