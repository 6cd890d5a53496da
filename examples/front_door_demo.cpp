// Front-door demo: the full cross-process serving topology on one
// machine. The program spawns TWO real backend processes (fork + exec of
// its own binary in --backend mode, each running an AuctionService behind
// a wire-protocol ServiceServer on an ephemeral loopback port), starts a
// FrontDoor that routes each submit by a hash of its payload bytes (equal
// submits meet one backend; the door decodes no instance), and drives a
// mixed request stream through a TcpClient -- the same AuctionClient code
// the in-process service_demo uses with a LocalClient. The door sends the
// frames it forwards in one write per backend per event-loop turn; the
// backends answer gets on their loop threads.
//
// The demo doubles as a smoke test of the location-transparency contract:
// every report that crossed process boundaries must be payload-bitwise
// identical (wire::reports_payload_equal) to a LocalClient run of the
// same stream, the welfare sum must match exactly, and both backends
// must have received work. Exits non-zero on any divergence.
//
// Build & run:  ./example_front_door_demo [--telemetry]
//   --telemetry   additionally print the door-aggregated registry snapshot
//                 (the door merges both backend processes' registries with
//                 its own -- the cross-process telemetry path end to end)
// Backend mode (spawned internally): --backend <port-report-fd>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "client/client.hpp"
#include "gen/scenario.hpp"
#include "net/front_door.hpp"
#include "net/service_server.hpp"
#include "obs/telemetry.hpp"
#include "support/table.hpp"
#include "wire/codec.hpp"

namespace {

using namespace ssa;

/// The request stream: 4 rotations over 12 distinct mixed scenarios.
std::vector<gen::NamedInstance> make_scenarios() {
  std::vector<gen::NamedInstance> scenarios;
  for (std::uint64_t day = 0; day < 3; ++day) {
    for (gen::NamedInstance& named :
         gen::mixed_scenario_suite(11, 2, 7100 + 13 * day)) {
      scenarios.push_back(std::move(named));
    }
  }
  return scenarios;
}

service::ServiceOptions backend_service_options() {
  service::ServiceOptions config;
  config.shards = 2;
  config.threads_per_shard = 1;
  return config;
}

/// Backend mode: serve until the front door's shutdown fan-out arrives,
/// reporting the ephemeral port to the parent over the inherited pipe fd.
int run_backend(int port_fd) {
  net::ServiceServer server({backend_service_options(), 0});
  const std::string line = std::to_string(server.port()) + "\n";
  if (write(port_fd, line.data(), line.size()) !=
      static_cast<ssize_t>(line.size())) {
    return EXIT_FAILURE;
  }
  close(port_fd);
  server.wait();  // until the wire kShutdown
  server.stop();
  return EXIT_SUCCESS;
}

/// Spawns one backend process; returns its pid and wire port.
struct Backend {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

Backend spawn_backend(const char* self) {
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("front_door_demo: pipe() failed");
  }
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("front_door_demo: fork() failed");
  if (pid == 0) {
    // Child: exec ourselves in backend mode, reporting the port on fds[1].
    close(fds[0]);
    const std::string fd_arg = std::to_string(fds[1]);
    execl(self, self, "--backend", fd_arg.c_str(), nullptr);
    std::perror("front_door_demo: execl");
    _exit(127);
  }
  close(fds[1]);
  std::string text;
  char byte = 0;
  while (read(fds[0], &byte, 1) == 1 && byte != '\n') text.push_back(byte);
  close(fds[0]);
  const int port = text.empty() ? 0 : std::atoi(text.c_str());
  if (port <= 0 || port > 65535) {
    throw std::runtime_error("front_door_demo: backend reported no port");
  }
  return Backend{pid, static_cast<std::uint16_t>(port)};
}

std::vector<SolveReport> replay(client::AuctionClient& client,
                                const std::vector<gen::NamedInstance>& set,
                                int total) {
  SolveOptions options;
  options.pipeline.rounding_repetitions = 16;
  std::vector<SolveReport> reports;
  reports.reserve(static_cast<std::size_t>(total));
  for (int r = 0; r < total; ++r) {
    const gen::NamedInstance& scenario =
        set[static_cast<std::size_t>(r) % set.size()];
    reports.push_back(client.get(
        client.submit(scenario.view(), client::kAutoSolver, options)));
  }
  return reports;
}

int run_demo(const char* self, bool show_telemetry) {
  const std::vector<gen::NamedInstance> scenarios = make_scenarios();
  const int kRequests = 48;

  // Reference run: the same stream through an in-process LocalClient.
  client::LocalClient local(backend_service_options());
  const std::vector<SolveReport> local_reports =
      replay(local, scenarios, kRequests);
  const client::ServiceStats local_stats = local.stats();
  local.shutdown();

  // Cross-process topology: 2 backend processes, one front door.
  const Backend left = spawn_backend(self);
  const Backend right = spawn_backend(self);
  std::cout << "spawned backends: pid " << left.pid << " on 127.0.0.1:"
            << left.port << ", pid " << right.pid << " on 127.0.0.1:"
            << right.port << "\n";
  net::FrontDoor door({{net::Endpoint{net::kLoopbackHost, left.port},
                        net::Endpoint{net::kLoopbackHost, right.port}},
                       0});
  client::TcpClient remote(door.port());
  const std::vector<SolveReport> remote_reports =
      replay(remote, scenarios, kRequests);
  const client::ServiceStats door_stats = remote.stats();
  // Per-backend probes (straight at each backend, past the door): the
  // keyspace split must actually have spread work, or a routing bug that
  // pins everything to one backend would pass every bitwise check.
  const std::uint64_t left_submitted =
      client::TcpClient(left.port).stats().submitted;
  const std::uint64_t right_submitted =
      client::TcpClient(right.port).stats().submitted;

  // Per-scenario comparison table (first occurrence of each).
  Table table({"scenario", "solver selected", "welfare", "bitwise equal"});
  bool all_equal = true;
  double local_welfare = 0.0;
  double remote_welfare = 0.0;
  for (int r = 0; r < kRequests; ++r) {
    const bool equal = wire::reports_payload_equal(
        local_reports[static_cast<std::size_t>(r)],
        remote_reports[static_cast<std::size_t>(r)]);
    all_equal = all_equal && equal;
    local_welfare += local_reports[static_cast<std::size_t>(r)].welfare;
    remote_welfare += remote_reports[static_cast<std::size_t>(r)].welfare;
    if (static_cast<std::size_t>(r) < scenarios.size()) {
      table.add_row({scenarios[static_cast<std::size_t>(r)].label + "#" +
                         std::to_string(r),
                     remote_reports[static_cast<std::size_t>(r)]
                         .solver_selected,
                     Table::num(
                         remote_reports[static_cast<std::size_t>(r)].welfare,
                         2),
                     equal ? "yes" : "NO"});
    }
  }
  table.print(std::cout,
              "front door: TcpClient -> FrontDoor -> 2 backend processes");
  std::cout << "requests: " << door_stats.completed << "/"
            << door_stats.submitted << " across both backends ("
            << left_submitted << " + " << right_submitted
            << "), cache hits: " << door_stats.cache_hits << " (local run: "
            << local_stats.cache_hits << "), welfare "
            << Table::num(remote_welfare, 4) << " vs local "
            << Table::num(local_welfare, 4) << "\n";

  // Fleet telemetry: one kGetTelemetry frame at the door returns both
  // backend processes' registries exactly merged with the door's own.
  const obs::TelemetrySnapshot telemetry = remote.telemetry();
  if (show_telemetry) {
    std::cout << "\n" << obs::format(telemetry);
  }

  // Shutdown fans out through the door to both backend processes.
  remote.shutdown();
  int status = 0;
  bool children_clean = true;
  for (const Backend& backend : {left, right}) {
    if (waitpid(backend.pid, &status, 0) != backend.pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != EXIT_SUCCESS) {
      children_clean = false;
    }
  }

  if (!all_equal || local_welfare != remote_welfare) {
    std::cerr << "FAIL: cross-process reports diverged from LocalClient\n";
    return EXIT_FAILURE;
  }
  if (door_stats.submitted != static_cast<std::uint64_t>(kRequests) ||
      door_stats.cache_hits != local_stats.cache_hits) {
    std::cerr << "FAIL: front-door traffic profile diverged\n";
    return EXIT_FAILURE;
  }
  if (left_submitted == 0 || right_submitted == 0) {
    std::cerr << "FAIL: the keyspace split sent no work to one backend ("
              << left_submitted << " + " << right_submitted << ")\n";
    return EXIT_FAILURE;
  }
  if (!children_clean) {
    std::cerr << "FAIL: a backend process exited uncleanly\n";
    return EXIT_FAILURE;
  }
  // Telemetry self-check: the merged registry describes the same traffic
  // the door and backend stats reported -- across real process boundaries.
  if (telemetry.counter_or("door.submits") !=
          static_cast<std::uint64_t>(kRequests) ||
      telemetry.counter_or("service.submitted") !=
          static_cast<std::uint64_t>(kRequests) ||
      telemetry.counter_or("service.cache_hits") != door_stats.cache_hits) {
    std::cerr << "FAIL: aggregated registry metrics diverge from the "
                 "observed traffic (door.submits="
              << telemetry.counter_or("door.submits") << ", service.submitted="
              << telemetry.counter_or("service.submitted") << ")\n";
    return EXIT_FAILURE;
  }
  std::cout << "OK: " << kRequests
            << " requests bitwise-identical across process boundaries, "
               "welfare invariant, aggregated registry metrics match, both "
               "backends shut down cleanly\n";
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--backend") == 0) {
    return run_backend(std::atoi(argv[2]));
  }
  bool show_telemetry = false;
  for (int i = 1; i < argc; ++i) {
    show_telemetry = show_telemetry || std::strcmp(argv[i], "--telemetry") == 0;
  }
  try {
    return run_demo(argv[0], show_telemetry);
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
