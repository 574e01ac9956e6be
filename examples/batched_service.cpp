// Async middleman-location service: many concurrent users, streamed
// answers.
//
// A middleman-location service keeps a few long-lived indexes warm — say
// restaurants x cafes for "where should our group meet", and a stations
// self-join for "which station pairs share a fair midpoint" — and answers
// a continuous stream of requests. This example assembles that shape with
// rcj::Service: two environments built once, a mixed stream of user
// requests submitted without blocking (every Submit returns a ticket
// immediately), result pairs streamed to per-request sinks in serial order
// while later requests are still queued, and one impatient user asking
// only for the top-5 pairs — whose join is cancelled the moment the
// prefix is delivered.
//
//   $ ./batched_service
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "service/service.h"
#include "workload/generator.h"

namespace {

using namespace rcj;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  // One-shot setup: build the service's two warm environments.
  const std::vector<PointRecord> restaurants = GenerateUniform(6000, 11);
  const std::vector<PointRecord> cafes = GenerateUniform(8000, 12);
  const std::vector<PointRecord> stations =
      GenerateGaussianClusters(5000, 8, 1000.0, 13);

  RcjRunOptions build_options;
  Result<std::unique_ptr<RcjEnvironment>> meetups =
      RcjEnvironment::Build(restaurants, cafes, build_options);
  Result<std::unique_ptr<RcjEnvironment>> hubs =
      RcjEnvironment::BuildSelf(stations, build_options);
  if (!meetups.ok() || !hubs.ok()) {
    std::fprintf(stderr, "environment build failed\n");
    return 1;
  }
  std::printf("service warm: %zu restaurants x %zu cafes, %zu stations\n\n",
              restaurants.size(), cafes.size(), stations.size());

  Service service(ServiceOptions{});  // one worker per hardware thread
  std::printf("service up: %zu engine worker threads\n",
              service.num_threads());

  // Twelve simultaneous user requests: most want the fast planner (OBJ), a
  // few analytical clients ask for the other algorithms, and user 0 only
  // wants the five best meeting points (limit=5 cancels the rest of that
  // join once the prefix has streamed).
  struct UserRequest {
    const char* scenario = "";
    RcjAlgorithm algorithm = RcjAlgorithm::kObj;
    QuerySpec spec;
    std::vector<RcjPair> pairs;
    std::unique_ptr<VectorSink> sink;
    QueryTicket ticket;
  };
  std::vector<UserRequest> users(12);

  const auto submit_start = std::chrono::steady_clock::now();
  for (size_t user = 0; user < users.size(); ++user) {
    UserRequest& request = users[user];
    const bool wants_hubs = user % 3 == 2;
    request.scenario = wants_hubs ? "hubs" : "meetup";
    request.algorithm =
        (user % 4 == 3) ? RcjAlgorithm::kInj : RcjAlgorithm::kObj;
    request.sink = std::make_unique<VectorSink>(&request.pairs);

    request.spec = QuerySpec::For(
        wants_hubs ? hubs.value().get() : meetups.value().get());
    request.spec.algorithm = request.algorithm;
    if (user == 0) request.spec.limit = 5;  // the impatient top-k user
    request.ticket = service.Submit(request.spec, request.sink.get());
  }
  const double submit_seconds = SecondsSince(submit_start);
  std::printf("submitted %zu requests in %.6f s — none of the joins is "
              "done yet (%zu queued)\n\n",
              users.size(), submit_seconds, service.pending());

  // Harvest tickets in submission order; the joins run concurrently on the
  // service's engine regardless of the order we wait in.
  std::printf("%5s %9s %8s %10s %12s %10s\n", "user", "scenario", "algo",
              "meetpoints", "candidates", "join(s)");
  const auto wait_start = std::chrono::steady_clock::now();
  for (size_t user = 0; user < users.size(); ++user) {
    const Status status = users[user].ticket.Wait();
    if (!status.ok()) {
      std::fprintf(stderr, "request %zu failed: %s\n", user,
                   status.ToString().c_str());
      return 1;
    }
    const JoinStats stats = users[user].ticket.stats();
    std::printf("%5zu %9s %8s %10zu %12llu %10.3f%s\n", user,
                users[user].scenario, AlgorithmName(users[user].algorithm),
                users[user].pairs.size(),
                static_cast<unsigned long long>(stats.candidates),
                stats.cpu_seconds,
                user == 0 ? "  <- top-5, join cancelled early" : "");
  }
  const double service_seconds = SecondsSince(wait_start) + submit_seconds;

  // The same requests — exact specs, including user 0's limit — answered
  // one at a time by the paper's serial runner (through the owning
  // non-const handles; Run() cycles the shared buffer).
  const auto serial_start = std::chrono::steady_clock::now();
  for (const UserRequest& request : users) {
    RcjEnvironment* owner = request.scenario[0] == 'h'
                                ? hubs.value().get()
                                : meetups.value().get();
    Result<RcjRunResult> run = owner->Run(request.spec);
    if (!run.ok()) {
      std::fprintf(stderr, "serial replay failed\n");
      return 1;
    }
  }
  const double serial_seconds = SecondsSince(serial_start);

  std::printf("\nservice wall time : %7.3f s (submit + all tickets)\n",
              service_seconds);
  std::printf("serial loop       : %7.3f s\n", serial_seconds);
  std::printf("speedup           : %6.2fx\n",
              serial_seconds / service_seconds);
  return 0;
}
