// A tour of the observability layer, fleet edition.
//
// Two NetServers are stood up on ephemeral loopback ports over the same
// "city" environment and fronted by a FleetProxy with a two-backend
// replica window — the smallest topology where a trace has to stitch
// across processes tiers. One traced QUERY goes through the proxy:
//
//   * the client sends `QUERY env=city ... trace=1 trace_id=tour.1`,
//   * the proxy adopts the trace id and forwards it to the backend, so
//     the backend's TRACE rows (admit, queue_wait, exec, leaf_chunk, ...)
//     carry the same id as the proxy's own rows (proxy.dial),
//   * after END the client reads one combined span tree and prints it.
//
// Then the process-wide MetricsRegistry is rendered: because everything
// here shares one process, the exposition shows all tiers at once —
// engine histograms, server counters, proxy counters — exactly what a
// `rcj_tool client --metrics` scrape returns over the wire. The
// slow-query log (threshold 0 = record everything) rides along as
// `# slowlog` comment lines.
//
//   $ ./observability_tour
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet_proxy.h"
#include "net/net_server.h"
#include "net/protocol_client.h"
#include "obs/metrics.h"
#include "shard/shard_router.h"
#include "workload/generator.h"

namespace {

using namespace rcj;

/// One scripted caller: connect, send the traced `request`, stream pairs,
/// then print the span tree that rides after END. Returns the pair count,
/// or -1 on a protocol error.
long RunTracedClient(uint16_t port, const net::WireRequest& request) {
  Result<net::ProtocolClient> client =
      net::ProtocolClient::Connect("127.0.0.1", port);
  if (!client.ok()) return -1;
  net::WireSummary summary;
  std::vector<net::WireTraceSpan> spans;
  if (!client.value().RunQuery(request, nullptr, &summary, &spans).ok()) {
    return -1;
  }
  std::printf("%llu pairs, then the stitched trace:\n",
              static_cast<unsigned long long>(summary.pairs));
  for (const net::WireTraceSpan& span : spans) {
    // Depth-indent the aggregated rows; the id on every row is what
    // lets a log aggregator stitch multi-process traces back together.
    std::printf("  [%s] %*s%-22s count=%llu total=%.3fms\n",
                span.id.c_str(), static_cast<int>(2 * span.depth), "",
                span.span.c_str(),
                static_cast<unsigned long long>(span.count),
                span.total_s * 1e3);
  }
  std::printf("  ENDTRACE id=%s spans=%zu\n", request.trace_id.c_str(),
              spans.size());
  return static_cast<long>(summary.pairs);
}

}  // namespace

int main() {
  // Record every query in the slow-query log (threshold 0ms) — the tour
  // wants the entry to show up in the exposition below.
  obs::MetricsRegistry::Default().slow_log()->Configure(0.0);

  const std::vector<PointRecord> restaurants = GenerateUniform(4000, 31);
  const std::vector<PointRecord> cafes = GenerateUniform(5000, 32);

  // Two backends, each with its own environment instance over the same
  // data — the replicated-read topology where a proxy may serve "city"
  // from either one.
  RcjRunOptions build_options;
  struct Backend {
    std::unique_ptr<RcjEnvironment> env;
    std::unique_ptr<ShardRouter> router;
    std::unique_ptr<NetServer> server;
  };
  std::vector<Backend> backends(2);
  std::vector<fleet::BackendAddress> addresses;
  for (Backend& backend : backends) {
    Result<std::unique_ptr<RcjEnvironment>> env =
        RcjEnvironment::Build(restaurants, cafes, build_options);
    if (!env.ok()) {
      std::fprintf(stderr, "environment build failed\n");
      return 1;
    }
    backend.env = std::move(env).value();
    backend.router = std::make_unique<ShardRouter>(ShardRouterOptions{});
    if (!backend.router->RegisterEnvironment("city", backend.env.get())
             .ok()) {
      std::fprintf(stderr, "environment registration failed\n");
      return 1;
    }
    backend.server = std::make_unique<NetServer>(backend.router.get());
    if (const Status status = backend.server->Start(); !status.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    fleet::BackendAddress address;
    address.host = "127.0.0.1";
    address.port = backend.server->port();
    addresses.push_back(address);
  }

  fleet::FleetProxyOptions proxy_options;
  proxy_options.replicas = 2;
  fleet::FleetProxy proxy(addresses, proxy_options);
  if (const Status status = proxy.Start(); !status.ok()) {
    std::fprintf(stderr, "proxy start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("fleet up: proxy 127.0.0.1:%u over backends :%u and :%u\n\n",
              static_cast<unsigned>(proxy.port()),
              static_cast<unsigned>(backends[0].server->port()),
              static_cast<unsigned>(backends[1].server->port()));

  // One traced query through the proxy. The caller picks the trace id, so
  // it can grep its own logs for "tour.1" afterwards.
  net::WireRequest request;
  request.env_name = "city";
  request.spec.limit = 25;
  request.trace = true;
  request.trace_id = "tour.1";
  const long pairs = RunTracedClient(proxy.port(), request);
  if (pairs < 0) {
    std::fprintf(stderr, "traced query failed\n");
    return 1;
  }

  // The registry every tier in this process wrote into, exactly as the
  // METRICS wire command renders it. Print the single-value families and
  // the histogram _count lines; the full bucket vectors are noise here.
  std::printf("\nselected metrics from the shared registry:\n");
  const std::string exposition =
      obs::MetricsRegistry::Default().RenderPrometheus();
  size_t pos = 0;
  while (pos < exposition.size()) {
    const size_t newline = exposition.find('\n', pos);
    const std::string line = exposition.substr(pos, newline - pos);
    pos = newline + 1;
    if (line.rfind("# slowlog", 0) == 0 ||
        line.rfind("rcj_proxy_forwarded_total", 0) == 0 ||
        line.rfind("rcj_server_ok_total", 0) == 0 ||
        line.rfind("rcj_admission_submitted_total", 0) == 0 ||
        line.rfind("rcj_engine_exec_seconds_count", 0) == 0 ||
        line.rfind("rcj_engine_queue_wait_seconds_count", 0) == 0) {
      std::printf("  %s\n", line.c_str());
    }
  }

  proxy.Stop();
  for (Backend& backend : backends) backend.server->Stop();

  // The proxy relayed one whole stream; the registry must agree.
  const fleet::FleetProxy::Counters counters = proxy.counters();
  return counters.ok == 1 && pairs == 25 ? 0 : 1;
}
