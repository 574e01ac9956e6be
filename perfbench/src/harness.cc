#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/stable_hash.h"
#include "net/line_reader.h"
#include "net/protocol_client.h"

namespace perfbench {

namespace {

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

uint64_t Mix(uint64_t chain, uint64_t word) {
  uint64_t z = (chain ^ word) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

bool StartsWith(const std::string& line, const char* prefix) {
  return line.compare(0, std::strlen(prefix), prefix) == 0;
}

}  // namespace

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return TimevalSeconds(usage.ru_utime) + TimevalSeconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void BurnCpu(double seconds) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> burners;
  for (unsigned t = 0; t < threads; ++t) {
    burners.emplace_back([deadline] {
      volatile uint64_t sink = 0;
      while (Clock::now() < deadline) {
        for (uint64_t i = 0; i < 10000; ++i) sink = sink * 31 + i;
      }
    });
  }
  for (std::thread& burner : burners) burner.join();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailPercentile(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  // Index ceil(0.95 n) - 1 is p95. Index n-11 has exactly ten samples
  // beyond it; below eleven samples the maximum is the best the sample
  // supports.
  const size_t p95 = (95 * n + 99) / 100 - 1;
  const size_t index = n > 10 ? std::min(p95, n - 11) : n - 1;
  tail.value = values[index];
  tail.percentile = 100.0 * static_cast<double>(index + 1) /
                    static_cast<double>(n);
  return tail;
}

uint64_t ChainHash(uint64_t chain, const std::string& line) {
  return rcj::StableHash(line) ^ (chain * 1099511628211ull);
}

uint64_t ChainHashPair(uint64_t chain, const rcj::RcjPair& pair) {
  chain = Mix(chain, static_cast<uint64_t>(pair.p.id));
  chain = Mix(chain, static_cast<uint64_t>(pair.q.id));
  chain = Mix(chain, Bits(pair.p.pt.x) ^ (Bits(pair.p.pt.y) << 1));
  return Mix(chain, Bits(pair.q.pt.x) ^ (Bits(pair.q.pt.y) << 1));
}

Expected ExpectedOf(const std::vector<rcj::RcjPair>& pairs) {
  Expected expected;
  expected.pairs = pairs.size();
  for (const rcj::RcjPair& pair : pairs) {
    expected.line_digest =
        ChainHash(expected.line_digest, rcj::net::FormatPairLine(pair));
    expected.pair_digest = ChainHashPair(expected.pair_digest, pair);
  }
  return expected;
}

WireOutcome RunWireQuery(
    uint16_t port, const rcj::net::WireRequest& request,
    const std::function<void(const std::string&)>& on_pair) {
  WireOutcome out;
  const Clock::time_point start = Clock::now();
  rcj::Result<int> dialed = rcj::net::DialTcp("127.0.0.1", port);
  const Clock::time_point connected = Clock::now();
  out.connect_ms = MsBetween(start, connected);
  if (!dialed.ok()) {
    out.status = dialed.status();
    return out;
  }
  rcj::net::ProtocolClient client(dialed.value());
  const std::string request_line = rcj::net::FormatRequestLine(request);
  // Stamped before the send: the server thread the send wakes may run on
  // this core first, and a stamp taken after it could miss the whole query.
  const Clock::time_point sent = Clock::now();
  if (!client.SendLine(request_line)) {
    out.status = rcj::Status::IoError("send failed");
    return out;
  }
  std::string line;
  if (!client.ReadLine(&line)) {
    out.status = rcj::Status::IoError("connection closed before OK");
    return out;
  }
  if (StartsWith(line, "ERR")) {
    rcj::Status transported;
    const rcj::Status parsed = rcj::net::ParseErrLine(line, &transported);
    out.status = parsed.ok() ? transported : parsed;
    return out;
  }
  if (line != "OK") {
    out.status = rcj::Status::Corruption("expected OK, got: " + line);
    return out;
  }
  out.ok_ms = MsBetween(sent, Clock::now());
  bool ended = false;
  while (client.ReadLine(&line)) {
    if (StartsWith(line, "PAIR ")) {
      if (out.pairs == 0) out.first_pair_ms = MsBetween(sent, Clock::now());
      ++out.pairs;
      out.pair_bytes += line.size() + 1;
      out.digest = ChainHash(out.digest, line);
      if (on_pair) on_pair(line);
    } else if (StartsWith(line, "END ")) {
      out.status = rcj::net::ParseEndLine(line, &out.summary);
      if (!out.status.ok()) return out;
      ended = true;
      if (!request.trace) break;
    } else if (ended && rcj::net::IsTraceLine(line)) {
      continue;
    } else if (ended && rcj::net::IsTraceEndLine(line)) {
      break;
    } else if (StartsWith(line, "ERR")) {
      rcj::Status transported;
      const rcj::Status parsed = rcj::net::ParseErrLine(line, &transported);
      out.status = parsed.ok() ? transported : parsed;
      return out;
    } else {
      out.status = rcj::Status::Corruption("unexpected line: " + line);
      return out;
    }
  }
  out.done_ms = MsBetween(start, Clock::now());
  if (!ended) {
    out.status = rcj::Status::IoError(
        "stream ended without END after " + std::to_string(out.pairs) +
        " pairs");
  } else if (out.summary.pairs != out.pairs) {
    out.status = rcj::Status::Corruption("END pair count disagrees");
  }
  return out;
}

void MetricSet::Print() const {
  for (const auto& [name, value] : metrics_) {
    std::printf("  %-34s %16.6f %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
}

std::string MetricSet::Json() const {
  std::string json = "{";
  char number[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value] = metrics_[i];
    std::snprintf(number, sizeof(number), "%.17g", value.first);
    if (i > 0) json += ", ";
    json += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
            value.second + "\"}";
  }
  return json + "}";
}

void SpanLog::Record(const std::string& rung, uint64_t op,
                     Clock::time_point start, Clock::time_point end) {
  spans_.push_back(
      {rung, op, std::chrono::duration<double>(start - origin_).count(),
       std::chrono::duration<double>(end - origin_).count()});
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "{\"rung\": \"%s\", \"parent_op\": %llu, \"start_s\": %.9f, "
                 "\"end_s\": %.9f}\n",
                 span.rung.c_str(), static_cast<unsigned long long>(span.op),
                 span.start_s, span.end_s);
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
