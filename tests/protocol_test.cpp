// Wire-format tests: the protocol parser must accept exactly what
// QuerySpec::Validate() accepts (one shared vocabulary with the CLI), be
// strict about malformed framing, and round-trip every frame it formats —
// PAIR lines must reconstruct the identical doubles, since clients rebuild
// the middleman circle from them.
#include "net/protocol.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/rcj.h"
#include "workload/generator.h"

namespace rcj {
namespace net {
namespace {

TEST(ProtocolRequestTest, BareQueryYieldsDefaults) {
  WireRequest request;
  ASSERT_TRUE(ParseRequestLine("QUERY", &request).ok());
  EXPECT_EQ(request.env_name, "default");
  EXPECT_EQ(request.spec.algorithm, RcjAlgorithm::kObj);
  EXPECT_EQ(request.spec.order, SearchOrder::kDepthFirst);
  EXPECT_TRUE(request.spec.verify);
  EXPECT_EQ(request.spec.random_seed, 42u);
  EXPECT_EQ(request.spec.limit, 0u);
  EXPECT_EQ(request.spec.io_ms_per_fault, 10.0);
}

TEST(ProtocolRequestTest, AllFieldsParse) {
  WireRequest request;
  ASSERT_TRUE(ParseRequestLine("QUERY env=hubs algo=inj order=random "
                               "verify=0 seed=7 limit=25 io_ms=2.5",
                               &request)
                  .ok());
  EXPECT_EQ(request.env_name, "hubs");
  EXPECT_EQ(request.spec.algorithm, RcjAlgorithm::kInj);
  EXPECT_EQ(request.spec.order, SearchOrder::kRandom);
  EXPECT_FALSE(request.spec.verify);
  EXPECT_EQ(request.spec.random_seed, 7u);
  EXPECT_EQ(request.spec.limit, 25u);
  EXPECT_EQ(request.spec.io_ms_per_fault, 2.5);
}

TEST(ProtocolRequestTest, ToleratesCrlfAndExtraWhitespace) {
  WireRequest request;
  ASSERT_TRUE(
      ParseRequestLine("QUERY   algo=bij \t limit=3\r\n", &request).ok());
  EXPECT_EQ(request.spec.algorithm, RcjAlgorithm::kBij);
  EXPECT_EQ(request.spec.limit, 3u);
}

TEST(ProtocolRequestTest, RejectsMissingVerb) {
  WireRequest request;
  EXPECT_EQ(ParseRequestLine("", &request).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequestLine("query algo=obj", &request).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequestLine("HELLO", &request).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolRequestTest, RejectsEmptyAndDuplicateKeys) {
  WireRequest request;
  const Status empty = ParseRequestLine("QUERY =obj", &request);
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty.message().find("empty key"), std::string::npos);

  const Status duplicate =
      ParseRequestLine("QUERY algo=obj algo=inj", &request);
  EXPECT_EQ(duplicate.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(duplicate.message().find("duplicate key"), std::string::npos);

  EXPECT_EQ(ParseRequestLine("QUERY algo", &request).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolRequestTest, RejectsUnknownKeysAndAlgorithms) {
  WireRequest request;
  EXPECT_EQ(ParseRequestLine("QUERY turbo=1", &request).code(),
            StatusCode::kInvalidArgument);
  const Status algorithm = ParseRequestLine("QUERY algo=quantum", &request);
  EXPECT_EQ(algorithm.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(algorithm.message().find("quantum"), std::string::npos);
  EXPECT_EQ(ParseRequestLine("QUERY order=sideways", &request).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequestLine("QUERY verify=maybe", &request).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequestLine("QUERY env=no/slashes", &request).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolRequestTest, RejectsMalformedAndOutOfRangeNumbers) {
  WireRequest request;
  EXPECT_EQ(ParseRequestLine("QUERY limit=-1", &request).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequestLine("QUERY limit=ten", &request).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequestLine("QUERY limit=", &request).code(),
            StatusCode::kInvalidArgument);
  // 2^64 overflows uint64 by one: the wire rejects what the struct field
  // cannot represent.
  EXPECT_EQ(
      ParseRequestLine("QUERY limit=18446744073709551616", &request).code(),
      StatusCode::kOutOfRange);
  EXPECT_EQ(
      ParseRequestLine("QUERY seed=99999999999999999999999", &request).code(),
      StatusCode::kOutOfRange);
  EXPECT_EQ(ParseRequestLine("QUERY io_ms=nan", &request).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequestLine("QUERY io_ms=inf", &request).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequestLine("QUERY io_ms=-1", &request).code(),
            StatusCode::kOutOfRange);
}

// The contract with the execution layer: anything the parser lets through
// passes QuerySpec::Validate() once an environment is bound — the server
// can never accept a request the engine then rejects as malformed.
TEST(ProtocolRequestTest, ParsedRequestsValidateOnceBound) {
  const std::vector<PointRecord> qset = GenerateUniform(400, 91);
  const std::vector<PointRecord> pset = GenerateUniform(500, 92);
  Result<std::unique_ptr<RcjEnvironment>> env =
      RcjEnvironment::Build(qset, pset, RcjRunOptions{});
  ASSERT_TRUE(env.ok());

  for (const char* line :
       {"QUERY", "QUERY algo=brute", "QUERY algo=inj order=random seed=1",
        "QUERY algo=bij verify=0", "QUERY algo=obj limit=10 io_ms=0",
        "QUERY limit=18446744073709551615"}) {
    WireRequest request;
    ASSERT_TRUE(ParseRequestLine(line, &request).ok()) << line;
    request.spec.env = env.value().get();
    EXPECT_TRUE(request.spec.Validate().ok()) << line;
  }

  // Unbound requests still fail Validate — binding is the server's job.
  WireRequest unbound;
  ASSERT_TRUE(ParseRequestLine("QUERY", &unbound).ok());
  EXPECT_EQ(unbound.spec.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolRequestTest, FormatParseRoundTrip) {
  WireRequest request;
  request.env_name = "hubs";
  request.spec.algorithm = RcjAlgorithm::kBrute;
  request.spec.order = SearchOrder::kRandom;
  request.spec.verify = false;
  request.spec.random_seed = 1234567;
  request.spec.limit = 99;
  request.spec.io_ms_per_fault = 0.125;

  WireRequest reparsed;
  ASSERT_TRUE(
      ParseRequestLine(FormatRequestLine(request), &reparsed).ok());
  EXPECT_EQ(reparsed.env_name, request.env_name);
  EXPECT_EQ(reparsed.spec.algorithm, request.spec.algorithm);
  EXPECT_EQ(reparsed.spec.order, request.spec.order);
  EXPECT_EQ(reparsed.spec.verify, request.spec.verify);
  EXPECT_EQ(reparsed.spec.random_seed, request.spec.random_seed);
  EXPECT_EQ(reparsed.spec.limit, request.spec.limit);
  EXPECT_EQ(reparsed.spec.io_ms_per_fault, request.spec.io_ms_per_fault);

  EXPECT_EQ(FormatRequestLine(WireRequest{}), "QUERY");
}

TEST(ProtocolNameTest, WireNamesRoundTripAndMatchCli) {
  for (RcjAlgorithm algorithm : {RcjAlgorithm::kBrute, RcjAlgorithm::kInj,
                                 RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
    RcjAlgorithm parsed;
    ASSERT_TRUE(ParseAlgorithmName(AlgorithmWireName(algorithm), &parsed));
    EXPECT_EQ(parsed, algorithm);
  }
  for (SearchOrder order : {SearchOrder::kDepthFirst, SearchOrder::kRandom}) {
    SearchOrder parsed;
    ASSERT_TRUE(ParseSearchOrderName(SearchOrderWireName(order), &parsed));
    EXPECT_EQ(parsed, order);
  }
  RcjAlgorithm ignored;
  EXPECT_FALSE(ParseAlgorithmName("OBJ", &ignored));  // case-sensitive
  EXPECT_FALSE(ParseAlgorithmName("", &ignored));

  bool value = false;
  EXPECT_TRUE(ParseBoolName("1", &value) && value);
  EXPECT_TRUE(ParseBoolName("true", &value) && value);
  EXPECT_TRUE(ParseBoolName("0", &value) && !value);
  EXPECT_TRUE(ParseBoolName("false", &value) && !value);
  EXPECT_FALSE(ParseBoolName("yes", &value));
  EXPECT_FALSE(ParseBoolName("", &value));
}

TEST(ProtocolPairTest, RoundTripsExactDoublesAndRebuildsCircle) {
  PointRecord p{Point{123.456789012345678, -0.0000001}, 17};
  PointRecord q{Point{1e300, 2.0 / 3.0}, -3};
  const RcjPair original = RcjPair::Make(p, q);

  RcjPair reparsed;
  ASSERT_TRUE(ParsePairLine(FormatPairLine(original), &reparsed).ok());
  EXPECT_EQ(reparsed.p.id, original.p.id);
  EXPECT_EQ(reparsed.q.id, original.q.id);
  EXPECT_EQ(reparsed.p.pt, original.p.pt);  // %.17g is exact for doubles
  EXPECT_EQ(reparsed.q.pt, original.q.pt);
  EXPECT_EQ(reparsed.circle.center, original.circle.center);
  EXPECT_EQ(reparsed.circle.radius2, original.circle.radius2);
}

TEST(ProtocolPairTest, RejectsMalformedPairLines) {
  RcjPair pair;
  EXPECT_FALSE(ParsePairLine("PAIR 1 2 3 4 5", &pair).ok());  // short
  EXPECT_FALSE(ParsePairLine("PAIR 1 2 3 4 5 6 7", &pair).ok());  // long
  EXPECT_FALSE(ParsePairLine("PAIR x 2 3 4 5 6", &pair).ok());
  EXPECT_FALSE(ParsePairLine("PAIR 1 2 3 4 5 nan", &pair).ok());
  EXPECT_FALSE(ParsePairLine("pair 1 2 3 4 5 6", &pair).ok());
}

// The printf encoding the wire used before std::to_chars, kept only as the
// oracle of the differential tests below: the to_chars encoders must
// reproduce its bytes exactly.
std::string OracleDouble(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*g", digits, value);
  return buffer;
}

std::string OraclePairLine(const RcjPair& pair) {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "PAIR %" PRId64 " %" PRId64 " %.17g %.17g %.17g %.17g",
                pair.p.id, pair.q.id, pair.p.pt.x, pair.p.pt.y, pair.q.pt.x,
                pair.q.pt.y);
  return buffer;
}

// Finite doubles that stress the shortest/exponent/padding rules: signed
// zeros, subnormal and normal extremes, and signed powers of ten across
// the whole exponent range.
std::vector<double> EdgeDoubles() {
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> values = {0.0, -0.0, tiny, -tiny, DBL_MIN, DBL_MAX};
  values.push_back(-DBL_MAX);
  values.push_back(DBL_EPSILON);
  values.push_back(1.0 / 3.0);
  values.push_back(123.456789012345678);
  for (int exponent = -324; exponent <= 308; ++exponent) {
    const double power = std::pow(10.0, exponent);
    values.push_back(power);
    values.push_back(-power);
  }
  return values;
}

// Random bit patterns, rejected until finite: every exponent and mantissa
// shape is equally likely, unlike uniform reals.
double RandomFiniteDouble(std::mt19937_64* rng) {
  for (;;) {
    const uint64_t bits = (*rng)();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) return value;
  }
}

TEST(ProtocolEncodingTest, DoublesMatchThePrintfOracle) {
  const uint64_t seed = 0x5eed2026;
  SCOPED_TRACE("seed=" + std::to_string(seed));
  std::vector<double> values = EdgeDoubles();
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 1000000; ++i) {
    values.push_back(RandomFiniteDouble(&rng));
  }
  for (const double value : values) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    for (const int digits : {17, 9}) {
      ASSERT_EQ(FormatDouble(value, digits), OracleDouble(value, digits))
          << "bits=0x" << std::hex << bits << std::dec << " digits=" << digits;
    }
  }
}

TEST(ProtocolEncodingTest, PairLinesMatchThePrintfOracle) {
  const uint64_t seed = 0x5eed2027;
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const PointId lowest = std::numeric_limits<PointId>::min();
  const PointId highest = std::numeric_limits<PointId>::max();
  const std::vector<PointId> ids = {0, -1, 1, lowest, highest};
  const std::vector<double> edges = EdgeDoubles();
  std::mt19937_64 rng(seed);
  std::string appended = "prefix";
  for (int i = 0; i < 250000; ++i) {
    // Every fourth line draws its coordinates from the edge set, the rest
    // from random bits; ids cycle through the extremes, then random bits.
    double coords[4];
    for (double& coord : coords) {
      coord = i % 4 == 0 ? edges[rng() % edges.size()]
                         : RandomFiniteDouble(&rng);
    }
    const PointId p_id = i < 25 ? ids[i % 5] : static_cast<PointId>(rng());
    const PointId q_id = i < 25 ? ids[i / 5] : static_cast<PointId>(rng());
    const PointRecord p{Point{coords[0], coords[1]}, p_id};
    const PointRecord q{Point{coords[2], coords[3]}, q_id};
    const RcjPair pair = RcjPair::Make(p, q);
    const std::string oracle = OraclePairLine(pair);
    ASSERT_EQ(FormatPairLine(pair), oracle) << "line " << i;
    // AppendPairLine appends after whatever the buffer already holds.
    appended.resize(6);
    AppendPairLine(pair, &appended);
    ASSERT_EQ(appended, "prefix" + oracle) << "line " << i;
  }
}

TEST(ProtocolEndTest, RoundTripsSummary) {
  WireSummary summary;
  summary.pairs = 42;
  summary.stats.candidates = 100;
  summary.stats.results = 42;
  summary.stats.node_accesses = 77;
  summary.stats.page_faults = 13;
  summary.stats.cold_faults = 9;
  summary.stats.warm_faults = 4;
  summary.stats.io_seconds = 0.13;
  summary.stats.io_wall_seconds = 0.0421;
  summary.stats.cpu_seconds = 0.0075;

  WireSummary reparsed;
  ASSERT_TRUE(ParseEndLine(FormatEndLine(summary), &reparsed).ok());
  EXPECT_EQ(reparsed.pairs, summary.pairs);
  EXPECT_EQ(reparsed.stats.candidates, summary.stats.candidates);
  EXPECT_EQ(reparsed.stats.results, summary.stats.results);
  EXPECT_EQ(reparsed.stats.node_accesses, summary.stats.node_accesses);
  EXPECT_EQ(reparsed.stats.page_faults, summary.stats.page_faults);
  EXPECT_EQ(reparsed.stats.cold_faults, summary.stats.cold_faults);
  EXPECT_EQ(reparsed.stats.warm_faults, summary.stats.warm_faults);
  EXPECT_EQ(reparsed.stats.io_seconds, summary.stats.io_seconds);
  EXPECT_EQ(reparsed.stats.io_wall_seconds, summary.stats.io_wall_seconds);
  EXPECT_EQ(reparsed.stats.cpu_seconds, summary.stats.cpu_seconds);
}

TEST(ProtocolEndTest, RejectsIncompleteOrDuplicateSummaries) {
  WireSummary summary;
  EXPECT_FALSE(ParseEndLine("END pairs=1", &summary).ok());
  EXPECT_FALSE(ParseEndLine("OK", &summary).ok());
  // The pre-cold/warm field list is incomplete now — stats can no longer
  // ride the wire without their fault split.
  EXPECT_FALSE(
      ParseEndLine("END pairs=1 candidates=0 results=0 node_accesses=0 "
                   "faults=0 io_s=0 io_wall_s=0 cpu_s=0",
                   &summary)
          .ok());
  // So is the pre-io_wall_s list: a modeled io_s without the measured
  // counterpart no longer parses.
  EXPECT_FALSE(
      ParseEndLine("END pairs=1 candidates=0 results=0 node_accesses=0 "
                   "faults=0 cold_faults=0 warm_faults=0 io_s=0 cpu_s=0",
                   &summary)
          .ok());
  EXPECT_FALSE(
      ParseEndLine("END pairs=1 pairs=2 candidates=0 results=0 "
                   "node_accesses=0 faults=0 cold_faults=0 warm_faults=0 "
                   "io_s=0 io_wall_s=0 cpu_s=0",
                   &summary)
          .ok());
  EXPECT_FALSE(
      ParseEndLine("END pairs=1 candidates=0 results=0 node_accesses=0 "
                   "faults=0 cold_faults=0 warm_faults=0 io_s=0 io_wall_s=0 "
                   "cpu_s=0 bonus=1",
                   &summary)
          .ok());
}

TEST(ProtocolErrTest, RoundTripsEveryStatusCode) {
  for (const Status& original :
       {Status::InvalidArgument("duplicate key 'algo'"),
        Status::NotFound("unknown environment 'x'"),
        Status::IoError("recv: reset"), Status::Corruption("bad page"),
        Status::NotSupported("nope"), Status::OutOfRange("limit"),
        Status::Cancelled("client dropped"),
        Status::Overloaded("shard 0 queue is full")}) {
    Status reparsed;
    ASSERT_TRUE(ParseErrLine(FormatErrLine(original), &reparsed).ok())
        << original.ToString();
    EXPECT_EQ(reparsed, original);
  }
  Status ignored;
  EXPECT_FALSE(ParseErrLine("ERR", &ignored).ok());
  EXPECT_FALSE(ParseErrLine("ERR Bogus message", &ignored).ok());
  EXPECT_FALSE(ParseErrLine("OK", &ignored).ok());
}

TEST(ProtocolErrTest, MultiLineMessagesStayOneFrame) {
  const std::string line =
      FormatErrLine(Status::InvalidArgument("line one\nline two"));
  EXPECT_EQ(line.find('\n'), std::string::npos);
  Status reparsed;
  ASSERT_TRUE(ParseErrLine(line, &reparsed).ok());
  EXPECT_EQ(reparsed.message(), "line one line two");
}

TEST(ProtocolErrTest, OverloadedUsesItsOwnWireCode) {
  // The admission layer's shed response must be distinguishable from a
  // cancellation on the wire — retry policy differs (overloaded requests
  // never started; cancelled ones were the caller's own doing).
  const std::string line = FormatErrLine(Status::Overloaded("queue full"));
  EXPECT_EQ(line, "ERR Overloaded queue full");
  Status reparsed;
  ASSERT_TRUE(ParseErrLine(line, &reparsed).ok());
  EXPECT_EQ(reparsed.code(), StatusCode::kOverloaded);
}

TEST(ProtocolStatsTest, StatsRequestLineIsStrict) {
  EXPECT_TRUE(IsStatsRequestLine("STATS"));
  EXPECT_TRUE(IsStatsRequestLine("STATS\r"));    // interactive netcat
  EXPECT_TRUE(IsStatsRequestLine("  STATS  "));  // whitespace-tolerant
  EXPECT_FALSE(IsStatsRequestLine("STATS now"));
  EXPECT_FALSE(IsStatsRequestLine("stats"));
  EXPECT_FALSE(IsStatsRequestLine("QUERY"));
  EXPECT_FALSE(IsStatsRequestLine(""));
}

TEST(ProtocolStatsTest, ShardLineRoundTrips) {
  WireShardStats original;
  original.shard = 3;
  original.environments = 2;
  original.queued = 5;
  original.inflight = 7;
  original.submitted = 100;
  original.admitted = 90;
  original.shed = 10;
  original.completed = 80;
  original.cancelled = 2;
  original.failed = 1;
  WireShardStats reparsed;
  ASSERT_TRUE(
      ParseShardStatsLine(FormatShardStatsLine(original), &reparsed).ok());
  EXPECT_EQ(reparsed.shard, original.shard);
  EXPECT_EQ(reparsed.environments, original.environments);
  EXPECT_EQ(reparsed.queued, original.queued);
  EXPECT_EQ(reparsed.inflight, original.inflight);
  EXPECT_EQ(reparsed.submitted, original.submitted);
  EXPECT_EQ(reparsed.admitted, original.admitted);
  EXPECT_EQ(reparsed.shed, original.shed);
  EXPECT_EQ(reparsed.completed, original.completed);
  EXPECT_EQ(reparsed.cancelled, original.cancelled);
  EXPECT_EQ(reparsed.failed, original.failed);
}

TEST(ProtocolStatsTest, ShardLineRejectsMalformedInput) {
  WireShardStats ignored;
  EXPECT_FALSE(ParseShardStatsLine("SHARD", &ignored).ok());
  EXPECT_FALSE(ParseShardStatsLine("PAIR 0 envs=1", &ignored).ok());
  // Missing fields, unknown keys, duplicates, and junk numbers.
  EXPECT_FALSE(ParseShardStatsLine("SHARD 0 envs=1", &ignored).ok());
  const std::string good = FormatShardStatsLine(WireShardStats{});
  EXPECT_FALSE(ParseShardStatsLine(good + " bonus=1", &ignored).ok());
  EXPECT_FALSE(ParseShardStatsLine(good + " envs=1", &ignored).ok());
  EXPECT_FALSE(ParseShardStatsLine("SHARD x envs=0 queued=0 inflight=0 "
                                   "submitted=0 admitted=0 shed=0 "
                                   "completed=0 cancelled=0 failed=0",
                                   &ignored)
                   .ok());
}

TEST(ProtocolStatsTest, StatsEndLineRoundTrips) {
  uint64_t shards = 0;
  uint64_t envs = 0;
  ASSERT_TRUE(ParseStatsEndLine(FormatStatsEndLine(4, 7), &shards, &envs).ok());
  EXPECT_EQ(shards, 4u);
  EXPECT_EQ(envs, 7u);
  EXPECT_FALSE(ParseStatsEndLine("ENDSTATS", &shards, &envs).ok());
  // The pre-live single-field form no longer parses: a stream without an
  // environment count cannot be checked for truncated ENV rows.
  EXPECT_FALSE(ParseStatsEndLine("ENDSTATS shards=1", &shards, &envs).ok());
  EXPECT_FALSE(ParseStatsEndLine("ENDSTATS shards=x envs=1", &shards, &envs)
                   .ok());
  EXPECT_FALSE(ParseStatsEndLine("ENDSTATS shards=1 envs=x", &shards, &envs)
                   .ok());
  EXPECT_FALSE(ParseStatsEndLine("END shards=1 envs=1", &shards, &envs).ok());
  EXPECT_FALSE(ParseStatsEndLine("ENDSTATS shards=1 envs=2 extra=3", &shards,
                                 &envs)
                   .ok());
  EXPECT_FALSE(ParseStatsEndLine("ENDSTATS envs=1 shards=1", &shards, &envs)
                   .ok());  // fixed field order, like every other frame
}

TEST(ProtocolStatsTest, EnvLineRoundTrips) {
  WireEnvStats original;
  original.name = "west";
  original.shard = 1;
  original.live = true;
  original.generation = 5;
  original.epoch = 17;
  original.delta = 23;
  original.tombstones = 4;
  original.compactions = 2;
  original.base_q = 1000;
  original.base_p = 2000;
  WireEnvStats reparsed;
  ASSERT_TRUE(
      ParseEnvStatsLine(FormatEnvStatsLine(original), &reparsed).ok());
  EXPECT_EQ(reparsed.name, original.name);
  EXPECT_EQ(reparsed.shard, original.shard);
  EXPECT_EQ(reparsed.live, original.live);
  EXPECT_EQ(reparsed.generation, original.generation);
  EXPECT_EQ(reparsed.epoch, original.epoch);
  EXPECT_EQ(reparsed.delta, original.delta);
  EXPECT_EQ(reparsed.tombstones, original.tombstones);
  EXPECT_EQ(reparsed.compactions, original.compactions);
  EXPECT_EQ(reparsed.base_q, original.base_q);
  EXPECT_EQ(reparsed.base_p, original.base_p);
}

TEST(ProtocolStatsTest, EnvLineRejectsMalformedInput) {
  WireEnvStats ignored;
  EXPECT_FALSE(ParseEnvStatsLine("ENV", &ignored).ok());
  EXPECT_FALSE(ParseEnvStatsLine("ENV west", &ignored).ok());
  EXPECT_FALSE(ParseEnvStatsLine("SHARD 0 envs=1", &ignored).ok());
  // Every field is required; unknown keys, duplicates, bad env names, and
  // non-boolean live values are rejected.
  EXPECT_FALSE(ParseEnvStatsLine("ENV west shard=0 live=1", &ignored).ok());
  const std::string good = FormatEnvStatsLine(WireEnvStats{});
  ASSERT_TRUE(ParseEnvStatsLine(good, &ignored).ok());
  EXPECT_FALSE(ParseEnvStatsLine(good + " bonus=1", &ignored).ok());
  EXPECT_FALSE(ParseEnvStatsLine(good + " shard=0", &ignored).ok());
  EXPECT_FALSE(ParseEnvStatsLine("ENV no/slashes shard=0 live=0 "
                                 "generation=0 epoch=0 delta=0 tombstones=0 "
                                 "compactions=0 base_q=0 base_p=0",
                                 &ignored)
                   .ok());
  EXPECT_FALSE(ParseEnvStatsLine("ENV west shard=0 live=2 generation=0 "
                                 "epoch=0 delta=0 tombstones=0 "
                                 "compactions=0 base_q=0 base_p=0",
                                 &ignored)
                   .ok());
}

TEST(ProtocolMutationTest, RequestLineDetectionIsStrict) {
  EXPECT_TRUE(IsMutationRequestLine("INSERT side=q id=1 x=0 y=0"));
  EXPECT_TRUE(IsMutationRequestLine("  DELETE side=p id=3\r"));
  EXPECT_TRUE(IsMutationRequestLine("COMPACT"));
  EXPECT_FALSE(IsMutationRequestLine("insert side=q id=1 x=0 y=0"));
  EXPECT_FALSE(IsMutationRequestLine("QUERY"));
  EXPECT_FALSE(IsMutationRequestLine("STATS"));
  EXPECT_FALSE(IsMutationRequestLine(""));
}

TEST(ProtocolMutationTest, InsertRoundTrips) {
  WireMutation original;
  original.op = WireMutationOp::kInsert;
  original.env_name = "west";
  original.side = LiveSide::kP;
  original.rec.id = 12345;
  original.rec.pt = Point{123.456789012345678, -0.0000001};
  WireMutation reparsed;
  ASSERT_TRUE(
      ParseMutationLine(FormatMutationLine(original), &reparsed).ok());
  EXPECT_EQ(reparsed.op, original.op);
  EXPECT_EQ(reparsed.env_name, original.env_name);
  EXPECT_EQ(reparsed.side, original.side);
  EXPECT_EQ(reparsed.rec.id, original.rec.id);
  EXPECT_EQ(reparsed.rec.pt, original.rec.pt);  // %.17g exact round-trip
}

TEST(ProtocolMutationTest, DeleteAndCompactRoundTrip) {
  WireMutation del;
  del.op = WireMutationOp::kDelete;
  del.side = LiveSide::kQ;
  del.rec.id = -7;  // negative ids are legal points, only parse must cope
  WireMutation reparsed;
  ASSERT_TRUE(ParseMutationLine(FormatMutationLine(del), &reparsed).ok());
  EXPECT_EQ(reparsed.op, WireMutationOp::kDelete);
  EXPECT_EQ(reparsed.env_name, "default");
  EXPECT_EQ(reparsed.side, LiveSide::kQ);
  EXPECT_EQ(reparsed.rec.id, -7);

  WireMutation compact;
  compact.op = WireMutationOp::kCompact;
  compact.env_name = "hubs";
  ASSERT_TRUE(
      ParseMutationLine(FormatMutationLine(compact), &reparsed).ok());
  EXPECT_EQ(reparsed.op, WireMutationOp::kCompact);
  EXPECT_EQ(reparsed.env_name, "hubs");

  // An env-less COMPACT is the single-token frame.
  EXPECT_EQ(FormatMutationLine(WireMutation{}), "COMPACT");
  ASSERT_TRUE(ParseMutationLine("COMPACT", &reparsed).ok());
  EXPECT_EQ(reparsed.env_name, "default");
}

TEST(ProtocolMutationTest, RejectsMissingAndForeignKeys) {
  WireMutation ignored;
  // INSERT requires side, id, x, and y.
  EXPECT_FALSE(ParseMutationLine("INSERT", &ignored).ok());
  EXPECT_FALSE(ParseMutationLine("INSERT side=q id=1 x=0", &ignored).ok());
  EXPECT_FALSE(ParseMutationLine("INSERT id=1 x=0 y=0", &ignored).ok());
  // DELETE requires side and id, and owns no coordinates.
  EXPECT_FALSE(ParseMutationLine("DELETE side=q", &ignored).ok());
  EXPECT_FALSE(
      ParseMutationLine("DELETE side=q id=1 x=0", &ignored).ok());
  // COMPACT takes only env.
  EXPECT_FALSE(ParseMutationLine("COMPACT side=q", &ignored).ok());
  EXPECT_FALSE(ParseMutationLine("COMPACT now", &ignored).ok());
  // Shared strictness: duplicates, junk values, bad sides and env names.
  EXPECT_FALSE(
      ParseMutationLine("INSERT side=q side=p id=1 x=0 y=0", &ignored).ok());
  EXPECT_FALSE(
      ParseMutationLine("INSERT side=r id=1 x=0 y=0", &ignored).ok());
  EXPECT_FALSE(
      ParseMutationLine("INSERT side=q id=ten x=0 y=0", &ignored).ok());
  EXPECT_FALSE(
      ParseMutationLine("INSERT side=q id=1 x=nan y=0", &ignored).ok());
  EXPECT_FALSE(
      ParseMutationLine("INSERT env=no/slashes side=q id=1 x=0 y=0",
                        &ignored)
          .ok());
  EXPECT_FALSE(ParseMutationLine("UPSERT side=q id=1 x=0 y=0", &ignored).ok());
}

TEST(ProtocolMutationTest, AckLineRoundTrips) {
  WireMutationAck original;
  original.op = WireMutationOp::kInsert;
  original.env_name = "west";
  original.epoch = 9;
  original.generation = 3;
  original.delta = 11;
  original.tombstones = 2;
  original.compactions = 1;
  WireMutationAck reparsed;
  ASSERT_TRUE(
      ParseMutationAckLine(FormatMutationAckLine(original), &reparsed).ok());
  EXPECT_EQ(reparsed.op, original.op);
  EXPECT_EQ(reparsed.env_name, original.env_name);
  EXPECT_EQ(reparsed.epoch, original.epoch);
  EXPECT_EQ(reparsed.generation, original.generation);
  EXPECT_EQ(reparsed.delta, original.delta);
  EXPECT_EQ(reparsed.tombstones, original.tombstones);
  EXPECT_EQ(reparsed.compactions, original.compactions);

  WireMutationAck ignored;
  EXPECT_FALSE(ParseMutationAckLine("MUT", &ignored).ok());
  EXPECT_FALSE(ParseMutationAckLine("MUT op=insert env=x", &ignored).ok());
  const std::string good = FormatMutationAckLine(WireMutationAck{});
  EXPECT_FALSE(ParseMutationAckLine(good + " bonus=1", &ignored).ok());
  EXPECT_FALSE(ParseMutationAckLine(good + " epoch=1", &ignored).ok());
}

TEST(ProtocolDeadlineTest, DeadlineMsParsesAndRoundTrips) {
  WireRequest request;
  ASSERT_TRUE(
      ParseRequestLine("QUERY algo=obj deadline_ms=2500", &request).ok());
  EXPECT_EQ(request.deadline_ms, 2500u);

  // Absent on the wire means none (the struct default).
  WireRequest bare;
  ASSERT_TRUE(ParseRequestLine("QUERY algo=obj", &bare).ok());
  EXPECT_EQ(bare.deadline_ms, 0u);

  // Round trip through FormatRequestLine — the proxy re-serializes the
  // remaining budget per backend attempt through this path.
  WireRequest reparsed;
  ASSERT_TRUE(ParseRequestLine(FormatRequestLine(request), &reparsed).ok());
  EXPECT_EQ(reparsed.deadline_ms, 2500u);
  EXPECT_EQ(FormatRequestLine(bare).find("deadline_ms"), std::string::npos)
      << "no-deadline requests must not grow a deadline on relay";
}

TEST(ProtocolDeadlineTest, DeadlineMsRejectsZeroAndGarbage) {
  WireRequest request;
  EXPECT_EQ(ParseRequestLine("QUERY deadline_ms=0", &request).code(),
            StatusCode::kOutOfRange);
  EXPECT_FALSE(ParseRequestLine("QUERY deadline_ms=-5", &request).ok());
  EXPECT_FALSE(ParseRequestLine("QUERY deadline_ms=soon", &request).ok());
  EXPECT_FALSE(
      ParseRequestLine("QUERY deadline_ms=1 deadline_ms=2", &request).ok());
}

TEST(ProtocolEpochTest, RequestLineRoundTrips) {
  EXPECT_EQ(FormatEpochRequestLine("default"), "EPOCH");
  EXPECT_EQ(FormatEpochRequestLine("west"), "EPOCH env=west");

  EXPECT_TRUE(IsEpochRequestLine("EPOCH"));
  EXPECT_TRUE(IsEpochRequestLine("EPOCH env=west"));
  EXPECT_FALSE(IsEpochRequestLine("epoch"));
  EXPECT_FALSE(IsEpochRequestLine("QUERY"));

  std::string env;
  ASSERT_TRUE(ParseEpochRequestLine("EPOCH", &env).ok());
  EXPECT_EQ(env, "default");
  ASSERT_TRUE(ParseEpochRequestLine("EPOCH env=west", &env).ok());
  EXPECT_EQ(env, "west");
  EXPECT_FALSE(ParseEpochRequestLine("EPOCH west", &env).ok());
  EXPECT_FALSE(ParseEpochRequestLine("EPOCH env=bad/name", &env).ok());
  EXPECT_FALSE(ParseEpochRequestLine("EPOCH env=a env=b", &env).ok());
}

TEST(ProtocolEpochTest, ResponseLineRoundTrips) {
  std::string env;
  uint64_t epoch = 0;
  ASSERT_TRUE(
      ParseEpochResponseLine(FormatEpochResponseLine("west", 12345), &env,
                             &epoch)
          .ok());
  EXPECT_EQ(env, "west");
  EXPECT_EQ(epoch, 12345u);

  EXPECT_FALSE(ParseEpochResponseLine("EPOCH env=west", &env, &epoch).ok());
  EXPECT_FALSE(ParseEpochResponseLine("EPOCH epoch=5", &env, &epoch).ok());
  EXPECT_FALSE(
      ParseEpochResponseLine("EPOCH env=west epoch=soon", &env, &epoch)
          .ok());
  EXPECT_FALSE(
      ParseEpochResponseLine("EPOCH env=b/d epoch=5", &env, &epoch).ok());
}

TEST(ProtocolFailpointTest, LineRoundTripsAndKeepsMultiTokenSpecs) {
  EXPECT_TRUE(IsFailpointRequestLine("FAILPOINT wal_sync err"));
  EXPECT_FALSE(IsFailpointRequestLine("failpoint wal_sync err"));

  std::string site, spec;
  ASSERT_TRUE(
      ParseFailpointLine(FormatFailpointLine("wal_sync", "1in 3 seed 7 err"),
                         &site, &spec)
          .ok());
  EXPECT_EQ(site, "wal_sync");
  EXPECT_EQ(spec, "1in 3 seed 7 err");

  ASSERT_TRUE(ParseFailpointLine("FAILPOINT compact_swap off", &site, &spec)
                  .ok());
  EXPECT_EQ(site, "compact_swap");
  EXPECT_EQ(spec, "off");

  EXPECT_FALSE(ParseFailpointLine("FAILPOINT", &site, &spec).ok());
  EXPECT_FALSE(ParseFailpointLine("FAILPOINT wal_sync", &site, &spec).ok());
  EXPECT_FALSE(
      ParseFailpointLine("FAILPOINT s!te err", &site, &spec).ok());
}

TEST(ProtocolFramingTest, RejectsACarriageReturnInsideTheLine) {
  // A CR with bytes after it used to end the line silently: the first line
  // compacted "default", the second ran an OBJ query.
  WireMutation mutation;
  EXPECT_EQ(ParseMutationLine("COMPACT\r env=other", &mutation).code(),
            StatusCode::kInvalidArgument);
  WireRequest request;
  EXPECT_EQ(ParseRequestLine("QUERY limit=5\r algo=inj", &request).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(IsMutationRequestLine("COMPACT\r env=other"));
  EXPECT_FALSE(IsStatsRequestLine("STATS\r now"));

  // A line may still end in LF, CR or CRLF.
  for (const char* line : {"COMPACT env=other\n", "COMPACT env=other\r",
                           "COMPACT env=other\r\n"}) {
    ASSERT_TRUE(ParseMutationLine(line, &mutation).ok()) << line;
    EXPECT_EQ(mutation.env_name, "other");
  }
}

TEST(ProtocolFramingTest, LongEnvNamesRoundTripInEnvAndMutRows) {
  // Environment names have no length bound, so no row may be cut short.
  const std::string name(300, 'n');
  WireEnvStats env;
  env.name = name;
  env.base_q = 1234;
  env.base_p = 5678;
  WireEnvStats env_back;
  ASSERT_TRUE(ParseEnvStatsLine(FormatEnvStatsLine(env), &env_back).ok());
  EXPECT_EQ(env_back.name, name);
  EXPECT_EQ(env_back.base_q, 1234u);
  EXPECT_EQ(env_back.base_p, 5678u);

  WireMutationAck ack;
  ack.op = WireMutationOp::kInsert;
  ack.env_name = name;
  ack.epoch = 7;
  ack.compactions = 3;
  WireMutationAck ack_back;
  ASSERT_TRUE(
      ParseMutationAckLine(FormatMutationAckLine(ack), &ack_back).ok());
  EXPECT_EQ(ack_back.env_name, name);
  EXPECT_EQ(ack_back.epoch, 7u);
  EXPECT_EQ(ack_back.compactions, 3u);
}

}  // namespace
}  // namespace net
}  // namespace rcj
