// Wire format of the ringjoin network protocol.
//
// One connection carries one request: the client sends a single `QUERY`
// line whose key=value fields mirror QuerySpec (same knobs, same
// validation), and the server answers with an `OK` acknowledgement, a
// stream of `PAIR` lines in the exact serial result order, and an `END`
// summary — or a single `ERR` line when the request is malformed, the
// query fails, or the admission layer sheds it (`ERR Overloaded`). The
// observability counterpart is a bare `STATS` line, answered with the
// same `OK` acknowledgement followed by one `SHARD` row per shard, one
// `ENV` row per registered environment, and an `ENDSTATS` terminator.
// Mutations ride the same one-line shape: an `INSERT`, `DELETE`, or
// `COMPACT` request against a live environment is answered with `OK` and
// a single `MUT` acknowledgement carrying the environment's counters
// right after the mutation. The grammar is line-oriented ASCII so a
// netcat session is a valid client:
//
//   request  = "QUERY" *( SP key "=" value ) LF
//            | "STATS" LF
//            | "METRICS" LF
//            | "INSERT" *( SP mkey "=" value ) LF   ; env? side id x y
//            | "DELETE" *( SP mkey "=" value ) LF   ; env? side id
//            | "COMPACT" [ SP "env=" name ] LF
//            | "EPOCH" [ SP "env=" name ] LF
//            | "FAILPOINT" SP site SP spec LF       ; test builds only
//   key      = "env" | "algo" | "order" | "verify" | "seed" | "limit"
//            | "io_ms" | "deadline_ms" | "trace" | "trace_id"
//   mkey     = "env" | "side" | "id" | "x" | "y"
//   ok       = "OK" LF
//   pair     = "PAIR" SP p_id SP q_id SP x1 SP y1 SP x2 SP y2 LF
//   end      = "END" SP "pairs=" N SP "candidates=" N SP "results=" N
//              SP "node_accesses=" N SP "faults=" N SP "cold_faults=" N
//              SP "warm_faults=" N SP "io_s=" F SP "io_wall_s=" F
//              SP "cpu_s=" F LF
//   mut      = "MUT" SP "op=" ( "insert" | "delete" | "compact" )
//              SP "env=" name SP "epoch=" N SP "generation=" N
//              SP "delta=" N SP "tombstones=" N SP "compactions=" N LF
//   shard    = "SHARD" SP idx SP "envs=" N SP "queued=" N SP "inflight=" N
//              SP "submitted=" N SP "admitted=" N SP "shed=" N
//              SP "completed=" N SP "cancelled=" N SP "failed=" N LF
//   env      = "ENV" SP name SP "shard=" N SP "live=" ( "0" | "1" )
//              SP "generation=" N SP "epoch=" N SP "delta=" N
//              SP "tombstones=" N SP "compactions=" N SP "base_q=" N
//              SP "base_p=" N LF
//   endstats = "ENDSTATS" SP "shards=" N SP "envs=" N LF
//   epoch    = "EPOCH" SP "env=" name SP "epoch=" N LF
//   trace    = "TRACE" SP "id=" token SP "depth=" N SP "span=" name
//              SP "count=" N SP "total_s=" F SP "start_s=" F LF
//   endtrace = "ENDTRACE" SP "id=" token SP "spans=" N LF
//   endmetrics = "ENDMETRICS" SP "lines=" N LF
//   err      = "ERR" SP code-token SP message LF
//
// A `QUERY ... trace=1` response appends the query's span tree — one TRACE
// line per aggregated span, then ENDTRACE — after the END summary; without
// trace=1 the stream is byte-identical to the untraced protocol. The
// optional trace_id key lets a fronting proxy propagate its trace id to
// backends so fleet traces stitch (every relayed TRACE line carries the
// same id). A `METRICS` request is answered with `OK`, the registry's
// Prometheus text exposition verbatim (including `#` comment lines), and
// an `ENDMETRICS` terminator.
//
// A PAIR line carries the two matched points; the fair-middleman circle is
// re-derived on the client (Circle::Enclosing is deterministic), so the
// stream stays minimal. Coordinates travel as 17 significant digits in
// %g style (the bytes of printf's %.17g), which round-trips IEEE doubles
// exactly. Every float on the wire (PAIR, END, TRACE) is encoded with
// std::to_chars, so the bytes do not depend on the process's LC_NUMERIC.
//
// Tokens are separated by runs of spaces and tabs, and a line may end in
// LF, CR or CRLF; a CR (or LF) with bytes after it is InvalidArgument.
// Parsing is strict — empty keys, duplicate keys, unknown keys, missing
// fields, malformed or out-of-range numbers and unknown algorithm/order
// names are rejected with InvalidArgument (OutOfRange for numbers past
// their type) — and shared: one field table per message drives both its
// parser and its formatter, and rcj_tool's flag parsing uses the same name
// tables, so the CLI and the wire accept the same spellings.
#ifndef RINGJOIN_NET_PROTOCOL_H_
#define RINGJOIN_NET_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/delta_overlay.h"
#include "core/query_spec.h"
#include "core/rcj_types.h"
#include "obs/trace.h"

namespace rcj {
namespace net {

/// One parsed request: the per-query knobs plus the name of the server-side
/// environment to bind (`spec.env` stays null until the server resolves
/// the name against its registry).
struct WireRequest {
  std::string env_name = "default";
  QuerySpec spec;
  /// Relative end-to-end deadline in milliseconds; 0 = none. The wire
  /// carries the *relative* budget (clocks are per-process): the server
  /// anchors it to its steady clock at parse time (spec.deadline), and a
  /// fronting proxy rewrites it to the remaining budget before
  /// forwarding.
  uint64_t deadline_ms = 0;
  /// trace=1: the caller wants the span tree (TRACE lines after END).
  bool trace = false;
  /// Optional caller-chosen trace id (proxy -> backend propagation); the
  /// server mints one when empty. Must satisfy IsValidTraceId.
  std::string trace_id;
};

/// Final summary of one streamed query, sent as the END line.
struct WireSummary {
  uint64_t pairs = 0;  ///< PAIR lines actually delivered to this client.
  JoinStats stats;     ///< paper-style counters of the executed portion.
};

/// Lowercase wire spellings of the algorithm / search-order enums. These
/// are the single source of truth for every textual front end (wire + CLI).
const char* AlgorithmWireName(RcjAlgorithm algorithm);
bool ParseAlgorithmName(const std::string& name, RcjAlgorithm* algorithm);
const char* SearchOrderWireName(SearchOrder order);
bool ParseSearchOrderName(const std::string& name, SearchOrder* order);
/// The wire's boolean spellings (0/1/true/false), shared with the CLI.
bool ParseBoolName(const std::string& name, bool* value);
/// Strict uint64 field parse (digits only): InvalidArgument on malformed
/// text, OutOfRange past uint64. The validation the wire applies to
/// seed/limit, exported so the CLI accepts exactly the same values.
Status ParseUint64Field(const std::string& key, const std::string& value,
                        uint64_t* out);
/// Strict finite-double field parse — the wire's io_ms validation, shared
/// with the CLI for the same reason.
Status ParseDoubleField(const std::string& key, const std::string& value,
                        double* out);
/// Strict int64 field parse (optional leading '-', then digits): the
/// validation INSERT/DELETE apply to point ids, shared with the CLI's
/// mutation files.
Status ParseInt64Field(const std::string& key, const std::string& value,
                       int64_t* out);

/// The first token of a request line (its verb: QUERY, STATS, INSERT...),
/// or "" when the line is blank or has a line break before its end.
std::string RequestVerb(const std::string& line);

/// Parses one request line into `*out` (which is reset to defaults first).
/// Unknown, empty, or repeated keys and malformed values are
/// InvalidArgument; the caller still owns QuerySpec::Validate() after
/// binding the environment.
Status ParseRequestLine(const std::string& line, WireRequest* out);

/// Serializes a request; fields matching the defaults are omitted, so the
/// minimal query is the bare line "QUERY".
std::string FormatRequestLine(const WireRequest& request);

/// Appends one PAIR line (no newline) to `*out`: the ids as decimal
/// integers, then the four coordinates at 17 significant digits in %g
/// style, formatted with std::to_chars (locale-independent, no
/// allocation beyond `*out`'s growth). The streaming sink encodes straight
/// into its send buffer through this.
void AppendPairLine(const RcjPair& pair, std::string* out);
/// The PAIR line as its own string (AppendPairLine into an empty one).
std::string FormatPairLine(const RcjPair& pair);
/// Rebuilds the pair — including its enclosing middleman circle — from a
/// PAIR line.
Status ParsePairLine(const std::string& line, RcjPair* out);

/// `value` at `digits` significant digits in %g style (the bytes of
/// printf's "%.*g" for finite values), locale-independent. END fields use
/// 17 digits; TRACE timings use 9.
std::string FormatDouble(double value, int digits = 17);

std::string FormatEndLine(const WireSummary& summary);
Status ParseEndLine(const std::string& line, WireSummary* out);

std::string FormatErrLine(const Status& status);
/// Reconstructs the transported error from an ERR line; a malformed ERR
/// line is itself InvalidArgument.
Status ParseErrLine(const std::string& line, Status* out);

/// One shard's row of the STATS response. `queued` counts the shard
/// engine's queries with no task started yet, at snapshot time; `inflight` counts queries admitted
/// but not yet resolved; the monotonic counters obey
/// admitted + shed == submitted and
/// completed + cancelled + failed == resolved (<= admitted).
struct WireShardStats {
  uint64_t shard = 0;
  uint64_t environments = 0;
  uint64_t queued = 0;
  uint64_t inflight = 0;
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t completed = 0;
  uint64_t cancelled = 0;
  uint64_t failed = 0;
};

/// True iff `line` asks for server statistics. Strict like the rest of the
/// grammar: exactly the token "STATS", nothing else on the line.
bool IsStatsRequestLine(const std::string& line);

std::string FormatShardStatsLine(const WireShardStats& stats);
Status ParseShardStatsLine(const std::string& line, WireShardStats* out);

/// One environment's row of the STATS response: its shard placement plus
/// the LiveStats counters (a static registration reports generation and
/// base sizes with every mutation counter zero, live=0).
struct WireEnvStats {
  std::string name = "default";
  uint64_t shard = 0;
  bool live = false;
  uint64_t generation = 0;
  uint64_t epoch = 0;
  uint64_t delta = 0;
  uint64_t tombstones = 0;
  uint64_t compactions = 0;
  uint64_t base_q = 0;
  uint64_t base_p = 0;
};

std::string FormatEnvStatsLine(const WireEnvStats& stats);
Status ParseEnvStatsLine(const std::string& line, WireEnvStats* out);

std::string FormatStatsEndLine(uint64_t shards, uint64_t envs);
Status ParseStatsEndLine(const std::string& line, uint64_t* shards,
                         uint64_t* envs);

/// The three mutation verbs of the wire, in their request spellings.
enum class WireMutationOp { kInsert, kDelete, kCompact };

/// Lowercase op spellings used by the MUT acknowledgement ("insert" |
/// "delete" | "compact").
const char* MutationOpWireName(WireMutationOp op);
bool ParseMutationOpName(const std::string& name, WireMutationOp* op);

/// One parsed mutation request. `rec` carries the id (DELETE) or the id
/// plus coordinates (INSERT); it is ignored for COMPACT.
struct WireMutation {
  WireMutationOp op = WireMutationOp::kCompact;
  std::string env_name = "default";
  LiveSide side = LiveSide::kQ;
  PointRecord rec;
};

/// True iff `line` opens with one of the mutation verbs (the dispatch
/// test; the line may still fail the strict parse below).
bool IsMutationRequestLine(const std::string& line);

/// Parses one INSERT/DELETE/COMPACT line. Strict like ParseRequestLine:
/// unknown, empty, or repeated keys, malformed values, and missing
/// required fields (INSERT: side/id/x/y, DELETE: side/id) are
/// InvalidArgument. `env` defaults to "default" when omitted.
Status ParseMutationLine(const std::string& line, WireMutation* out);

/// Serializes a mutation request; `env` is omitted when it matches the
/// default, mirroring FormatRequestLine.
std::string FormatMutationLine(const WireMutation& mutation);

/// The MUT acknowledgement: which mutation was applied, and the live
/// environment's counters observed right after it.
struct WireMutationAck {
  WireMutationOp op = WireMutationOp::kCompact;
  std::string env_name = "default";
  uint64_t epoch = 0;
  uint64_t generation = 0;
  uint64_t delta = 0;
  uint64_t tombstones = 0;
  uint64_t compactions = 0;
};

std::string FormatMutationAckLine(const WireMutationAck& ack);
Status ParseMutationAckLine(const std::string& line, WireMutationAck* out);

/// Trace ids on the wire: 1-64 chars of [A-Za-z0-9_.-].
bool IsValidTraceId(const std::string& id);

/// One aggregated span row of a trace=1 response (obs::TraceSpan on the
/// wire, plus the trace id every row repeats so stitched fleet traces are
/// self-describing).
struct WireTraceSpan {
  std::string id;
  uint64_t depth = 0;
  std::string span;
  uint64_t count = 0;
  double total_s = 0.0;
  double start_s = 0.0;
};

/// True iff the line opens a TRACE row (prefix dispatch; the strict parse
/// below may still reject it).
bool IsTraceLine(const std::string& line);

std::string FormatTraceLine(const WireTraceSpan& span);
Status ParseTraceLine(const std::string& line, WireTraceSpan* out);

bool IsTraceEndLine(const std::string& line);
std::string FormatTraceEndLine(const std::string& id, uint64_t spans);
Status ParseTraceEndLine(const std::string& line, std::string* id,
                         uint64_t* spans);

/// The span tree of `trace` as frames, each ending in a newline: one TRACE
/// line per aggregated span, then ENDTRACE counting those plus
/// `relayed_spans` (the backend TRACE lines a proxy relayed before them).
std::string FormatTraceBlock(const obs::TraceContext& trace,
                             uint64_t relayed_spans = 0);

/// True iff `line` opens with the EPOCH verb (prefix dispatch; the
/// strict parses below may still reject it).
bool IsEpochRequestLine(const std::string& line);

/// The epoch-probe request: "EPOCH [env=name]" (name defaults to
/// "default"). The answer is OK plus one epoch response line. The fleet
/// proxy uses the probe to decide whether a respawned replica has
/// caught up with the primary's mutation history.
std::string FormatEpochRequestLine(const std::string& env_name);
Status ParseEpochRequestLine(const std::string& line, std::string* env_name);

/// The epoch response row: "EPOCH env=name epoch=N". A static
/// (non-live) environment reports epoch 0.
std::string FormatEpochResponseLine(const std::string& env_name,
                                    uint64_t epoch);
Status ParseEpochResponseLine(const std::string& line, std::string* env_name,
                              uint64_t* epoch);

/// True iff `line` opens with the FAILPOINT verb (test-only command;
/// servers built without RINGJOIN_FAILPOINTS answer ERR NotSupported).
bool IsFailpointRequestLine(const std::string& line);

/// "FAILPOINT <site> <spec...>": arms (or with spec "off" disarms) one
/// failpoint site (common/failpoint.h grammar). The site is a bare
/// token (trace-id charset); the spec is everything after it, passed to
/// the registry verbatim. Answered with a bare OK.
std::string FormatFailpointLine(const std::string& site,
                                const std::string& spec);
Status ParseFailpointLine(const std::string& line, std::string* site,
                          std::string* spec);

/// True iff `line` asks for the metrics exposition: exactly the token
/// "METRICS", nothing else on the line (strict, like STATS).
bool IsMetricsRequestLine(const std::string& line);

std::string FormatMetricsEndLine(uint64_t lines);
Status ParseMetricsEndLine(const std::string& line, uint64_t* lines);

}  // namespace net
}  // namespace rcj

#endif  // RINGJOIN_NET_PROTOCOL_H_
