#include "net/protocol.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace rcj {
namespace net {
namespace {

/// Splits on runs of spaces/tabs. The line may end in LF, CR or CRLF, so
/// strict clients and interactive netcat sessions (which send CRLF) parse
/// alike; a CR or LF anywhere before that end is rejected, because
/// dropping the bytes after it would silently change the request
/// ("COMPACT\r env=x" is not a compaction of the default environment).
Status Tokenize(const std::string& line, std::vector<std::string>* tokens) {
  size_t end = line.size();
  if (end > 0 && line[end - 1] == '\n') --end;
  if (end > 0 && line[end - 1] == '\r') --end;
  tokens->clear();
  std::string current;
  for (size_t i = 0; i < end; ++i) {
    const char c = line[i];
    if (c == '\r' || c == '\n') {
      return Status::InvalidArgument("line break before the end of the line");
    }
    if (c != ' ' && c != '\t') {
      current.push_back(c);
    } else if (!current.empty()) {
      tokens->push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens->push_back(std::move(current));
  return Status::OK();
}

/// True iff the line is exactly the token `verb` (STATS, METRICS).
bool IsBareRequest(const std::string& line, const char* verb) {
  std::vector<std::string> tokens;
  return Tokenize(line, &tokens).ok() && tokens.size() == 1 &&
         tokens[0] == verb;
}

bool IsEnvName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) return false;
  }
  return true;
}

const char* StatusCodeWireName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kOverloaded:
      return "Overloaded";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
  }
  return "Unknown";
}

bool ParseStatusCodeWireName(const std::string& token, StatusCode* code) {
  for (StatusCode candidate :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kIoError, StatusCode::kCorruption,
        StatusCode::kNotSupported, StatusCode::kOutOfRange,
        StatusCode::kCancelled, StatusCode::kOverloaded,
        StatusCode::kDeadlineExceeded}) {
    if (token == StatusCodeWireName(candidate)) {
      *code = candidate;
      return true;
    }
  }
  return false;
}

Status MakeStatus(StatusCode code, std::string message) {
  switch (code) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kIoError:
      return Status::IoError(std::move(message));
    case StatusCode::kCorruption:
      return Status::Corruption(std::move(message));
    case StatusCode::kNotSupported:
      return Status::NotSupported(std::move(message));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case StatusCode::kCancelled:
      return Status::Cancelled(std::move(message));
    case StatusCode::kOverloaded:
      return Status::Overloaded(std::move(message));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
    case StatusCode::kOk:
      break;
  }
  return Status::OK();
}

}  // namespace

const char* AlgorithmWireName(RcjAlgorithm algorithm) {
  switch (algorithm) {
    case RcjAlgorithm::kBrute:
      return "brute";
    case RcjAlgorithm::kInj:
      return "inj";
    case RcjAlgorithm::kBij:
      return "bij";
    case RcjAlgorithm::kObj:
      return "obj";
  }
  return "?";
}

bool ParseAlgorithmName(const std::string& name, RcjAlgorithm* algorithm) {
  for (RcjAlgorithm candidate : {RcjAlgorithm::kBrute, RcjAlgorithm::kInj,
                                 RcjAlgorithm::kBij, RcjAlgorithm::kObj}) {
    if (name == AlgorithmWireName(candidate)) {
      *algorithm = candidate;
      return true;
    }
  }
  return false;
}

const char* SearchOrderWireName(SearchOrder order) {
  switch (order) {
    case SearchOrder::kDepthFirst:
      return "dfs";
    case SearchOrder::kRandom:
      return "random";
  }
  return "?";
}

bool ParseSearchOrderName(const std::string& name, SearchOrder* order) {
  for (SearchOrder candidate :
       {SearchOrder::kDepthFirst, SearchOrder::kRandom}) {
    if (name == SearchOrderWireName(candidate)) {
      *order = candidate;
      return true;
    }
  }
  return false;
}

bool ParseBoolName(const std::string& name, bool* value) {
  if (name == "1" || name == "true") {
    *value = true;
    return true;
  }
  if (name == "0" || name == "false") {
    *value = false;
    return true;
  }
  return false;
}

Status ParseUint64Field(const std::string& key, const std::string& value,
                        uint64_t* out) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument("field '" + key +
                                   "' is not an unsigned integer: '" +
                                   value + "'");
  }
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("field '" + key + "' overflows uint64: '" +
                              value + "'");
  }
  *out = static_cast<uint64_t>(parsed);
  return Status::OK();
}

Status ParseInt64Field(const std::string& key, const std::string& value,
                       int64_t* out) {
  const size_t digits_from = value.rfind('-', 0) == 0 ? 1 : 0;
  if (value.size() == digits_from ||
      value.find_first_not_of("0123456789", digits_from) !=
          std::string::npos) {
    return Status::InvalidArgument("field '" + key +
                                   "' is not an integer: '" + value + "'");
  }
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("field '" + key + "' overflows int64: '" +
                              value + "'");
  }
  *out = static_cast<int64_t>(parsed);
  return Status::OK();
}

Status ParseDoubleField(const std::string& key, const std::string& value,
                        double* out) {
  if (value.empty()) {
    return Status::InvalidArgument("field '" + key + "' is empty");
  }
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size() || !std::isfinite(parsed)) {
    return Status::InvalidArgument("field '" + key +
                                   "' is not a finite number: '" + value +
                                   "'");
  }
  *out = parsed;
  return Status::OK();
}

bool IsValidTraceId(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) return false;
  }
  return true;
}

std::string RequestVerb(const std::string& line) {
  std::vector<std::string> tokens;
  if (!Tokenize(line, &tokens).ok() || tokens.empty()) return "";
  return tokens[0];
}

namespace {

// ---------------------------------------------------------------------------
// The key=value codec. Every key=value message is one table of Fields,
// bound to the struct members it carries; ParseMessage and FormatMessage
// are the only code that walks a line, so every message gets the same
// strictness: a token that is not key=value, an empty, unknown or
// repeated key, a malformed value and a missing required field are all
// InvalidArgument (OutOfRange for numbers past their type).

/// One field of a message. `parse` reads value text into the bound
/// member; `format` writes the member back as value text. A positional
/// field (SHARD's index, ENV's name) is a bare value ahead of the key=value
/// fields. An optional field may be absent, and a formatted line leaves it
/// out while it holds its default.
struct Field {
  const char* key;
  std::function<Status(const std::string& value)> parse;
  std::function<std::string()> format;
  bool required = true;
  bool positional = false;
};

/// One message: its verb and field table. An `ordered` message (the short
/// ENDSTATS, ENDTRACE, ENDMETRICS and EPOCH-response frames) wants its
/// fields in table order; the others take their keys in any order.
struct Message {
  std::string verb;
  std::vector<Field> fields;
  bool ordered = false;
};

Field U64(const char* key, uint64_t* slot) {
  return {key,
          [key, slot](const std::string& value) {
            return ParseUint64Field(key, value, slot);
          },
          [slot] { return std::to_string(*slot); }};
}

Field I64(const char* key, int64_t* slot) {
  return {key,
          [key, slot](const std::string& value) {
            return ParseInt64Field(key, value, slot);
          },
          [slot] { return std::to_string(*slot); }};
}

/// 17 significant digits round-trip every double exactly; TRACE timings
/// use 9.
Field F64(const char* key, double* slot, int digits = 17) {
  return {key,
          [key, slot](const std::string& value) {
            return ParseDoubleField(key, value, slot);
          },
          [slot, digits] { return FormatDouble(*slot, digits); }};
}

Field Bool(const char* key, bool* slot) {
  return {key,
          [key, slot](const std::string& value) {
            if (ParseBoolName(value, slot)) return Status::OK();
            return Status::InvalidArgument("field '" + std::string(key) +
                                           "' wants 0/1/true/false, got '" +
                                           value + "'");
          },
          [slot] { return std::string(*slot ? "1" : "0"); }};
}

/// A string member restricted by `valid` (env names, trace ids).
Field Text(const char* key, std::string* slot,
           bool (*valid)(const std::string&), const char* what) {
  return {key,
          [slot, valid, what](const std::string& value) {
            if (!valid(value)) {
              return Status::InvalidArgument(std::string("invalid ") + what +
                                             " '" + value + "'");
            }
            *slot = value;
            return Status::OK();
          },
          [slot] { return *slot; }};
}

/// An enum member spelled by its wire name.
template <typename E>
Field Enum(const char* key, E* slot, bool (*parse)(const std::string&, E*),
           const char* (*name)(E), const char* choices) {
  return {key,
          [key, slot, parse, choices](const std::string& value) {
            if (parse(value, slot)) return Status::OK();
            return Status::InvalidArgument("field '" + std::string(key) +
                                           "' wants " + choices + ", got '" +
                                           value + "'");
          },
          [slot, name] { return std::string(name(*slot)); }};
}

/// `field`, plus a range check run once its value parsed.
Field Checked(Field field, std::function<Status()> check) {
  field.parse = [parse = std::move(field.parse),
                 check = std::move(check)](const std::string& value) {
    const Status status = parse(value);
    return status.ok() ? check() : status;
  };
  return field;
}

Field Optional(Field field) {
  field.required = false;
  return field;
}

Field Positional(Field field) {
  field.positional = true;
  return field;
}

Status ParseMessage(const std::string& line, const Message& message) {
  std::vector<std::string> tokens;
  RINGJOIN_RETURN_IF_ERROR(Tokenize(line, &tokens));
  const std::string& verb = message.verb;
  const std::vector<Field>& fields = message.fields;
  if (tokens.empty() || tokens[0] != verb) {
    return Status::InvalidArgument("line must start with " + verb);
  }
  std::vector<bool> seen(fields.size(), false);
  size_t next = 1;
  for (size_t f = 0; f < fields.size() && fields[f].positional; ++f) {
    if (next == tokens.size()) break;  // reported as missing below
    RINGJOIN_RETURN_IF_ERROR(fields[f].parse(tokens[next++]));
    seen[f] = true;
  }
  for (; next < tokens.size(); ++next) {
    const std::string& token = tokens[next];
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(verb + " field '" + token +
                                     "' is not key=value");
    }
    const std::string key = token.substr(0, eq);
    if (key.empty()) {
      return Status::InvalidArgument("empty key in " + verb + " field '" +
                                     token + "'");
    }
    size_t f = 0;
    while (f < fields.size() &&
           (fields[f].positional || key != fields[f].key)) {
      ++f;
    }
    if (f == fields.size()) {
      return Status::InvalidArgument("unknown " + verb + " key '" + key + "'");
    }
    if (seen[f]) {
      return Status::InvalidArgument("duplicate key '" + key + "' in " + verb);
    }
    if (message.ordered && f + 1 != next) {
      return Status::InvalidArgument(verb + " field '" + key +
                                     "' is out of order");
    }
    RINGJOIN_RETURN_IF_ERROR(fields[f].parse(token.substr(eq + 1)));
    seen[f] = true;
  }
  for (size_t f = 0; f < fields.size(); ++f) {
    if (fields[f].required && !seen[f]) {
      return Status::InvalidArgument(verb + " is missing field '" +
                                     fields[f].key + "'");
    }
  }
  return Status::OK();
}

/// Formats `message`; an optional field is left out while its value
/// matches the same field of `defaults` (the table bound to a
/// default-constructed struct).
std::string FormatMessage(const Message& message,
                          const Message* defaults = nullptr) {
  std::string line = message.verb;
  for (size_t f = 0; f < message.fields.size(); ++f) {
    const Field& field = message.fields[f];
    const std::string value = field.format();
    if (!field.required && defaults != nullptr &&
        value == defaults->fields[f].format()) {
      continue;
    }
    line += ' ';
    if (!field.positional) line.append(field.key).push_back('=');
    line += value;
  }
  return line;
}

/// Resets `*out`, then parses `line` into it through `table`.
template <typename T>
Status ParseWith(const std::string& line, T* out, Message (*table)(T*)) {
  *out = T{};
  return ParseMessage(line, table(out));
}

/// Formats `value` through `table`, leaving out optional fields that hold
/// their T{} default.
template <typename T>
std::string FormatWith(T value, Message (*table)(T*)) {
  T defaults{};
  const Message default_message = table(&defaults);
  return FormatMessage(table(&value), &default_message);
}

Status CheckNonNegativeIoMs(const WireRequest* request) {
  return request->spec.io_ms_per_fault < 0.0
             ? Status::OutOfRange("field 'io_ms' must be non-negative")
             : Status::OK();
}

Message RequestMessage(WireRequest* r) {
  Message message{
      "QUERY",
      {Text("env", &r->env_name, IsEnvName, "env name"),
       Enum("algo", &r->spec.algorithm, ParseAlgorithmName,
            AlgorithmWireName, "brute|inj|bij|obj"),
       Enum("order", &r->spec.order, ParseSearchOrderName,
            SearchOrderWireName, "dfs|random"),
       Bool("verify", &r->spec.verify), U64("seed", &r->spec.random_seed),
       U64("limit", &r->spec.limit),
       Checked(F64("io_ms", &r->spec.io_ms_per_fault),
               [r] { return CheckNonNegativeIoMs(r); }),
       Checked(U64("deadline_ms", &r->deadline_ms),
               [r] {
                 return r->deadline_ms == 0
                            ? Status::OutOfRange(
                                  "field 'deadline_ms' must be positive")
                            : Status::OK();
               }),
       Bool("trace", &r->trace),
       Text("trace_id", &r->trace_id, IsValidTraceId, "trace id")}};
  for (Field& field : message.fields) field.required = false;
  return message;
}

Message EndMessage(WireSummary* s) {
  return {"END",
          {U64("pairs", &s->pairs), U64("candidates", &s->stats.candidates),
           U64("results", &s->stats.results),
           U64("node_accesses", &s->stats.node_accesses),
           U64("faults", &s->stats.page_faults),
           U64("cold_faults", &s->stats.cold_faults),
           U64("warm_faults", &s->stats.warm_faults),
           F64("io_s", &s->stats.io_seconds),
           F64("io_wall_s", &s->stats.io_wall_seconds),
           F64("cpu_s", &s->stats.cpu_seconds)}};
}

Message ShardStatsMessage(WireShardStats* s) {
  return {"SHARD",
          {Positional(U64("shard", &s->shard)),
           U64("envs", &s->environments), U64("queued", &s->queued),
           U64("inflight", &s->inflight), U64("submitted", &s->submitted),
           U64("admitted", &s->admitted), U64("shed", &s->shed),
           U64("completed", &s->completed), U64("cancelled", &s->cancelled),
           U64("failed", &s->failed)}};
}

Message EnvStatsMessage(WireEnvStats* s) {
  // `live` travels as 0/1 and is read as a number, then range-checked.
  Field live{"live",
             [s](const std::string& value) {
               uint64_t parsed = 0;
               RINGJOIN_RETURN_IF_ERROR(
                   ParseUint64Field("live", value, &parsed));
               if (parsed > 1) {
                 return Status::InvalidArgument("field 'live' wants 0 or 1");
               }
               s->live = parsed != 0;
               return Status::OK();
             },
             [s] { return std::string(s->live ? "1" : "0"); }};
  return {"ENV",
          {Positional(Text("name", &s->name, IsEnvName, "env name")),
           U64("shard", &s->shard), std::move(live),
           U64("generation", &s->generation), U64("epoch", &s->epoch),
           U64("delta", &s->delta), U64("tombstones", &s->tombstones),
           U64("compactions", &s->compactions), U64("base_q", &s->base_q),
           U64("base_p", &s->base_p)}};
}

Message StatsEndMessage(uint64_t* shards, uint64_t* envs) {
  return {"ENDSTATS", {U64("shards", shards), U64("envs", envs)}, true};
}

const char* MutationVerb(WireMutationOp op) {
  switch (op) {
    case WireMutationOp::kInsert:
      return "INSERT";
    case WireMutationOp::kDelete:
      return "DELETE";
    case WireMutationOp::kCompact:
      return "COMPACT";
  }
  return "?";
}

/// INSERT owns env?, side, id, x, y; DELETE env?, side, id; COMPACT env?.
Message MutationMessage(WireMutation* m) {
  Message message{MutationVerb(m->op),
                  {Optional(Text("env", &m->env_name, IsEnvName, "env name"))}};
  if (m->op != WireMutationOp::kCompact) {
    message.fields.push_back(
        Enum("side", &m->side, ParseLiveSideName, LiveSideName, "q|p"));
    message.fields.push_back(I64("id", &m->rec.id));
  }
  if (m->op == WireMutationOp::kInsert) {
    message.fields.push_back(F64("x", &m->rec.pt.x));
    message.fields.push_back(F64("y", &m->rec.pt.y));
  }
  return message;
}

Message MutationAckMessage(WireMutationAck* a) {
  return {"MUT",
          {Enum("op", &a->op, ParseMutationOpName, MutationOpWireName,
                "insert|delete|compact"),
           Text("env", &a->env_name, IsEnvName, "env name"),
           U64("epoch", &a->epoch), U64("generation", &a->generation),
           U64("delta", &a->delta), U64("tombstones", &a->tombstones),
           U64("compactions", &a->compactions)}};
}

Message TraceMessage(WireTraceSpan* t) {
  // Span names share the trace-id charset (they travel as bare tokens).
  return {"TRACE",
          {Text("id", &t->id, IsValidTraceId, "trace id"),
           U64("depth", &t->depth),
           Text("span", &t->span, IsValidTraceId, "span name"),
           U64("count", &t->count), F64("total_s", &t->total_s, 9),
           F64("start_s", &t->start_s, 9)}};
}

Message TraceEndMessage(std::string* id, uint64_t* spans) {
  return {"ENDTRACE",
          {Text("id", id, IsValidTraceId, "trace id"), U64("spans", spans)},
          true};
}

Message MetricsEndMessage(uint64_t* lines) {
  return {"ENDMETRICS", {U64("lines", lines)}, true};
}

Message EpochRequestMessage(std::string* env_name) {
  return {"EPOCH",
          {Optional(Text("env", env_name, IsEnvName, "env name"))}};
}

Message EpochResponseMessage(std::string* env_name, uint64_t* epoch) {
  return {"EPOCH",
          {Text("env", env_name, IsEnvName, "env name"),
           U64("epoch", epoch)},
          true};
}

}  // namespace

std::string FormatDouble(double value, int digits) {
  char buffer[64];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general, digits);
  return std::string(buffer, result.ptr);
}

Status ParseRequestLine(const std::string& line, WireRequest* out) {
  return ParseWith(line, out, RequestMessage);
}

std::string FormatRequestLine(const WireRequest& request) {
  return FormatWith(request, RequestMessage);
}

void AppendPairLine(const RcjPair& pair, std::string* out) {
  // "PAIR " + 2 ids (<= 20 chars) + 4 doubles at 17 digits (<= 24 chars)
  // + 6 separators fits comfortably.
  char buffer[160];
  char* const end = buffer + sizeof(buffer);
  std::memcpy(buffer, "PAIR", 4);
  char* cursor = buffer + 4;
  for (const PointId id : {pair.p.id, pair.q.id}) {
    *cursor++ = ' ';
    cursor = std::to_chars(cursor, end, id).ptr;
  }
  constexpr std::chars_format kGeneral = std::chars_format::general;
  for (const double value :
       {pair.p.pt.x, pair.p.pt.y, pair.q.pt.x, pair.q.pt.y}) {
    *cursor++ = ' ';
    cursor = std::to_chars(cursor, end, value, kGeneral, 17).ptr;
  }
  out->append(buffer, cursor);
}

std::string FormatPairLine(const RcjPair& pair) {
  std::string line;
  AppendPairLine(pair, &line);
  return line;
}

Status ParsePairLine(const std::string& line, RcjPair* out) {
  std::vector<std::string> tokens;
  RINGJOIN_RETURN_IF_ERROR(Tokenize(line, &tokens));
  if (tokens.size() != 7 || tokens[0] != "PAIR") {
    return Status::InvalidArgument(
        "PAIR line wants 'PAIR p_id q_id x1 y1 x2 y2'");
  }
  PointRecord p;
  PointRecord q;
  for (int side = 0; side < 2; ++side) {
    const std::string& id_token = tokens[1 + side];
    errno = 0;
    char* end = nullptr;
    const long long id = std::strtoll(id_token.c_str(), &end, 10);
    if (end != id_token.c_str() + id_token.size() || id_token.empty() ||
        errno == ERANGE) {
      return Status::InvalidArgument("bad point id '" + id_token + "'");
    }
    (side == 0 ? p : q).id = static_cast<PointId>(id);
  }
  double coords[4];
  for (int i = 0; i < 4; ++i) {
    const std::string& token = tokens[3 + i];
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty() ||
        !std::isfinite(value)) {
      return Status::InvalidArgument("bad coordinate '" + token + "'");
    }
    coords[i] = value;
  }
  p.pt = Point{coords[0], coords[1]};
  q.pt = Point{coords[2], coords[3]};
  *out = RcjPair::Make(p, q);
  return Status::OK();
}

std::string FormatEndLine(const WireSummary& summary) {
  return FormatWith(summary, EndMessage);
}

Status ParseEndLine(const std::string& line, WireSummary* out) {
  return ParseWith(line, out, EndMessage);
}

std::string FormatErrLine(const Status& status) {
  std::string line = "ERR ";
  line += StatusCodeWireName(status.code());
  if (!status.message().empty()) {
    line += ' ';
    // Keep the frame one line no matter what the message contains.
    for (char c : status.message()) {
      line += (c == '\n' || c == '\r') ? ' ' : c;
    }
  }
  return line;
}

bool IsStatsRequestLine(const std::string& line) {
  return IsBareRequest(line, "STATS");
}

std::string FormatShardStatsLine(const WireShardStats& stats) {
  return FormatWith(stats, ShardStatsMessage);
}

Status ParseShardStatsLine(const std::string& line, WireShardStats* out) {
  return ParseWith(line, out, ShardStatsMessage);
}

std::string FormatEnvStatsLine(const WireEnvStats& stats) {
  return FormatWith(stats, EnvStatsMessage);
}

Status ParseEnvStatsLine(const std::string& line, WireEnvStats* out) {
  return ParseWith(line, out, EnvStatsMessage);
}

std::string FormatStatsEndLine(uint64_t shards, uint64_t envs) {
  return FormatMessage(StatsEndMessage(&shards, &envs));
}

Status ParseStatsEndLine(const std::string& line, uint64_t* shards,
                         uint64_t* envs) {
  return ParseMessage(line, StatsEndMessage(shards, envs));
}

const char* MutationOpWireName(WireMutationOp op) {
  switch (op) {
    case WireMutationOp::kInsert:
      return "insert";
    case WireMutationOp::kDelete:
      return "delete";
    case WireMutationOp::kCompact:
      return "compact";
  }
  return "?";
}

bool ParseMutationOpName(const std::string& name, WireMutationOp* op) {
  for (WireMutationOp candidate :
       {WireMutationOp::kInsert, WireMutationOp::kDelete,
        WireMutationOp::kCompact}) {
    if (name == MutationOpWireName(candidate)) {
      *op = candidate;
      return true;
    }
  }
  return false;
}

bool IsMutationRequestLine(const std::string& line) {
  const std::string verb = RequestVerb(line);
  return verb == "INSERT" || verb == "DELETE" || verb == "COMPACT";
}

Status ParseMutationLine(const std::string& line, WireMutation* out) {
  *out = WireMutation{};
  std::vector<std::string> tokens;
  RINGJOIN_RETURN_IF_ERROR(Tokenize(line, &tokens));
  for (WireMutationOp op : {WireMutationOp::kInsert, WireMutationOp::kDelete,
                            WireMutationOp::kCompact}) {
    if (!tokens.empty() && tokens[0] == MutationVerb(op)) {
      out->op = op;
      return ParseMessage(line, MutationMessage(out));
    }
  }
  return Status::InvalidArgument(
      "mutation must start with INSERT, DELETE, or COMPACT");
}

std::string FormatMutationLine(const WireMutation& mutation) {
  return FormatWith(mutation, MutationMessage);
}

std::string FormatMutationAckLine(const WireMutationAck& ack) {
  return FormatWith(ack, MutationAckMessage);
}

Status ParseMutationAckLine(const std::string& line, WireMutationAck* out) {
  return ParseWith(line, out, MutationAckMessage);
}

bool IsTraceLine(const std::string& line) {
  return RequestVerb(line) == "TRACE";
}

std::string FormatTraceLine(const WireTraceSpan& span) {
  return FormatWith(span, TraceMessage);
}

Status ParseTraceLine(const std::string& line, WireTraceSpan* out) {
  return ParseWith(line, out, TraceMessage);
}

bool IsTraceEndLine(const std::string& line) {
  return RequestVerb(line) == "ENDTRACE";
}

std::string FormatTraceEndLine(const std::string& id, uint64_t spans) {
  std::string id_value = id;
  return FormatMessage(TraceEndMessage(&id_value, &spans));
}

Status ParseTraceEndLine(const std::string& line, std::string* id,
                         uint64_t* spans) {
  return ParseMessage(line, TraceEndMessage(id, spans));
}

std::string FormatTraceBlock(const obs::TraceContext& trace,
                             uint64_t relayed_spans) {
  const std::vector<obs::TraceSpan> spans = trace.Spans();
  std::string out;
  for (const obs::TraceSpan& span : spans) {
    WireTraceSpan wire;
    wire.id = trace.id();
    wire.depth = static_cast<uint64_t>(span.depth);
    wire.span = span.name;
    wire.count = span.count;
    wire.total_s = span.total_seconds;
    wire.start_s = span.start_seconds;
    out += FormatTraceLine(wire) + "\n";
  }
  return out + FormatTraceEndLine(trace.id(), relayed_spans + spans.size()) +
         "\n";
}

bool IsMetricsRequestLine(const std::string& line) {
  return IsBareRequest(line, "METRICS");
}

std::string FormatMetricsEndLine(uint64_t lines) {
  return FormatMessage(MetricsEndMessage(&lines));
}

Status ParseMetricsEndLine(const std::string& line, uint64_t* lines) {
  return ParseMessage(line, MetricsEndMessage(lines));
}

bool IsEpochRequestLine(const std::string& line) {
  return RequestVerb(line) == "EPOCH";
}

std::string FormatEpochRequestLine(const std::string& env_name) {
  std::string name = env_name;
  std::string default_name = "default";
  const Message defaults = EpochRequestMessage(&default_name);
  return FormatMessage(EpochRequestMessage(&name), &defaults);
}

Status ParseEpochRequestLine(const std::string& line, std::string* env_name) {
  *env_name = "default";
  return ParseMessage(line, EpochRequestMessage(env_name));
}

std::string FormatEpochResponseLine(const std::string& env_name,
                                    uint64_t epoch) {
  std::string name = env_name;
  return FormatMessage(EpochResponseMessage(&name, &epoch));
}

Status ParseEpochResponseLine(const std::string& line, std::string* env_name,
                              uint64_t* epoch) {
  return ParseMessage(line, EpochResponseMessage(env_name, epoch));
}

bool IsFailpointRequestLine(const std::string& line) {
  return RequestVerb(line) == "FAILPOINT";
}

std::string FormatFailpointLine(const std::string& site,
                                const std::string& spec) {
  return "FAILPOINT " + site + " " + spec;
}

Status ParseFailpointLine(const std::string& line, std::string* site,
                          std::string* spec) {
  std::vector<std::string> tokens;
  RINGJOIN_RETURN_IF_ERROR(Tokenize(line, &tokens));
  if (tokens.size() < 3 || tokens[0] != "FAILPOINT") {
    return Status::InvalidArgument(
        "FAILPOINT request wants 'FAILPOINT site spec...'");
  }
  // Sites share the trace-id charset: bare tokens, no '=' ambiguity.
  if (!IsValidTraceId(tokens[1])) {
    return Status::InvalidArgument("invalid failpoint site '" + tokens[1] +
                                   "'");
  }
  *site = tokens[1];
  spec->clear();
  for (size_t i = 2; i < tokens.size(); ++i) {
    if (i > 2) *spec += ' ';
    *spec += tokens[i];
  }
  return Status::OK();
}

Status ParseErrLine(const std::string& line, Status* out) {
  std::string trimmed = line;
  while (!trimmed.empty() &&
         (trimmed.back() == '\n' || trimmed.back() == '\r')) {
    trimmed.pop_back();
  }
  if (trimmed.rfind("ERR ", 0) != 0) {
    return Status::InvalidArgument("ERR line must start with 'ERR '");
  }
  const size_t token_begin = 4;
  size_t token_end = trimmed.find(' ', token_begin);
  if (token_end == std::string::npos) token_end = trimmed.size();
  StatusCode code;
  if (!ParseStatusCodeWireName(
          trimmed.substr(token_begin, token_end - token_begin), &code)) {
    return Status::InvalidArgument("unknown ERR code in '" + trimmed + "'");
  }
  std::string message;
  if (token_end < trimmed.size()) message = trimmed.substr(token_end + 1);
  *out = MakeStatus(code, std::move(message));
  return Status::OK();
}

}  // namespace net
}  // namespace rcj
