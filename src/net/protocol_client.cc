#include "net/protocol_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace rcj {
namespace net {

Result<int> DialTcp(const std::string& host, uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host '" + host + "'");
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    close(fd);
    return Status::IoError("connect " + host + ":" + std::to_string(port) +
                           ": " + std::strerror(err));
  }
  return fd;
}

ProtocolClient::ProtocolClient(int fd) : fd_(fd), reader_(fd) {}

Result<ProtocolClient> ProtocolClient::Connect(const std::string& host,
                                               uint16_t port) {
  Result<int> fd = DialTcp(host, port);
  if (!fd.ok()) return fd.status();
  return ProtocolClient(fd.value());
}

ProtocolClient::~ProtocolClient() { Close(); }

ProtocolClient::ProtocolClient(ProtocolClient&& other) noexcept
    : fd_(other.fd_), reader_(std::move(other.reader_)) {
  other.fd_ = -1;
}

ProtocolClient& ProtocolClient::operator=(ProtocolClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    reader_ = std::move(other.reader_);
    other.fd_ = -1;
  }
  return *this;
}

void ProtocolClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

bool ProtocolClient::SendLine(const std::string& line) {
  if (fd_ < 0) return false;
  return SendAll(fd_, line + "\n");
}

bool ProtocolClient::ReadLine(std::string* line) {
  if (fd_ < 0) return false;
  return reader_.ReadLine(line);
}

Status ProtocolClient::ReadAck(const char* what) {
  std::string line;
  if (!ReadLine(&line)) {
    Close();
    return Status::IoError(std::string(what) +
                           ": connection closed before a response");
  }
  if (line == "OK") return Status::OK();
  Status transported =
      Status::Corruption(std::string(what) + ": expected OK, got '" + line +
                         "'");
  ParseErrLine(line, &transported);
  Close();
  return transported;
}

Status ProtocolClient::RunQuery(
    const WireRequest& request,
    const std::function<bool(const std::string& pair_line)>& on_pair,
    WireSummary* summary) {
  if (!SendLine(FormatRequestLine(request))) {
    Close();
    return Status::IoError("query: send failed, connection lost");
  }
  Status ack = ReadAck("query");
  if (!ack.ok()) return ack;
  uint64_t pairs = 0;
  std::string line;
  for (;;) {
    if (!ReadLine(&line)) {
      Close();
      return Status::IoError("query: connection lost after " +
                             std::to_string(pairs) + " pairs");
    }
    if (line.rfind("PAIR ", 0) == 0) {
      ++pairs;
      if (on_pair && !on_pair(line)) {
        Close();
        return Status::Cancelled("query: abandoned after " +
                                 std::to_string(pairs) + " pairs");
      }
      continue;
    }
    if (line.rfind("END", 0) == 0) {
      WireSummary parsed;
      Status status = ParseEndLine(line, &parsed);
      Close();
      if (!status.ok()) return status;
      if (parsed.pairs != pairs) {
        return Status::Corruption(
            "query: END reports " + std::to_string(parsed.pairs) +
            " pairs but " + std::to_string(pairs) + " were streamed");
      }
      if (summary) *summary = parsed;
      return Status::OK();
    }
    Status transported = Status::Corruption("query: unexpected line '" +
                                            line + "' in pair stream");
    ParseErrLine(line, &transported);
    Close();
    return transported;
  }
}

Status ProtocolClient::Mutate(const WireMutation& mutation,
                              WireMutationAck* ack) {
  if (!SendLine(FormatMutationLine(mutation))) {
    Close();
    return Status::IoError("mutation: send failed, connection lost");
  }
  Status acked = ReadAck("mutation");
  if (!acked.ok()) return acked;
  std::string line;
  if (!ReadLine(&line)) {
    Close();
    return Status::IoError("mutation: connection closed before MUT");
  }
  WireMutationAck parsed;
  Status status = ParseMutationAckLine(line, &parsed);
  if (!status.ok()) {
    Close();
    return status;
  }
  if (ack) *ack = parsed;
  return Status::OK();  // connection stays open for the next Mutate().
}

Status ProtocolClient::Epoch(const std::string& env_name, uint64_t* epoch) {
  if (!SendLine(FormatEpochRequestLine(env_name))) {
    Close();
    return Status::IoError("epoch: send failed, connection lost");
  }
  Status status = ReadAck("epoch");
  if (!status.ok()) return status;
  std::string line;
  std::string got_env;
  status = ReadLine(&line)
               ? ParseEpochResponseLine(line, &got_env, epoch)
               : Status::IoError("epoch: connection closed before its row");
  Close();
  if (status.ok() && got_env != env_name) {
    status = Status::Corruption("epoch: probe for '" + env_name +
                                "' answered for '" + got_env + "'");
  }
  return status;
}

Status ProtocolClient::Stats(std::vector<WireShardStats>* shards,
                             std::vector<WireEnvStats>* envs) {
  if (!SendLine("STATS")) {
    Close();
    return Status::IoError("stats: send failed, connection lost");
  }
  Status ack = ReadAck("stats");
  if (!ack.ok()) return ack;
  uint64_t shard_rows = 0;
  uint64_t env_rows = 0;
  std::string line;
  for (;;) {
    if (!ReadLine(&line)) {
      Close();
      return Status::IoError("stats: connection lost before ENDSTATS");
    }
    if (line.rfind("SHARD ", 0) == 0) {
      WireShardStats row;
      Status status = ParseShardStatsLine(line, &row);
      if (!status.ok()) {
        Close();
        return status;
      }
      ++shard_rows;
      if (shards) shards->push_back(row);
      continue;
    }
    if (line.rfind("ENV ", 0) == 0) {
      WireEnvStats row;
      Status status = ParseEnvStatsLine(line, &row);
      if (!status.ok()) {
        Close();
        return status;
      }
      ++env_rows;
      if (envs) envs->push_back(row);
      continue;
    }
    if (line.rfind("ENDSTATS", 0) == 0) {
      uint64_t total_shards = 0;
      uint64_t total_envs = 0;
      Status status = ParseStatsEndLine(line, &total_shards, &total_envs);
      Close();
      if (!status.ok()) return status;
      if (total_shards != shard_rows || total_envs != env_rows) {
        return Status::Corruption(
            "stats: ENDSTATS reports " + std::to_string(total_shards) +
            " shards / " + std::to_string(total_envs) + " envs but " +
            std::to_string(shard_rows) + " / " + std::to_string(env_rows) +
            " rows were streamed");
      }
      return Status::OK();
    }
    Status transported = Status::Corruption("stats: unexpected line '" +
                                            line + "' in response");
    ParseErrLine(line, &transported);
    Close();
    return transported;
  }
}

}  // namespace net
}  // namespace rcj
