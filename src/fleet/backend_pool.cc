#include "fleet/backend_pool.h"

#include <utility>

#include "net/protocol.h"

namespace rcj {
namespace fleet {
namespace {

/// Idle connections parked per backend; further releases are closed.
constexpr size_t kMaxIdlePerBackend = 8;

}  // namespace

std::string BackendAddressToString(const BackendAddress& address) {
  return address.host + ":" + std::to_string(address.port);
}

Status ParseBackendAddress(const std::string& text, BackendAddress* out) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == text.size()) {
    return Status::InvalidArgument("backend '" + text +
                                   "' is not host:port");
  }
  uint64_t port = 0;
  Status status =
      net::ParseUint64Field("port", text.substr(colon + 1), &port);
  if (!status.ok()) return status;
  if (port == 0 || port > 65535) {
    return Status::OutOfRange("backend '" + text +
                              "' port is out of range");
  }
  out->host = text.substr(0, colon);
  out->port = static_cast<uint16_t>(port);
  return Status::OK();
}

Status ParseBackendList(const std::string& text,
                        std::vector<BackendAddress>* out) {
  out->clear();
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    BackendAddress address;
    Status status =
        ParseBackendAddress(text.substr(start, comma - start), &address);
    if (!status.ok()) return status;
    out->push_back(std::move(address));
    start = comma + 1;
  }
  if (out->empty()) {
    return Status::InvalidArgument("backend list is empty");
  }
  return Status::OK();
}

BackendPool::BackendPool(std::vector<BackendAddress> backends) {
  entries_.reserve(backends.size());
  for (BackendAddress& address : backends) {
    Entry entry;
    entry.address = std::move(address);
    entries_.push_back(std::move(entry));
  }
}

BackendAddress BackendPool::address(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_[index].address;
}

void BackendPool::SetAddress(size_t index, BackendAddress address) {
  std::vector<net::ProtocolClient> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[index].address = std::move(address);
    dropped.swap(entries_[index].idle);  // close outside the lock
  }
}

Result<net::ProtocolClient> BackendPool::Dial(size_t index) {
  BackendAddress address;
  {
    std::lock_guard<std::mutex> lock(mu_);
    address = entries_[index].address;
  }
  Result<net::ProtocolClient> dialed =
      net::ProtocolClient::Connect(address.host, address.port);
  std::lock_guard<std::mutex> lock(mu_);
  if (dialed.ok()) {
    ++counters_.dials;
  } else {
    ++counters_.dial_failures;
  }
  return dialed;
}

Result<net::ProtocolClient> BackendPool::Acquire(size_t index,
                                                 bool* reused) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = entries_[index];
    if (!entry.idle.empty()) {
      net::ProtocolClient client = std::move(entry.idle.back());
      entry.idle.pop_back();
      ++counters_.reuses;
      if (reused) *reused = true;
      return client;
    }
  }
  if (reused) *reused = false;
  return Dial(index);
}

void BackendPool::Release(size_t index, net::ProtocolClient client) {
  if (!client.connected()) return;
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[index];
  if (entry.idle.size() < kMaxIdlePerBackend) {
    entry.idle.push_back(std::move(client));
  }
  // else: `client` destructs (closes) as it leaves scope.
}

BackendPool::Counters BackendPool::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace fleet
}  // namespace rcj
