// Bundle of site-local services the GDMP components operate on.
#pragma once

#include <string>

#include "net/tcp.h"
#include "objstore/federation.h"
#include "security/credentials.h"
#include "sim/simulator.h"
#include "storage/disk_pool.h"
#include "storage/mss.h"

namespace gdmp::core {

struct SiteServices {
  std::string site_name;
  sim::Simulator& simulator;
  net::TcpStack& stack;
  storage::DiskPool& pool;
  /// Null for disk-only sites (no MSS behind the pool).
  storage::MassStorageSystem* mss = nullptr;
  /// Null for sites without an Objectivity federation.
  objstore::Federation* federation = nullptr;
  const security::CertificateAuthority& ca;
  security::Certificate credential;

  net::NodeId node_id() const noexcept { return stack.node().id(); }
};

}  // namespace gdmp::core
