// Shared GDMP value types: export-catalog entries, notifications, config.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "gridftp/client.h"
#include "net/packet.h"
#include "rpc/serialize.h"

namespace gdmp::core {

/// One published file: what the producer's export catalog records and what
/// subscriber notifications carry. `extra` holds file-type-specific
/// attributes (Objectivity tier/event-range/schema, Oracle tablespace, ...).
struct PublishedFile {
  LogicalFileName lfn;
  std::string local_path;
  Bytes size = 0;
  std::uint64_t content_seed = 0;
  std::uint32_t crc = 0;
  SimTime modify_time = 0;
  std::string file_type = "flat";
  std::map<std::string, std::string> extra;
};

void encode_published_file(rpc::Writer& w, const PublishedFile& file);
PublishedFile decode_published_file(rpc::Reader& r);
/// The fewest bytes one encoded PublishedFile takes (empty strings, no
/// extras): bounds how many entries a message can hold, whatever count it
/// claims.
inline constexpr std::size_t kPublishedFileMinWireBytes = 44;

/// GDMP site configuration.
struct GdmpConfig {
  net::Port server_port = 2000;
  net::Port gridftp_port = 2811;
  /// The experiment collection this site publishes into.
  std::string collection = "cms";
  net::NodeId catalog_host = net::kInvalidNode;
  net::Port catalog_port = 2010;
  /// Catalog client cache TTL (0 disables; see DESIGN.md §5j). The cache
  /// capacity and batch size are CatalogClientConfig's defaults.
  SimDuration catalog_cache_ttl = 120 * kSecond;
  /// Consumers: queue each notified file at the site's scheduler.
  bool auto_replicate_on_notify = false;
  /// Producers: archive published files to the MSS automatically.
  bool auto_archive_published = false;
  /// Data mover defaults (streams, TCP buffers, restart policy).
  gridftp::TransferOptions transfer;
  int max_concurrent_transfers = 2;
};

/// Well-known RPC method names of the GDMP server.
inline constexpr const char* kMethodSubscribe = "gdmp.subscribe";
inline constexpr const char* kMethodUnsubscribe = "gdmp.unsubscribe";
inline constexpr const char* kMethodNotify = "gdmp.notify";
inline constexpr const char* kMethodGetCatalog = "gdmp.get_catalog";
inline constexpr const char* kMethodStage = "gdmp.stage";
inline constexpr const char* kMethodPackObjects = "gdmp.pack_objects";
inline constexpr const char* kMethodDeleteFile = "gdmp.delete_file";

}  // namespace gdmp::core
