// Object replication service (§5.2).
//
// The complete cycle, destination-driven:
//  1. the needed objects are identified as a group, up front;
//  2. objects already local are dropped; the global index plans source
//     site(s) for the rest (one collective lookup);
//  3. each source runs the object copier, packing the objects into new
//     temporary files of bounded size;
//  4. chunks move via the ordinary GridFTP data mover — *pipelined* with
//     the copying when enabled ("object copying and file transport
//     operations are pipelined to achieve a better response time");
//  5. arrived chunks are attached to the destination federation (and
//     published) as first-class extraction sources;
//  6. the source deletes its temporaries once acknowledged.
#pragma once

#include <map>
#include <memory>

#include "gdmp/server.h"
#include "objrep/global_index.h"
#include "objstore/object_copier.h"

namespace gdmp::objrep {

struct ObjectReplicationConfig {
  objstore::CopierConfig copier;
  /// Overlap copying and transfer (ablation knob for bench_pipeline).
  bool pipeline = true;
  /// Pool directory for packed temporaries at the source.
  std::string temp_prefix = "/pack";
};

struct ObjectReplicationStats {
  std::int64_t requests = 0;
  std::int64_t packs_served = 0;
  std::int64_t chunks_sent = 0;
  std::int64_t chunks_received = 0;
  Bytes bytes_packed = 0;
  Bytes bytes_transferred = 0;
};

class ObjectReplicationService {
 public:
  struct Outcome {
    std::int64_t objects_requested = 0;
    std::int64_t objects_already_local = 0;
    Bytes payload_bytes = 0;      // object payload replicated
    Bytes transferred_bytes = 0;  // file bytes moved over the WAN
    int chunks = 0;
    SimDuration elapsed = 0;
  };
  using Done = std::function<void(Result<Outcome>)>;

  ObjectReplicationService(core::GdmpServer& server,
                           ObjectReplicationConfig config = {});
  ~ObjectReplicationService();

  ObjectReplicationService(const ObjectReplicationService&) = delete;
  ObjectReplicationService& operator=(const ObjectReplicationService&) =
      delete;

  /// Replicates the objects to this site (steps 1–6 above).
  void replicate_objects(std::vector<ObjectId> needed, Done done);

  /// Pulls a fresh index snapshot from a remote site's service. The
  /// snapshot travels as real bytes over the grid — the cost of index-file
  /// replication is borne on the wire.
  void refresh_index_from(const std::string& site, net::NodeId node,
                          net::Port port, std::function<void(Status)> done);

  GlobalObjectIndex& index() noexcept { return index_; }
  const ObjectReplicationStats& stats() const noexcept { return stats_; }
  const objstore::CopierStats& copier_stats() const noexcept {
    return copier_stats_;
  }

 private:
  struct PackJob;      // source side
  struct SubRequest;   // destination side, one per source site
  struct Request;      // destination side, the user-visible unit
  using Respond = rpc::RpcServer::Respond;

  void handle_get_index(Respond respond);
  void handle_pack(std::span<const std::uint8_t> params, Respond respond);
  void handle_chunk(std::span<const std::uint8_t> params, Respond respond);
  void handle_pack_done(std::span<const std::uint8_t> params,
                        Respond respond);
  void handle_chunk_ack(std::span<const std::uint8_t> params,
                        Respond respond);

  void send_chunk(const std::shared_ptr<PackJob>& job,
                  const objstore::PackedOutput& chunk);
  void start_site_request(const std::shared_ptr<Request>& request,
                          const std::string& site,
                          std::vector<ObjectId> objects);
  void pull_chunk(const std::shared_ptr<SubRequest>& sub,
                  const std::string& remote_path, std::uint32_t crc,
                  std::vector<ObjectId> objects);
  void check_sub_complete(const std::shared_ptr<SubRequest>& sub);
  void finish_request(const std::shared_ptr<Request>& request);

  core::GdmpServer& server_;
  ObjectReplicationConfig config_;
  GlobalObjectIndex index_;
  ObjectReplicationStats stats_;
  objstore::CopierStats copier_stats_;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t next_pack_id_ = 1;
  std::map<std::uint64_t, std::shared_ptr<SubRequest>> sub_requests_;
  std::map<std::uint64_t, std::shared_ptr<PackJob>> pack_jobs_;  // by pack id
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::objrep
