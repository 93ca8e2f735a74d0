#include "objrep/replicator.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/logging.h"

namespace gdmp::objrep {

namespace {
constexpr const char* kMethodGetIndex = "objrep.get_index";
constexpr const char* kMethodPack = "objrep.pack";
constexpr const char* kMethodChunk = "objrep.chunk";
constexpr const char* kMethodPackDone = "objrep.pack_done";
constexpr const char* kMethodChunkAck = "objrep.chunk_ack";

Status no_object_store() {
  return make_error(ErrorCode::kFailedPrecondition,
                    "site has no object store");
}
}  // namespace

/// Source-side packing job.
struct ObjectReplicationService::PackJob {
  std::uint64_t request_id = 0;  // the consumer's, echoed in its messages
  std::uint64_t pack_id = 0;     // this source's; names the temporaries
  net::NodeId dest_node = net::kInvalidNode;
  net::Port dest_port = 0;
  bool pipeline = true;
  std::unique_ptr<objstore::ObjectCopier> copier;
  std::vector<objstore::PackedOutput> buffered;  // when not pipelining
  bool finished = false;
  Status final_status;
};

/// Destination-side per-source-site state.
struct ObjectReplicationService::SubRequest {
  std::uint64_t id = 0;
  std::string site;
  net::NodeId node = net::kInvalidNode;
  net::Port port = 0;
  std::shared_ptr<Request> parent;
  int chunks_in_flight = 0;
  bool source_done = false;
  Status source_status;
  bool completed = false;
};

/// Destination-side user request.
struct ObjectReplicationService::Request {
  Outcome outcome;
  SimTime started_at = 0;
  std::size_t subs_remaining = 0;
  Status first_error;
  Done done;
};

ObjectReplicationService::ObjectReplicationService(
    core::GdmpServer& server, ObjectReplicationConfig config)
    : server_(server), config_(config) {
  auto& rpc = server_.rpc();
  // The GdmpServer (and its RpcServer) outlives this service in several
  // benches; weak-guard every handler so a late dispatch is a no-op rather
  // than a use-after-free.
  const auto guard = [this](auto handler) {
    return rpc::guarded(this, alive_, "replication service stopped", handler);
  };
  rpc.register_method(
      kMethodGetIndex, guard([](auto& self, auto&, auto, auto, auto r) {
        self.handle_get_index(std::move(r));
      }));
  rpc.register_method(
      kMethodPack, guard([](auto& self, auto&, auto, auto p, auto r) {
        self.handle_pack(p, std::move(r));
      }));
  rpc.register_method(
      kMethodChunk, guard([](auto& self, auto&, auto, auto p, auto r) {
        self.handle_chunk(p, std::move(r));
      }));
  rpc.register_method(
      kMethodPackDone, guard([](auto& self, auto&, auto, auto p, auto r) {
        self.handle_pack_done(p, std::move(r));
      }));
  rpc.register_method(
      kMethodChunkAck, guard([](auto& self, auto&, auto, auto p, auto r) {
        self.handle_chunk_ack(p, std::move(r));
      }));
}

ObjectReplicationService::~ObjectReplicationService() { *alive_ = false; }

// -------------------------------------------------------------- index

void ObjectReplicationService::handle_get_index(Respond respond) {
  if (server_.site().federation == nullptr) {
    respond(no_object_store(), {});
    return;
  }
  const IndexSnapshot snapshot =
      snapshot_catalog(server_.site().federation->catalog(),
                       /*generation=*/server_.stats().files_published + 1);
  rpc::Writer w;
  encode_snapshot(w, snapshot);
  respond(Status::ok(), w.take());
}

void ObjectReplicationService::refresh_index_from(
    const std::string& site, net::NodeId node, net::Port port,
    std::function<void(Status)> done) {
  // The site's catalogs take their object sizes from the local model.
  if (server_.site().federation == nullptr) {
    done(no_object_store());
    return;
  }
  std::weak_ptr<bool> alive = alive_;
  server_.peer(node, port).call(
      kMethodGetIndex, {},
      [this, alive, site, done = std::move(done)](
          Status status, std::vector<std::uint8_t> reply) {
        if (alive.expired()) {
          done(make_error(ErrorCode::kAborted,
                          "replication service stopped"));
          return;
        }
        if (!status.is_ok()) {
          done(status);
          return;
        }
        rpc::Reader r(reply);
        IndexSnapshot snapshot = decode_snapshot(r);
        if (!r.ok() || !r.at_end()) {
          done(make_error(ErrorCode::kInvalidArgument,
                          "malformed index from " + site));
          return;
        }
        done(index_.update_site(site, std::move(snapshot),
                                server_.site().federation->model()));
      });
}

// ------------------------------------------------------ source (packing)

void ObjectReplicationService::handle_pack(
    std::span<const std::uint8_t> params, Respond respond) {
  rpc::Reader r(params);
  auto job = std::make_shared<PackJob>();
  job->request_id = r.u64();
  job->dest_node = static_cast<net::NodeId>(r.u32());
  job->dest_port = r.u16();
  job->pipeline = r.boolean();
  const std::uint32_t n = r.u32();
  std::vector<ObjectId> objects;
  objects.reserve(std::min<std::size_t>(n, r.remaining() / 8));
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    objects.push_back(ObjectId{r.u64()});
  }
  if (!r.ok() || objects.empty()) {
    respond(make_error(ErrorCode::kInvalidArgument, "malformed pack"), {});
    return;
  }
  if (server_.site().federation == nullptr) {
    respond(no_object_store(), {});
    return;
  }
  ++stats_.packs_served;
  // Request ids are only unique per consumer; the source's own counter
  // keeps concurrent jobs from two consumers off each other's temporaries.
  job->pack_id = next_pack_id_++;
  job->copier = std::make_unique<objstore::ObjectCopier>(
      server_.site().simulator, *server_.site().federation, config_.copier);
  pack_jobs_[job->pack_id] = job;
  respond(Status::ok(), {});  // accepted; completion signalled via pack_done

  const std::string prefix =
      config_.temp_prefix + "/req" + std::to_string(job->pack_id);
  std::weak_ptr<bool> alive = alive_;
  job->copier->pack(
      std::move(objects), prefix,
      [this, alive, job](const objstore::PackedOutput& chunk) {
        if (alive.expired()) return;
        (void)server_.site().pool.pin(chunk.file.path);
        if (job->pipeline) {
          send_chunk(job, chunk);
        } else {
          job->buffered.push_back(chunk);
        }
      },
      [this, alive, job](Status status) {
        if (alive.expired()) return;
        const objstore::CopierStats& job_stats = job->copier->stats();
        copier_stats_.objects_copied += job_stats.objects_copied;
        copier_stats_.bytes_copied += job_stats.bytes_copied;
        copier_stats_.io_ops += job_stats.io_ops;
        copier_stats_.cpu_time += job_stats.cpu_time;
        for (const objstore::PackedOutput& chunk : job->buffered) {
          send_chunk(job, chunk);
        }
        job->buffered.clear();
        job->finished = true;
        job->final_status = status;
        rpc::Writer w;
        w.u64(job->request_id);
        w.u8(static_cast<std::uint8_t>(status.code()));
        w.str(status.message());
        server_.peer(job->dest_node, job->dest_port)
            .call(kMethodPackDone, w.take(),
                  [](Status, std::vector<std::uint8_t>) {});
        pack_jobs_.erase(job->pack_id);  // chunk acks don't need the job
      });
}

void ObjectReplicationService::send_chunk(
    const std::shared_ptr<PackJob>& job, const objstore::PackedOutput& chunk) {
  ++stats_.chunks_sent;
  stats_.bytes_packed += chunk.file.size;
  rpc::Writer w;
  w.u64(job->request_id);
  w.str(chunk.file.path);
  w.i64(chunk.file.size);
  w.u32(chunk.file.crc());
  w.u32(static_cast<std::uint32_t>(chunk.objects.size()));
  for (const ObjectId id : chunk.objects) w.u64(id.value);
  server_.peer(job->dest_node, job->dest_port)
      .call(kMethodChunk, w.take(), [](Status status,
                                       std::vector<std::uint8_t>) {
        if (!status.is_ok()) {
          GDMP_WARN("objrep", "chunk notification failed: ",
                    status.to_string());
        }
      });
}

void ObjectReplicationService::handle_chunk_ack(
    std::span<const std::uint8_t> params, Respond respond) {
  rpc::Reader r(params);
  (void)r.u64();  // request id (temporaries are uniquely named)
  const std::string path = r.str();
  // Only this service's own packed temporaries (handle_pack names them
  // under temp_prefix/req<id>) may be deleted on a peer's word.
  if (!r.ok() || !path.starts_with(config_.temp_prefix + "/req")) {
    respond(make_error(ErrorCode::kInvalidArgument,
                       "chunk ack names no packed temporary"),
            {});
    return;
  }
  // "As a final step, the new file can be deleted at the source site."
  if (server_.site().federation != nullptr &&
      server_.site().federation->is_attached(path)) {
    (void)server_.site().federation->detach(path);
  }
  (void)server_.site().pool.unpin(path);
  (void)server_.site().pool.remove(path);
  respond(Status::ok(), {});
}

// --------------------------------------------------- destination (pull)

void ObjectReplicationService::replicate_objects(std::vector<ObjectId> needed,
                                                 Done done) {
  const objstore::Federation* federation = server_.site().federation;
  if (federation == nullptr) {
    done(no_object_store());
    return;
  }
  ++stats_.requests;
  auto request = std::make_shared<Request>();
  request->started_at = server_.site().simulator.now();
  request->done = std::move(done);
  request->outcome.objects_requested =
      static_cast<std::int64_t>(needed.size());

  // Step 2: drop what is already here.
  const std::vector<ObjectId> missing = federation->missing(needed);
  request->outcome.objects_already_local =
      static_cast<std::int64_t>(needed.size() - missing.size());
  if (missing.empty()) {
    request->outcome.elapsed = 0;
    request->done(std::move(request->outcome));
    return;
  }

  // Step 2b: collective lookup.
  auto plan = index_.plan(missing);
  if (const auto unlocatable = plan.find(""); unlocatable != plan.end()) {
    request->done(make_error(
        ErrorCode::kNotFound,
        std::to_string(unlocatable->second.size()) +
            " objects are not available at any indexed site"));
    return;
  }
  request->subs_remaining = plan.size();
  for (auto& [site, objects] : plan) {
    start_site_request(request, site, std::move(objects));
  }
  // gdmp-lint: dropped-ok — plan is non-empty (every missing id maps to a site; unlocatable ids returned above)
}

void ObjectReplicationService::start_site_request(
    const std::shared_ptr<Request>& request, const std::string& site,
    std::vector<ObjectId> objects) {
  auto node = server_.resolver()(site);
  if (!node.is_ok()) {
    if (request->first_error.is_ok()) request->first_error = node.status();
    if (--request->subs_remaining == 0) finish_request(request);
    return;
  }
  auto sub = std::make_shared<SubRequest>();
  sub->id = next_request_id_++;
  sub->site = site;
  sub->node = *node;
  sub->port = server_.config().server_port;
  sub->parent = request;
  sub_requests_[sub->id] = sub;

  rpc::Writer w;
  w.u64(sub->id);
  w.u32(static_cast<std::uint32_t>(server_.site().node_id()));
  w.u16(server_.config().server_port);
  w.boolean(config_.pipeline);
  w.u32(static_cast<std::uint32_t>(objects.size()));
  for (const ObjectId id : objects) w.u64(id.value);

  std::weak_ptr<bool> alive = alive_;
  server_.peer(sub->node, sub->port)
      .call(kMethodPack, w.take(),
            [this, alive, sub](Status status, std::vector<std::uint8_t>) {
              if (alive.expired()) return;
              if (!status.is_ok()) {
                sub->source_done = true;
                sub->source_status = status;
                check_sub_complete(sub);
              }
            });
}

void ObjectReplicationService::handle_chunk(
    std::span<const std::uint8_t> params, Respond respond) {
  rpc::Reader r(params);
  const std::uint64_t request_id = r.u64();
  const std::string remote_path = r.str();
  (void)r.i64();  // chunk size; the pull's CRC check covers the content
  const std::uint32_t crc = r.u32();
  const std::uint32_t n = r.u32();
  std::vector<ObjectId> objects;
  objects.reserve(std::min<std::size_t>(n, r.remaining() / 8));
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    objects.push_back(ObjectId{r.u64()});
  }
  if (!r.ok()) {
    respond(make_error(ErrorCode::kInvalidArgument, "malformed chunk"), {});
    return;
  }
  const auto it = sub_requests_.find(request_id);
  if (it == sub_requests_.end()) {
    respond(make_error(ErrorCode::kNotFound, "unknown pack request"), {});
    return;
  }
  respond(Status::ok(), {});
  ++it->second->chunks_in_flight;
  pull_chunk(it->second, remote_path, crc, std::move(objects));
}

void ObjectReplicationService::pull_chunk(
    const std::shared_ptr<SubRequest>& sub, const std::string& remote_path,
    std::uint32_t crc, std::vector<ObjectId> objects) {
  std::string basename = remote_path;
  if (const auto slash = basename.rfind('/'); slash != std::string::npos) {
    basename = basename.substr(slash + 1);
  }
  // The chunk becomes a first-class logical file; its pool path follows
  // the catalog convention (url_prefix + "/" + lfn).
  const LogicalFileName lfn = "lfn://" + server_.config().collection + "/" +
                              server_.site().site_name + "/objrep/" +
                              std::to_string(sub->id) + "/" + basename;
  const std::string local_path = server_.local_path_for(lfn);
  // Chunk pulls publish on the site's transfer channel like file pulls, so
  // their summaries, restart and perf markers reach its subscribers.
  gridftp::TransferOptions options = server_.data_mover().defaults();
  options.expected_crc = crc;
  options.channel = &server_.transfer_channel();
  options.peer = sub->site;
  std::weak_ptr<bool> alive = alive_;
  server_.data_mover().pull(
      sub->node, server_.config().gridftp_port, remote_path, local_path,
      std::move(options),
      [this, alive, sub, remote_path, local_path, lfn,
       objects = std::move(objects)](
          Result<gridftp::TransferResult> result) mutable {
        if (alive.expired()) return;
        const auto request = sub->parent;
        if (!result.is_ok()) {
          if (request->first_error.is_ok()) {
            request->first_error = result.status();
          }
          --sub->chunks_in_flight;
          check_sub_complete(sub);
          return;
        }
        ++stats_.chunks_received;
        stats_.bytes_transferred += result->bytes;
        request->outcome.transferred_bytes += result->bytes;
        ++request->outcome.chunks;
        for (const ObjectId id : objects) {
          request->outcome.payload_bytes +=
              server_.site().federation->model().object_size(id);
        }
        // Step 5: first-class citizen — attach locally and publish in the
        // central replica catalog.
        Status attached = server_.site().federation->attach_packed_file(
            local_path, objects);
        if (!attached.is_ok() && request->first_error.is_ok()) {
          request->first_error = attached;
        }
        core::PublishedFile file;
        file.lfn = lfn;
        file.local_path = local_path;
        file.file_type = "objectivity";
        file.extra["layout"] = "packed";
        file.extra["objectcount"] = std::to_string(objects.size());
        server_.publish({file}, [](Status) {});
        // Step 6: tell the source it can delete the temporary.
        rpc::Writer w;
        w.u64(sub->id);
        w.str(remote_path);
        server_.peer(sub->node, sub->port)
            .call(kMethodChunkAck, w.take(),
                  [](Status, std::vector<std::uint8_t>) {});
        --sub->chunks_in_flight;
        check_sub_complete(sub);
      });
}

void ObjectReplicationService::handle_pack_done(
    std::span<const std::uint8_t> params, Respond respond) {
  rpc::Reader r(params);
  const std::uint64_t request_id = r.u64();
  const auto code = static_cast<ErrorCode>(r.u8());
  const std::string message = r.str();
  if (!r.ok()) {
    respond(make_error(ErrorCode::kInvalidArgument, "malformed pack_done"),
            {});
    return;
  }
  respond(Status::ok(), {});
  const auto it = sub_requests_.find(request_id);
  if (it == sub_requests_.end()) return;
  it->second->source_done = true;
  it->second->source_status =
      code == ErrorCode::kOk ? Status::ok() : Status(code, message);
  check_sub_complete(it->second);
}

void ObjectReplicationService::check_sub_complete(
    const std::shared_ptr<SubRequest>& sub) {
  if (sub->completed || !sub->source_done || sub->chunks_in_flight > 0) {
    return;
  }
  sub->completed = true;
  sub_requests_.erase(sub->id);
  const auto request = sub->parent;
  if (!sub->source_status.is_ok() && request->first_error.is_ok()) {
    request->first_error = sub->source_status;
  }
  if (--request->subs_remaining == 0) finish_request(request);
}

void ObjectReplicationService::finish_request(
    const std::shared_ptr<Request>& request) {
  request->outcome.elapsed =
      server_.site().simulator.now() - request->started_at;
  if (!request->first_error.is_ok()) {
    request->done(request->first_error);
    return;
  }
  request->done(std::move(request->outcome));
}

}  // namespace gdmp::objrep
