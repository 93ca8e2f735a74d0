#include "gdmp/server.h"

#include <algorithm>

#include "common/logging.h"
#include "gdmp/replica_selection.h"
#include "gridftp/protocol.h"

namespace gdmp::core {

GdmpServer::GdmpServer(SiteServices& site, GdmpConfig config,
                       HostResolver resolver)
    : site_(site),
      config_(config),
      resolver_(std::move(resolver)),
      rpc_(site.stack, config.server_port, site.ca, site.credential),
      catalog_client_(site.stack, config.catalog_host, config.catalog_port,
                      site.ca, site.credential,
                      {.cache_ttl = config.catalog_cache_ttl}),
      data_mover_(site, config.transfer, config.max_concurrent_transfers),
      storage_manager_(site) {
  // Handlers live in the RpcServer's method table; guard them so a handler
  // dispatched during teardown cannot touch a dead GdmpServer.
  const auto guard = [this](auto handler) {
    return rpc::guarded(this, alive_, "server stopped", handler);
  };
  rpc_.register_method(
      kMethodSubscribe, guard([](auto& self, auto& peer, auto, auto p, auto r) {
        self.handle_subscribe(peer, p, std::move(r));
      }));
  rpc_.register_method(
      kMethodUnsubscribe,
      guard([](auto& self, auto& peer, auto, auto p, auto r) {
        self.handle_unsubscribe(peer, p, std::move(r));
      }));
  rpc_.register_method(
      kMethodNotify, guard([](auto& self, auto& peer, auto, auto p, auto r) {
        self.handle_notify(peer, p, std::move(r));
      }));
  rpc_.register_method(
      kMethodGetCatalog, guard([](auto& self, auto& peer, auto, auto, auto r) {
        self.handle_get_catalog(peer, std::move(r));
      }));
  rpc_.register_method(
      kMethodStage, guard([](auto& self, auto& peer, auto, auto p, auto r) {
        self.handle_stage(peer, p, std::move(r));
      }));
  rpc_.register_method(
      "gdmp.release", guard([](auto& self, auto& peer, auto, auto p, auto r) {
        self.handle_release(peer, p, std::move(r));
      }));
  rpc_.register_method(
      kMethodDeleteFile,
      guard([](auto& self, auto& peer, auto, auto p, auto r) {
        self.handle_delete(peer, p, std::move(r));
      }));
}

GdmpServer::~GdmpServer() {
  *alive_ = false;
  stop();
}

Status GdmpServer::start() { return rpc_.start(); }
void GdmpServer::stop() { rpc_.stop(); }

std::string GdmpServer::url_prefix() const {
  return "gsiftp://" + site_.site_name + ":" +
         std::to_string(config_.gridftp_port) + "/pool";
}

rpc::RpcClient& GdmpServer::peer(net::NodeId node, net::Port port) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 16) |
      port;
  auto& slot = peers_[key];
  if (!slot) {
    // Inter-server requests legitimately take long: a stage can queue
    // behind tape mounts, a pack behind disk seeks.
    rpc::RpcClientConfig config;
    config.call_timeout = 4 * 3600 * kSecond;
    slot = std::make_unique<rpc::RpcClient>(site_.stack, node, port, site_.ca,
                                            site_.credential, config);
  }
  return *slot;
}

Status GdmpServer::authorize(security::Operation op,
                             const security::GsiContext& peer) const {
  if (!use_acl_) return Status::ok();
  return acl_.check(op, peer.peer);
}

// --------------------------------------------------------------- producer

void GdmpServer::publish(std::vector<PublishedFile> files, PublishDone done) {
  if (files.empty()) {
    done(Status::ok());
    return;
  }
  // Validate everything locally before touching the global catalog. The
  // Globus catalog maps lfn -> location url_prefix + "/" + lfn, so every
  // published file must live at the canonical pool path for its name.
  for (PublishedFile& file : files) {
    if (file.local_path.empty()) file.local_path = local_path_for(file.lfn);
    if (file.local_path != local_path_for(file.lfn)) {
      done(make_error(ErrorCode::kInvalidArgument,
                      "physical path must be " + local_path_for(file.lfn) +
                          " (catalog locations are url_prefix + lfn), got " +
                          file.local_path));
      return;
    }
    auto info = site_.pool.peek(file.local_path);
    if (!info.is_ok()) {
      done(make_error(ErrorCode::kNotFound,
                      "cannot publish " + file.lfn + ": " +
                          info.status().message()));
      return;
    }
    file.size = info->size;
    file.content_seed = info->content_seed;
    file.crc = info->crc();
    file.modify_time = info->modify_time;
  }

  // One rc.publish_batch round trip per CatalogClientConfig::max_batch files
  // instead of one per file (DESIGN.md §5j).
  auto shared = std::make_shared<std::vector<PublishedFile>>(std::move(files));
  std::weak_ptr<bool> alive = alive_;
  catalog_client_.publish_batch(
      config_.collection, *shared, site_.site_name, url_prefix(),
      [this, alive, shared, done](Status transport,
                                  std::vector<Status> statuses) {
        if (alive.expired()) {
          done(transport.is_ok()
                   ? make_error(ErrorCode::kAborted, "server stopped")
                   : transport);
          return;
        }
        Status first_error;
        for (std::size_t i = 0; i < shared->size(); ++i) {
          const Status status =
              i < statuses.size()
                  ? statuses[i]
                  : make_error(ErrorCode::kInternal, "missing batch status");
          const PublishedFile& file = (*shared)[i];
          if (status.is_ok()) {
            export_catalog_[file.lfn] = file;
            ++stats_.files_published;
            if (config_.auto_archive_published) {
              storage_manager_.archive(file.local_path, [](Status) {});
            }
          } else if (first_error.is_ok()) {
            first_error = status;
          }
        }
        notify_subscribers(*shared);
        done(first_error);
      });
}

void GdmpServer::notify_subscribers(const std::vector<PublishedFile>& files) {
  rpc::Writer w;
  w.str(site_.site_name);
  w.u32(static_cast<std::uint32_t>(files.size()));
  for (const PublishedFile& file : files) encode_published_file(w, file);
  const std::vector<std::uint8_t> payload = w.take();
  for (const SubscriberInfo& subscriber : subscribers_) {
    ++stats_.notifications_sent;
    peer(subscriber.node, subscriber.port)
        .call(kMethodNotify, payload,
              [](Status status, std::vector<std::uint8_t>) {
                if (!status.is_ok()) {
                  GDMP_WARN("gdmp.server",
                            "notification failed: ", status.to_string());
                }
              });
  }
}

// --------------------------------------------------------------- consumer

void GdmpServer::subscribe_to(net::NodeId producer, net::Port producer_port,
                              std::function<void(Status)> done) {
  rpc::Writer w;
  w.str(site_.site_name);
  w.u32(static_cast<std::uint32_t>(site_.node_id()));
  w.u16(config_.server_port);
  peer(producer, producer_port)
      .call(kMethodSubscribe, w.take(),
            [done = std::move(done)](Status status,
                                     std::vector<std::uint8_t>) {
              done(status);
            });
}

namespace {

/// The single clamp/validation point for a chooser's output: an
/// out-of-range index gets the first candidate (and a warning) instead of
/// poisoning the modulo arithmetic downstream.
std::size_t sanitize_selected_index(std::size_t index, std::size_t count) {
  if (index < count) return index;
  GDMP_WARN("gdmp.server", "source chooser returned index ", index,
            " for ", count, " candidates; falling back to 0");
  return 0;
}

}  // namespace

void GdmpServer::replicate(const LogicalFileName& lfn,
                           ReplicateOptions options, ReplicateDone done) {
  // Spans the whole §4.1 consumer sequence: catalog lookup, staging, the
  // GridFTP pull (whose transfer span nests under this one) and the final
  // catalog update. Ends exactly once, in the wrapped `done`.
  auto& tracer = obs::Tracer::global();
  obs::SpanId span;
  if (tracer.enabled()) {
    span = tracer.begin("gdmp.replicate", options.parent_span);
    tracer.attr(span, "lfn", lfn);
  }
  ReplicateDone finish = [span, done = std::move(done)](
                             Result<gridftp::TransferResult> result) {
    if (span.valid()) {
      auto& t = obs::Tracer::global();
      t.attr(span, "status",
             result.is_ok() ? "ok" : result.status().to_string());
      t.end(span);
    }
    done(std::move(result));
  };

  const std::string local_path = local_path_for(lfn);
  if (site_.pool.contains(local_path)) {
    finish(make_error(ErrorCode::kAlreadyExists,
                      "replica already on site: " + lfn));
    return;
  }
  std::weak_ptr<bool> alive = alive_;
  catalog_client_.lookup(
      config_.collection, lfn,
      [this, alive, lfn, local_path, span, options = std::move(options),
       done = std::move(finish)](Result<ReplicaInfo> info) {
        if (alive.expired()) {
          done(make_error(ErrorCode::kUnavailable, "server stopped"));
          return;
        }
        if (!info.is_ok()) {
          count_replication_failure();
          done(info.status());
          return;
        }
        const std::vector<Uri> candidates =
            remote_candidates(info->locations, site_.site_name);
        if (candidates.empty()) {
          count_replication_failure();
          done(make_error(ErrorCode::kUnavailable,
                          "no remote replica of " + lfn));
          return;
        }
        // GDMP 2.0 pulls from the first catalog location (§4.2).
        std::size_t index = 0;
        if (options.choose_source) {
          auto chosen = options.choose_source(candidates);
          if (!chosen.is_ok()) {
            // Admission refusal (e.g. all sources at capacity) — not a
            // replication failure; the caller retries on its own terms.
            done(chosen.status());
            return;
          }
          index = sanitize_selected_index(*chosen, candidates.size());
        }
        const Uri source = candidates[index];
        auto source_node = resolver_(source.host);
        if (!source_node.is_ok()) {
          count_replication_failure();
          done(source_node.status());
          return;
        }
        if (options.on_source) options.on_source(source.host);

        PublishedFile file;
        file.lfn = lfn;
        file.local_path = local_path;
        file.size = info->attributes.size;
        file.content_seed = info->attributes.content_seed;
        file.crc = info->attributes.crc;
        file.modify_time = info->attributes.modify_time;
        file.extra = info->attributes.extra;
        if (const auto it = file.extra.find("filetype");
            it != file.extra.end()) {
          file.file_type = it->second;
        }

        FileTypePlugin& plugin = plugins_.plugin_for(file.file_type);
        const std::uint32_t expected_crc = file.crc;
        const net::NodeId src_node = *source_node;

        plugin.pre_process(site_, file, [this, alive, lfn, file, source,
                                         src_node, expected_crc, span,
                                         done](Status pre) {
          if (alive.expired()) return;
          if (!pre.is_ok()) {
            count_replication_failure();
            done(pre);
            return;
          }
          // Ask the source GDMP server to stage the file to its disk pool
          // ("the GDMP server then informs the remote site when the file is
          // present locally on disk", §4.4).
          rpc::Writer w;
          w.str(source.path);
          peer(src_node, config_.server_port)
              .call(kMethodStage, w.take(),
                    [this, alive, lfn, file, source, src_node, expected_crc,
                     span, done](Status staged, std::vector<std::uint8_t>) {
                      if (alive.expired()) return;
                      if (!staged.is_ok()) {
                        count_replication_failure();
                        done(staged);
                        return;
                      }
                      gridftp::TransferOptions options =
                          data_mover_.defaults();
                      options.expected_crc = expected_crc;
                      options.channel = &transfer_channel_;
                      options.peer = source.host;
                      options.parent_span = span;
                      data_mover_.pull(
                          src_node, config_.gridftp_port, source.path,
                          file.local_path, std::move(options),
                          [this, alive, lfn, file, source, src_node,
                           span, done](Result<gridftp::TransferResult> r) {
                            if (alive.expired()) return;
                            finish_replication(lfn, file, source, src_node,
                                               span, std::move(r), done);
                          });
                    });
        });
      });
}

void GdmpServer::finish_replication(const LogicalFileName& lfn,
                                    const PublishedFile& file,
                                    const Uri& source,
                                    net::NodeId source_node,
                                    obs::SpanId span,
                                    Result<gridftp::TransferResult> transfer,
                                    ReplicateDone done) {
  // Always release the pin we asked the source to take.
  rpc::Writer w;
  w.str(source.path);
  peer(source_node, config_.server_port)
      .call("gdmp.release", w.take(),
            [](Status, std::vector<std::uint8_t>) {});

  if (!transfer.is_ok()) {
    count_replication_failure();
    done(std::move(transfer));
    return;
  }
  std::weak_ptr<bool> alive = alive_;
  FileTypePlugin& plugin = plugins_.plugin_for(file.file_type);
  plugin.post_process(
      site_, file, file.local_path,
      [this, alive, lfn, file, span, transfer = std::move(transfer),
       done](Status post) mutable {
        if (alive.expired()) return;
        if (!post.is_ok()) {
          count_replication_failure();
          (void)site_.pool.remove(file.local_path);
          done(post);
          return;
        }
        auto& tracer = obs::Tracer::global();
        obs::SpanId catalog_span;
        if (tracer.enabled()) {
          catalog_span = tracer.begin(
              "gdmp.catalog_update",
              span.valid() ? span : obs::Tracer::root_parent());
          tracer.attr(catalog_span, "lfn", lfn);
        }
        catalog_client_.add_replica(
            config_.collection, lfn, site_.site_name, url_prefix(),
            [this, alive, lfn, file, catalog_span,
             transfer = std::move(transfer),
             done](Status registered) mutable {
              if (alive.expired()) return;
              if (catalog_span.valid()) {
                auto& t = obs::Tracer::global();
                t.attr(catalog_span, "status",
                       registered.is_ok() ? "ok" : registered.to_string());
                t.end(catalog_span);
              }
              // A stale replica record (e.g. re-replication after a local
              // disk incident the catalog never heard about) is fine: the
              // catalog already says what we want it to say.
              if (!registered.is_ok() &&
                  registered.code() != ErrorCode::kAlreadyExists) {
                count_replication_failure();
                done(registered);
                return;
              }
              export_catalog_[lfn] = file;
              ++stats_.files_replicated;
              if (config_.auto_archive_published) {
                storage_manager_.archive(file.local_path, [](Status) {});
              }
              done(std::move(transfer));
            });
      });
}

void GdmpServer::set_metrics(const obs::MetricsScope& scope) {
  scope.expose("files_published", &stats_.files_published);
  scope.expose("notifications_sent", &stats_.notifications_sent);
  scope.expose("notifications_received", &stats_.notifications_received);
  scope.expose("notifications_queued", &stats_.notifications_queued);
  scope.expose("files_replicated", &stats_.files_replicated);
  scope.expose("replication_failures", &stats_.replication_failures);
  scope.expose("stage_requests_served", &stats_.stage_requests_served);
  rpc_.set_metrics(scope.scope("rpc"));
  catalog_client_.set_metrics(scope.scope("catalog_cache"));
}

void GdmpServer::fetch_remote_catalog(
    net::NodeId remote, net::Port remote_port,
    std::function<void(Result<std::vector<PublishedFile>>)> done) {
  peer(remote, remote_port)
      .call(kMethodGetCatalog, {},
            [done = std::move(done)](Status status,
                                     std::vector<std::uint8_t> reply) {
              if (!status.is_ok()) {
                done(status);
                return;
              }
              rpc::Reader r(reply);
              const std::uint32_t n = r.u32();
              std::vector<PublishedFile> out;
              out.reserve(std::min<std::size_t>(
                  n, r.remaining() / kPublishedFileMinWireBytes));
              for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
                out.push_back(decode_published_file(r));
              }
              if (!r.ok()) {
                done(make_error(ErrorCode::kInternal,
                                "malformed gdmp.get_catalog reply"));
                return;
              }
              done(std::move(out));
            });
}

// --------------------------------------------------------------- handlers

void GdmpServer::handle_subscribe(const security::GsiContext& peer_ctx,
                                  std::span<const std::uint8_t> params,
                                  Respond respond) {
  if (Status auth = authorize(security::Operation::kSubscribe, peer_ctx);
      !auth.is_ok()) {
    respond(auth, {});
    return;
  }
  rpc::Reader r(params);
  SubscriberInfo info;
  info.site = r.str();
  info.node = static_cast<net::NodeId>(r.u32());
  info.port = r.u16();
  if (!r.ok() || info.site.empty()) {
    respond(make_error(ErrorCode::kInvalidArgument, "malformed subscribe"),
            {});
    return;
  }
  subscribers_.erase(info);  // idempotent re-subscribe updates endpoint
  subscribers_.insert(info);
  respond(Status::ok(), {});
}

void GdmpServer::handle_unsubscribe(const security::GsiContext& peer_ctx,
                                    std::span<const std::uint8_t> params,
                                    Respond respond) {
  if (Status auth = authorize(security::Operation::kSubscribe, peer_ctx);
      !auth.is_ok()) {
    respond(auth, {});
    return;
  }
  rpc::Reader r(params);
  SubscriberInfo info;
  info.site = r.str();
  if (!r.ok() || info.site.empty()) {
    respond(make_error(ErrorCode::kInvalidArgument, "malformed unsubscribe"),
            {});
    return;
  }
  subscribers_.erase(info);
  respond(Status::ok(), {});
}

void GdmpServer::handle_notify(const security::GsiContext& peer_ctx,
                               std::span<const std::uint8_t> params,
                               Respond respond) {
  if (Status auth = authorize(security::Operation::kPublish, peer_ctx);
      !auth.is_ok()) {
    respond(auth, {});
    return;
  }
  rpc::Reader r(params);
  const std::string from_site = r.str();
  const std::uint32_t n = r.u32();
  std::vector<PublishedFile> files;
  files.reserve(
      std::min<std::size_t>(n, r.remaining() / kPublishedFileMinWireBytes));
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    files.push_back(decode_published_file(r));
  }
  if (!r.ok()) {
    respond(make_error(ErrorCode::kInvalidArgument, "malformed notify"), {});
    return;
  }
  respond(Status::ok(), {});  // ack immediately; replication is async
  for (const PublishedFile& file : files) {
    ++stats_.notifications_received;
    if (on_notification) on_notification(from_site, file);
    // The site's scheduler owns the consumer path: it queues the file
    // behind its concurrency caps and retries it on failure.
    if (config_.auto_replicate_on_notify && enqueue_replication_) {
      ++stats_.notifications_queued;
      enqueue_replication_(file);
    }
  }
}

void GdmpServer::handle_get_catalog(const security::GsiContext& peer_ctx,
                                    Respond respond) {
  if (Status auth = authorize(security::Operation::kGetCatalog, peer_ctx);
      !auth.is_ok()) {
    respond(auth, {});
    return;
  }
  rpc::Writer w;
  w.u32(static_cast<std::uint32_t>(export_catalog_.size()));
  for (const auto& [lfn, file] : export_catalog_) {
    encode_published_file(w, file);
  }
  respond(Status::ok(), w.take());
}

void GdmpServer::handle_stage(const security::GsiContext& peer_ctx,
                              std::span<const std::uint8_t> params,
                              Respond respond) {
  if (Status auth = authorize(security::Operation::kStageRequest, peer_ctx);
      !auth.is_ok()) {
    respond(auth, {});
    return;
  }
  rpc::Reader r(params);
  const std::string path = r.str();
  if (!r.ok()) {
    respond(make_error(ErrorCode::kInvalidArgument, "malformed stage"), {});
    return;
  }
  ++stats_.stage_requests_served;
  storage_manager_.ensure_on_disk(
      path, [respond = std::move(respond)](Result<storage::FileInfo> result) {
        respond(result.is_ok() ? Status::ok() : result.status(), {});
      });
}

void GdmpServer::handle_release(const security::GsiContext& peer_ctx,
                                std::span<const std::uint8_t> params,
                                Respond respond) {
  // Releasing a staged file's pin is the second half of a stage request.
  if (Status auth = authorize(security::Operation::kStageRequest, peer_ctx);
      !auth.is_ok()) {
    respond(auth, {});
    return;
  }
  rpc::Reader r(params);
  const std::string path = r.str();
  if (!r.ok()) {
    respond(make_error(ErrorCode::kInvalidArgument, "malformed release"), {});
    return;
  }
  storage_manager_.unpin(path);
  respond(Status::ok(), {});
}

void GdmpServer::handle_delete(const security::GsiContext& peer_ctx,
                               std::span<const std::uint8_t> params,
                               Respond respond) {
  if (Status auth = authorize(security::Operation::kTransferFile, peer_ctx);
      !auth.is_ok()) {
    respond(auth, {});
    return;
  }
  rpc::Reader r(params);
  const LogicalFileName lfn = r.str();
  if (!r.ok() || lfn.empty()) {
    respond(make_error(ErrorCode::kInvalidArgument, "malformed delete_file"),
            {});
    return;
  }
  const std::string local_path = local_path_for(lfn);
  if (site_.federation != nullptr &&
      site_.federation->is_attached(local_path)) {
    (void)site_.federation->detach(local_path);
  }
  const Status removed = site_.pool.remove(local_path);
  export_catalog_.erase(lfn);
  std::weak_ptr<bool> alive = alive_;
  catalog_client_.remove_replica(
      config_.collection, lfn, site_.site_name,
      [removed, respond = std::move(respond)](Status catalog_status) {
        respond(removed.is_ok() ? catalog_status : removed, {});
      });
}

}  // namespace gdmp::core
