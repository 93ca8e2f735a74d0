#include "gdmp/catalog_service.h"

#include <algorithm>

namespace gdmp::core {
namespace {

void encode_replica_info(rpc::Writer& w, const ReplicaInfo& info) {
  w.str(info.lfn);
  w.i64(info.attributes.size);
  w.i64(info.attributes.modify_time);
  w.u64(info.attributes.content_seed);
  w.u32(info.attributes.crc);
  w.u32(static_cast<std::uint32_t>(info.attributes.extra.size()));
  for (const auto& [key, value] : info.attributes.extra) {
    w.str(key);
    w.str(value);
  }
  w.u32(static_cast<std::uint32_t>(info.locations.size()));
  for (const auto& location : info.locations) w.str(location);
}

ReplicaInfo decode_replica_info(rpc::Reader& r) {
  ReplicaInfo info;
  info.lfn = r.str();
  info.attributes.size = r.i64();
  info.attributes.modify_time = r.i64();
  info.attributes.content_seed = r.u64();
  info.attributes.crc = r.u32();
  const std::uint32_t extras = r.u32();
  for (std::uint32_t i = 0; i < extras && r.ok(); ++i) {
    std::string key = r.str();
    info.attributes.extra[std::move(key)] = r.str();
  }
  const std::uint32_t locations = r.u32();
  for (std::uint32_t i = 0; i < locations && r.ok(); ++i) {
    info.locations.push_back(r.str());
  }
  return info;
}

catalog::LogicalFileAttributes attributes_of(const PublishedFile& file) {
  catalog::LogicalFileAttributes attrs;
  attrs.size = file.size;
  attrs.modify_time = file.modify_time;
  attrs.content_seed = file.content_seed;
  attrs.crc = file.crc;
  attrs.extra = file.extra;
  attrs.extra["filetype"] = file.file_type;
  return attrs;
}

// Per-item status in a batch reply: error code byte + message string.
void encode_status(rpc::Writer& w, const Status& status) {
  w.u8(static_cast<std::uint8_t>(status.code()));
  w.str(status.message());
}

Status decode_status(rpc::Reader& r) {
  const auto code = static_cast<ErrorCode>(r.u8());
  std::string message = r.str();
  if (code == ErrorCode::kOk) return Status::ok();
  return make_error(code, std::move(message));
}

}  // namespace

CatalogServer::CatalogServer(net::TcpStack& stack,
                             const security::CertificateAuthority& ca,
                             security::Certificate credential,
                             CatalogServerConfig config)
    : stack_(stack),
      rpc_(stack, config.port, ca, std::move(credential)),
      catalog_("gdmp") {
  const auto bind = [this](auto method) {
    return [this, method](const security::GsiContext&, std::uint64_t,
                          std::span<const std::uint8_t> params,
                          rpc::RpcServer::Respond respond) {
      ++operations_;
      (this->*method)(params, std::move(respond));
    };
  };
  rpc_.register_method("rc.publish_batch",
                       bind(&CatalogServer::handle_publish_batch));
  rpc_.register_method("rc.add_replica",
                       bind(&CatalogServer::handle_add_replica));
  rpc_.register_method("rc.remove_replica",
                       bind(&CatalogServer::handle_remove_replica));
  rpc_.register_method("rc.lookup_batch",
                       bind(&CatalogServer::handle_lookup_batch));
  rpc_.register_method("rc.search", bind(&CatalogServer::handle_search));
}

Status CatalogServer::start() { return rpc_.start(); }
void CatalogServer::stop() { rpc_.stop(); }

void CatalogServer::with_latency(std::size_t results,
                                 sim::Simulator::Callback fn) {
  // Base LDAP operation latency plus a cost per returned entry.
  constexpr SimDuration kOpLatency = 2 * kMillisecond;
  constexpr SimDuration kPerResult = 20 * kMicrosecond;
  const SimDuration delay =
      kOpLatency + static_cast<SimDuration>(results) * kPerResult;
  stack_.simulator().schedule(delay, std::move(fn));
}

Status CatalogServer::publish_one(const std::string& collection,
                                  const PublishedFile& file,
                                  const std::string& location_name,
                                  const std::string& url_prefix) {
  // Auto-create the collection and location (the wrapper's "automatic
  // creation of required entries if they do not already exist").
  if (!catalog_.collection_exists(collection)) {
    (void)catalog_.create_collection(collection);
  }
  const Status status = catalog_.register_logical_file(collection, file.lfn,
                                                       attributes_of(file));
  if (!status.is_ok()) return status;  // includes global-uniqueness violations
  if (auto locations = catalog_.list_locations(collection);
      !locations.is_ok() ||
      std::find(locations->begin(), locations->end(), location_name) ==
          locations->end()) {
    (void)catalog_.create_location(collection, location_name, url_prefix);
  }
  return catalog_.add_replica(collection, location_name, file.lfn);
}

void CatalogServer::handle_publish_batch(std::span<const std::uint8_t> params,
                                         Respond respond) {
  rpc::Reader r(params);
  std::string collection = r.str();
  std::string location_name = r.str();
  std::string url_prefix = r.str();
  const std::uint32_t n = r.u32();
  std::vector<PublishedFile> files;
  if (r.ok()) files.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    files.push_back(decode_published_file(r));
  }
  if (!r.ok() || collection.empty() || location_name.empty()) {
    respond(
        make_error(ErrorCode::kInvalidArgument, "malformed rc.publish_batch"),
        {});
    return;
  }
  with_latency(files.size(),
               [this, collection = std::move(collection),
                location_name = std::move(location_name),
                url_prefix = std::move(url_prefix), files = std::move(files),
                respond = std::move(respond)] {
                 rpc::Writer w;
                 w.u32(static_cast<std::uint32_t>(files.size()));
                 for (const PublishedFile& file : files) {
                   const Status status =
                       file.lfn.empty()
                           ? make_error(ErrorCode::kInvalidArgument,
                                        "empty lfn in batch")
                           : publish_one(collection, file, location_name,
                                         url_prefix);
                   encode_status(w, status);
                 }
                 respond(Status::ok(), w.take());
               });
}

void CatalogServer::handle_add_replica(std::span<const std::uint8_t> params,
                                       Respond respond) {
  rpc::Reader r(params);
  const std::string collection = r.str();
  const std::string lfn = r.str();
  const std::string location_name = r.str();
  const std::string url_prefix = r.str();
  if (!r.ok()) {
    respond(make_error(ErrorCode::kInvalidArgument, "malformed add_replica"),
            {});
    return;
  }
  with_latency(1, [this, collection, lfn, location_name, url_prefix,
                   respond = std::move(respond)] {
    if (auto locations = catalog_.list_locations(collection);
        !locations.is_ok() ||
        std::find(locations->begin(), locations->end(), location_name) ==
            locations->end()) {
      (void)catalog_.create_location(collection, location_name, url_prefix);
    }
    respond(catalog_.add_replica(collection, location_name, lfn), {});
  });
}

void CatalogServer::handle_remove_replica(
    std::span<const std::uint8_t> params, Respond respond) {
  rpc::Reader r(params);
  const std::string collection = r.str();
  const std::string lfn = r.str();
  const std::string location_name = r.str();
  if (!r.ok()) {
    respond(
        make_error(ErrorCode::kInvalidArgument, "malformed remove_replica"),
        {});
    return;
  }
  with_latency(1, [this, collection, lfn, location_name,
                   respond = std::move(respond)] {
    respond(catalog_.remove_replica(collection, location_name, lfn), {});
  });
}

void CatalogServer::handle_lookup_batch(std::span<const std::uint8_t> params,
                                        Respond respond) {
  rpc::Reader r(params);
  const std::string collection = r.str();
  const std::uint32_t n = r.u32();
  std::vector<std::pair<std::string, std::uint64_t>> items;
  if (r.ok()) items.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    std::string lfn = r.str();
    const std::uint64_t cached_stamp = r.u64();
    items.emplace_back(std::move(lfn), cached_stamp);
  }
  if (!r.ok()) {
    respond(
        make_error(ErrorCode::kInvalidArgument, "malformed rc.lookup_batch"),
        {});
    return;
  }
  // Reply items align with the request. A stamp match answers "unchanged"
  // (one byte) without materialising anything — that is the whole point of
  // version-stamp revalidation — so only full results pay the per-result
  // latency.
  rpc::Writer w;
  w.u32(static_cast<std::uint32_t>(items.size()));
  std::size_t full_results = 0;
  for (const auto& [lfn, cached_stamp] : items) {
    const auto stamp = catalog_.entry_stamp(collection, lfn);
    if (!stamp.is_ok()) {
      w.u8(2);
      encode_status(w, stamp.status());
      continue;
    }
    if (cached_stamp != 0 && *stamp == cached_stamp) {
      w.u8(0);  // unchanged: client renews its cached entry
      continue;
    }
    auto attrs = catalog_.attributes(collection, lfn);
    if (!attrs.is_ok()) {
      w.u8(2);
      encode_status(w, attrs.status());
      continue;
    }
    auto versioned = catalog_.lookup_versioned(collection, lfn);
    if (!versioned.is_ok()) {
      w.u8(2);
      encode_status(w, versioned.status());
      continue;
    }
    ReplicaInfo info;
    info.lfn = lfn;
    info.attributes = std::move(*attrs);
    info.locations = std::move(versioned->locations);
    w.u8(1);
    w.u64(versioned->stamp);
    encode_replica_info(w, info);
    ++full_results;
  }
  with_latency(full_results, [payload = w.take(),
                              respond = std::move(respond)]() mutable {
    respond(Status::ok(), std::move(payload));
  });
}

void CatalogServer::handle_search(std::span<const std::uint8_t> params,
                                  Respond respond) {
  rpc::Reader r(params);
  const std::string collection = r.str();
  const std::string filter_text = r.str();
  if (!r.ok()) {
    respond(make_error(ErrorCode::kInvalidArgument, "malformed search"), {});
    return;
  }
  auto filter = catalog::Filter::parse(filter_text);
  if (!filter.is_ok()) {
    respond(filter.status(), {});
    return;
  }
  auto matches = catalog_.search(collection, *filter);
  if (!matches.is_ok()) {
    respond(matches.status(), {});
    return;
  }
  with_latency(
      matches->size(),
      [this, collection, matches = std::move(matches.value()),
       respond = std::move(respond)]() mutable {
        rpc::Writer w;
        w.u32(static_cast<std::uint32_t>(matches.size()));
        for (const auto& [lfn, attrs] : matches) {
          ReplicaInfo info;
          info.lfn = lfn;
          info.attributes = attrs;
          if (auto locations = catalog_.lookup(collection, lfn);
              locations.is_ok()) {
            info.locations = std::move(*locations);
          }
          encode_replica_info(w, info);
        }
        respond(Status::ok(), w.take());
      });
}

// ----------------------------------------------------------------- client

CatalogClient::CatalogClient(net::TcpStack& stack, net::NodeId catalog_host,
                             net::Port catalog_port,
                             const security::CertificateAuthority& ca,
                             security::Certificate credential,
                             CatalogClientConfig config)
    : config_(config),
      sim_(stack.simulator()),
      lookup_cache_({config.cache_ttl, config.cache_capacity}),
      search_cache_({config.cache_ttl, config.cache_capacity}),
      rpc_(stack, catalog_host, catalog_port, ca, std::move(credential)) {}

CatalogClient::~CatalogClient() {
  // Callbacks aborted by ~RpcClient observe the flag and skip cache upkeep
  // (the caches themselves outlive rpc_; see the member order note).
  *alive_ = false;
}

void CatalogClient::set_metrics(const obs::MetricsScope& scope) {
  lookup_cache_.set_metrics(scope.scope("lookup"));
  search_cache_.set_metrics(scope.scope("search"));
}

void CatalogClient::invalidate_local(const std::string& collection,
                                     const LogicalFileName& lfn) {
  lookup_cache_.invalidate(collection, lfn);
  // Any cached search of the collection may now include/exclude this file.
  search_cache_.invalidate_collection(collection);
}

void CatalogClient::publish_batch(
    const std::string& collection, const std::vector<PublishedFile>& files,
    const std::string& location_name, const std::string& url_prefix,
    std::function<void(Status, std::vector<Status>)> done) {
  if (collection.empty() || location_name.empty()) {
    done(make_error(ErrorCode::kInvalidArgument,
                    "publish_batch requires collection and location"),
         std::vector<Status>(files.size(),
                             make_error(ErrorCode::kInvalidArgument,
                                        "batch rejected")));
    return;
  }
  if (files.empty()) {
    done(Status::ok(), {});
    return;
  }
  auto shared = std::make_shared<std::vector<PublishedFile>>(files);
  auto statuses = std::make_shared<std::vector<Status>>();
  statuses->reserve(files.size());
  publish_chunk(std::move(shared), std::move(statuses), collection,
                location_name, url_prefix, 0, std::move(done));
}

void CatalogClient::publish_chunk(
    std::shared_ptr<std::vector<PublishedFile>> files,
    std::shared_ptr<std::vector<Status>> statuses, std::string collection,
    std::string location_name, std::string url_prefix, std::size_t offset,
    std::function<void(Status, std::vector<Status>)> done) {
  const std::size_t batch = std::max<std::size_t>(config_.max_batch, 1);
  const std::size_t end = std::min(files->size(), offset + batch);
  rpc::Writer w;
  w.str(collection);
  w.str(location_name);
  w.str(url_prefix);
  w.u32(static_cast<std::uint32_t>(end - offset));
  for (std::size_t i = offset; i < end; ++i) {
    encode_published_file(w, (*files)[i]);
  }
  std::weak_ptr<bool> alive = alive_;
  rpc_.call(
      "rc.publish_batch", w.take(),
      [this, alive, files = std::move(files), statuses = std::move(statuses),
       collection = std::move(collection),
       location_name = std::move(location_name),
       url_prefix = std::move(url_prefix), end,
       done = std::move(done)](Status status,
                               std::vector<std::uint8_t> reply) mutable {
        const auto live = alive.lock();
        const bool client_alive = live != nullptr && *live;
        Status outcome = status;
        bool any_ok = false;
        if (outcome.is_ok()) {
          rpc::Reader r(reply);
          const std::uint32_t n = r.u32();
          for (std::uint32_t i = 0;
               i < n && r.ok() && statuses->size() < files->size(); ++i) {
            Status item = decode_status(r);
            if (!r.ok()) break;
            any_ok = any_ok || item.is_ok();
            statuses->push_back(std::move(item));
          }
          if (!r.ok() || statuses->size() < end) {
            outcome = make_error(ErrorCode::kInternal,
                                 "malformed rc.publish_batch reply");
          }
        }
        if (client_alive && any_ok) {
          // Newly published files have no cached lookups yet, but cached
          // searches of the collection are now stale.
          search_cache_.invalidate_collection(collection);
        }
        if (outcome.is_ok() && end < files->size()) {
          if (client_alive) {
            publish_chunk(std::move(files), std::move(statuses),
                          std::move(collection), std::move(location_name),
                          std::move(url_prefix), end, std::move(done));
            return;
          }
          outcome = make_error(ErrorCode::kAborted,
                               "catalog client destroyed mid-batch");
        }
        // On error, every file not yet answered fails with the outcome.
        while (statuses->size() < files->size()) statuses->push_back(outcome);
        done(outcome, std::move(*statuses));
      });
}

void CatalogClient::add_replica(const std::string& collection,
                                const LogicalFileName& lfn,
                                const std::string& location_name,
                                const std::string& url_prefix,
                                std::function<void(Status)> done) {
  rpc::Writer w;
  w.str(collection);
  w.str(lfn);
  w.str(location_name);
  w.str(url_prefix);
  std::weak_ptr<bool> alive = alive_;
  rpc_.call("rc.add_replica", w.take(),
            [this, alive, collection, lfn, done = std::move(done)](
                Status status, std::vector<std::uint8_t>) {
              const auto live = alive.lock();
              if (status.is_ok() && live != nullptr && *live) {
                invalidate_local(collection, lfn);
              }
              done(status);
            });
}

void CatalogClient::remove_replica(const std::string& collection,
                                   const LogicalFileName& lfn,
                                   const std::string& location_name,
                                   std::function<void(Status)> done) {
  rpc::Writer w;
  w.str(collection);
  w.str(lfn);
  w.str(location_name);
  std::weak_ptr<bool> alive = alive_;
  rpc_.call("rc.remove_replica", w.take(),
            [this, alive, collection, lfn, done = std::move(done)](
                Status status, std::vector<std::uint8_t>) {
              const auto live = alive.lock();
              if (status.is_ok() && live != nullptr && *live) {
                invalidate_local(collection, lfn);
              }
              done(status);
            });
}

void CatalogClient::lookup(const std::string& collection,
                           const LogicalFileName& lfn,
                           std::function<void(Result<ReplicaInfo>)> done) {
  lookup_batch(collection, {lfn},
               [done = std::move(done)](
                   Status status, std::vector<Result<ReplicaInfo>> results) {
                 if (!results.empty()) {
                   done(std::move(results.front()));
                 } else if (!status.is_ok()) {
                   done(status);
                 } else {
                   done(make_error(ErrorCode::kInternal,
                                   "empty rc.lookup_batch reply"));
                 }
               });
}

void CatalogClient::lookup_batch(
    const std::string& collection, const std::vector<LogicalFileName>& lfns,
    std::function<void(Status, std::vector<Result<ReplicaInfo>>)> done) {
  // One outstanding revalidation/fetch, aligned with `lfns` by index.
  struct Pending {
    std::size_t index;
    LogicalFileName lfn;
    std::uint64_t stamp;  // 0 = no cached copy: full fetch
  };
  const SimTime now = sim_.now();
  auto results = std::make_shared<std::vector<Result<ReplicaInfo>>>();
  results->reserve(lfns.size());
  std::vector<Pending> fetch;
  for (std::size_t i = 0; i < lfns.size(); ++i) {
    const ReplicaInfo* cached = nullptr;
    std::uint64_t stamp = 0;
    switch (lookup_cache_.probe(collection, lfns[i], now, &cached, &stamp)) {
      case catalog::CacheProbe::kFresh:
        results->emplace_back(*cached);
        break;
      case catalog::CacheProbe::kStale:
        // Carry the stale value: if the server answers "unchanged" it is
        // served as-is and the entry's TTL is renewed.
        results->emplace_back(*cached);
        fetch.push_back({i, lfns[i], stamp});
        break;
      case catalog::CacheProbe::kMiss:
        results->push_back(
            make_error(ErrorCode::kUnavailable, "catalog fetch pending"));
        fetch.push_back({i, lfns[i], 0});
        break;
    }
  }
  if (fetch.empty()) {
    done(Status::ok(), std::move(*results));  // everything cached fresh
    return;
  }
  // Chunk over max_batch; chunks pipeline on the one connection and the
  // caller completes when the last reply lands.
  const std::size_t batch = std::max<std::size_t>(config_.max_batch, 1);
  const std::size_t chunks = (fetch.size() + batch - 1) / batch;
  auto done_shared = std::make_shared<
      std::function<void(Status, std::vector<Result<ReplicaInfo>>)>>(
      std::move(done));
  auto first_error = std::make_shared<Status>(Status::ok());
  auto remaining = std::make_shared<std::size_t>(chunks);
  std::weak_ptr<bool> alive = alive_;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto begin = fetch.begin() + static_cast<std::ptrdiff_t>(c * batch);
    const auto stop =
        fetch.begin() +
        static_cast<std::ptrdiff_t>(std::min((c + 1) * batch, fetch.size()));
    std::vector<Pending> chunk(begin, stop);
    rpc::Writer w;
    w.str(collection);
    w.u32(static_cast<std::uint32_t>(chunk.size()));
    for (const Pending& p : chunk) {
      w.str(p.lfn);
      w.u64(p.stamp);
    }
    rpc_.call(
        "rc.lookup_batch", w.take(),
        [this, alive, collection, chunk = std::move(chunk), results,
         first_error, remaining, done_shared](
            Status status, std::vector<std::uint8_t> reply) {
          const auto live = alive.lock();
          const bool client_alive = live != nullptr && *live;
          if (!status.is_ok()) {
            if (first_error->is_ok()) *first_error = status;
            for (const Pending& p : chunk) (*results)[p.index] = status;
          } else {
            rpc::Reader r(reply);
            const std::uint32_t n = r.u32();
            std::size_t i = 0;
            for (; i < chunk.size() && i < n && r.ok(); ++i) {
              const Pending& p = chunk[i];
              const std::uint8_t tag = r.u8();
              if (tag == 0) {
                // Unchanged: the value copied at probe time stands; renew
                // the cache entry's TTL (it may have been evicted since).
                if (client_alive && p.stamp != 0) {
                  (void)lookup_cache_.refresh(collection, p.lfn, sim_.now());
                }
              } else if (tag == 1) {
                const std::uint64_t stamp = r.u64();
                ReplicaInfo info = decode_replica_info(r);
                if (!r.ok()) break;
                (*results)[p.index] = info;
                if (client_alive) {
                  if (p.stamp != 0) lookup_cache_.note_changed();
                  lookup_cache_.insert(collection, p.lfn, std::move(info),
                                       stamp, sim_.now());
                }
              } else {
                Status item = decode_status(r);
                if (!r.ok()) break;
                if (item.is_ok()) {
                  item = make_error(ErrorCode::kInternal,
                                    "error item with OK code");
                }
                (*results)[p.index] = item;
                // The server no longer knows the file; drop the stale copy.
                if (client_alive && p.stamp != 0) {
                  lookup_cache_.invalidate(collection, p.lfn);
                }
              }
            }
            if (!r.ok() || i < chunk.size()) {
              const Status bad = make_error(
                  ErrorCode::kInternal, "malformed rc.lookup_batch reply");
              if (first_error->is_ok()) *first_error = bad;
              for (; i < chunk.size(); ++i) {
                (*results)[chunk[i].index] = bad;
              }
            }
          }
          if (--*remaining == 0) {
            auto fn = std::move(*done_shared);
            fn(*first_error, std::move(*results));
          }
        });
  }
}

const ReplicaInfo* CatalogClient::peek_fresh(const std::string& collection,
                                             const LogicalFileName& lfn,
                                             std::uint64_t* stamp_out,
                                             SimTime* fresh_until) {
  const ReplicaInfo* cached = nullptr;
  return lookup_cache_.peek(collection, lfn, sim_.now(), &cached, stamp_out,
                            fresh_until) == catalog::CacheProbe::kFresh
             ? cached
             : nullptr;
}

void CatalogClient::lookup_batch_refs(
    const std::string& collection, const std::vector<LogicalFileName>& lfns,
    std::function<void(Status, std::vector<Result<const ReplicaInfo*>>)>
        done) {
  // Fast path: everything cached fresh. peek() leaves the stats alone so
  // the all-fresh walk can account its hits in one step — and so a partial
  // walk costs nothing before the probes of the lookup_batch fallback.
  const SimTime now = sim_.now();
  std::vector<Result<const ReplicaInfo*>> refs;
  refs.reserve(lfns.size());
  bool all_fresh = true;
  for (const LogicalFileName& lfn : lfns) {
    const ReplicaInfo* cached = nullptr;
    std::uint64_t stamp = 0;
    if (lookup_cache_.peek(collection, lfn, now, &cached, &stamp) !=
        catalog::CacheProbe::kFresh) {
      all_fresh = false;
      break;
    }
    refs.push_back(cached);
  }
  if (all_fresh) {
    lookup_cache_.note_hits(static_cast<std::int64_t>(lfns.size()));
    done(Status::ok(), std::move(refs));
    return;
  }
  lookup_batch(
      collection, lfns,
      [done = std::move(done)](Status status,
                               std::vector<Result<ReplicaInfo>> values) {
        // `values` stays alive on this frame until done() returns, so the
        // borrowed pointers honour the same lifetime contract as the
        // cache-served fast path.
        std::vector<Result<const ReplicaInfo*>> borrowed;
        borrowed.reserve(values.size());
        for (const Result<ReplicaInfo>& value : values) {
          if (value.is_ok()) {
            borrowed.emplace_back(&*value);
          } else {
            borrowed.emplace_back(value.status());
          }
        }
        done(status, std::move(borrowed));
      });
}

void CatalogClient::search(
    const std::string& collection, const std::string& filter,
    std::function<void(Result<std::vector<ReplicaInfo>>)> done) {
  const std::vector<ReplicaInfo>* cached = nullptr;
  std::uint64_t stamp = 0;
  if (search_cache_.probe(collection, filter, sim_.now(), &cached, &stamp) ==
      catalog::CacheProbe::kFresh) {
    done(*cached);
    return;
  }
  rpc::Writer w;
  w.str(collection);
  w.str(filter);
  std::weak_ptr<bool> alive = alive_;
  rpc_.call("rc.search", w.take(),
            [this, alive, collection, filter, done = std::move(done)](
                Status status, std::vector<std::uint8_t> reply) {
              if (!status.is_ok()) {
                done(status);
                return;
              }
              rpc::Reader r(reply);
              const std::uint32_t n = r.u32();
              std::vector<ReplicaInfo> out;
              out.reserve(n);
              for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
                out.push_back(decode_replica_info(r));
              }
              const auto live = alive.lock();
              if (live != nullptr && *live) {
                // Search results carry no single stamp; they age out by TTL
                // or die with the next local mutation of the collection.
                search_cache_.insert(collection, filter, out, 0, sim_.now());
              }
              done(std::move(out));
            });
}

}  // namespace gdmp::core
