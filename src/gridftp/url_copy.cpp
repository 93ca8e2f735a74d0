#include "gridftp/url_copy.h"

#include <algorithm>

#include "common/crc32.h"

namespace gdmp::gridftp {

Result<UrlCopy::Endpoint> UrlCopy::resolve(const std::string& url) const {
  auto uri = parse_uri(url);
  if (!uri.is_ok()) return uri.status();
  if (uri->scheme != "gsiftp") {
    return make_error(ErrorCode::kInvalidArgument,
                      "only gsiftp:// URLs are supported: " + url);
  }
  const net::Node* node = network_.find(uri->host);
  if (node == nullptr) {
    return make_error(ErrorCode::kNotFound, "unknown host: " + uri->host);
  }
  Endpoint endpoint;
  endpoint.node = node->id();
  endpoint.port = uri->port != 0 ? static_cast<net::Port>(uri->port)
                                 : kControlPort;
  endpoint.path = uri->path;
  return endpoint;
}

void UrlCopy::copy_to_local(const std::string& source_url,
                            const std::string& local_path,
                            storage::DiskPool& pool,
                            const TransferOptions& options, Done done) {
  auto endpoint = resolve(source_url);
  if (!endpoint.is_ok()) {
    done(endpoint.status());
    return;
  }
  client_.get(endpoint->node, endpoint->port, endpoint->path, local_path,
              &pool, options, std::move(done));
}

void UrlCopy::copy_from_local(storage::DiskPool& pool,
                              const std::string& local_path,
                              const std::string& dest_url,
                              const TransferOptions& options, Done done) {
  auto endpoint = resolve(dest_url);
  if (!endpoint.is_ok()) {
    done(endpoint.status());
    return;
  }
  client_.put(endpoint->node, endpoint->port, pool, local_path,
              endpoint->path, options, std::move(done));
}

void UrlCopy::copy_remote(const std::string& source_url,
                          const std::string& dest_url,
                          const TransferOptions& options, Done done) {
  auto source = resolve(source_url);
  if (!source.is_ok()) {
    done(source.status());
    return;
  }
  auto dest = resolve(dest_url);
  if (!dest.is_ok()) {
    done(dest.status());
    return;
  }
  client_.third_party(source->node, source->port, source->path, dest->node,
                      dest->port, dest->path, options, std::move(done));
}

void UrlCopy::striped_get(const std::vector<std::string>& source_urls,
                          const std::string& local_path,
                          storage::DiskPool* pool,
                          const TransferOptions& options, Done done) {
  if (source_urls.empty()) {
    done(make_error(ErrorCode::kInvalidArgument, "no sources"));
    return;
  }
  std::vector<Endpoint> endpoints;
  for (const std::string& url : source_urls) {
    auto endpoint = resolve(url);
    if (!endpoint.is_ok()) {
      done(endpoint.status());
      return;
    }
    endpoints.push_back(std::move(*endpoint));
  }

  struct StripeJob {
    std::vector<Endpoint> endpoints;
    std::string local_path;
    storage::DiskPool* pool;
    TransferOptions options;
    Done done;
    Bytes file_size = 0;
    std::size_t remaining = 0;
    Status first_error;
    Bytes bytes = 0;
    std::int64_t retransmits = 0;
    int attempts_max = 0;
    SimDuration elapsed_max = 0;
    std::uint64_t seed = 0;
    bool seed_set = false;
    bool seed_conflict = false;
  };
  auto job = std::make_shared<StripeJob>();
  job->endpoints = std::move(endpoints);
  job->local_path = local_path;
  job->pool = pool;
  job->options = options;
  job->done = std::move(done);

  // Stat the file on the first source, then fan the range out.
  std::weak_ptr<bool> alive = alive_;
  client_.file_size(
      job->endpoints.front().node, job->endpoints.front().port,
      job->endpoints.front().path, [this, alive, job](Result<Bytes> size) {
        if (alive.expired()) return;
        if (!size.is_ok()) {
          job->done(size.status());
          return;
        }
        job->file_size = *size;
        const auto stripes = partition_range(
            ByteRange{0, job->file_size},
            static_cast<int>(job->endpoints.size()), job->file_size);
        job->remaining = stripes.size();
        if (job->remaining == 0) {
          job->done(make_error(ErrorCode::kInvalidArgument, "empty file"));
          return;
        }
        for (std::size_t i = 0; i < stripes.size(); ++i) {
          TransferOptions stripe_options = job->options;
          stripe_options.range = stripes[i];
          stripe_options.expected_crc.reset();  // range CRCs differ
          const Endpoint& endpoint = job->endpoints[i];
          client_.get(
              endpoint.node, endpoint.port, endpoint.path,
              job->local_path + ".stripe" + std::to_string(i),
              /*pool=*/nullptr, stripe_options,
              [job, simulator = &network_.simulator()](
                  Result<TransferResult> result) {
                if (!result.is_ok()) {
                  if (job->first_error.is_ok()) {
                    job->first_error = result.status();
                  }
                } else {
                  job->bytes += result->bytes;
                  job->retransmits += result->retransmitted_segments;
                  job->attempts_max =
                      std::max(job->attempts_max, result->attempts);
                  job->elapsed_max =
                      std::max(job->elapsed_max, result->elapsed);
                  // Every stripe must come from the *same* content: the
                  // block headers expose the source file's seed even for
                  // partial ranges.
                  if (!job->seed_set) {
                    job->seed = result->source_seed;
                    job->seed_set = true;
                  } else if (job->seed != result->source_seed) {
                    job->seed_conflict = true;
                  }
                }
                if (--job->remaining > 0) return;
                if (!job->first_error.is_ok()) {
                  job->done(job->first_error);
                  return;
                }
                if (job->seed_conflict) {
                  job->done(make_error(
                      ErrorCode::kCorrupted,
                      "striped sources disagree on file content"));
                  return;
                }
                // All stripes verified: materialize the assembled file.
                TransferResult assembled;
                assembled.bytes = job->bytes;
                assembled.elapsed = job->elapsed_max;
                assembled.mbps =
                    throughput_mbps(assembled.bytes, assembled.elapsed);
                assembled.streams = job->options.parallel_streams *
                                    static_cast<int>(job->endpoints.size());
                assembled.attempts = job->attempts_max;
                assembled.retransmitted_segments = job->retransmits;
                assembled.content_seed = job->seed;
                assembled.source_seed = job->seed;
                assembled.crc = simulator->crc_memo().crc32_synthetic(
                    job->seed, 0, job->file_size);
                if (job->pool != nullptr) {
                  auto added =
                      job->pool->add_file(job->local_path, job->file_size,
                                          job->seed, simulator->now());
                  if (!added.is_ok()) {
                    job->done(added.status());
                    return;
                  }
                  job->pool->disk().write(job->file_size, [] {});
                }
                job->done(std::move(assembled));
              });
        }
      });
}

}  // namespace gdmp::gridftp
