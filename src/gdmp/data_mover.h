// GDMP Data Mover Service (§4.3).
//
// Queues wide-area pulls onto GridFTP with bounded concurrency, passes the
// catalog CRC as the end-to-end check ("the built-in error correction in
// GridFTP plus an additional CRC error check"), and leans on the client's
// restart logic for interrupted transfers. It counts nothing itself: the
// transfer channel and its callers' stats count the outcomes.
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "common/result.h"
#include "gdmp/site_services.h"
#include "gdmp/types.h"
#include "gridftp/client.h"

namespace gdmp::core {

class DataMover {
 public:
  using Done = std::function<void(Result<gridftp::TransferResult>)>;

  DataMover(SiteServices& site, gridftp::TransferOptions defaults,
            int max_concurrent)
      : site_(site),
        defaults_(defaults),
        max_concurrent_(max_concurrent > 0 ? max_concurrent : 1),
        ftp_(site.stack, site.ca, site.credential) {}

  ~DataMover();

  /// Pulls `remote_path` from a GridFTP endpoint into the local pool.
  /// `options` starts from defaults(); `expected_crc` is the catalog's.
  void pull(net::NodeId source, net::Port source_port,
            const std::string& remote_path, const std::string& local_path,
            gridftp::TransferOptions options, Done done);

  /// Site-wide transfer defaults (the base for each pull's options).
  const gridftp::TransferOptions& defaults() const noexcept {
    return defaults_;
  }
  int in_flight() const noexcept { return active_; }
  std::size_t queued() const noexcept { return queue_.size(); }

 private:
  struct Request {
    net::NodeId source;
    net::Port port;
    std::string remote_path;
    std::string local_path;
    gridftp::TransferOptions options;
    Done done;
  };

  void pump();

  SiteServices& site_;
  gridftp::TransferOptions defaults_;
  int max_concurrent_;
  gridftp::FtpClient ftp_;
  std::deque<Request> queue_;
  int active_ = 0;
  /// The in-flight GridFTP completion lambdas must not touch `this` once
  /// teardown starts: queue_ is destroyed before ftp_ is.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::core
