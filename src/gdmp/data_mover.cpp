#include "gdmp/data_mover.h"

namespace gdmp::core {

DataMover::~DataMover() {
  *alive_ = false;
  // Queued pulls never reached GridFTP; fail them now so every `done`
  // fires exactly once. In-flight ones are settled by ~FtpClient.
  auto queue = std::move(queue_);
  for (Request& request : queue) {
    if (request.done) {
      request.done(make_error(ErrorCode::kAborted,
                              "data mover destroyed: " + request.remote_path));
    }
  }
}

void DataMover::pull(net::NodeId source, net::Port source_port,
                     const std::string& remote_path,
                     const std::string& local_path,
                     gridftp::TransferOptions options, Done done) {
  queue_.push_back(Request{source, source_port, remote_path, local_path,
                           std::move(options), std::move(done)});
  pump();
}

void DataMover::pump() {
  while (active_ < max_concurrent_ && !queue_.empty()) {
    Request request = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    ftp_.get(request.source, request.port, request.remote_path,
             request.local_path, &site_.pool, request.options,
             [this, alive = std::weak_ptr<bool>(alive_),
              done = std::move(request.done)](
                 Result<gridftp::TransferResult> result) {
               if (!alive.expired()) --active_;
               done(std::move(result));
               if (!alive.expired()) pump();
             });
  }
}

}  // namespace gdmp::core
