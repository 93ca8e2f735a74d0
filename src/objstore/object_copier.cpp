#include "objstore/object_copier.h"

#include <span>

namespace gdmp::objstore {
namespace {

/// CPU cost per object copied (file-system calls, context switches).
constexpr SimDuration kCpuPerObject = 50 * kMicrosecond;

std::uint64_t seed_for_objects(std::span<const ObjectId> objects) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const ObjectId id : objects) {
    h ^= id.value;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

struct ObjectCopier::Job {
  std::vector<ObjectId> objects;
  std::size_t chunk_first = 0;  // the chunk in progress: [chunk_first, next)
  std::size_t next = 0;
  Bytes chunk_bytes = 0;
  storage::Disk::RunId run = 0;
  std::string prefix;
  int chunk_index = 0;
  ChunkCallback on_chunk;
  DoneCallback done;
};

ObjectCopier::~ObjectCopier() {
  for (const storage::Disk::RunId run : runs_) disk_.cancel(run);
}

void ObjectCopier::pack(std::vector<ObjectId> objects,
                        const std::string& output_prefix,
                        ChunkCallback on_chunk, DoneCallback done) {
  auto job = std::make_shared<Job>();
  job->objects = std::move(objects);
  job->prefix = output_prefix;
  job->on_chunk = std::move(on_chunk);
  job->done = std::move(done);
  if (job->objects.empty()) {
    job->done(make_error(ErrorCode::kInvalidArgument, "empty object set"));
    return;
  }
  // Validate availability up front: the caller (object replication service)
  // is responsible for having located a source site that holds everything.
  if (const auto absent = federation_.missing(job->objects); !absent.empty()) {
    job->done(make_error(ErrorCode::kNotFound,
                         "object " + std::to_string(absent.front().value) +
                             " not locally available for packing"));
    return;
  }
  start_chunk(job);
}

void ObjectCopier::start_chunk(const std::shared_ptr<Job>& job) {
  // One seek+read per object, each issued after the previous one's CPU
  // charge; the chunk ends with the object that fills it to
  // max_output_file. Its write is folded into the emission (a single
  // sequential write).
  job->chunk_first = job->next;
  job->chunk_bytes = 0;
  std::vector<Bytes> sizes;
  do {
    const Bytes size =
        federation_.model().object_size(job->objects[job->next++]);
    // gdmp-lint: hot-alloc — one size list per chunk run, not per object
    sizes.push_back(size);
    job->chunk_bytes += size;
  } while (job->next < job->objects.size() &&
           job->chunk_bytes < config_.max_output_file);
  job->run = disk_.run(
      std::move(sizes), kCpuPerObject, [this, job] { finish_chunk(job); });
  // gdmp-lint: hot-alloc — holds one id per pack in progress, and keeps its capacity
  runs_.push_back(job->run);
}

// gdmp-lint: hot-path — a chunk run's kernel event, fired through the disk
void ObjectCopier::finish_chunk(const std::shared_ptr<Job>& job) {
  std::erase(runs_, job->run);
  job->run = 0;
  const auto count = static_cast<std::int64_t>(job->next - job->chunk_first);
  stats_.objects_copied += count;
  stats_.io_ops += count;
  stats_.bytes_copied += job->chunk_bytes;
  stats_.cpu_time += count * kCpuPerObject;
  if (!emit_chunk(job)) return;
  if (job->next == job->objects.size()) {
    job->done(Status::ok());
    return;
  }
  start_chunk(job);
}

bool ObjectCopier::emit_chunk(const std::shared_ptr<Job>& job) {
  const std::string name =
      // gdmp-lint: hot-alloc — one catalog name per emitted chunk file, not per object
      job->prefix + "." + std::to_string(job->chunk_index++);
  const std::span<const ObjectId> objects(
      job->objects.data() + job->chunk_first, job->next - job->chunk_first);
  auto added = federation_.pool().add_file(
      name, job->chunk_bytes, seed_for_objects(objects), simulator_.now());
  if (!added.is_ok()) {
    // Surface pool exhaustion through done() and stop the job.
    job->done(added.status());
    return false;
  }
  disk_.write(job->chunk_bytes, [] {});
  ++stats_.io_ops;
  PackedOutput output;
  output.file = *added;
  output.objects.assign(objects.begin(), objects.end());
  (void)federation_.attach_packed_file(name, output.objects);
  if (job->on_chunk) job->on_chunk(output);
  return true;
}

}  // namespace gdmp::objstore
