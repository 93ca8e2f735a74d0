#include "objstore/object_copier.h"

namespace gdmp::objstore {
namespace {

std::uint64_t seed_for_objects(const std::vector<ObjectId>& objects) {
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
  std::size_t next = 0;
  std::string prefix;
  int chunk_index = 0;
  std::vector<ObjectId> chunk_objects;
  Bytes chunk_bytes = 0;
  ChunkCallback on_chunk;
  DoneCallback done;
};

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
  pump(job);
}

void ObjectCopier::pump(const std::shared_ptr<Job>& job) {
  if (job->next == job->objects.size()) {
    if (!job->chunk_objects.empty()) emit_chunk(job);
    job->done(Status::ok());
    return;
  }
  const ObjectId id = job->objects[job->next++];
  const Bytes size = federation_.model().object_size(id);
  ++stats_.objects_copied;
  ++stats_.io_ops;
  stats_.bytes_copied += size;
  stats_.cpu_time += config_.cpu_per_object;

  // One seek+read per object, then the per-object CPU charge, then the
  // write is folded into the chunk emission (a single sequential write).
  std::weak_ptr<bool> alive = alive_;
  federation_.pool().disk().read(size, [this, alive, job, id, size] {
    if (alive.expired()) return;
    simulator_.schedule(config_.cpu_per_object, [this, alive, job, id, size] {
      if (alive.expired()) return;
      job->chunk_objects.push_back(id);
      job->chunk_bytes += size;
      if (job->chunk_bytes >= config_.max_output_file) emit_chunk(job);
      pump(job);
    });
  });
}

void ObjectCopier::emit_chunk(const std::shared_ptr<Job>& job) {
  const std::string name =
      // gdmp-lint: hot-alloc — one catalog name per emitted chunk file, not per object
      job->prefix + "." + std::to_string(job->chunk_index++);
  const std::uint64_t seed = seed_for_objects(job->chunk_objects);
  auto added = federation_.pool().add_file(name, job->chunk_bytes, seed,
                                           simulator_.now());
  if (!added.is_ok()) {
    // Surface pool exhaustion through done() and stop the job.
    auto done = std::move(job->done);
    job->done = [](Status) {};
    job->next = job->objects.size();
    job->chunk_objects.clear();
    job->chunk_bytes = 0;
    done(added.status());
    return;
  }
  federation_.pool().disk().write(job->chunk_bytes, [] {});
  ++stats_.io_ops;
  (void)federation_.attach_packed_file(name, job->chunk_objects);

  PackedOutput output;
  output.file = *added;
  output.objects = std::move(job->chunk_objects);
  job->chunk_objects.clear();
  job->chunk_bytes = 0;
  if (job->on_chunk) job->on_chunk(output);
}

}  // namespace gdmp::objstore
