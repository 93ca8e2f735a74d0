#include "objstore/persistency.h"

namespace gdmp::objstore {

bool PersistencyLayer::available(ObjectId id) const {
  return federation_.has_local(id);
}

void PersistencyLayer::read_object(ObjectId id, ReadCallback done) {
  if (!available(id)) {
    done(make_error(ErrorCode::kNotFound,
                    "object " + std::to_string(id.value) +
                        " not available in any attached local file"));
    return;
  }
  const Bytes size = federation_.model().object_size(id);
  ++stats_.reads;
  stats_.bytes_read += size;
  federation_.pool().disk().read(size, [size, done = std::move(done)] {
    done(size);
  });
}

void PersistencyLayer::navigate(ObjectId id, Tier target, ReadCallback done) {
  if (!available(id)) {
    ++stats_.navigation_failures;
    done(make_error(ErrorCode::kNotFound,
                    "source object not available locally"));
    return;
  }
  const ObjectId associated = EventModel::associated(id, target);
  if (!available(associated)) {
    // "the navigation to the associated object might not be possible since
    // the required file is not available locally" (§2.1).
    ++stats_.navigation_failures;
    done(make_error(ErrorCode::kUnavailable,
                    "associated object's file not replicated locally"));
    return;
  }
  read_object(associated, std::move(done));
}

}  // namespace gdmp::objstore
