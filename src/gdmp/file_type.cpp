#include "gdmp/file_type.h"

#include <charconv>

#include "common/string_util.h"

namespace gdmp::core {
namespace {

std::int64_t to_int(const std::string& s) noexcept {
  std::int64_t v = 0;
  std::from_chars(s.data(), s.data() + s.size(), v);
  return v;
}

std::string get_extra(const PublishedFile& file, const std::string& key) {
  const auto it = file.extra.find(key);
  return it == file.extra.end() ? std::string() : it->second;
}

}  // namespace

void ObjectivityPlugin::pre_process(SiteServices& site,
                                    const PublishedFile& file, Done done) {
  if (site.federation == nullptr) {
    done(make_error(ErrorCode::kFailedPrecondition,
                    "site " + site.site_name + " has no federation"));
    return;
  }
  const auto schema =
      static_cast<std::uint32_t>(to_int(get_extra(file, "schema")));
  if (schema > site.federation->schema_version()) {
    // Importing new schema into the federation takes DBA time.
    constexpr SimDuration kSchemaImportLatency = 2 * kSecond;
    site.simulator.schedule(kSchemaImportLatency, [&site, schema, done] {
      site.federation->upgrade_schema(schema);
      done(Status::ok());
    });
    return;
  }
  done(Status::ok());
}

void ObjectivityPlugin::post_process(SiteServices& site,
                                     const PublishedFile& file,
                                     const std::string& local_path,
                                     Done done) {
  if (site.federation == nullptr) {
    done(make_error(ErrorCode::kFailedPrecondition,
                    "site " + site.site_name + " has no federation"));
    return;
  }
  const auto schema =
      static_cast<std::uint32_t>(to_int(get_extra(file, "schema")));
  const std::string layout = get_extra(file, "layout");
  if (layout == "range") {
    const auto tier = static_cast<objstore::Tier>(to_int(get_extra(file, "tier")));
    done(site.federation->attach_range_file(
        local_path, tier, to_int(get_extra(file, "elo")),
        to_int(get_extra(file, "ehi")), schema == 0 ? 1 : schema));
    return;
  }
  if (layout == "packed") {
    std::vector<ObjectId> objects;
    for (const std::string& token : split(get_extra(file, "objects"), ',')) {
      if (token.empty()) continue;
      std::uint64_t value = 0;
      std::from_chars(token.data(), token.data() + token.size(), value);
      objects.push_back(ObjectId{value});
    }
    // A chunk file's catalog entry carries only its object count.
    if (objects.empty()) {
      done(make_error(ErrorCode::kFailedPrecondition,
                      "packed objectivity file without an object list: " +
                          file.lfn));
      return;
    }
    done(site.federation->attach_packed_file(local_path, std::move(objects),
                                             schema == 0 ? 1 : schema));
    return;
  }
  done(make_error(ErrorCode::kInvalidArgument,
                  "objectivity file without layout attribute: " + file.lfn));
}

void ObjectivityPlugin::annotate_range_file(PublishedFile& file,
                                            objstore::Tier tier,
                                            std::int64_t event_lo,
                                            std::int64_t event_hi,
                                            std::uint32_t schema) {
  file.file_type = "objectivity";
  file.extra["layout"] = "range";
  file.extra["tier"] = std::to_string(static_cast<int>(tier));
  file.extra["elo"] = std::to_string(event_lo);
  file.extra["ehi"] = std::to_string(event_hi);
  file.extra["schema"] = std::to_string(schema);
}

void ObjectivityPlugin::annotate_packed_file(
    PublishedFile& file, const std::vector<ObjectId>& objects,
    std::uint32_t schema) {
  file.file_type = "objectivity";
  file.extra["layout"] = "packed";
  file.extra["schema"] = std::to_string(schema);
  std::string joined;
  for (const ObjectId id : objects) {
    if (!joined.empty()) joined += ',';
    joined += std::to_string(id.value);
  }
  file.extra["objects"] = std::move(joined);
}

void OracleFilePlugin::pre_process(SiteServices& site, const PublishedFile&,
                                   Done done) {
  constexpr SimDuration kImportLatency = 5 * kSecond;
  site.simulator.schedule(kImportLatency,
                          [done = std::move(done)] { done(Status::ok()); });
}

FileTypeRegistry::FileTypeRegistry() {
  register_plugin(std::make_unique<FlatFilePlugin>());
  register_plugin(std::make_unique<ObjectivityPlugin>());
  register_plugin(std::make_unique<OracleFilePlugin>());
}

void FileTypeRegistry::register_plugin(
    std::unique_ptr<FileTypePlugin> plugin) {
  plugins_[plugin->name()] = std::move(plugin);
}

FileTypePlugin& FileTypeRegistry::plugin_for(const std::string& file_type) {
  const auto it = plugins_.find(file_type);
  return it == plugins_.end() ? fallback_ : *it->second;
}

}  // namespace gdmp::core
