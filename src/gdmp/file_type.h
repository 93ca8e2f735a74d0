// File-type plug-ins: the pre-/post-processing steps of §4.1.
//
// GDMP 2.0's key architectural change over 1.2 is splitting replication
// into file-type-independent transfer plus type-specific pre/post steps:
//  * objectivity — pre: ensure the destination federation exists and its
//    schema is at least the file's; post: attach the database file to the
//    federation's internal catalog.
//  * oracle — pre: import schema (fixed DBA latency); post: attach
//    tablespace file.
//  * flat — no processing.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "gdmp/site_services.h"
#include "gdmp/types.h"

namespace gdmp::core {

class FileTypePlugin {
 public:
  using Done = std::function<void(Status)>;

  virtual ~FileTypePlugin() = default;
  virtual const char* name() const = 0;

  /// Prepares the destination site before the file transfer starts.
  virtual void pre_process(SiteServices& site, const PublishedFile& file,
                           Done done) = 0;

  /// Integrates the transferred file (at `local_path`) into site services.
  virtual void post_process(SiteServices& site, const PublishedFile& file,
                            const std::string& local_path, Done done) = 0;
};

class FlatFilePlugin final : public FileTypePlugin {
 public:
  const char* name() const override { return "flat"; }
  void pre_process(SiteServices&, const PublishedFile&, Done done) override {
    done(Status::ok());
  }
  void post_process(SiteServices&, const PublishedFile&, const std::string&,
                    Done done) override {
    done(Status::ok());
  }
};

/// Objectivity database files: carry "tier", "elo"/"ehi" (range files) or
/// "objects" (packed files, comma-separated ids) and "schema" attributes.
/// post_process refuses a packed file without ids (kFailedPrecondition).
class ObjectivityPlugin final : public FileTypePlugin {
 public:
  const char* name() const override { return "objectivity"; }
  void pre_process(SiteServices& site, const PublishedFile& file,
                   Done done) override;
  void post_process(SiteServices& site, const PublishedFile& file,
                    const std::string& local_path, Done done) override;

  /// Fills the `extra` attributes for a clustered production file.
  static void annotate_range_file(PublishedFile& file, objstore::Tier tier,
                                  std::int64_t event_lo, std::int64_t event_hi,
                                  std::uint32_t schema = 1);
  /// Fills the `extra` attributes for a packed (copier output) file.
  static void annotate_packed_file(PublishedFile& file,
                                   const std::vector<ObjectId>& objects,
                                   std::uint32_t schema = 1);
};

/// Oracle data files: a fixed schema-import delay before first use.
class OracleFilePlugin final : public FileTypePlugin {
 public:
  const char* name() const override { return "oracle"; }
  void pre_process(SiteServices& site, const PublishedFile& file,
                   Done done) override;
  void post_process(SiteServices&, const PublishedFile&, const std::string&,
                    Done done) override {
    done(Status::ok());
  }
};

/// Registry of plug-ins keyed by file type; unknown types fall back to
/// flat-file handling (transfer still works, no integration step).
class FileTypeRegistry {
 public:
  FileTypeRegistry();

  void register_plugin(std::unique_ptr<FileTypePlugin> plugin);
  FileTypePlugin& plugin_for(const std::string& file_type);

 private:
  std::map<std::string, std::unique_ptr<FileTypePlugin>> plugins_;
  FlatFilePlugin fallback_;
};

}  // namespace gdmp::core
