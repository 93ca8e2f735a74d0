#include "testbed/workload.h"

#include "common/logging.h"
#include "gdmp/file_type.h"

namespace gdmp::testbed {

std::vector<core::PublishedFile> produce_run(Site& site,
                                             const ProductionConfig& config) {
  std::vector<core::PublishedFile> out;
  objstore::Federation* federation = site.federation();
  if (federation == nullptr) return out;
  const objstore::EventModel& model = federation->model();
  const objstore::TierSpec& spec = model.tier(config.tier);

  std::int64_t lo = config.event_lo;
  int index = 0;
  while (lo < config.event_hi) {
    const std::int64_t hi =
        std::min(config.event_hi, lo + spec.objects_per_file);
    const LogicalFileName lfn =
        "lfn://" + site.gdmp_server().config().collection + "/" +
        config.run_name + "/" + objstore::tier_name(config.tier) + "/" +
        std::to_string(index++);
    // Catalog convention: the physical path is url_prefix + "/" + lfn.
    const std::string path = site.gdmp_server().local_path_for(lfn);
    const Bytes size = (hi - lo) * spec.object_size;
    const std::uint64_t seed =
        0x9a0dULL ^ (static_cast<std::uint64_t>(lo) << 20) ^
        (static_cast<std::uint64_t>(config.tier) << 2) ^
        std::hash<std::string>{}(config.run_name);
    auto added = site.pool().add_file(
        path, size, seed, site.stack().simulator().now());
    if (!added.is_ok()) break;  // pool full: stop producing
    (void)federation->attach_range_file(path, config.tier, lo, hi);
    if (config.archive_to_mss) {
      site.gdmp_server().storage_manager().archive(path, [](Status) {});
    }

    core::PublishedFile file;
    file.lfn = lfn;
    file.local_path = path;
    core::ObjectivityPlugin::annotate_range_file(file, config.tier, lo, hi);
    out.push_back(std::move(file));
    lo = hi;
  }
  return out;
}

std::vector<core::PublishedFile> produce_all_tiers(Site& site,
                                                   std::int64_t event_lo,
                                                   std::int64_t event_hi,
                                                   const std::string& run_name,
                                                   bool archive_to_mss) {
  std::vector<core::PublishedFile> out;
  for (const objstore::Tier tier : objstore::kAllTiers) {
    ProductionConfig config;
    config.tier = tier;
    config.event_lo = event_lo;
    config.event_hi = event_hi;
    config.run_name = run_name;
    config.archive_to_mss = archive_to_mss;
    auto files = produce_run(site, config);
    out.insert(out.end(), files.begin(), files.end());
  }
  // Mark navigational coupling (§2.1): each file's associates are the
  // other tiers' files overlapping its event range, so consumers can
  // replicate them together and preserve navigation.
  const auto range_of = [](const core::PublishedFile& file) {
    return std::pair<std::int64_t, std::int64_t>{
        std::stoll(file.extra.at("elo")), std::stoll(file.extra.at("ehi"))};
  };
  for (core::PublishedFile& file : out) {
    const auto [lo, hi] = range_of(file);
    std::string assoc;
    for (const core::PublishedFile& other : out) {
      if (other.lfn == file.lfn ||
          other.extra.at("tier") == file.extra.at("tier")) {
        continue;
      }
      const auto [olo, ohi] = range_of(other);
      if (olo < hi && lo < ohi) {
        if (!assoc.empty()) assoc += ',';
        assoc += other.lfn;
      }
    }
    if (!assoc.empty()) file.extra["assoc"] = std::move(assoc);
  }
  return out;
}

std::vector<core::PublishedFile> bulk_produce(
    Site& producer, const BulkProductionConfig& config) {
  std::vector<core::PublishedFile> out;
  for (int run = 0; run < config.runs; ++run) {
    ProductionConfig production;
    production.tier = config.tier;
    production.event_lo = run * config.events_per_run;
    production.event_hi = (run + 1) * config.events_per_run;
    production.run_name = config.run_prefix + std::to_string(run);
    production.archive_to_mss = config.archive_to_mss;
    auto files = produce_run(producer, production);
    if (files.empty()) break;  // pool full
    producer.gdmp().publish(files, [](Status status) {
      if (!status.is_ok()) {
        GDMP_WARN("testbed", "bulk publish failed: ", status.to_string());
      }
    });
    out.insert(out.end(), files.begin(), files.end());
  }
  return out;
}

void schedule_bulk_replication(Site& consumer,
                               const std::vector<core::PublishedFile>& files,
                               int priority,
                               sched::ReplicationScheduler::BatchDone done) {
  std::vector<LogicalFileName> lfns;
  lfns.reserve(files.size());
  for (const core::PublishedFile& file : files) lfns.push_back(file.lfn);
  consumer.scheduler().submit_batch(lfns, priority, std::move(done));
}

}  // namespace gdmp::testbed
