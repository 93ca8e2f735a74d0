// Workload generators: detector production runs and analysis jobs.
#pragma once

#include <string>
#include <vector>

#include "gdmp/types.h"
#include "objrep/selection.h"
#include "testbed/site.h"

namespace gdmp::testbed {

/// A production run: the detector (or simulation) writes one tier's
/// objects for an event range into clustered database files at a site.
struct ProductionConfig {
  objstore::Tier tier = objstore::Tier::kAod;
  std::int64_t event_lo = 0;
  std::int64_t event_hi = 0;  // exclusive
  std::string run_name = "run1";
  bool archive_to_mss = false;
};

/// Creates the run's database files in the site pool, attaches them to the
/// federation, and returns PublishedFile records (annotated for the
/// Objectivity plug-in) ready for gdmp publish.
std::vector<core::PublishedFile> produce_run(Site& site,
                                             const ProductionConfig& config);

/// Produces all four tiers for an event range (a full detector run).
std::vector<core::PublishedFile> produce_all_tiers(
    Site& site, std::int64_t event_lo, std::int64_t event_hi,
    const std::string& run_name, bool archive_to_mss = false);

/// A bulk production campaign: several consecutive runs of one tier,
/// produced and published at a site in one go (the sustained-production
/// traffic a replication scheduler is built for).
struct BulkProductionConfig {
  objstore::Tier tier = objstore::Tier::kAod;
  std::int64_t events_per_run = 2000;
  int runs = 4;
  std::string run_prefix = "bulk";
  bool archive_to_mss = false;
};

/// Produces and publishes `config.runs` runs at the producer. Publishing
/// is asynchronous — run the simulator before consuming the catalog.
/// Returns every produced file.
std::vector<core::PublishedFile> bulk_produce(
    Site& producer, const BulkProductionConfig& config);

/// Enqueues every file of a produced batch on the consumer's replication
/// scheduler as one prioritized batch submission.
void schedule_bulk_replication(Site& consumer,
                               const std::vector<core::PublishedFile>& files,
                               int priority,
                               sched::ReplicationScheduler::BatchDone done);

}  // namespace gdmp::testbed
