// Fleet end-to-end: the multi-process campaign's deterministic report must be
// byte-identical to the in-process scheduler's — at any worker count, through
// SIGKILLed workers (salvage + lease reassignment), duplicate RESULT frames,
// worker recycling, and resume — and a worker whose HELLO fingerprint does
// not match is rejected (operator error), never quarantined (pass error).
// Both transports share one campaign schedule: a resumed journal that no
// longer matches it is rejected by each, and the fleet publishes the same
// store-level shared-cache metrics as the in-process scheduler.
// Plus wire-protocol units: framing round-trip, incremental decode, CRC and
// truncation detection.
#include "src/fleet/fleet.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/campaign_exec.h"
#include "src/core/campaign_journal.h"
#include "src/drivers/corpus.h"
#include "src/fleet/wire.h"
#include "src/support/strings.h"

namespace ddt {
namespace fleet {
namespace {

// --- Wire protocol units ---------------------------------------------------

TEST(FleetWireTest, BodyCodecsRoundTrip) {
  HelloBody hello{0xDEADBEEFCAFEF00Dull, 4242};
  HelloBody hello2;
  ASSERT_TRUE(DecodeHello(EncodeHello(hello), &hello2));
  EXPECT_EQ(hello2.fingerprint, hello.fingerprint);
  EXPECT_EQ(hello2.pid, hello.pid);

  LeaseBody lease;
  lease.index = 7;
  lease.plan.label = "alloc#1 + map-io-space#0";
  lease.plan.points = {FaultPoint{FaultClass::kAllocation, 1},
                       FaultPoint{FaultClass::kMapIoSpace, 0}};
  lease.plan.hw_points = {HwFaultPoint{HwFaultKind::kSurpriseRemoval, 12},
                          HwFaultPoint{HwFaultKind::kIrqStorm, 3}};
  LeaseBody lease2;
  ASSERT_TRUE(DecodeLease(EncodeLease(lease), &lease2));
  EXPECT_EQ(lease2.index, 7u);
  EXPECT_EQ(lease2.plan.label, lease.plan.label);
  ASSERT_EQ(lease2.plan.points.size(), 2u);
  EXPECT_TRUE(lease2.plan.points[0] == lease.plan.points[0]);
  EXPECT_TRUE(lease2.plan.points[1] == lease.plan.points[1]);
  ASSERT_EQ(lease2.plan.hw_points.size(), 2u);
  EXPECT_TRUE(lease2.plan.hw_points[0] == lease.plan.hw_points[0]);
  EXPECT_TRUE(lease2.plan.hw_points[1] == lease.plan.hw_points[1]);

  uint64_t seq = 0;
  ASSERT_TRUE(DecodeHeartbeat(EncodeHeartbeat(99), &seq));
  EXPECT_EQ(seq, 99u);

  ByeBody bye{kByeRejected, "campaign fingerprint mismatch"};
  ByeBody bye2;
  ASSERT_TRUE(DecodeBye(EncodeBye(bye), &bye2));
  EXPECT_EQ(bye2.code, kByeRejected);
  EXPECT_EQ(bye2.detail, bye.detail);

  // Truncated bodies must decode to false, not garbage.
  std::string enc = EncodeLease(lease);
  EXPECT_FALSE(DecodeLease(std::string_view(enc).substr(0, enc.size() - 1), &lease2));
}

TEST(FleetWireTest, DecoderHandlesSplitFramesAndDetectsCorruption) {
  std::string stream = EncodeFrame(FrameType::kHeartbeat, EncodeHeartbeat(1)) +
                       EncodeFrame(FrameType::kBye, EncodeBye(ByeBody{0, "done"}));
  // Feed one byte at a time: frames must pop exactly when complete.
  FrameDecoder decoder;
  std::vector<Frame> frames;
  Frame frame;
  for (char c : stream) {
    decoder.Feed(&c, 1);
    while (decoder.Pop(&frame) == FrameDecoder::Next::kFrame) {
      frames.push_back(frame);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kHeartbeat);
  EXPECT_EQ(frames[1].type, FrameType::kBye);

  // A flipped payload byte fails the CRC and poisons the decoder.
  std::string bad = stream;
  bad[10] ^= 0x01;
  FrameDecoder corrupt;
  corrupt.Feed(bad.data(), bad.size());
  EXPECT_EQ(corrupt.Pop(&frame), FrameDecoder::Next::kCorrupt);
  EXPECT_EQ(corrupt.Pop(&frame), FrameDecoder::Next::kCorrupt);

  // An absurd length prefix is corruption, not a huge allocation.
  std::string huge(8, '\xFF');
  FrameDecoder hostile;
  hostile.Feed(huge.data(), huge.size());
  EXPECT_EQ(hostile.Pop(&frame), FrameDecoder::Next::kCorrupt);
}

// --- End-to-end fleet campaigns -------------------------------------------

// Small but real campaign over the rtl8029 corpus driver: 1 baseline + up to
// 7 plans, including the map-io-space#0 single that exposes the driver's
// latent map-failure cleanup bug.
FaultCampaignConfig TestConfig() {
  FaultCampaignConfig config;
  config.base.engine.max_instructions = 2'000'000;
  config.base.engine.max_wall_ms = 120'000;
  config.max_passes = 8;
  config.max_occurrences_per_class = 2;
  config.escalation_rounds = 1;
  config.threads = 1;
  return config;
}

std::string ShardDir(const std::string& name) {
  std::string dir = testing::TempDir() + "fleet_" + name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

FleetCampaignConfig TestFleet(const std::string& name, uint32_t workers) {
  FleetCampaignConfig fleet;
  fleet.workers = workers;
  fleet.shard_dir = ShardDir(name);
  fleet.heartbeat_interval_ms = 50;
  return fleet;
}

// The in-process scheduler's deterministic report — the byte-identity oracle
// every fleet variant is diffed against. Computed once.
const std::string& ReferenceReport() {
  static const std::string* report = [] {
    const CorpusDriver& driver = CorpusDriverByName("rtl8029");
    Result<FaultCampaignResult> r = RunFaultCampaign(TestConfig(), driver.image, driver.pci);
    EXPECT_TRUE(r.ok()) << r.status().message();
    return new std::string(
        r.value().FormatReport(driver.name, /*include_volatile=*/false));
  }();
  return *report;
}

TEST(FleetCampaignTest, ByteIdenticalReportAtAnyWorkerCount) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  for (uint32_t workers : {1u, 3u}) {
    Result<FaultCampaignResult> r = RunFleetCampaign(
        TestConfig(), driver.image, driver.pci,
        TestFleet(StrFormat("w%u", workers), workers));
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.value().FormatReport(driver.name, false), ReferenceReport())
        << "workers=" << workers;
    EXPECT_TRUE(r.value().fleet_mode);
    EXPECT_EQ(r.value().fleet_workers, workers);
    EXPECT_EQ(r.value().fleet_workers_lost, 0u);

    // The latent rtl8029 map-failure cleanup bug — unreachable in plain runs
    // — must surface under fleet mode with a stable identity at every worker
    // count (it is part of the byte-identical report, but assert it directly
    // so a regression names the bug, not a diff).
    bool found_latent = false;
    for (const Bug& bug : r.value().bugs) {
      if (bug.title.find("MosMapIoSpace[map-io-space#0]") != std::string::npos) {
        found_latent = true;
      }
    }
    EXPECT_TRUE(found_latent) << "latent map-failure bug missing at workers=" << workers;
  }
}

TEST(FleetCampaignTest, HwFaultPlaneIsByteIdenticalToInProcess) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FaultCampaignConfig config = TestConfig();
  // Room for the hw leg: TestConfig's kernel plans alone fill an 8-pass
  // budget, and hw plans are only appended to spare capacity.
  config.max_passes = 24;
  config.hw_faults = true;
  config.hw_max_points_per_kind = 2;
  config.base.dma_checker = true;
  Result<FaultCampaignResult> in_process = RunFaultCampaign(config, driver.image, driver.pci);
  ASSERT_TRUE(in_process.ok()) << in_process.status().message();
  EXPECT_GT(in_process.value().total_stats.hw_faults_injected, 0u);

  Result<FaultCampaignResult> fleet = RunFleetCampaign(config, driver.image, driver.pci,
                                                       TestFleet("hwplane", 3));
  ASSERT_TRUE(fleet.ok()) << fleet.status().message();
  EXPECT_EQ(fleet.value().FormatReport(driver.name, false),
            in_process.value().FormatReport(driver.name, false));
}

TEST(FleetCampaignTest, RejectsHeartbeatTimeoutInsideWatchdogBudget) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FaultCampaignConfig config = TestConfig();
  config.max_pass_wall_ms = 10'000;
  FleetCampaignConfig fleet = TestFleet("inversion", 1);
  fleet.heartbeat_timeout_ms = 10'000;  // == max_pass_wall_ms: inverted
  Result<FaultCampaignResult> r = RunFleetCampaign(config, driver.image, driver.pci, fleet);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("heartbeat/watchdog budget inversion"),
            std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("heartbeat_timeout_ms"), std::string::npos);

  // Strictly larger is fine again.
  fleet = TestFleet("inversion_ok", 1);
  fleet.heartbeat_timeout_ms = 10'001;
  Result<FaultCampaignResult> ok = RunFleetCampaign(config, driver.image, driver.pci, fleet);
  EXPECT_TRUE(ok.ok()) << ok.status().message();
}

TEST(FleetCampaignTest, SigkilledWorkerIsReassignedWithoutChangingTheReport) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  // Kill the holder of a different lease each run: the report must not care
  // where in the schedule the crash lands.
  for (int64_t kill_lease : {2, 4}) {
    FleetCampaignConfig fleet =
        TestFleet(StrFormat("kill%lld", static_cast<long long>(kill_lease)), 2);
    fleet.kill_lease_number = kill_lease;
    Result<FaultCampaignResult> r =
        RunFleetCampaign(TestConfig(), driver.image, driver.pci, fleet);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.value().FormatReport(driver.name, false), ReferenceReport())
        << "kill_lease=" << kill_lease;
    EXPECT_GE(r.value().fleet_workers_lost, 1u);
    EXPECT_GE(r.value().fleet_leases_reassigned, 1u);
    EXPECT_GT(r.value().fleet_workers_spawned, 2u);  // a replacement joined
    EXPECT_EQ(r.value().passes_quarantined, 0u);     // the pass itself is fine
  }
}

TEST(FleetCampaignTest, RecordsJournaledButNeverSentAreSalvagedNotDuplicated) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  // Every worker SIGKILLs itself after journaling its first pass but before
  // sending the RESULT frame: each pass reaches the coordinator only through
  // shard-journal salvage, and the merge must not duplicate or lose any.
  FleetCampaignConfig fleet = TestFleet("salvage", 1);
  fleet.worker_test.kill_after_journal_result = 1;
  Result<FaultCampaignResult> r =
      RunFleetCampaign(TestConfig(), driver.image, driver.pci, fleet);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().FormatReport(driver.name, false), ReferenceReport());
  EXPECT_GE(r.value().fleet_results_salvaged, r.value().passes.size());
  EXPECT_GE(r.value().fleet_workers_lost, r.value().passes.size());
  EXPECT_EQ(r.value().fleet_leases_reassigned, 0u);  // salvage made requeues moot
}

TEST(FleetCampaignTest, DuplicateResultFramesMergeIdempotently) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FleetCampaignConfig fleet = TestFleet("dup", 2);
  fleet.worker_test.duplicate_results = true;
  Result<FaultCampaignResult> r =
      RunFleetCampaign(TestConfig(), driver.image, driver.pci, fleet);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().FormatReport(driver.name, false), ReferenceReport());
  EXPECT_EQ(r.value().fleet_workers_lost, 0u);
}

TEST(FleetCampaignTest, MismatchedFingerprintIsRejectedNotQuarantined) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FleetCampaignConfig fleet = TestFleet("mismatch", 2);
  // Slot 0 is spawned with a *different* campaign (perturbed seed → different
  // fingerprint); slot 1 is correct. The impostor must be turned away at
  // HELLO — and because rejection is an operator problem, not a pass problem,
  // no pass may be quarantined over it.
  fleet.spawn_override = [&driver](const FleetWorkerOptions& options) {
    FaultCampaignConfig config = TestConfig();
    if (options.slot == 0) {
      config.seed ^= 1;
    }
    return SpawnChild([&driver, config, options](int in_fd, int out_fd) {
      FleetWorkerOptions opts = options;
      opts.in_fd = in_fd;
      opts.out_fd = out_fd;
      return RunFleetWorker(config, driver.image, driver.pci, opts);
    });
  };
  Result<FaultCampaignResult> r =
      RunFleetCampaign(TestConfig(), driver.image, driver.pci, fleet);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().FormatReport(driver.name, false), ReferenceReport());
  EXPECT_EQ(r.value().fleet_workers_rejected, 1u);
  EXPECT_EQ(r.value().fleet_workers_lost, 0u);
  EXPECT_EQ(r.value().passes_quarantined, 0u);

  // With *every* worker mismatched the fleet cannot make progress; that is a
  // campaign error naming the cause, not a hang or a quarantine cascade.
  FleetCampaignConfig all_bad = TestFleet("mismatch_all", 2);
  all_bad.spawn_override = [&driver](const FleetWorkerOptions& options) {
    FaultCampaignConfig config = TestConfig();
    config.seed ^= 1;
    return SpawnChild([&driver, config, options](int in_fd, int out_fd) {
      FleetWorkerOptions opts = options;
      opts.in_fd = in_fd;
      opts.out_fd = out_fd;
      return RunFleetWorker(config, driver.image, driver.pci, opts);
    });
  };
  Result<FaultCampaignResult> bad =
      RunFleetCampaign(TestConfig(), driver.image, driver.pci, all_bad);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("rejected"), std::string::npos)
      << bad.status().message();
}

TEST(FleetCampaignTest, WorkerRecyclingDrainsAndRespawns) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FleetCampaignConfig fleet = TestFleet("recycle", 2);
  fleet.max_leases_per_worker = 2;
  Result<FaultCampaignResult> r =
      RunFleetCampaign(TestConfig(), driver.image, driver.pci, fleet);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().FormatReport(driver.name, false), ReferenceReport());
  EXPECT_GE(r.value().fleet_workers_recycled, 1u);
  EXPECT_GT(r.value().fleet_workers_spawned, 2u);
  EXPECT_EQ(r.value().fleet_workers_lost, 0u);
}

TEST(FleetCampaignTest, CoordinatorJournalResumesWithoutReleasing) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  std::string journal = testing::TempDir() + "fleet_resume.journal";

  FaultCampaignConfig config = TestConfig();
  config.journal_path = journal;
  Result<FaultCampaignResult> first = RunFleetCampaign(
      config, driver.image, driver.pci, TestFleet("resume_first", 2));
  ASSERT_TRUE(first.ok()) << first.status().message();

  // Resume from a complete journal: every pass restores, no lease is ever
  // issued, and the report is still byte-identical.
  config.resume = true;
  Result<FaultCampaignResult> second = RunFleetCampaign(
      config, driver.image, driver.pci, TestFleet("resume_second", 2));
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_EQ(second.value().FormatReport(driver.name, false), ReferenceReport());
  EXPECT_EQ(second.value().passes_loaded, second.value().passes.size());
}

TEST(FleetCampaignTest, ResumeRejectsJournalThatDoesNotMatchTheSchedule) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  std::string journal = testing::TempDir() + "fleet_schedule_mismatch.journal";
  FaultCampaignConfig config = TestConfig();
  config.journal_path = journal;
  Result<FaultCampaignResult> first = RunFaultCampaign(config, driver.image, driver.pci);
  ASSERT_TRUE(first.ok()) << first.status().message();

  // Relabel restored pass 1 and rewrite the journal through the journal API,
  // so every CRC is valid and only the schedule check can object.
  uint64_t fingerprint = CampaignFingerprint(config, driver.image);
  Result<std::vector<CampaignPassRecord>> records =
      LoadCampaignJournalRecords(journal, driver.image.name, fingerprint);
  ASSERT_TRUE(records.ok()) << records.status().message();
  Result<std::unique_ptr<CampaignJournal>> rewritten =
      CampaignJournal::Create(journal, driver.image.name, fingerprint);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().message();
  bool relabeled = false;
  for (CampaignPassRecord& rec : records.value()) {
    if (rec.index == 1) {
      rec.label = "tampered#0";
      relabeled = true;
    }
    ASSERT_TRUE(rewritten.value()->Append(rec).ok());
  }
  ASSERT_TRUE(relabeled);
  rewritten.value().reset();

  config.resume = true;
  Result<FaultCampaignResult> in_process = RunFaultCampaign(config, driver.image, driver.pci);
  ASSERT_FALSE(in_process.ok());
  EXPECT_NE(in_process.status().message().find("does not match the campaign schedule"),
            std::string::npos)
      << in_process.status().message();
  Result<FaultCampaignResult> fleet = RunFleetCampaign(config, driver.image, driver.pci,
                                                       TestFleet("schedule_mismatch", 2));
  ASSERT_FALSE(fleet.ok());
  EXPECT_NE(fleet.status().message().find("does not match the campaign schedule"),
            std::string::npos)
      << fleet.status().message();
}

TEST(FleetCampaignTest, PublishesSharedCacheStoreMetricsLikeInProcess) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FaultCampaignConfig config = TestConfig();
  config.collect_metrics = true;
  config.shared_cache_path = testing::TempDir() + "fleet_metrics_cache.bin";
  std::remove(config.shared_cache_path.c_str());
  Result<FaultCampaignResult> r =
      RunFleetCampaign(config, driver.image, driver.pci, TestFleet("metrics", 2));
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().FormatReport(driver.name, false), ReferenceReport());
  const obs::MetricsSnapshot& metrics = r.value().metrics;
  auto entries = metrics.gauges.find("solver.shared_cache.entries");
  ASSERT_NE(entries, metrics.gauges.end());
  EXPECT_GT(entries->second.value, 0);
  EXPECT_EQ(static_cast<uint64_t>(entries->second.value), r.value().shared_cache_entries);
  EXPECT_NE(metrics.gauges.find("solver.shared_cache.bytes"), metrics.gauges.end());
  auto saved = metrics.counters.find("solver.shared_cache.saved_entries");
  ASSERT_NE(saved, metrics.counters.end());
  EXPECT_GT(saved->second, 0u);
  std::remove(config.shared_cache_path.c_str());
}

}  // namespace
}  // namespace fleet
}  // namespace ddt
