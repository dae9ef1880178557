// Shared campaign execution substrate.
//
// The §3.4 fault-injection campaign is one schedule — a baseline pass, then
// one pass per fault plan derived from the baseline's profile — run over one
// of two transports: RunFaultCampaign's in-process thread pool (ddt.cc) or
// the multi-process fleet (src/fleet: a coordinator leasing passes to
// crash-isolated worker processes). This header is everything the two
// share: CampaignSchedule decides which passes exist, which are done, and how
// they merge; CampaignPassExecutor runs one pass under supervision (watchdog
// cancellation, retry-with-escalation, quarantine-on-trap), so a fleet worker
// executes a pass exactly — to the byte of the resulting journal record — as
// an in-process worker thread would. A transport only decides *where* a
// pending pass runs, so the deterministic report is byte-identical across
// them.
//
// Layering: everything here is core-internal machinery. Library users call
// RunFaultCampaign / fleet::RunFleetCampaign; nothing in this header is
// needed to consume results.
#ifndef SRC_CORE_CAMPAIGN_EXEC_H_
#define SRC_CORE_CAMPAIGN_EXEC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/campaign_journal.h"
#include "src/core/ddt.h"
#include "src/solver/shared_cache.h"

namespace ddt {

// FNV-1a over every input that determines the campaign schedule, plus the
// driver image bytes. A journal carries this fingerprint so a resume cannot
// silently mix passes from a *different* campaign, and a fleet worker's HELLO
// carries it so a coordinator cannot lease passes to a worker configured for
// a different campaign. Thread count, the supervisor budgets (watchdog,
// retries, backoff), the shared-cache knobs, and the observability knobs are
// deliberately excluded: resuming an interrupted campaign with more workers,
// a longer watchdog, or a warm solver cache is legitimate and changes no
// pass's identity.
uint64_t CampaignFingerprint(const FaultCampaignConfig& config, const DriverImage& image);

// Bug identity across passes: a bug is "new" iff no earlier pass (or, in the
// fuzz plane, no campaign pass and no earlier exec) reported the same key.
std::string BugKey(const Bug& bug);

// The campaign's shared solver cache, or null when config turns it off. With
// a shared_cache_path it warm-starts from that file (best-effort: a bad file
// only bumps a counter). The in-process scheduler shares one across every
// pass; each fleet worker warm-starts a private one.
std::shared_ptr<SharedQueryCache> OpenCampaignCache(const FaultCampaignConfig& config);

// Supervisor watchdog: one lazily-started thread tracking the deadline of
// every in-flight pass. When a deadline passes while the pass is still armed,
// the watchdog fires the pass's abort token; the engine's run loop and any
// in-flight SAT query observe it cooperatively and wind down with partial
// (valid) results. This is the only mechanism that can stop a hung pass —
// there is no thread kill anywhere.
class PassWatchdog {
 public:
  PassWatchdog() = default;
  ~PassWatchdog();
  PassWatchdog(const PassWatchdog&) = delete;
  PassWatchdog& operator=(const PassWatchdog&) = delete;

  uint64_t Arm(std::chrono::steady_clock::time_point deadline,
               std::shared_ptr<std::atomic<bool>> token);
  void Disarm(uint64_t id);

 private:
  struct Entry {
    std::chrono::steady_clock::time_point deadline;
    std::shared_ptr<std::atomic<bool>> token;
  };

  void Loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, Entry> armed_;
  uint64_t next_id_ = 1;
  bool stop_ = false;
  std::thread thread_;  // started on first Arm
};

// The outcome of one campaign pass, from whichever source produced it: a
// live supervised execution (r/ddt set), a checkpoint-journal restore
// (record set, from_journal true), or a fleet worker's RESULT record (record
// set, from_journal false — it was executed this run, just in another
// process).
struct PassOutcome {
  std::shared_ptr<Ddt> ddt;    // owns the expression storage bugs reference
  std::optional<DdtResult> r;  // set iff the pass produced a live result
  uint32_t retries = 0;
  bool quarantined = false;
  std::string failure;  // set iff quarantined
  // Set when the pass data came from a serialized record rather than a live
  // run (journal restore or fleet RESULT). `from_journal` additionally marks
  // the record as *restored from a previous campaign* — it feeds the
  // passes_loaded tally; fleet records executed this run do not.
  std::optional<CampaignPassRecord> record;
  bool from_journal = false;
  // Observability sinks the pass's engine wrote into (fresh per attempt, so
  // a retried pass reports only its final attempt). Null when collection is
  // off or the pass came from a record.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::shared_ptr<obs::PassProfile> profile;
};

// Executes passes under full supervision: watchdog cancellation, retry with
// doubled budgets and deterministic backoff for transient failures,
// quarantine for permanent ones. DDT_CHECK failures and exceptions inside
// the engine are trapped per-thread and quarantine the pass — one malformed
// guest (or checker bug) must not kill a 30-pass campaign. Thread-safe:
// in-process worker threads share one executor; a fleet worker process owns
// its own.
class CampaignPassExecutor {
 public:
  // All pointers are non-owning and optional (null = feature off). `config`,
  // `image`, and `descriptor` must outlive the executor.
  CampaignPassExecutor(const FaultCampaignConfig& config, const DriverImage& image,
                       const PciDescriptor& descriptor, SharedQueryCache* shared_cache,
                       obs::MetricsRegistry* campaign_metrics);

  PassOutcome Execute(const FaultPlan& plan);

 private:
  const FaultCampaignConfig& config_;
  const DriverImage& image_;
  const PciDescriptor& descriptor_;
  SharedQueryCache* shared_cache_;
  obs::MetricsRegistry* campaign_metrics_;
  PassWatchdog watchdog_;
};

// Builds the checkpoint-journal record for a completed (or quarantined)
// live pass. A completed baseline (index 0) also carries its engine's
// fault-site and hardware-site profiles, which the whole schedule derives
// from.
CampaignPassRecord MakePassRecord(uint64_t index, const FaultPlan& plan, const PassOutcome& out);

// Wraps a serialized record back into a mergeable outcome.
// `restored_from_journal` distinguishes a resume restore (counted in
// passes_loaded) from a fleet record executed this run (not counted).
PassOutcome OutcomeFromRecord(CampaignPassRecord&& rec, bool restored_from_journal);

// The campaign schedule, shared by both transports. Pass indices are plan
// order: 0 is the baseline, whose fault-site and hardware-site profiles
// generate passes 1..N (kernel-API plans, then hw plans within the
// max_passes budget). The schedule owns the checkpoint journal: Open creates
// it or, with config.resume, restores its completed passes; Complete
// journals each pass as it finishes, from whichever thread or record source
// finished it, so a kill loses only the passes in flight. Finish merges
// every pass in plan order on the calling thread: bug deduplication,
// aggregate accumulation, and the pass table are functions of merge order
// alone, so any transport produces a byte-identical deterministic report.
class CampaignSchedule {
 public:
  // `config` and `image` must outlive the schedule.
  CampaignSchedule(const FaultCampaignConfig& config, const DriverImage& image);
  CampaignSchedule(const CampaignSchedule&) = delete;
  CampaignSchedule& operator=(const CampaignSchedule&) = delete;

  // Validates the config and opens the journal. A restored baseline (with
  // its profiles) makes the whole schedule known at once, and restored plan
  // passes are checked against it.
  Status Open();

  // CampaignFingerprint(config, image).
  uint64_t fingerprint() const { return fingerprint_; }
  // Campaign-level metrics registry (thread pool, journal, supervisor and
  // fleet instruments); null unless config.collect_metrics. Its snapshot is
  // merged into the result by Finish.
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }

  // True once the baseline completed and the plan passes exist.
  bool planned() const { return planned_; }
  // The plan for pass `index` (empty for the baseline).
  const FaultPlan& plan(uint64_t index) const { return plans_[index]; }
  bool IsComplete(uint64_t index) const;
  // Passes still to run, in plan order: just {0} until the baseline is done.
  std::vector<uint64_t> Pending() const;

  // Records pass `index`'s outcome — a live execution, or a record from a
  // fleet worker — and journals it. The first completion of an index wins;
  // later ones, and indices outside the schedule, are dropped. A quarantined
  // baseline fails the campaign (and is not journaled, so a rerun retries
  // it). Completing the baseline generates the plan passes. Thread-safe.
  Status Complete(uint64_t index, PassOutcome out);

  // Merges every pass into *result in plan order, then publishes `cache`'s
  // store-level stats (saving it to config.shared_cache_path first) and the
  // campaign metrics. `cache` is the store holding the campaign's final
  // entries, or null when there is none to report.
  Status Finish(std::shared_ptr<SharedQueryCache> cache, FaultCampaignResult* result);

 private:
  Status GeneratePlans(const FaultSiteProfile& profile, const HwSiteProfile& hw_profile);

  const FaultCampaignConfig& config_;
  const DriverImage& image_;
  std::chrono::steady_clock::time_point start_;
  uint64_t fingerprint_ = 0;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<CampaignJournal> journal_;
  std::vector<FaultPlan> plans_{FaultPlan{}};  // index 0 = baseline
  bool planned_ = false;
  // Journaled plan passes awaiting the schedule they are checked against.
  std::map<uint64_t, CampaignPassRecord> restored_;
  mutable std::mutex mu_;                // guards done_
  std::map<uint64_t, PassOutcome> done_;  // pass index -> outcome
};

}  // namespace ddt

#endif  // SRC_CORE_CAMPAIGN_EXEC_H_
