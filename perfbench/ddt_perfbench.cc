// Repository benchmark harness: one workload per process, driven by
// perfbench/run.py (see perfbench/README.md for the workloads, metrics and
// the correctness oracle).
//
//   ddt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --tmp <dir> [--engine-seed <n>]
//
// Every layer is measured from outside the program: the harness times its own
// calls into the public API (Corpus, Ddt::TestDriver, ReplayBug,
// RunFaultCampaign, fleet::RunFleetCampaign, fuzz::MutateInput,
// fuzz::FuzzExecutor::Execute) and reads the stats and obs hooks the program
// already exposes (EngineStats, SolverStats, obs::PassProfile, obs::Tracer).
//
// The last stdout line is one JSON object: correct/attempted/failed plus raw
// metric values by name (run.py attaches the units from BENCHMARK.json).
// With --trace 0 the metrics are the end-to-end ones, measured with every obs
// sink off; with --trace 1 the same iterations run untraced first, then one
// traced iteration yields the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/bug_io.h"
#include "src/core/ddt.h"
#include "src/core/replay.h"
#include "src/drivers/corpus.h"
#include "src/fleet/fleet.h"
#include "src/fuzz/executor.h"
#include "src/fuzz/input.h"
#include "src/fuzz/mutator.h"
#include "src/obs/profiler.h"
#include "src/obs/trace_events.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/vm/coverage_map.h"

namespace {

using ddt::Bug;
using ddt::CorpusDriver;
using ddt::DdtConfig;
using ddt::DriverImage;
using ddt::ExpectedBug;
using ddt::FaultCampaignConfig;
using ddt::FaultCampaignResult;
using ddt::PciDescriptor;
using ddt::Result;
namespace fs = std::filesystem;
namespace obs = ddt::obs;

// Set-up repeats at least kSetupReps times and for at least kSetupMinSeconds
// (so millisecond set-ups get a stable median); setup_s is the median.
constexpr size_t kSetupReps = 3;
constexpr double kSetupMinSeconds = 0.5;
// Campaign drivers, fuzz drivers, and the per-driver exec count of one fuzz
// round (the unit fuzz_exec's wall_s times; short, so the median over many
// rounds shrugs off bursts of host contention).
const std::vector<std::string> kCampaignDrivers = {"rtl8029", "audiopci"};
const std::vector<std::string> kFuzzDrivers = {"pro1000", "pcnet", "rtl8029"};
constexpr size_t kFuzzExecsPerDriver = 256;
// fuzz_exec's bugs_found covers the first rounds together: one round's count
// swings with the mutation streams.
constexpr size_t kFuzzResultRounds = 4;
constexpr uint32_t kWorkers = 2;  // campaign threads / fleet worker processes
constexpr size_t kTraceEventsPerThread = size_t{1} << 22;

// ---------------------------------------------------------------- utilities

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double TvS(const timeval& tv) { return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6; }

// User+sys CPU of this process plus every reaped child (fleet workers).
double CpuS() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return TvS(self.ru_utime) + TvS(self.ru_stime) + TvS(children.ru_utime) +
         TvS(children.ru_stime);
}

double PeakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ms(double seconds) { return seconds * 1000.0; }

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "ddt_perfbench: %s\n", what.c_str());
  std::exit(2);
}

// ------------------------------------------------------------ configuration

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string tmp;
  bool has_engine_seed = false;
  uint64_t engine_seed = 0;
};

// bench_table2's configuration: the Table-2 verdict budgets.
DdtConfig Table2Config(const Options& opt) {
  DdtConfig config;
  config.engine.max_instructions = 2'000'000;
  config.engine.max_wall_ms = 120'000;
  config.engine.max_states = 512;
  if (opt.has_engine_seed) {
    config.engine.seed = opt.engine_seed;
  }
  return config;
}

// bench_sdv_compare's configuration for the DDT side.
DdtConfig SdvConfig(const Options& opt) {
  DdtConfig config;
  config.engine.max_instructions = 3'000'000;
  config.engine.max_states = 1024;
  if (opt.has_engine_seed) {
    config.engine.seed = opt.engine_seed;
  }
  return config;
}

// Each iteration plans its escalation combinations from its own seed, so a
// run's median spans several plan sets.
FaultCampaignConfig CampaignConfig(const Options& opt, size_t iteration, bool traced) {
  FaultCampaignConfig config;
  config.base = Table2Config(opt);
  config.base.dma_checker = true;
  config.seed = ddt::SplitMix64(opt.seed).Fork(0xCA4F).Fork(iteration).Next();
  config.max_passes = 64;
  config.max_occurrences_per_class = 16;
  config.escalation_rounds = 2;
  config.hw_faults = true;
  config.hw_max_points_per_kind = 8;
  config.threads = kWorkers;
  config.collect_metrics = false;
  config.collect_profile = traced;  // defaults to true; off for timed runs
  return config;
}

// ------------------------------------------------------------------- oracle

// One ground-truth expectation: bug type + title keyword, as bench_table2 and
// bench_sdv_compare match them.
struct Want {
  ddt::BugType type;
  std::string keyword;
};

struct Match {
  size_t expected = 0;
  size_t found = 0;
  size_t false_positives = 0;  // bugs matching no expectation
};

Match MatchBugs(const std::vector<Want>& want, const std::vector<Bug>& bugs) {
  Match m;
  m.expected = want.size();
  std::set<size_t> used;
  for (const Want& w : want) {
    for (size_t i = 0; i < bugs.size(); ++i) {
      if (used.count(i) == 0 && bugs[i].type == w.type &&
          bugs[i].title.find(w.keyword) != std::string::npos) {
        used.insert(i);
        ++m.found;
        break;
      }
    }
  }
  m.false_positives = bugs.size() - used.size();
  return m;
}

std::vector<Want> Wants(const std::vector<ExpectedBug>& expected) {
  std::vector<Want> out;
  for (const ExpectedBug& e : expected) {
    out.push_back({e.type, e.keyword});
  }
  return out;
}

// ----------------------------------------------------------------- results

// What one iteration of a workload produced. Counters are summed over the
// iteration; per-layer values not measurable on a workload stay 0.
struct Iteration {
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t bugs_found = 0;
  uint64_t bugs_missed = 0;
  uint64_t false_positives = 0;
  uint64_t replays = 0;
  uint64_t replays_failed = 0;
  uint64_t replays_cross_path = 0;
  uint64_t blocks_covered = 0;
  std::vector<std::string> rows;  // per-driver oracle lines
  std::map<std::string, double> layer;
};

void AddStats(std::map<std::string, double>& layer, const ddt::EngineStats& e,
              const ddt::SolverStats& s) {
  layer["engine.instructions"] += e.instructions;
  layer["engine.states_created"] += e.states_created;
  layer["engine.forks"] += e.forks;
  layer["engine.dropped_forks"] += e.dropped_forks;
  layer["engine.kernel_calls"] += e.kernel_calls;
  layer["engine.concretizations"] += e.concretizations;
  layer["engine.peak_state_bytes"] =
      std::max<double>(layer["engine.peak_state_bytes"], e.peak_state_bytes);
  layer["engine.faults_injected"] += e.faults_injected;
  layer["engine.hw_faults_injected"] += e.hw_faults_injected;
  layer["vm.blocks_decoded"] += e.blocks_decoded;
  layer["vm.block_cache_hits"] += e.block_cache_hits;
  layer["solver.queries"] += s.queries;
  layer["solver.sat_calls"] += s.sat_calls;
  layer["solver.sat_clauses"] += s.total_sat_clauses;
  layer["solver.sat_vars"] += s.total_sat_vars;
  layer["solver.conflicts"] += s.total_conflicts;
  layer["solver.quick_decides"] += s.quick_decides;
  layer["solver.cache_hits"] += s.cache_hits;
  layer["solver.model_reuse_hits"] += s.model_reuse_hits;
  layer["solver.shared_cache_hits"] += s.shared_cache_hits + s.shared_cache_fastpath_hits;
  layer["solver.shared_cache_misses"] += s.shared_cache_misses;
  layer["solver.shared_cache_stores"] += s.shared_cache_stores;
}

void AddPhases(std::map<std::string, double>& layer, const obs::PhaseBreakdown& p) {
  layer["vm.decode_ms"] += p.phase_ns(obs::Phase::kDecode) / 1e6;
  layer["checkers.ms"] += p.phase_ns(obs::Phase::kChecker) / 1e6;
  layer["core.merge_ms"] += p.phase_ns(obs::Phase::kMerge) / 1e6;
}

// Replays every bug and tallies the outcome as ops.
void ReplayAll(const DriverImage& image, const PciDescriptor& pci, const std::vector<Bug>& bugs,
               const DdtConfig& config, Iteration& it) {
  for (const Bug& bug : bugs) {
    double t0 = NowS();
    ddt::ReplayResult replay;
    {
      obs::ScopedSpan span("bench.replay");
      replay = ddt::ReplayBug(image, pci, bug, config);
    }
    it.layer["core.replay_ms"] += Ms(NowS() - t0);
    ++it.attempted;
    ++it.replays;
    // A lock-order inversion is a verdict over two paths (the lock checker's
    // order graph spans the exploration); ReplayBug re-executes one recorded
    // path, so it cannot reproduce one. Counted and shown, not failed.
    if (!replay.reproduced && bug.type == ddt::BugType::kDeadlock &&
        bug.title.find("lock-order inversion") != std::string::npos) {
      ++it.replays_cross_path;
      it.rows.push_back("replay not single-path: " + bug.Row() + " (" + replay.detail + ")");
    } else if (!replay.reproduced) {
      ++it.failed;
      ++it.replays_failed;
      it.rows.push_back("replay FAILED: " + bug.Row() + " (" + replay.detail + ")");
    }
  }
}

// ---------------------------------------------------------------- workloads

// A workload: Setup() is timed and repeated (it must rebuild everything it
// measures from the driver sources each time); Run() performs one complete
// iteration, timed by the caller.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup(std::map<std::string, double>& setup_layer) = 0;
  virtual void Run(size_t iteration, bool traced, Iteration& it) = 0;
  // Adds per-layer values the trace and the stats hooks do not give, after a
  // traced iteration.
  virtual void AfterTrace(Iteration& it) {}
  // Iterations every run makes; the last of them reports bugs_found.
  virtual size_t ResultIterations() const { return 1; }
};

// A driver image assembled during set-up, with its corpus entry.
struct Driver {
  const CorpusDriver* meta = nullptr;  // ground truth + PCI shell
  DriverImage image;
};

// Assembles the named drivers from source (the work Corpus() caches) and
// checks each image against the corpus copy.
std::vector<Driver> AssembleDrivers(const std::vector<std::string>& names, double* assemble_ms) {
  static const std::map<std::string, std::function<std::string()>> kSources = {
      {"rtl8029", ddt::Rtl8029Source},   {"pcnet", ddt::PcnetSource},
      {"pro1000", ddt::Pro1000Source},   {"pro100", ddt::Pro100Source},
      {"audiopci", ddt::AudiopciSource}, {"ac97", ddt::Ac97Source},
  };
  std::vector<Driver> out;
  double t0 = NowS();
  for (const std::string& name : names) {
    Result<ddt::AssembledDriver> assembled = ddt::Assemble(kSources.at(name)());
    if (!assembled.ok()) {
      Die("assembly of " + name + " failed: " + assembled.error());
    }
    out.push_back({&ddt::CorpusDriverByName(name), assembled.value().image});
  }
  *assemble_ms = Ms(NowS() - t0);
  for (const Driver& d : out) {
    if (d.image.Serialize() != d.meta->image.Serialize()) {
      Die("assembled image of " + d.meta->name + " differs from the corpus image");
    }
  }
  return out;
}

// --- corpus_verdict: Table 2 + the SDV synthetic sample, then replays -------

class CorpusVerdict : public Workload {
 public:
  explicit CorpusVerdict(const Options& opt) : opt_(opt) {}

  void Setup(std::map<std::string, double>& setup_layer) override {
    double ms = 0;
    std::vector<std::string> names;
    for (const CorpusDriver& d : ddt::Corpus()) {
      names.push_back(d.name);
    }
    drivers_ = AssembleDrivers(names, &ms);
    double t0 = NowS();
    sdv_image_ = ddt::SdvSampleImage(/*with_synthetic_bugs=*/true);
    setup_layer["drivers.assemble_ms"] = ms + Ms(NowS() - t0);
  }

  // The verdicts take no seeded input: the engine seed stays at the program
  // default (see perfbench/README.md, "Seeds").
  void Run(size_t, bool traced, Iteration& it) override {
    for (size_t index = 0; index <= drivers_.size(); ++index) {  // last: SDV
      bool sdv = index == drivers_.size();
      const DriverImage& image = sdv ? sdv_image_ : drivers_[index].image;
      const PciDescriptor pci = sdv ? ddt::SdvSamplePci() : drivers_[index].meta->pci;
      std::string name = sdv ? "sdv_sample" : drivers_[index].meta->name;
      std::vector<Want> want =
          Wants(sdv ? ddt::SdvSampleExpected(true) : drivers_[index].meta->expected);
      DdtConfig config = sdv ? SdvConfig(opt_) : Table2Config(opt_);
      obs::PassProfile profile;
      if (traced) {
        config.engine.profile = &profile;
      }

      ddt::Ddt ddt_run(config);
      double t0 = NowS();
      Result<ddt::DdtResult> result = [&] {
        obs::ScopedSpan span("bench.test_driver");
        span.Arg(name);
        return ddt_run.TestDriver(image, pci);
      }();
      double dt = NowS() - t0;
      it.layer["core.test_driver_ms." + name] += Ms(dt);
      ++it.attempted;
      if (!result.ok()) {
        ++it.failed;
        it.bugs_missed += want.size();
        it.rows.push_back(name + ": TestDriver failed: " + result.status().message());
        continue;
      }
      const ddt::DdtResult& r = result.value();
      Match m = MatchBugs(want, r.bugs);
      it.bugs_found += r.bugs.size();
      it.bugs_missed += m.expected - m.found;
      it.false_positives += m.false_positives;
      it.blocks_covered += r.covered_blocks;
      if (m.found != m.expected || m.false_positives != 0) {
        ++it.failed;
      }
      AddStats(it.layer, r.stats, r.solver_stats);
      AddPhases(it.layer, profile.Snapshot());
      uint64_t replays_failed = it.replays_failed;
      ReplayAll(image, pci, r.bugs, config, it);
      it.rows.push_back(ddt::StrFormat(
          "%-10s found %zu/%zu  false_positives %zu  replays %zu/%zu  verdict %.0f ms", name.c_str(),
          m.found, m.expected, m.false_positives,
          r.bugs.size() - static_cast<size_t>(it.replays_failed - replays_failed), r.bugs.size(),
          Ms(dt)));
    }
  }

 private:
  const Options& opt_;
  std::vector<Driver> drivers_;
  DriverImage sdv_image_;
};

// --- fault_campaign / fleet_campaign: the same campaign, two transports -----

class Campaign : public Workload {
 public:
  Campaign(const Options& opt, bool fleet) : opt_(opt), fleet_(fleet) {}

  void Setup(std::map<std::string, double>& setup_layer) override {
    double ms = 0;
    drivers_ = AssembleDrivers(kCampaignDrivers, &ms);
    setup_layer["drivers.assemble_ms"] = ms;
  }

  void Run(size_t iteration, bool traced, Iteration& it) override {
    for (const Driver& d : drivers_) {
      // A fresh directory per campaign: every campaign starts cold.
      std::string dir = opt_.tmp + ddt::StrFormat("/campaign%zu", campaigns_run_++);
      fs::create_directories(dir + "/shards");
      FaultCampaignConfig config = CampaignConfig(opt_, iteration, traced);
      config.journal_path = dir + "/campaign.journal";
      config.shared_cache_path = dir + "/solver.cache";

      double t0 = NowS();
      Result<FaultCampaignResult> result = [&] {
        obs::ScopedSpan span(fleet_ ? "bench.fleet_campaign" : "bench.campaign");
        span.Arg(d.meta->name);
        if (!fleet_) {
          return ddt::RunFaultCampaign(config, d.image, d.meta->pci);
        }
        ddt::fleet::FleetCampaignConfig fc;
        fc.workers = kWorkers;
        fc.shard_dir = dir + "/shards";
        return ddt::fleet::RunFleetCampaign(config, d.image, d.meta->pci, fc);
      }();
      double wall_ms = Ms(NowS() - t0);
      ++it.attempted;  // the campaign's merged verdict
      if (!result.ok()) {
        ++it.failed;
        it.rows.push_back(d.meta->name + ": campaign failed: " + result.status().message());
        continue;
      }
      const FaultCampaignResult& r = result.value();
      for (const ddt::FaultCampaignPass& pass : r.passes) {
        ++it.attempted;
        if (pass.quarantined) {
          ++it.failed;
          it.rows.push_back(d.meta->name + ": pass quarantined: " + pass.failure);
        }
      }
      // Ground truth: the driver's Table-2 bugs plus the documented latent
      // rtl8029 bugs only the fault and DMA planes reach. Extra campaign
      // findings (error-path leaks) are expected and not false positives.
      std::vector<Want> want = Wants(d.meta->expected);
      if (d.meta->name == "rtl8029") {
        want.push_back({ddt::BugType::kResourceLeak, "map-io-space"});
        want.push_back({ddt::BugType::kMemoryCorruption, "DMA target in pageable memory"});
      }
      Match m = MatchBugs(want, r.bugs);
      it.bugs_found += r.bugs.size();
      it.bugs_missed += m.expected - m.found;
      if (m.found != m.expected) {
        ++it.failed;
      }
      // Lost workers are failed ops too (attempted once per spawn).
      it.attempted += r.fleet_workers_spawned;
      it.failed += r.fleet_workers_lost;

      auto& L = it.layer;
      AddStats(L, r.total_stats, r.total_solver_stats);
      for (const auto& pass : r.profile.passes) {
        AddPhases(L, pass.phases);
      }
      L["core.passes"] += r.passes.size();
      L["core.passes_quarantined"] += r.passes_quarantined;
      L["core.pass_ms_sum"] += r.total_wall_ms;
      L["core.journal_bytes"] += FileBytes(config.journal_path);
      L["core.shared_cache_file_bytes"] += FileBytes(config.shared_cache_path);
      L[fleet_ ? "fleet.parallel_efficiency" : "core.parallel_efficiency"] +=
          r.total_wall_ms / (wall_ms * kWorkers) / drivers_.size();
      L["fleet.workers_spawned"] += r.fleet_workers_spawned;
      L["fleet.workers_lost"] += r.fleet_workers_lost;
      L["fleet.leases_reassigned"] += r.fleet_leases_reassigned;
      L["fleet.results_salvaged"] += r.fleet_results_salvaged;

      uint64_t replays_failed = it.replays_failed;
      ReplayAll(d.image, d.meta->pci, r.bugs, config.base, it);
      it.rows.push_back(ddt::StrFormat(
          "%-10s found %zu/%zu expected (%zu bugs)  passes %zu (quarantined %llu)  replays "
          "%zu/%zu  campaign %.0f ms",
          d.meta->name.c_str(), m.found, m.expected, r.bugs.size(), r.passes.size(),
          static_cast<unsigned long long>(r.passes_quarantined),
          r.bugs.size() - static_cast<size_t>(it.replays_failed - replays_failed), r.bugs.size(),
          wall_ms));
      fs::remove_all(dir);
    }
  }

 private:
  const Options& opt_;
  bool fleet_;
  std::vector<Driver> drivers_;
  size_t campaigns_run_ = 0;
};

// --- fuzz_exec: closed MutateInput -> FuzzExecutor::Execute loop ------------

class FuzzExec : public Workload {
 public:
  explicit FuzzExec(const Options& opt) : opt_(opt) {
    campaign_.base = Table2Config(opt);
  }

  void Setup(std::map<std::string, double>& setup_layer) override {
    double ms = 0;
    drivers_ = AssembleDrivers(kFuzzDrivers, &ms);
    setup_layer["drivers.assemble_ms"] = ms;
    // One symbolic pass per driver derives the solver-backed seeds.
    double t0 = NowS();
    std::vector<std::vector<ddt::fuzz::FuzzInput>> seeds;
    for (const Driver& d : drivers_) {
      DdtConfig config = campaign_.base;
      config.engine.max_path_seeds = 16;
      ddt::Ddt seed_run(config);
      Result<ddt::DdtResult> r = seed_run.TestDriver(d.image, d.meta->pci);
      if (!r.ok()) {
        Die("seed pass on " + d.meta->name + " failed: " + r.status().message());
      }
      std::vector<ddt::fuzz::FuzzInput> inputs;
      for (size_t i = 0; i < r.value().path_seeds.size(); ++i) {
        inputs.push_back(ddt::fuzz::FromPathSeed(r.value().path_seeds[i],
                                                 config.engine.fault_plan,
                                                 ddt::StrFormat("seed#%zu", i)));
      }
      if (inputs.empty()) {
        Die("seed pass on " + d.meta->name + " derived no seeds");
      }
      seeds.push_back(std::move(inputs));
    }
    setup_layer["fuzz.seed_ms"] = Ms(NowS() - t0);
    // Seed derivation must be deterministic across set-up repetitions.
    if (!seeds_.empty()) {
      for (size_t d = 0; d < seeds.size(); ++d) {
        for (size_t i = 0; i < std::max(seeds[d].size(), seeds_[d].size()); ++i) {
          if (i >= seeds[d].size() || i >= seeds_[d].size() ||
              ddt::fuzz::SerializeFuzzInput(seeds[d][i]) !=
                  ddt::fuzz::SerializeFuzzInput(seeds_[d][i])) {
            Die("seed derivation on " + drivers_[d].meta->name + " is not deterministic");
          }
        }
      }
    }
    seeds_ = std::move(seeds);
    result_bugs_.clear();
    executors_.clear();
    for (const Driver& d : drivers_) {
      executors_.push_back(
          std::make_unique<ddt::fuzz::FuzzExecutor>(campaign_, d.image, d.meta->pci));
    }
  }

  void Run(size_t iteration, bool traced, Iteration& it) override {
    traced_inputs_.clear();
    std::vector<ddt::CoverageBitmap> coverage(drivers_.size());
    // Distinct bugs per driver by (type, detection pc) — the identity
    // ReplayBug checks; titles carry mutated values. First evidence replays.
    std::vector<std::map<std::pair<int, uint32_t>, Bug>> bugs(drivers_.size());
    for (size_t e = 0; e < kFuzzExecsPerDriver; ++e) {
      for (size_t d = 0; d < drivers_.size(); ++d) {
        // One independent stream per (seed, round, driver, exec).
        ddt::SplitMix64 rng =
            ddt::SplitMix64(opt_.seed).Fork(iteration).Fork(d).Fork(e);
        ddt::fuzz::FuzzInput mutant;
        {
          obs::ScopedSpan span("bench.mutate");
          const ddt::fuzz::FuzzInput& base = seeds_[d][rng.NextBelow(seeds_[d].size())];
          mutant = ddt::fuzz::MutateInput(base, rng, /*counts=*/nullptr);
        }
        ddt::fuzz::FuzzExecResult r;
        {
          obs::ScopedSpan span("bench.fuzz_exec");
          span.Arg(drivers_[d].meta->name);
          r = executors_[d]->Execute(mutant);
        }
        ++it.attempted;
        if (!r.ok) {
          ++it.failed;
          it.rows.push_back(drivers_[d].meta->name + ": exec quarantined: " + r.failure);
          continue;
        }
        it.layer["fuzz.instructions"] += r.instructions;
        coverage[d].OrWith(r.coverage);
        if (!r.bugs_text.empty()) {
          Result<std::vector<Bug>> found = ddt::DeserializeBugs(r.bugs_text);
          if (!found.ok()) {
            ++it.failed;
            it.rows.push_back(drivers_[d].meta->name + ": bad bug evidence: " + found.error());
            continue;
          }
          for (Bug& bug : found.value()) {
            bugs[d].emplace(std::make_pair(static_cast<int>(bug.type), bug.pc), std::move(bug));
          }
        }
        if (traced) {
          traced_inputs_.push_back({d, std::move(mutant), r.instructions});
        }
      }
    }
    // The round's distinct bugs replay under the executor's checker set.
    DdtConfig replay_config = campaign_.base;
    replay_config.dma_checker = true;
    for (size_t d = 0; d < drivers_.size(); ++d) {
      std::vector<Bug> distinct;
      for (auto& [key, bug] : bugs[d]) {
        distinct.push_back(bug);
      }
      uint64_t replays_failed = it.replays_failed;
      ReplayAll(drivers_[d].image, drivers_[d].meta->pci, distinct, replay_config, it);
      if (iteration < kFuzzResultRounds) {
        for (const auto& [key, bug] : bugs[d]) {
          result_bugs_.insert({d, key.first, key.second});
        }
      }
      it.blocks_covered += coverage[d].Popcount();
      it.rows.push_back(ddt::StrFormat(
          "%-10s execs %zu  union blocks %zu  distinct bugs %zu  replays %zu/%zu",
          drivers_[d].meta->name.c_str(), kFuzzExecsPerDriver, coverage[d].Popcount(),
          distinct.size(), distinct.size() - static_cast<size_t>(it.replays_failed - replays_failed),
          distinct.size()));
    }
    it.bugs_found = result_bugs_.size();
  }

  // bugs_found: distinct bugs over the first kFuzzResultRounds rounds.
  size_t ResultIterations() const override { return kFuzzResultRounds; }

  void AfterTrace(Iteration& it) override {
    // Engine, solver and vm counters of a concrete exec are not returned by
    // Execute; re-run each traced input once, untraced, under the executor's
    // guided configuration (src/fuzz/executor.cc) with a profile attached.
    for (const TracedInput& t : traced_inputs_) {
      DdtConfig config = campaign_.base;
      config.engine.guided = true;
      config.engine.guided_inputs = ddt::fuzz::GuidedInputs(t.input);
      config.engine.forced_interrupt_schedule = t.input.interrupt_schedule;
      config.engine.forced_alternatives = t.input.alternatives;
      config.engine.enable_symbolic_interrupts = false;
      config.engine.fault_plan = t.input.fault_plan;
      config.engine.max_states = 4;
      config.dma_checker = true;
      obs::PassProfile profile;
      config.engine.profile = &profile;
      ddt::Ddt run(config);
      Result<ddt::DdtResult> r = run.TestDriver(drivers_[t.driver].image,
                                                drivers_[t.driver].meta->pci);
      if (!r.ok() || r.value().stats.instructions != t.instructions) {
        std::fprintf(stderr, "note: guided re-run of a %s input diverged from Execute\n",
                     drivers_[t.driver].meta->name.c_str());
        continue;
      }
      AddStats(it.layer, r.value().stats, r.value().solver_stats);
      AddPhases(it.layer, profile.Snapshot());
    }
    if (!traced_inputs_.empty()) {
      it.layer["fuzz.instructions_per_exec"] =
          it.layer["fuzz.instructions"] / static_cast<double>(traced_inputs_.size());
    }
    it.layer.erase("fuzz.instructions");
    // The executor never calls the solver: SAT calls are the solver.query
    // spans the traced loop recorded, not the re-runs above.
    it.layer["solver.sat_calls"] = it.layer["trace.solver_query_spans"];
  }

 private:
  struct TracedInput {
    size_t driver;
    ddt::fuzz::FuzzInput input;
    uint64_t instructions;
  };

  const Options& opt_;
  FaultCampaignConfig campaign_;
  std::vector<Driver> drivers_;
  std::vector<std::vector<ddt::fuzz::FuzzInput>> seeds_;
  std::vector<std::unique_ptr<ddt::fuzz::FuzzExecutor>> executors_;
  std::vector<TracedInput> traced_inputs_;
  // (driver, bug type, pc) of every bug the first rounds found.
  std::set<std::tuple<size_t, int, uint32_t>> result_bugs_;
};

// ------------------------------------------------------------ trace analysis

// Folds a collected trace into per-layer values: span totals, self times
// (duration minus direct children), and per-driver exec latencies.
void AnalyzeTrace(std::vector<obs::TraceEventRecord> events, Iteration& it) {
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.depth < b.depth;
  });
  std::map<std::string, double> total_us;
  std::map<std::string, double> self_us;
  std::vector<double> query_ms;
  std::map<std::string, std::vector<double>> exec_ms;
  double exec_run_us = 0;  // engine.run directly under bench.fuzz_exec
  struct Open {
    const obs::TraceEventRecord* ev;
    double child_us;
  };
  std::vector<Open> stack;
  uint32_t tid = UINT32_MAX;
  auto close = [&](const Open& o) {
    self_us[o.ev->name] += o.ev->dur_us - o.child_us;
  };
  for (const obs::TraceEventRecord& ev : events) {
    if (ev.phase != 'X') {
      continue;
    }
    if (ev.tid != tid) {
      for (const Open& o : stack) close(o);
      stack.clear();
      tid = ev.tid;
    }
    while (!stack.empty() && stack.back().ev->ts_us + stack.back().ev->dur_us <= ev.ts_us) {
      close(stack.back());
      stack.pop_back();
    }
    std::string name = ev.name;
    if (!stack.empty()) {
      stack.back().child_us += ev.dur_us;
      if (name == "engine.run" && std::strcmp(stack.back().ev->name, "bench.fuzz_exec") == 0) {
        exec_run_us += ev.dur_us;
      }
    }
    stack.push_back({&ev, 0});
    total_us[name] += ev.dur_us;
    if (name == "solver.query") {
      query_ms.push_back(ev.dur_us / 1000.0);
    } else if (name == "bench.fuzz_exec") {
      exec_ms[ev.arg].push_back(ev.dur_us / 1000.0);
    }
  }
  for (const Open& o : stack) close(o);

  auto& L = it.layer;
  L["trace.solver_query_spans"] = static_cast<double>(query_ms.size());
  L["solver.query_ms"] = total_us["solver.query"] / 1000.0;
  L["solver.query_ms_p50"] = Quantile(query_ms, 0.5);
  L["solver.query_ms_p99"] = Quantile(query_ms, 0.99);
  L["engine.run_ms"] = self_us["engine.run"] / 1000.0;
  L["core.load_ms"] = self_us["bench.test_driver"] / 1000.0;
  L["core.journal_ms"] = total_us["journal.append"] / 1000.0;
  L["fuzz.exec_ms"] = total_us["bench.fuzz_exec"] / 1000.0;
  L["fuzz.mutate_ms"] = total_us["bench.mutate"] / 1000.0;
  if (!exec_ms.empty()) {
    L["fuzz.exec_run_ms"] = exec_run_us / 1000.0;
    L["fuzz.exec_setup_ms"] = L["fuzz.exec_ms"] - L["fuzz.exec_run_ms"];
  }
  std::vector<double> all_exec_ms;
  for (const auto& [driver, samples] : exec_ms) {
    L["fuzz.exec_ms_p50." + driver] = Quantile(samples, 0.5);
    all_exec_ms.insert(all_exec_ms.end(), samples.begin(), samples.end());
  }
  if (!all_exec_ms.empty()) {
    L["fuzz.exec_ms_p50"] = Quantile(all_exec_ms, 0.5);
    L["fuzz.exec_ms_p99"] = Quantile(all_exec_ms, 0.99);
  }
}

// ------------------------------------------------------------------ output

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 0);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
      have_seconds = true;
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--tmp") {
      opt.tmp = val;
    } else if (key == "--engine-seed") {
      opt.has_engine_seed = true;
      opt.engine_seed = std::strtoull(val.c_str(), nullptr, 0);
    } else {
      Die("unknown argument " + key);
    }
  }
  if (opt.workload.empty() || !have_seconds || opt.seconds <= 0 || opt.tmp.empty()) {
    Die("usage: ddt_perfbench --workload W --seed N --seconds S --trace 0|1 --tmp DIR "
        "[--engine-seed N]");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload;
  if (opt.workload == "corpus_verdict") {
    workload = std::make_unique<CorpusVerdict>(opt);
  } else if (opt.workload == "fault_campaign") {
    workload = std::make_unique<Campaign>(opt, /*fleet=*/false);
  } else if (opt.workload == "fleet_campaign") {
    workload = std::make_unique<Campaign>(opt, /*fleet=*/true);
  } else if (opt.workload == "fuzz_exec") {
    workload = std::make_unique<FuzzExec>(opt);
  } else {
    Die("unknown workload " + opt.workload);
  }
  obs::Tracer::Get().Disable();

  // Set-up, repeated; the corpus metadata is built once up front so every
  // repetition does the same work.
  ddt::Corpus();
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> setup_layer_samples;
  double setup_start = NowS();
  while (setup_s.size() < kSetupReps || NowS() - setup_start < kSetupMinSeconds) {
    std::map<std::string, double> setup_layer;
    double t0 = NowS();
    workload->Setup(setup_layer);
    setup_s.push_back(NowS() - t0);
    for (const auto& [k, v] : setup_layer) {
      setup_layer_samples[k].push_back(v);
    }
  }

  // Timed iterations while the next one still fits in the budget (at least
  // one); each is a complete, checked workload result.
  std::vector<Iteration> iterations;
  double start = NowS();
  double longest = 0;
  do {
    Iteration it;
    double c0 = CpuS();
    double t0 = NowS();
    workload->Run(iterations.size(), /*traced=*/false, it);
    it.wall_s = NowS() - t0;
    it.cpu_s = CpuS() - c0;
    longest = std::max(longest, it.wall_s);
    iterations.push_back(std::move(it));
  } while (iterations.size() < workload->ResultIterations() ||
           NowS() - start + longest <= opt.seconds);

  // Aggregate the untraced iterations.
  std::vector<double> walls, cpus;
  uint64_t attempted = 0, failed = 0;
  // Result counts come from iterations every run makes, so they depend on
  // the seed only.
  const Iteration& first_it = iterations.front();
  const Iteration& result_it = iterations[workload->ResultIterations() - 1];
  std::vector<double> rates;
  for (const Iteration& it : iterations) {
    walls.push_back(it.wall_s);
    cpus.push_back(it.cpu_s);
    rates.push_back(static_cast<double>(it.attempted) / it.wall_s);
    attempted += it.attempted;
    failed += it.failed;
  }
  bool correct = true;
  for (const std::string& row : first_it.rows) {
    std::printf("%s\n", row.c_str());
  }

  std::map<std::string, double> metrics;
  if (!opt.trace) {
    metrics["setup_s"] = Median(setup_s);
    metrics["wall_s"] = Median(walls);
    metrics["cpu_s"] = Median(cpus);
    metrics["peak_rss_mb"] = PeakRssMb();
    metrics["ops_per_s"] = Median(rates);
    metrics["bugs_found"] = static_cast<double>(result_it.bugs_found);
  } else {
    // Iteration 0 once more, traced, with the phase profile on and a tracer
    // ring large enough that nothing is dropped (checked below). Repeating
    // iteration 0 keeps the traced inputs independent of how many untraced
    // iterations fit in the budget.
    Iteration traced;
    obs::Tracer::Get().Enable(kTraceEventsPerThread);
    double t0 = NowS();
    workload->Run(0, /*traced=*/true, traced);
    traced.wall_s = NowS() - t0;
    obs::Tracer::Get().Disable();
    std::vector<obs::TraceEventRecord> events = obs::Tracer::Get().Collect();
    uint64_t dropped = obs::Tracer::Get().DroppedEvents();
    AnalyzeTrace(events, traced);
    workload->AfterTrace(traced);
    correct = dropped == 0;
    if (opt.workload == "fuzz_exec" && traced.layer["solver.sat_calls"] != 0) {
      std::printf("fuzz_exec called the solver %.0f times\n", traced.layer["solver.sat_calls"]);
      correct = false;
    }
    attempted += traced.attempted;
    failed += traced.failed;

    metrics = traced.layer;
    metrics.erase("trace.solver_query_spans");
    for (const auto& [k, v] : setup_layer_samples) {
      metrics[k] = Median(v);
    }
    const double q = metrics["solver.queries"];
    const double sat = metrics["solver.sat_calls"];
    const double decoded = metrics["vm.blocks_decoded"];
    const double hits = metrics["vm.block_cache_hits"];
    metrics["solver.sat_share"] = q > 0 ? sat / q : 0;
    metrics["solver.clauses_per_sat_call"] = sat > 0 ? metrics["solver.sat_clauses"] / sat : 0;
    metrics["vm.block_hit_ratio"] = hits + decoded > 0 ? hits / (hits + decoded) : 0;
    metrics["obs.trace_overhead"] = traced.wall_s / first_it.wall_s;
    metrics["obs.dropped_events"] = static_cast<double>(dropped);
    metrics["oracle.bugs_missed"] = static_cast<double>(traced.bugs_missed);
    metrics["oracle.false_positives"] = static_cast<double>(traced.false_positives);
    metrics["oracle.replays"] = static_cast<double>(traced.replays);
    metrics["oracle.replays_failed"] = static_cast<double>(traced.replays_failed);
    metrics["oracle.replays_cross_path"] = static_cast<double>(traced.replays_cross_path);
    metrics["oracle.blocks_covered"] = static_cast<double>(traced.blocks_covered);
  }

  // Every failed operation (missed or extra bug, failed replay, quarantined
  // pass or exec, lost worker) makes the run incorrect.
  correct = correct && failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : metrics) {
    json += (first ? "\"" : ", \"") + k + "\": " + JsonNumber(v);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
