// Campaign scheduler: runs a whole (app × tool × category) grid of fault
// injection campaigns on one shared worker pool.
//
// Compared to calling run_campaign per cell, the scheduler
//  * profiles each engine once — its one fault-free run, which is also its
//    golden run, records the dynamic counts of *all* categories
//    (InjectorEngine::profile_all) instead of one re-run per category —
//    and profiles the engines in parallel on up to the worker count,
//  * spins the thread pool up once for the whole grid: trials from every
//    campaign land in one shared queue that idle workers steal from, so
//    cores never drain between campaigns,
//  * captures worker exceptions via std::exception_ptr and rethrows them
//    after joining as a CampaignError naming the failing campaign, instead
//    of letting them escape a std::thread and std::terminate the process,
//  * records observability data: per-campaign wall time, trials/sec,
//    injected/activated counters, and a machine-readable run manifest.
//
//  * executes each campaign's trials in k-sorted order, grouped into
//    chunks by checkpoint window (InjectorEngine::window_of): a worker runs
//    a window's trials back-to-back against its resident per-engine
//    execution context (InjectorEngine::make_context), so every reset after
//    the first stays on Memory's O(dirty pages) delta-restore path instead
//    of rebuilding the whole address space per trial.
//
// Determinism: every trial's (k, bit-stream) draw is generated sequentially
// up front from the campaign's seed, exactly as run_campaign always did, so
// results are bit-identical for any thread count — and identical to the
// pre-scheduler per-cell loop. The k-sort and window chunking only permute
// *execution* order; each record is written back to its original draw
// index, so output order never changes.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/campaign.h"
#include "fault/engine.h"
#include "obs/monitor.h"
#include "support/csv.h"

namespace faultlab::fault {

/// Thrown by CampaignScheduler::run when a trial worker throws: identifies
/// the campaign and carries the original exception for rethrow.
class CampaignError : public std::runtime_error {
 public:
  CampaignError(std::string app, std::string tool, ir::Category category,
                std::exception_ptr cause);

  const std::string& app() const noexcept { return app_; }
  const std::string& tool() const noexcept { return tool_; }
  ir::Category category() const noexcept { return category_; }
  std::exception_ptr cause() const noexcept { return cause_; }

 private:
  std::string app_;
  std::string tool_;
  ir::Category category_;
  std::exception_ptr cause_;
};

/// Timing and counters for one campaign, as recorded in the run manifest.
struct CampaignTiming {
  std::string app;
  std::string tool;
  ir::Category category = ir::Category::All;
  std::string fault_model = "transient";  ///< Model::name() of the engine
  std::uint64_t seed = 0;
  std::uint64_t profiled_count = 0;
  std::size_t trials = 0;
  std::size_t injected = 0;
  std::size_t activated = 0;
  std::size_t crash = 0;
  std::size_t sdc = 0;
  std::size_t benign = 0;
  std::size_t hang = 0;
  std::size_t not_activated = 0;
  /// Trials resumed from a checkpoint snapshot (vs. re-running the prefix).
  std::size_t restored = 0;
  /// Restored trials whose reset walked only the dirty page set (the
  /// O(dirty) path) instead of rewriting the full page table.
  std::size_t delta_restores = 0;
  /// Mean page-table entries rewritten per restored trial.
  double mean_restored_pages = 0.0;
  double wall_seconds = 0.0;  ///< first trial dispatched -> last trial done
  /// Exact trial-latency percentiles (linear interpolation over the sorted
  /// per-trial wall times), in milliseconds. Zero when no trials ran.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  /// Wilson 95% CI half-width of the crash share over activated trials,
  /// and whether it beat the run's ci_target. Computed from the final
  /// tallies in finalize(), so the values are identical whether or not the
  /// live monitor ran.
  double ci_halfwidth = 0.0;
  bool converged = false;
  /// Stall-watchdog flags raised against this campaign's in-flight trials
  /// (0 when the monitor was off — flags only exist while it watches).
  std::uint64_t watchdog_flags = 0;

  double trials_per_second() const noexcept {
    return wall_seconds > 0.0 ? static_cast<double>(trials) / wall_seconds
                              : 0.0;
  }
  /// Fraction of trials that resumed from a snapshot.
  double hit_rate() const noexcept {
    return trials != 0
               ? static_cast<double>(restored) / static_cast<double>(trials)
               : 0.0;
  }
};

/// Everything needed to reproduce and audit a grid run, emitted alongside
/// the results CSV.
struct RunManifest {
  std::size_t threads = 0;        ///< worker count actually used
  FaultModel model;               ///< fault-model knobs in effect
  /// Phase 1 wall time: every engine's one fault-free run (golden output,
  /// category counts and snapshot capture), in parallel on up to the
  /// worker count.
  double profile_seconds = 0.0;
  double wall_seconds = 0.0;      ///< whole run() call
  /// Dispatch mode the run's engines ran with ("threaded" | "switch", or
  /// "mixed" when they differ; InjectorEngine::exec_config), and the
  /// trace-cache activity attributable to this run (process-wide counter
  /// deltas across run(); see machine/dispatch.h).
  std::string dispatch_mode = "threaded";
  std::uint64_t trace_decodes = 0;
  std::uint64_t trace_hits = 0;
  std::uint64_t trace_invalidations = 0;
  /// Convergence threshold the per-campaign `converged` flags were judged
  /// against (FAULTLAB_CI_TARGET or SchedulerOptions::monitor).
  double ci_target = 0.05;
  /// Trials of this run that stopped early on a golden snapshot, and the
  /// golden-suffix instructions they did not simulate (deltas of the
  /// engines' CheckpointStats across run(); DESIGN §4).
  std::uint64_t converged_trials = 0;
  std::uint64_t converged_instructions = 0;
  std::vector<CampaignTiming> campaigns;  ///< in add() order
};

/// Snapshot passed to the progress callback each time a campaign finishes.
struct SchedulerProgress {
  std::size_t campaigns_total = 0;
  std::size_t campaigns_done = 0;
  std::size_t trials_total = 0;
  std::size_t trials_done = 0;
  /// The campaign that just completed (aggregated counters valid). Null on
  /// the initial profiling-done notification.
  const CampaignResult* completed = nullptr;
};

struct SchedulerOptions {
  /// Worker threads for the shared trial pool. 0 defers to FAULTLAB_THREADS
  /// if set, otherwise hardware concurrency.
  std::size_t threads = 0;
  /// Recorded in the run manifest (the scheduler itself is model-agnostic;
  /// the engines were constructed with it).
  FaultModel model;
  /// Invoked, serialized, from worker threads as campaigns complete.
  std::function<void(const SchedulerProgress&)> progress;
  /// Engaging this forces the campaign monitor on with these options,
  /// bypassing the environment. Disengaged (the default), run() builds
  /// options from the environment and spins the monitor up only when a
  /// status path is configured or the progress heartbeat is on. The
  /// monitor is observational only — results are byte-identical either
  /// way (the equivalence harness, Seeds/RandomContexts.
  /// StrategiesAgreeSideBySide, enforces it).
  std::optional<obs::MonitorOptions> monitor;
};

class CampaignScheduler {
 public:
  explicit CampaignScheduler(SchedulerOptions options = {});

  /// Queues one campaign. The engine must outlive run(); the same engine
  /// may back several campaigns (one per category) and is profiled once.
  void add(InjectorEngine& engine, CampaignConfig config);

  std::size_t pending() const noexcept { return entries_.size(); }

  /// Runs every queued trial on one shared pool and returns the campaign
  /// results in add() order. Clears the queue. Throws CampaignError when a
  /// trial worker throws (after all workers have been joined); an engine's
  /// profile_all() exception propagates as is, once every profiling thread
  /// has joined (the first engine in add() order wins).
  std::vector<CampaignResult> run();

  /// Manifest of the last run() call.
  const RunManifest& manifest() const noexcept { return manifest_; }

 private:
  struct Entry {
    InjectorEngine* engine;
    CampaignConfig config;
  };

  SchedulerOptions options_;
  std::vector<Entry> entries_;
  RunManifest manifest_;
};

/// Machine-readable manifest dump: one row per campaign, run-level fields
/// (threads, fault-model flags) repeated on every row.
CsvWriter manifest_csv(const RunManifest& manifest);

}  // namespace faultlab::fault
