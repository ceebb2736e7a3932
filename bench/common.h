// Shared helpers for the experiment harnesses (one binary per paper
// table/figure). Each binary is self-contained: it compiles the six
// benchmarks, runs the campaigns it needs, prints the paper-shaped table,
// and drops a CSV (plus a run manifest) next to the binary for downstream
// tooling.
#pragma once

#include <string>
#include <vector>

#include "apps/apps.h"
#include "driver/pipeline.h"
#include "fault/campaign.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "fault/report.h"
#include "fault/scheduler.h"

namespace faultlab::benchx {

struct CompiledApp {
  std::string name;
  driver::CompiledProgram program;
};

/// Compiles all six benchmarks through the full pipeline.
std::vector<CompiledApp> compile_all_apps();

/// Results plus the scheduler's run manifest (timings, counters, config).
struct ExperimentRun {
  fault::ResultSet results;
  fault::RunManifest manifest;
  /// Checkpoint-layer counters summed over every engine in the run.
  fault::CheckpointStats checkpoints;
  /// Restore/execute/classify wall time summed over every engine's trials.
  fault::PhaseStats phases;
  std::uint64_t seed = 0;
};

/// Scheduler options shared by every bench binary: FAULTLAB_THREADS pins
/// the worker count, and a per-campaign completion line goes to stderr
/// unless FAULTLAB_PROGRESS=1 (the scheduler's own single-line reporter)
/// is on, which would be clobbered by interleaved output.
fault::SchedulerOptions default_scheduler_options(
    const fault::FaultModel& model = {});

/// Runs LLFI+PINFI campaigns for the given categories over all apps on one
/// shared CampaignScheduler: each engine is profiled once for all
/// categories, and every trial of the grid goes through one worker pool.
/// `fault_model` selects the hardware fault model both engines inject
/// (defaults to FAULTLAB_FAULT_MODEL, i.e. the transient baseline).
ExperimentRun run_experiment(const std::vector<CompiledApp>& apps,
                             const std::vector<ir::Category>& categories,
                             std::size_t trials,
                             const fault::FaultModel& model = {},
                             const fault::Model& fault_model =
                                 fault::Model::from_env(),
                             std::uint64_t seed = 0xDA7A5EED);

/// Prints a standard experiment banner (paper reference + trial count).
void print_banner(const std::string& what, std::size_t trials);

/// Saves a CSV beside the current working directory, reporting the path.
void save_results(const fault::ResultSet& rs, const std::string& filename);

/// Saves the results CSV plus the run manifest (<stem>.manifest.csv), and
/// records the run's perf counters in BENCH_perf.json (see write_perf_entry).
void save_results(const ExperimentRun& run, const std::string& filename);

/// Upserts one experiment's entry in ./BENCH_perf.json — a top-level JSON
/// object keyed by experiment name, one entry per line, so successive bench
/// binaries sharing a working directory accumulate into one manifest.
/// Records wall time, trials/sec, thread count, seed, the checkpoint
/// layer's stride/snapshot/hit-rate and golden-convergence counters,
/// dispatch provenance (mode + trace-cache counters), and the
/// restore/execute/classify phase split. Runs under a non-default dispatch
/// mode are keyed `<experiment>_<mode>dispatch`, so A/B pairs coexist.
void write_perf_entry(const std::string& experiment, const ExperimentRun& run);

}  // namespace faultlab::benchx
