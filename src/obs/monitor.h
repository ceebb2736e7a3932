// Live campaign telemetry: a control-plane observability layer the
// scheduler feeds at trial boundaries.
//
// A grid run is a black box until the manifest CSV lands; the monitor
// turns it into an inspectable process while it runs:
//
//  * **Per-cell convergence.** Every (app × tool × category) cell keeps
//    running outcome tallies; a cell is *converged* once the Wilson 95%
//    CI half-width of its crash share (over activated trials — the
//    paper's convention, same closed form as support/stats.h) has dropped
//    below the `FAULTLAB_CI_TARGET` threshold. Convergence is recomputed
//    from the current tallies on every read, never latched, so a share
//    drifting back toward 0.5 can de-converge a cell.
//  * **ETA model.** A sliding recent-window trials/sec rate (RateWindow)
//    plus a fallback built from the engines' always-on fault::PhaseStats
//    restore/execute/classify split: mean per-trial busy seconds ×
//    remaining trials / workers. The window rate wins once it has two
//    samples; early in a run (checkpoint warm-up) the phase model is the
//    better predictor.
//  * **Stall watchdog.** Each worker registers its in-flight trial
//    (cell + start time); a periodic scan flags any trial whose age
//    exceeds `FAULTLAB_WATCHDOG` × the cell's running p99 latency.
//    Flagging is observational only — an event is recorded and the cell
//    and global counters bump; the trial is never killed. The scheduler
//    publishes the global count (and the snapshot-write count) to the
//    metrics registry when its run ends.
//  * **Status snapshots.** With `FAULTLAB_STATUS=<path>.json` set, the
//    monitor rewrites a machine-readable snapshot (schema v1, validated
//    by tools/validate_trace.py --status) every
//    `FAULTLAB_STATUS_INTERVAL` ms: grid progress, per-cell tallies / CI
//    widths / convergence, per-worker in-flight state, checkpoint and
//    dispatch counters, and the ETA. Writes are atomic
//    (write-temp-then-rename), so a reader never sees a torn file.
//  * **Heartbeat.** With `FAULTLAB_PROGRESS=1` the ticker prints
//    heartbeat() to stderr on the same `FAULTLAB_STATUS_INTERVAL` cadence
//    (trials done, rate, ETA, campaigns complete, convergence, watchdog
//    flags, outcome tallies, per-worker utilization), and finish() prints
//    one final line. On a TTY the line is redrawn in place (\r...\033[K);
//    otherwise each line ends in a newline, so logs carry no escapes.
//
// Cost contract (same discipline as the rest of src/obs): when the
// monitor is off the scheduler pays one null-pointer branch per trial
// (BM_MonitorRecordDisabled tracks it); when on, begin_trial/record are a
// clock read plus a handful of relaxed atomics — snapshot writing,
// heartbeat printing and watchdog scanning run on the monitor's own
// ticker thread, never on trial workers. The monitor is read-only groundwork: the scheduler must
// not act on convergence (results stay byte-identical with the monitor on
// or off — the StatusEquiv fixtures enforce it).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace faultlab::obs {

/// Outcome indices as the monitor counts them (the scheduler translates
/// fault::Outcome; obs stays independent of the fault layer). The order is
/// part of the status schema.
enum class MonitorOutcome : unsigned {
  Crash = 0,
  SDC = 1,
  Benign = 2,
  Hang = 3,
  NotActivated = 4,
};
inline constexpr std::size_t kMonitorOutcomes = 5;

/// Sliding-window trial-completion rate. The since-start average
/// overestimates remaining time early in a run (checkpoint warm-up makes
/// the first trials the slowest), so ETA consumers sample (elapsed, done)
/// points and read the rate over the most recent kWindow samples. Not
/// thread-safe; callers serialize (the monitor samples under its control
/// mutex).
class RateWindow {
 public:
  static constexpr std::size_t kWindow = 32;

  /// Records a (seconds-since-start, trials-done) observation. Samples
  /// with a non-increasing timestamp are dropped.
  void sample(double seconds, std::uint64_t done) noexcept;

  /// Trials/sec over the retained window: (done_new - done_old) /
  /// (t_new - t_old). Falls back to the since-start average while fewer
  /// than two samples are held, and 0 before any sample.
  double rate() const noexcept;

  std::size_t samples() const noexcept { return size_; }

 private:
  struct Point {
    double t = 0.0;
    std::uint64_t done = 0;
  };
  Point ring_[kWindow];
  std::size_t size_ = 0;
  std::size_t head_ = 0;  // index of the oldest retained sample
};

/// Monitor configuration. from_env() reads the FAULTLAB_STATUS,
/// FAULTLAB_STATUS_INTERVAL, FAULTLAB_CI_TARGET, and FAULTLAB_WATCHDOG
/// variables; the scheduler spins a monitor up whenever a status path is
/// configured or the progress heartbeat (FAULTLAB_PROGRESS) is on.
struct MonitorOptions {
  /// Crash-share Wilson 95% CI half-width below which a cell counts as
  /// converged (FAULTLAB_CI_TARGET, a fraction in (0, 1]).
  double ci_target = 0.05;
  /// Stall threshold: an in-flight trial older than this multiple of its
  /// cell's running p99 latency gets flagged (FAULTLAB_WATCHDOG).
  double watchdog_factor = 8.0;
  /// Milliseconds between status-snapshot rewrites and heartbeat lines
  /// (FAULTLAB_STATUS_INTERVAL).
  std::uint64_t status_interval_ms = 1000;
  /// Snapshot destination (FAULTLAB_STATUS); empty disables snapshots but
  /// not the tallies/watchdog (the heartbeat still renders them).
  std::string status_path;

  static MonitorOptions from_env();
};

/// Point-in-time view of one cell, assembled from the live tallies.
struct MonitorCellStatus {
  std::string app;
  std::string tool;
  std::string category;
  std::string fault_model;
  std::uint64_t planned = 0;  ///< trials the campaign will run
  std::uint64_t done = 0;
  std::uint64_t outcomes[kMonitorOutcomes] = {};
  std::uint64_t activated = 0;  ///< done minus not-activated
  double crash_share = 0.0;     ///< crash / activated
  double ci_lo = 0.0;           ///< Wilson 95% bounds of the crash share
  double ci_hi = 0.0;
  double ci_halfwidth = 0.0;
  bool converged = false;  ///< activated > 0 && ci_halfwidth <= ci_target
  double p50_ms = 0.0;  ///< running latency percentiles (log2 histogram)
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  std::uint64_t watchdog_flags = 0;
  std::uint64_t in_flight = 0;  ///< workers currently running this cell
};

/// Point-in-time view of one worker's in-flight registry slot.
struct MonitorWorkerStatus {
  std::size_t worker = 0;
  bool running = false;
  std::size_t cell = 0;  ///< valid when running
  double trial_age_ms = 0.0;
  std::uint64_t trials_done = 0;
  std::uint64_t in_flight = 0;  ///< 1 while a trial runs, 0 when idle
  bool flagged = false;  ///< current trial tripped the watchdog
};

/// One watchdog flag, kept (bounded) for the status snapshot.
struct WatchdogEvent {
  std::size_t worker = 0;
  std::size_t cell = 0;
  double trial_age_ms = 0.0;   ///< age when flagged
  double threshold_ms = 0.0;   ///< factor × cell p99 at flag time
  double elapsed_seconds = 0.0;
};

/// Grid-level rollup for the heartbeat and the snapshot header.
struct MonitorSummary {
  std::uint64_t trials_total = 0;
  std::uint64_t trials_done = 0;
  std::size_t cells = 0;
  std::size_t converged_cells = 0;
  std::size_t complete_cells = 0;  ///< cells with done == planned
  std::uint64_t outcomes[kMonitorOutcomes] = {};  ///< summed over cells
  std::uint64_t watchdog_flags = 0;
  double rate_trials_per_second = 0.0;  ///< recent-window rate
  double eta_seconds = 0.0;
  std::uint64_t status_writes = 0;
};

/// Auxiliary run-level context the scheduler exposes to snapshots: the
/// engines' always-on phase split plus checkpoint/dispatch counters. Read
/// from the ticker thread, so the source callback must be thread-safe
/// (engine counters are atomics).
struct MonitorAux {
  double restore_seconds = 0.0;
  double execute_seconds = 0.0;
  double classify_seconds = 0.0;
  std::uint64_t checkpoint_snapshots = 0;
  std::uint64_t checkpoint_restores = 0;
  std::uint64_t delta_restores = 0;
  std::uint64_t converged_trials = 0;
  std::uint64_t converged_instructions = 0;
  std::uint64_t trace_decodes = 0;
  std::uint64_t trace_hits = 0;
  std::uint64_t trace_invalidations = 0;
  std::string dispatch_mode;
};

class CampaignMonitor {
 public:
  /// Completions a cell needs before its p99 is trusted by the watchdog.
  static constexpr std::uint64_t kWatchdogMinSamples = 20;
  /// Watchdog events retained for the snapshot (older ones are counted
  /// but dropped).
  static constexpr std::size_t kMaxWatchdogEvents = 64;

  CampaignMonitor(MonitorOptions options, std::size_t workers);
  CampaignMonitor(const CampaignMonitor&) = delete;
  CampaignMonitor& operator=(const CampaignMonitor&) = delete;
  ~CampaignMonitor();  ///< stops the ticker; writes no further snapshots

  const MonitorOptions& options() const noexcept { return options_; }

  /// Registers one campaign cell (call before start()). Returns the cell
  /// index the scheduler passes back into begin_trial()/record().
  std::size_t add_cell(std::string app, std::string tool,
                       std::string category, std::string fault_model,
                       std::uint64_t planned_trials);

  /// Optional run-level context merged into every snapshot.
  void set_aux_source(std::function<MonitorAux()> source);

  /// Starts the clock and the ticker thread (snapshot and heartbeat
  /// cadence + watchdog scans). Cells must all be registered.
  void start();

  /// Ticker shutdown + final snapshot and heartbeat line. Safe to call
  /// once after the last record(); the destructor calls it too.
  void finish();

  // -- trial hot path (scheduler workers) ------------------------------
  /// Registers worker's in-flight trial. One clock read + one relaxed
  /// store.
  void begin_trial(std::size_t worker, std::size_t cell) noexcept;
  /// Folds a finished trial into the cell tallies and clears the worker's
  /// in-flight slot.
  void record(std::size_t worker, std::size_t cell, MonitorOutcome outcome,
              double latency_ms) noexcept;

  // -- read side -------------------------------------------------------
  MonitorCellStatus cell_status(std::size_t cell) const;
  std::vector<MonitorWorkerStatus> worker_status() const;
  MonitorSummary summary() const;
  std::size_t cells() const noexcept { return cells_.size(); }

  /// Runs one watchdog scan and, when due (or `force`), one snapshot
  /// write and heartbeat line. The ticker calls this periodically; tests
  /// call it directly.
  void poll(bool force_snapshot = false);

  /// The full status document (schema v1) as a JSON string.
  std::string status_json(bool final_snapshot) const;

  /// The FAULTLAB_PROGRESS heartbeat line, without the TTY redraw codes
  /// or the trailing newline.
  std::string heartbeat() const;

  /// Shifts the monitor's internal clock forward — the watchdog-test seam
  /// (an in-flight trial instantly looks `us` microseconds older).
  void advance_clock_for_test(std::uint64_t us) noexcept {
    clock_skew_us_.fetch_add(us, std::memory_order_relaxed);
  }

 private:
  struct Cell {
    std::string app;
    std::string tool;
    std::string category;
    std::string fault_model;
    std::uint64_t planned = 0;
    std::atomic<std::uint64_t> outcomes[kMonitorOutcomes] = {};
    std::atomic<std::uint64_t> done{0};
    /// log2-bucketed latency histogram in microseconds (same bucket math
    /// as obs::HistogramSnapshot), driving the running p50/p99.
    std::atomic<std::uint64_t> latency_buckets[HistogramSnapshot::kBuckets] =
        {};
    std::atomic<std::uint64_t> latency_sum_us{0};
    std::atomic<std::uint64_t> watchdog_flags{0};
  };
  struct WorkerSlot {
    /// Cell index + 1 of the in-flight trial; 0 = idle. Written by the
    /// owning worker, read by the watchdog.
    std::atomic<std::uint64_t> busy_cell{0};
    std::atomic<std::uint64_t> started_us{0};
    std::atomic<std::uint64_t> trials_done{0};
    /// Microseconds spent inside finished trials (the utilization gauge).
    std::atomic<std::uint64_t> busy_us{0};
    std::atomic<bool> flagged{false};
  };

  std::uint64_t now_us() const noexcept;
  void scan_watchdog();
  void write_snapshot(bool final_snapshot);
  MonitorCellStatus cell_status_locked(std::size_t cell) const;
  std::string status_json_locked(bool final_snapshot) const;
  MonitorSummary summary_locked() const;
  std::string heartbeat_locked() const;
  void print_heartbeat(bool final_line) const;
  double eta_locked(std::uint64_t done_now, double* rate_out) const;

  MonitorOptions options_;
  std::vector<std::unique_ptr<Cell>> cells_;  // stable addresses
  std::vector<WorkerSlot> workers_;
  std::function<MonitorAux()> aux_source_;
  std::atomic<std::uint64_t> trials_done_{0};
  std::atomic<std::uint64_t> watchdog_flags_{0};
  std::atomic<std::uint64_t> status_writes_{0};
  std::atomic<std::uint64_t> clock_skew_us_{0};
  std::chrono::steady_clock::time_point epoch_;
  bool started_ = false;
  bool finished_ = false;

  /// Guards the rate window, watchdog event list, snapshot writes and
  /// heartbeat prints (ticker + poll() callers; never trial workers).
  mutable std::mutex control_mutex_;
  RateWindow rate_;
  std::vector<WatchdogEvent> watchdog_events_;
  std::uint64_t watchdog_events_dropped_ = 0;
  std::uint64_t next_snapshot_us_ = 0;

  std::thread ticker_;
  std::mutex ticker_mutex_;
  std::condition_variable ticker_cv_;
  bool ticker_stop_ = false;
};

}  // namespace faultlab::obs
