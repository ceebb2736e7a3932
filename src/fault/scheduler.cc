#include "fault/scheduler.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#if defined(_WIN32)
#include <io.h>
#define FAULTLAB_ISATTY _isatty
#define FAULTLAB_FILENO _fileno
#else
#include <unistd.h>
#define FAULTLAB_ISATTY isatty
#define FAULTLAB_FILENO fileno
#endif

#include "machine/dispatch.h"
#include "machine/trap.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/trace.h"
#include "support/env.h"
#include "support/stats.h"
#include "support/timer.h"

namespace faultlab::fault {

namespace {

std::string describe(const std::string& app, const std::string& tool,
                     ir::Category category, const std::exception_ptr& cause) {
  std::string what = "unknown exception";
  try {
    std::rethrow_exception(cause);
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  std::string out = "campaign [";
  out += app;
  out += " / ";
  out += tool;
  out += " / ";
  out += ir::category_name(category);
  out += "] failed: ";
  out += what;
  return out;
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

/// CI half-widths live in [0, 0.5]; three decimals would round a 0.0447
/// half-width into the 0.045 bucket, so they get one more digit.
std::string fmt_double4(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

/// FAULTLAB_THREADS: worker-count override for runs where the caller left
/// SchedulerOptions::threads at 0 (the A/B equivalence tests sweep this
/// across processes). Unset or unparsable (warned) means "no override".
std::size_t env_threads() {
  return static_cast<std::size_t>(
      support::parse_env_u64("FAULTLAB_THREADS", 0));
}

/// Whether stderr is an interactive terminal. When it is not (CI logs,
/// redirection to a file), the progress reporter falls back to plain
/// newline-terminated lines instead of in-place \r redraws, so captured
/// logs carry no ANSI control sequences.
bool stderr_is_tty() {
  static const bool tty = FAULTLAB_ISATTY(FAULTLAB_FILENO(stderr)) != 0;
  return tty;
}

/// Live counters shared by the workers and the progress reporter. All
/// relaxed: the heartbeat tolerates slightly stale reads.
struct ProgressCounters {
  std::atomic<std::size_t> outcomes[5] = {};  // indexed by fault::Outcome
  /// Per-worker busy time (microseconds actually spent inside trials),
  /// for the utilization gauges.
  std::unique_ptr<std::atomic<std::uint64_t>[]> busy_us;
  std::size_t workers = 0;

  void size_workers(std::size_t n) {
    workers = n;
    busy_us = std::make_unique<std::atomic<std::uint64_t>[]>(n);
    for (std::size_t i = 0; i < n; ++i)
      busy_us[i].store(0, std::memory_order_relaxed);
  }
};

/// How the monitor counts a fault::Outcome (obs is independent of the
/// fault layer, so the scheduler translates at the boundary).
obs::MonitorOutcome to_monitor_outcome(Outcome o) noexcept {
  switch (o) {
    case Outcome::Crash: return obs::MonitorOutcome::Crash;
    case Outcome::SDC: return obs::MonitorOutcome::SDC;
    case Outcome::Benign: return obs::MonitorOutcome::Benign;
    case Outcome::Hang: return obs::MonitorOutcome::Hang;
    case Outcome::NotActivated: break;
  }
  return obs::MonitorOutcome::NotActivated;
}

/// FAULTLAB_PROGRESS=1 stderr heartbeat: overall completion + ETA, running
/// outcome tallies, and per-worker utilization gauges. Always called under
/// the scheduler mutex (from finalize() and the workers' periodic ticks),
/// so the counters are read without tearing the line. On a TTY the line is
/// redrawn in place (\r...\033[K); otherwise each report is a plain
/// newline-terminated line. `rate` comes from the caller's sliding recent
/// window (the since-start average overestimates remaining time while the
/// checkpoint caches warm up); when the monitor is active its ETA model
/// and converged/watchdog tallies ride along.
void print_progress(std::size_t trials_done, std::size_t trials_total,
                    std::size_t campaigns_done, std::size_t campaigns_total,
                    double elapsed_seconds, const ProgressCounters& counters,
                    double rate, double eta,
                    const obs::MonitorSummary* msum) {
  const double pct =
      trials_total != 0
          ? 100.0 * static_cast<double>(trials_done) /
                static_cast<double>(trials_total)
          : 100.0;
  const auto tally = [&](Outcome o) {
    return counters.outcomes[static_cast<std::size_t>(o)].load(
        std::memory_order_relaxed);
  };
  // Utilization gauges: busy-time share of wall time, per worker (capped at
  // 8 gauges so the line stays readable on wide pools).
  std::string util;
  const std::size_t shown = std::min<std::size_t>(counters.workers, 8);
  for (std::size_t w = 0; w < shown; ++w) {
    const double busy =
        static_cast<double>(
            counters.busy_us[w].load(std::memory_order_relaxed)) /
        1e6;
    const double u =
        elapsed_seconds > 0.0
            ? std::min(100.0, 100.0 * busy / elapsed_seconds)
            : 0.0;
    if (!util.empty()) util += '|';
    char buf[16];
    std::snprintf(buf, sizeof buf, "%.0f", u);
    util += buf;
  }
  if (shown < counters.workers) util += "|..";
  std::string conv;
  if (msum != nullptr) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "  conv %zu/%zu  wd %llu",
                  msum->converged_cells, msum->cells,
                  static_cast<unsigned long long>(msum->watchdog_flags));
    conv = buf;
  }
  const bool tty = stderr_is_tty();
  std::fprintf(stderr,
               "%s[faultlab] %zu/%zu trials (%.1f%%)  %.1f trials/s  "
               "ETA %.1fs  [%zu/%zu campaigns]%s  "
               "crash %zu  sdc %zu  benign %zu  hang %zu  n/a %zu  "
               "util %s%%%s",
               tty ? "\r" : "", trials_done, trials_total, pct, rate, eta,
               campaigns_done, campaigns_total, conv.c_str(),
               tally(Outcome::Crash), tally(Outcome::SDC),
               tally(Outcome::Benign), tally(Outcome::Hang),
               tally(Outcome::NotActivated), util.c_str(),
               tty ? "\033[K" : "\n");
  if (tty && campaigns_done == campaigns_total) std::fputc('\n', stderr);
  std::fflush(stderr);
}

}  // namespace

CampaignError::CampaignError(std::string app, std::string tool,
                             ir::Category category, std::exception_ptr cause)
    : std::runtime_error(describe(app, tool, category, cause)),
      app_(std::move(app)),
      tool_(std::move(tool)),
      category_(category),
      cause_(std::move(cause)) {}

CampaignScheduler::CampaignScheduler(SchedulerOptions options)
    : options_(std::move(options)) {}

void CampaignScheduler::add(InjectorEngine& engine, CampaignConfig config) {
  entries_.push_back({&engine, std::move(config)});
}

std::vector<CampaignResult> CampaignScheduler::run() {
  struct Draw {
    std::uint64_t k;
    Rng trial_rng;
  };
  struct Campaign {
    Entry* entry = nullptr;
    std::vector<Draw> draws;
    /// Execution-order permutation: draw indices stable-sorted by k, so
    /// consecutive trials resume from the same checkpoint window and the
    /// engine's snapshot pages stay warm. Purely an execution-order
    /// reshuffle — draws are still generated sequentially from the seed and
    /// each record lands back at its draw index, so CSV output is
    /// byte-identical to the unsorted order at any thread count.
    std::vector<std::size_t> order;
    std::vector<TrialRecord> records;
    /// Per-trial wall time in milliseconds, written by the executing worker
    /// into the trial's own slot (no contention); finalize() sorts a copy
    /// for the manifest's exact latency percentiles.
    std::vector<double> latency_ms;
    CampaignResult result;
    std::atomic<std::size_t> remaining{0};
    std::atomic<bool> started{false};
    WallTimer timer;  // reset when the first trial is dispatched
    bool finalized = false;
  };

  WallTimer run_timer;
  // Event shards must reach disk on *every* exit path out of run() — the
  // happy path flushes explicitly below, but an exception unwinding out of
  // profiling (an engine failure inside profile_all) or a CampaignError
  // re-thrown after the pool joins would otherwise drop whole shard
  // buffers of trials that did finish. flush() is idempotent, so the
  // guard's second flush on the happy path is a no-op.
  struct EventFlushGuard {
    ~EventFlushGuard() {
      if (obs::EventLog::global().enabled()) obs::EventLog::global().flush();
    }
  } event_flush_guard;
  manifest_ = RunManifest{};
  manifest_.model = options_.model;
  const machine::DispatchCountersSnapshot dispatch_before =
      machine::dispatch_counters_snapshot();

  std::size_t workers = options_.threads != 0 ? options_.threads
                                              : env_threads();
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());

  // Phase 1 — profiling: each distinct engine makes its one fault-free run
  // (profile_all), which covers every category it appears with. Up to
  // `workers` threads pull engines from an atomic index; with one worker
  // the phase stays serial. Every profiling thread joins before an
  // engine's exception is rethrown, the lowest engine index first.
  WallTimer profile_timer;
  std::vector<InjectorEngine*> engines;  // distinct, in add() order
  for (const Entry& entry : entries_)
    if (std::find(engines.begin(), engines.end(), entry.engine) ==
        engines.end())
      engines.push_back(entry.engine);
  // The engines' common dispatch mode, or "mixed" when they differ.
  for (std::size_t i = 0; i < engines.size(); ++i) {
    const char* mode =
        machine::dispatch_mode_name(engines[i]->exec_config().dispatch);
    if (i == 0)
      manifest_.dispatch_mode = mode;
    else if (manifest_.dispatch_mode != mode)
      manifest_.dispatch_mode = "mixed";
  }
  std::vector<CategoryCounts> profiles(engines.size());
  {
    std::vector<std::exception_ptr> errors(engines.size());
    std::atomic<std::size_t> next_engine{0};
    const auto profile = [&] {
      for (std::size_t i = next_engine.fetch_add(1); i < engines.size();
           i = next_engine.fetch_add(1)) {
        try {
          profiles[i] = engines[i]->profile_all();
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };
    const std::size_t profilers = std::min(workers, engines.size());
    if (profilers <= 1) {
      profile();
    } else {
      std::vector<std::thread> pool;
      pool.reserve(profilers);
      for (std::size_t t = 0; t < profilers; ++t) pool.emplace_back(profile);
      for (std::thread& th : pool) th.join();
    }
    for (const std::exception_ptr& error : errors)
      if (error != nullptr) std::rethrow_exception(error);
  }
  manifest_.profile_seconds = profile_timer.seconds();
  // Engine checkpoint counters are cumulative across runs; the manifest
  // keeps this run's share.
  const auto checkpoint_totals = [&engines] {
    CheckpointStats sum;
    for (const InjectorEngine* engine : engines)
      sum += engine->checkpoint_stats();
    return sum;
  };
  const CheckpointStats checkpoints_before = checkpoint_totals();

  // Phase 2 — draws: generated sequentially per campaign from its seed, so
  // the trial stream is independent of worker count and scheduling order.
  std::deque<Campaign> campaigns;
  std::size_t total = 0;
  for (Entry& entry : entries_) {
    Campaign& c = campaigns.emplace_back();
    c.entry = &entry;
    const CategoryCounts& counts =
        profiles[static_cast<std::size_t>(
            std::find(engines.begin(), engines.end(), entry.engine) -
            engines.begin())];
    c.result.app = entry.config.app;
    c.result.tool = entry.engine->tool_name();
    c.result.category = entry.config.category;
    c.result.fault_model = entry.engine->fault_model().name();
    c.result.profiled_count = counts[entry.config.category];
    if (c.result.profiled_count > 0 && entry.config.trials > 0) {
      Rng rng(entry.config.seed ^
              (static_cast<std::uint64_t>(entry.config.category) << 32));
      c.draws.reserve(entry.config.trials);
      for (std::size_t t = 0; t < entry.config.trials; ++t) {
        const std::uint64_t k = rng.range(1, c.result.profiled_count);
        c.draws.push_back({k, rng.fork()});
      }
      c.order.resize(entry.config.trials);
      for (std::size_t t = 0; t < entry.config.trials; ++t) c.order[t] = t;
      std::stable_sort(c.order.begin(), c.order.end(),
                       [&c](std::size_t a, std::size_t b) {
                         return c.draws[a].k < c.draws[b].k;
                       });
      c.records.resize(entry.config.trials);
      c.latency_ms.resize(entry.config.trials, 0.0);
      c.remaining.store(entry.config.trials, std::memory_order_relaxed);
      total += entry.config.trials;
    }
  }
  manifest_.campaigns.resize(campaigns.size());

  // Chunking: consecutive k-sorted trials that resume from the same
  // checkpoint window form one unit of work, so the worker that claims a
  // chunk keeps one snapshot resident and resets via the delta path between
  // its trials. Chunks are capped so a single hot window cannot serialize
  // the pool; splitting a window only costs one full restore per extra
  // chunk. Purely an execution grouping — never affects results.
  struct Chunk {
    std::size_t campaign;
    std::size_t begin;  // positions in the campaign's `order` permutation
    std::size_t end;
  };
  constexpr std::size_t kMaxChunk = 64;
  std::vector<Chunk> chunks;
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    const Campaign& c = campaigns[i];
    if (c.order.empty()) continue;
    const InjectorEngine& engine = *c.entry->engine;
    const ir::Category category = c.entry->config.category;
    std::size_t begin = 0;
    std::uint64_t window = engine.window_of(category, c.draws[c.order[0]].k);
    for (std::size_t p = 1; p < c.order.size(); ++p) {
      const std::uint64_t w = engine.window_of(category, c.draws[c.order[p]].k);
      if (w != window || p - begin >= kMaxChunk) {
        chunks.push_back({i, begin, p});
        begin = p;
        window = w;
      }
    }
    chunks.push_back({i, begin, c.order.size()});
  }

  // Phase 3 — trials: one shared queue of window chunks over all
  // campaigns; idle workers steal the next undone chunk regardless of
  // which campaign it belongs to.
  std::mutex mutex;  // guards finalization, progress, and error capture
  std::exception_ptr first_error;
  std::size_t error_campaign = 0;
  std::atomic<bool> failed{false};
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> trials_done{0};
  std::size_t campaigns_done = 0;

  const bool progress_line = obs::progress_enabled();
  // Gate on the global log's open state rather than the cached env bool:
  // identical for FAULTLAB_EVENTS users (global() opens from the env on
  // first use), but lets bench_perf toggle the recorder programmatically
  // to measure its overhead in one process.
  const bool events_on = obs::EventLog::global().enabled();
  ProgressCounters progress_counters;
  workers = std::min(workers, std::max<std::size_t>(chunks.size(), 1));
  progress_counters.size_workers(workers);

  // Campaign monitor: forced on by SchedulerOptions::monitor, otherwise
  // spun up when the environment configures a status path or the progress
  // heartbeat wants convergence data. Purely observational — it never
  // influences scheduling, so results stay byte-identical with it on or
  // off (the StatusEquiv fixtures enforce this).
  const obs::MonitorOptions monitor_options =
      options_.monitor ? *options_.monitor : obs::MonitorOptions::from_env();
  manifest_.ci_target = monitor_options.ci_target;
  std::unique_ptr<obs::CampaignMonitor> monitor;
  if (options_.monitor.has_value() || !monitor_options.status_path.empty() ||
      progress_line) {
    monitor =
        std::make_unique<obs::CampaignMonitor>(monitor_options, workers);
    for (const Campaign& c : campaigns)
      monitor->add_cell(c.result.app, c.result.tool,
                        ir::category_name(c.result.category),
                        c.result.fault_model, c.draws.size());
    const std::string dispatch_mode = manifest_.dispatch_mode;
    monitor->set_aux_source([engines, dispatch_before, dispatch_mode] {
      obs::MonitorAux aux;
      for (InjectorEngine* engine : engines) {
        const PhaseStats phases = engine->phase_stats();
        aux.restore_seconds += phases.restore_seconds;
        aux.execute_seconds += phases.execute_seconds;
        aux.classify_seconds += phases.classify_seconds;
        const CheckpointStats ck = engine->checkpoint_stats();
        aux.checkpoint_snapshots += ck.snapshots;
        aux.checkpoint_restores += ck.restored_trials;
        aux.delta_restores += ck.delta_restores;
        aux.converged_trials += ck.converged_trials;
        aux.converged_instructions += ck.converged_instructions;
      }
      const machine::DispatchCountersSnapshot now =
          machine::dispatch_counters_snapshot();
      aux.trace_decodes = now.trace_decodes - dispatch_before.trace_decodes;
      aux.trace_hits = now.trace_hits - dispatch_before.trace_hits;
      aux.trace_invalidations =
          now.trace_invalidations - dispatch_before.trace_invalidations;
      aux.dispatch_mode = dispatch_mode;
      return aux;
    });
    monitor->start();
  }

  // Heartbeat rate/ETA over a sliding recent window: with checkpoint
  // warm-up the since-start average undercounts the steady-state rate and
  // overestimates remaining time early in a run. Called under the
  // scheduler mutex.
  obs::RateWindow heartbeat_rate;
  auto emit_progress = [&](std::size_t done, std::size_t campaigns_done_now) {
    const double elapsed = run_timer.seconds();
    heartbeat_rate.sample(elapsed, done);
    const double rate = heartbeat_rate.rate();
    double eta =
        rate > 0.0 ? static_cast<double>(total - done) / rate : 0.0;
    obs::MonitorSummary msum;
    if (monitor) {
      msum = monitor->summary();
      // The monitor's model folds in the engines' phase split early on;
      // prefer it while it has a signal.
      if (msum.eta_seconds > 0.0) eta = msum.eta_seconds;
    }
    print_progress(done, total, campaigns_done_now, campaigns.size(),
                   elapsed, progress_counters, rate, eta,
                   monitor ? &msum : nullptr);
  };

  auto finalize = [&](std::size_t index) {
    // Called with all of the campaign's records written; aggregation walks
    // them in trial order, so counters are thread-count independent.
    Campaign& c = campaigns[index];
    std::size_t restored = 0;
    std::size_t delta_restores = 0;
    std::uint64_t restored_pages = 0;
    for (const TrialRecord& record : c.records) {
      if (record.injected) ++c.result.injected_trials;
      if (record.restored) {
        ++restored;
        restored_pages += record.restored_pages;
      }
      if (record.delta_restored) ++delta_restores;
      switch (record.outcome) {
        case Outcome::Crash: ++c.result.crash; break;
        case Outcome::SDC: ++c.result.sdc; break;
        case Outcome::Benign: ++c.result.benign; break;
        case Outcome::Hang: ++c.result.hang; break;
        case Outcome::NotActivated: ++c.result.not_activated; break;
      }
    }
    c.result.trials = std::move(c.records);
    c.result.wall_seconds = c.started.load(std::memory_order_relaxed)
                                ? c.timer.seconds()
                                : 0.0;
    c.finalized = true;

    CampaignTiming& timing = manifest_.campaigns[index];
    timing.app = c.result.app;
    timing.tool = c.result.tool;
    timing.category = c.result.category;
    timing.fault_model = c.result.fault_model;
    timing.seed = c.entry->config.seed;
    timing.profiled_count = c.result.profiled_count;
    timing.trials = c.result.trials.size();
    timing.injected = c.result.injected_trials;
    timing.activated = c.result.activated();
    timing.crash = c.result.crash;
    timing.sdc = c.result.sdc;
    timing.benign = c.result.benign;
    timing.hang = c.result.hang;
    timing.not_activated = c.result.not_activated;
    timing.restored = restored;
    timing.delta_restores = delta_restores;
    timing.mean_restored_pages =
        restored != 0 ? static_cast<double>(restored_pages) /
                            static_cast<double>(restored)
                      : 0.0;
    timing.wall_seconds = c.result.wall_seconds;
    if (!c.latency_ms.empty()) {
      std::sort(c.latency_ms.begin(), c.latency_ms.end());
      timing.p50_ms = obs::percentile_sorted(c.latency_ms, 50.0);
      timing.p95_ms = obs::percentile_sorted(c.latency_ms, 95.0);
      timing.p99_ms = obs::percentile_sorted(c.latency_ms, 99.0);
    }
    // Convergence verdict from the final tallies — deliberately not read
    // from the monitor, so the manifest carries the same values whether or
    // not it ran.
    const Proportion crash_share{timing.crash, timing.activated};
    const Proportion::Interval ci = crash_share.wilson95();
    timing.ci_halfwidth = (ci.hi - ci.lo) / 2.0;
    timing.converged =
        timing.activated > 0 && timing.ci_halfwidth <= manifest_.ci_target;
    if (monitor)
      timing.watchdog_flags = monitor->cell_status(index).watchdog_flags;

    ++campaigns_done;
    if (progress_line)
      emit_progress(trials_done.load(std::memory_order_relaxed),
                    campaigns_done);
    if (options_.progress) {
      SchedulerProgress p;
      p.campaigns_total = campaigns.size();
      p.campaigns_done = campaigns_done;
      p.trials_total = total;
      p.trials_done = trials_done.load(std::memory_order_relaxed);
      p.completed = &c.result;
      options_.progress(p);
    }
  };

  {
    // Campaigns with nothing to run (zero targets or zero trials) complete
    // immediately.
    std::lock_guard<std::mutex> lock(mutex);
    for (std::size_t i = 0; i < campaigns.size(); ++i)
      if (campaigns[i].records.empty()) finalize(i);
  }

  auto work = [&](std::size_t worker) {
    obs::Tracer& tracer = obs::Tracer::global();
    std::uint64_t seq = 0;  // per-worker monotonic event number
    // This worker's resident execution contexts, one per engine it has run
    // trials for. A context's address space survives across trials, which
    // is what keeps same-window resets on the delta path. The engine list
    // is tiny, so linear scan beats a map.
    std::vector<std::pair<InjectorEngine*, std::unique_ptr<TrialContext>>>
        contexts;
    const auto context_for = [&contexts](InjectorEngine* engine) {
      for (auto& [known, context] : contexts)
        if (known == engine) return context.get();
      contexts.emplace_back(engine, engine->make_context());
      return contexts.back().second.get();
    };
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t which = next.fetch_add(1, std::memory_order_relaxed);
      if (which >= chunks.size()) return;
      const Chunk& chunk = chunks[which];
      const std::size_t index = chunk.campaign;
      Campaign& c = campaigns[index];
      if (!c.started.exchange(true, std::memory_order_relaxed))
        c.timer.reset();
      TrialContext* context = context_for(c.entry->engine);
      for (std::size_t p = chunk.begin; p < chunk.end; ++p) {
        if (failed.load(std::memory_order_relaxed)) return;
        const std::size_t trial = c.order[p];
        try {
          if (monitor) monitor->begin_trial(worker, index);
          {
            WallTimer trial_timer;
            obs::ScopedSpan span(tracer, "trial", "scheduler");
            c.records[trial] = c.entry->engine->inject_in(
                context, c.entry->config.category, c.draws[trial].k,
                c.draws[trial].trial_rng);
            c.latency_ms[trial] = trial_timer.seconds() * 1000.0;
            if (span.active()) {
              const TrialRecord& record = c.records[trial];
              span.tag("app", c.result.app);
              span.tag("tool", c.result.tool);
              span.tag("category", ir::category_name(c.result.category));
              span.tag("k", c.draws[trial].k);
              span.tag("checkpoint", record.restored ? "hit" : "miss");
              span.tag("outcome", outcome_name(record.outcome));
            }
          }
          const TrialRecord& record = c.records[trial];
          if (monitor)
            monitor->record(worker, index, to_monitor_outcome(record.outcome),
                            c.latency_ms[trial]);
          if (events_on) {
            obs::TrialEvent ev;
            ev.app = c.result.app.c_str();
            ev.tool = c.result.tool.c_str();
            ev.category = ir::category_name(c.result.category);
            ev.fault_model = c.result.fault_model.c_str();
            ev.worker = static_cast<std::uint32_t>(worker);
            ev.seq = seq++;
            ev.trial = trial;
            ev.k = c.draws[trial].k;
            ev.bit = record.bit;
            ev.static_site = record.static_site;
            ev.opcode = record.site_opcode;
            ev.function = record.site_function;
            ev.injected = record.injected;
            ev.activated =
                record.injected && record.outcome != Outcome::NotActivated;
            ev.outcome = outcome_name(record.outcome);
            if (record.outcome == Outcome::Crash) {
              ev.trap = machine::trap_kind_name(record.trap);
              ev.trap_pc = record.trap_pc;
            }
            ev.inject_instruction = record.inject_instruction;
            ev.instructions_total = record.total_instructions;
            ev.instructions_after_injection =
                record.instructions_after_injection();
            ev.checkpoint_hit = record.restored;
            ev.latency_ms = c.latency_ms[trial];
            if (record.prop.traced) ev.prop = &record.prop;
            obs::EventLog::global().append(ev);
          }
          const std::size_t done =
              trials_done.fetch_add(1, std::memory_order_relaxed) + 1;
          if (progress_line) {
            progress_counters
                .outcomes[static_cast<std::size_t>(record.outcome)]
                .fetch_add(1, std::memory_order_relaxed);
            progress_counters.busy_us[worker].fetch_add(
                static_cast<std::uint64_t>(c.latency_ms[trial] * 1000.0),
                std::memory_order_relaxed);
          }
          if (c.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(mutex);
            finalize(index);
          } else if (progress_line && done % 64 == 0) {
            // Heartbeat between campaign completions, so long campaigns
            // still tick.
            std::lock_guard<std::mutex> lock(mutex);
            emit_progress(done, campaigns_done);
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (first_error == nullptr) {
            first_error = std::current_exception();
            error_campaign = index;
          }
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  };

  if (total > 0) {
    if (workers <= 1) {
      work(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work, w);
      for (std::thread& th : pool) th.join();
    }
  }
  // Final quiescent snapshot (marked "final": its cross-field invariants
  // hold exactly) + ticker shutdown before the manifest is sealed.
  if (monitor) monitor->finish();
  manifest_.threads = workers;
  manifest_.wall_seconds = run_timer.seconds();
  const machine::DispatchCountersSnapshot dispatch_after =
      machine::dispatch_counters_snapshot();
  manifest_.trace_decodes =
      dispatch_after.trace_decodes - dispatch_before.trace_decodes;
  manifest_.trace_hits =
      dispatch_after.trace_hits - dispatch_before.trace_hits;
  manifest_.trace_invalidations = dispatch_after.trace_invalidations -
                                  dispatch_before.trace_invalidations;
  const CheckpointStats checkpoints_after = checkpoint_totals();
  manifest_.converged_trials =
      checkpoints_after.converged_trials - checkpoints_before.converged_trials;
  manifest_.converged_instructions =
      checkpoints_after.converged_instructions -
      checkpoints_before.converged_instructions;

  // Persist spans/metrics/events now rather than only at exit, so
  // long-lived processes (benches running several grids) leave a trace per
  // grid and a failed run still ships what it captured.
  machine::publish_dispatch_metrics();
  if (obs::Tracer::global().enabled() || obs::metrics_enabled())
    obs::flush_observability();
  if (events_on) obs::EventLog::global().flush();

  if (first_error != nullptr) {
    const Campaign& c = campaigns[error_campaign];
    throw CampaignError(c.result.app, c.result.tool, c.result.category,
                        first_error);
  }

  std::vector<CampaignResult> out;
  out.reserve(campaigns.size());
  for (Campaign& c : campaigns) out.push_back(std::move(c.result));
  entries_.clear();
  return out;
}

CsvWriter manifest_csv(const RunManifest& manifest) {
  CsvWriter csv({"app", "tool", "category", "fault_model", "seed", "trials",
                 "profiled_count", "injected", "activated", "crash", "sdc",
                 "benign", "hang", "not_activated", "restored",
                 "checkpoint_hit_rate", "delta_restores",
                 "mean_restored_pages", "wall_seconds", "trials_per_second",
                 "p50_ms", "p95_ms", "p99_ms", "threads", "profile_seconds",
                 "total_wall_seconds", "pinfi_flag_heuristic",
                 "pinfi_xmm_prune", "llfi_type_width",
                 "llfi_gep_as_arithmetic", "dispatch_mode", "trace_decodes",
                 "trace_hits", "trace_invalidations", "converged",
                 "ci_halfwidth", "watchdog_flags", "ci_target",
                 "converged_trials", "converged_instructions"});
  for (const CampaignTiming& t : manifest.campaigns) {
    csv.add_row({t.app, t.tool, ir::category_name(t.category), t.fault_model,
                 std::to_string(t.seed), std::to_string(t.trials),
                 std::to_string(t.profiled_count), std::to_string(t.injected),
                 std::to_string(t.activated), std::to_string(t.crash),
                 std::to_string(t.sdc), std::to_string(t.benign),
                 std::to_string(t.hang), std::to_string(t.not_activated),
                 std::to_string(t.restored), fmt_double(t.hit_rate()),
                 std::to_string(t.delta_restores),
                 fmt_double(t.mean_restored_pages),
                 fmt_double(t.wall_seconds),
                 fmt_double(t.trials_per_second()), fmt_double(t.p50_ms),
                 fmt_double(t.p95_ms), fmt_double(t.p99_ms),
                 std::to_string(manifest.threads),
                 fmt_double(manifest.profile_seconds),
                 fmt_double(manifest.wall_seconds),
                 std::to_string(manifest.model.pinfi_flag_heuristic ? 1 : 0),
                 std::to_string(manifest.model.pinfi_xmm_prune ? 1 : 0),
                 std::to_string(manifest.model.llfi_type_width ? 1 : 0),
                 std::to_string(
                     manifest.model.llfi_gep_as_arithmetic ? 1 : 0),
                 manifest.dispatch_mode,
                 std::to_string(manifest.trace_decodes),
                 std::to_string(manifest.trace_hits),
                 std::to_string(manifest.trace_invalidations),
                 std::to_string(t.converged ? 1 : 0),
                 fmt_double4(t.ci_halfwidth),
                 std::to_string(t.watchdog_flags),
                 fmt_double4(manifest.ci_target),
                 std::to_string(manifest.converged_trials),
                 std::to_string(manifest.converged_instructions)});
  }
  return csv;
}

}  // namespace faultlab::fault
