#include "fault/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "machine/dispatch.h"
#include "machine/trap.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "support/env.h"
#include "support/stats.h"
#include "support/timer.h"

namespace faultlab::fault {

namespace {

/// Scheduler runs started in this process: each run's event records carry
/// its number, because worker ids and `seq` restart with every run.
std::atomic<std::uint64_t> scheduler_runs{0};

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

/// What the engines and the dispatch layer count, read in one place for
/// the monitor's status snapshots, the run manifest and the metrics
/// registry. Engine counters are cumulative across runs and the dispatch
/// counters process-wide, so a run's share is the difference of a read
/// and the one taken before profiling.
struct RunCounters {
  PhaseStats phases;
  CheckpointStats checkpoints;
  machine::DispatchCountersSnapshot dispatch;

  static RunCounters read(const std::vector<InjectorEngine*>& engines) {
    RunCounters c;
    for (const InjectorEngine* engine : engines) {
      c.phases += engine->phase_stats();
      c.checkpoints += engine->checkpoint_stats();
    }
    c.dispatch = machine::dispatch_counters_snapshot();
    return c;
  }

  /// The counts since `before` (the phase times and the stride stay
  /// totals).
  RunCounters since(const RunCounters& before) const {
    RunCounters d = *this;
    CheckpointStats& ck = d.checkpoints;
    const CheckpointStats& b = before.checkpoints;
    ck.snapshots -= b.snapshots;
    ck.trials -= b.trials;
    ck.restored_trials -= b.restored_trials;
    ck.skipped_instructions -= b.skipped_instructions;
    ck.delta_restores -= b.delta_restores;
    ck.restored_pages -= b.restored_pages;
    ck.converged_trials -= b.converged_trials;
    ck.converged_instructions -= b.converged_instructions;
    d.dispatch.trace_decodes -= before.dispatch.trace_decodes;
    d.dispatch.trace_hits -= before.dispatch.trace_hits;
    d.dispatch.trace_invalidations -= before.dispatch.trace_invalidations;
    return d;
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
  const RunCounters before = RunCounters::read(engines);
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
  std::mutex mutex;  // guards finalization and error capture
  std::exception_ptr first_error;
  std::size_t error_campaign = 0;
  std::atomic<bool> failed{false};
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> trials_done{0};
  std::size_t campaigns_done = 0;

  // Gate on the global log's open state rather than the cached env bool:
  // identical for FAULTLAB_EVENTS users (global() opens from the env on
  // first use), but lets bench_perf toggle the recorder programmatically
  // to measure its overhead in one process.
  const bool events_on = obs::EventLog::global().enabled();
  const std::uint64_t run_number =
      scheduler_runs.fetch_add(1, std::memory_order_relaxed);
  workers = std::min(workers, std::max<std::size_t>(chunks.size(), 1));

  // FAULTLAB_METRICS: the registry gets this run's share of the engines'
  // counters when the run ends. Pages rewritten by delta restores are not
  // among them, so finalize() folds them from the records.
  const bool metrics_on = obs::metrics_enabled();
  std::uint64_t delta_pages = 0;
  obs::Histogram dirty_pages;
  if (metrics_on)
    dirty_pages = obs::Registry::global().histogram("checkpoint.dirty_pages");

  // Campaign monitor: forced on by SchedulerOptions::monitor, otherwise
  // spun up when the environment configures a status path or the progress
  // heartbeat (which the monitor renders) is on. Purely observational — it
  // never influences scheduling, so results stay byte-identical with it on
  // or off (the equivalence harness in tests/test_differential.cc
  // enforces this).
  const obs::MonitorOptions monitor_options =
      options_.monitor ? *options_.monitor : obs::MonitorOptions::from_env();
  manifest_.ci_target = monitor_options.ci_target;
  std::unique_ptr<obs::CampaignMonitor> monitor;
  if (options_.monitor.has_value() || !monitor_options.status_path.empty() ||
      obs::progress_enabled()) {
    monitor =
        std::make_unique<obs::CampaignMonitor>(monitor_options, workers);
    for (const Campaign& c : campaigns)
      monitor->add_cell(c.result.app, c.result.tool,
                        ir::category_name(c.result.category),
                        c.result.fault_model, c.draws.size());
    const std::string dispatch_mode = manifest_.dispatch_mode;
    monitor->set_aux_source([engines, before, dispatch_mode] {
      // The snapshot shows the engines' totals and this run's dispatch.
      const RunCounters now = RunCounters::read(engines);
      const RunCounters run = now.since(before);
      obs::MonitorAux aux;
      aux.restore_seconds = now.phases.restore_seconds;
      aux.execute_seconds = now.phases.execute_seconds;
      aux.classify_seconds = now.phases.classify_seconds;
      aux.checkpoint_snapshots = now.checkpoints.snapshots;
      aux.checkpoint_restores = now.checkpoints.restored_trials;
      aux.delta_restores = now.checkpoints.delta_restores;
      aux.converged_trials = now.checkpoints.converged_trials;
      aux.converged_instructions = now.checkpoints.converged_instructions;
      aux.trace_decodes = run.dispatch.trace_decodes;
      aux.trace_hits = run.dispatch.trace_hits;
      aux.trace_invalidations = run.dispatch.trace_invalidations;
      aux.dispatch_mode = dispatch_mode;
      return aux;
    });
    monitor->start();
  }

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
      if (record.delta_restored) {
        ++delta_restores;
        delta_pages += record.restored_pages;
        dirty_pages.record(record.restored_pages);
      }
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
          const auto trial_start = std::chrono::steady_clock::now();
          c.records[trial] = c.entry->engine->inject_in(
              context, c.entry->config.category, c.draws[trial].k,
              c.draws[trial].trial_rng);
          const std::chrono::duration<double, std::milli> latency =
              std::chrono::steady_clock::now() - trial_start;
          c.latency_ms[trial] = latency.count();
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
            ev.run = run_number;
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
            obs::EventLog& log = obs::EventLog::global();
            ev.start_us = log.micros_since_open(trial_start);
            ev.restore_us = record.restore_ns / 1000;
            ev.execute_us = record.execute_ns / 1000;
            ev.classify_us = record.classify_ns / 1000;
            if (record.prop.traced) ev.prop = &record.prop;
            log.append(ev);
          }
          trials_done.fetch_add(1, std::memory_order_relaxed);
          if (c.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(mutex);
            finalize(index);
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
  const RunCounters run = RunCounters::read(engines).since(before);
  manifest_.trace_decodes = run.dispatch.trace_decodes;
  manifest_.trace_hits = run.dispatch.trace_hits;
  manifest_.trace_invalidations = run.dispatch.trace_invalidations;
  manifest_.converged_trials = run.checkpoints.converged_trials;
  manifest_.converged_instructions = run.checkpoints.converged_instructions;

  // Persist metrics/events now rather than only at exit, so long-lived
  // processes (benches running several grids) leave them per grid and a
  // failed run still ships what it captured.
  machine::publish_dispatch_metrics();
  if (metrics_on) {
    obs::Registry& registry = obs::Registry::global();
    const CheckpointStats& ck = run.checkpoints;
    registry.counter("checkpoint.snapshots").add(ck.snapshots);
    registry.counter("checkpoint.restores").add(ck.restored_trials);
    registry.counter("checkpoint.restored_pages").add(ck.restored_pages);
    registry.counter("checkpoint.skipped_instructions")
        .add(ck.skipped_instructions);
    registry.counter("checkpoint.delta_restores").add(ck.delta_restores);
    registry.counter("checkpoint.delta_pages").add(delta_pages);
    registry.counter("checkpoint.converged_trials").add(ck.converged_trials);
    registry.counter("checkpoint.converged_instructions")
        .add(ck.converged_instructions);
    // The monitor's counters appear once they count something.
    const obs::MonitorSummary m = monitor ? monitor->summary()
                                          : obs::MonitorSummary{};
    if (m.watchdog_flags != 0)
      registry.counter("monitor.watchdog_flags").add(m.watchdog_flags);
    if (m.status_writes != 0)
      registry.counter("monitor.status_writes").add(m.status_writes);
  }
  if (metrics_on) obs::flush_metrics();
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
