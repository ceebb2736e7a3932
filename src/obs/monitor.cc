#include "obs/monitor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "obs/export.h"
#include "support/env.h"
#include "support/stats.h"

namespace faultlab::obs {

namespace {

/// Doubles in the status document: shortest round-trippable-ish form, with
/// non-finite values (which JSON cannot carry) clamped to 0.
void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(v));
  out += buf;
}

void append_string(std::string& out, std::string_view s) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

}  // namespace

void RateWindow::sample(double seconds, std::uint64_t done) noexcept {
  if (size_ != 0) {
    const Point& newest = ring_[(head_ + size_ - 1) % kWindow];
    if (seconds <= newest.t) return;
  }
  if (size_ < kWindow) {
    ring_[(head_ + size_) % kWindow] = {seconds, done};
    ++size_;
  } else {
    ring_[head_] = {seconds, done};
    head_ = (head_ + 1) % kWindow;
  }
}

double RateWindow::rate() const noexcept {
  if (size_ == 0) return 0.0;
  const Point& oldest = ring_[head_];
  const Point& newest = ring_[(head_ + size_ - 1) % kWindow];
  if (size_ == 1)  // since-start average: the only signal we have
    return newest.t > 0.0 ? static_cast<double>(newest.done) / newest.t : 0.0;
  const double dt = newest.t - oldest.t;
  if (dt <= 0.0) return 0.0;
  return static_cast<double>(newest.done - oldest.done) / dt;
}

MonitorOptions MonitorOptions::from_env() {
  MonitorOptions o;
  o.ci_target = support::parse_env_double("FAULTLAB_CI_TARGET", o.ci_target,
                                          1e-6, 1.0);
  o.watchdog_factor = support::parse_env_double(
      "FAULTLAB_WATCHDOG", o.watchdog_factor, 1.0, 1e9);
  o.status_interval_ms = support::parse_env_u64("FAULTLAB_STATUS_INTERVAL",
                                                o.status_interval_ms, 1);
  // Like FAULTLAB_EVENTS, "0" means off (not a file named "0").
  const char* path = support::parse_env_string("FAULTLAB_STATUS");
  if (path != nullptr && !(path[0] == '0' && path[1] == '\0'))
    o.status_path = path;
  return o;
}

CampaignMonitor::CampaignMonitor(MonitorOptions options, std::size_t workers)
    : options_(std::move(options)),
      workers_(std::max<std::size_t>(workers, 1)),
      epoch_(std::chrono::steady_clock::now()) {}

CampaignMonitor::~CampaignMonitor() { finish(); }

std::uint64_t CampaignMonitor::now_us() const noexcept {
  const auto since = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
             std::chrono::duration_cast<std::chrono::microseconds>(since)
                 .count()) +
         clock_skew_us_.load(std::memory_order_relaxed);
}

std::size_t CampaignMonitor::add_cell(std::string app, std::string tool,
                                      std::string category,
                                      std::string fault_model,
                                      std::uint64_t planned_trials) {
  auto cell = std::make_unique<Cell>();
  cell->app = std::move(app);
  cell->tool = std::move(tool);
  cell->category = std::move(category);
  cell->fault_model = std::move(fault_model);
  cell->planned = planned_trials;
  cells_.push_back(std::move(cell));
  return cells_.size() - 1;
}

void CampaignMonitor::set_aux_source(std::function<MonitorAux()> source) {
  aux_source_ = std::move(source);
}

void CampaignMonitor::start() {
  if (started_) return;
  started_ = true;
  epoch_ = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    next_snapshot_us_ = 0;  // first poll writes immediately
  }
  poll();
  // The ticker drives watchdog scans and snapshot cadence off the trial
  // workers' backs. Tick faster than the snapshot interval so the
  // watchdog and the rate window stay fresh even with long intervals.
  const std::uint64_t tick_ms =
      std::min<std::uint64_t>(options_.status_interval_ms, 250);
  ticker_ = std::thread([this, tick_ms] {
    std::unique_lock<std::mutex> lock(ticker_mutex_);
    while (!ticker_stop_) {
      ticker_cv_.wait_for(lock, std::chrono::milliseconds(tick_ms),
                          [this] { return ticker_stop_; });
      if (ticker_stop_) return;
      lock.unlock();
      poll();
      lock.lock();
    }
  });
}

void CampaignMonitor::finish() {
  if (finished_) return;
  finished_ = true;
  if (ticker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(ticker_mutex_);
      ticker_stop_ = true;
    }
    ticker_cv_.notify_all();
    ticker_.join();
  }
  if (!started_) return;
  // Final quiescent snapshot: workers have drained, so the document's
  // cross-field invariants hold exactly (validate_trace.py --status checks
  // them strictly when "final" is true).
  std::lock_guard<std::mutex> lock(control_mutex_);
  const double elapsed = static_cast<double>(now_us()) * 1e-6;
  rate_.sample(elapsed, trials_done_.load(std::memory_order_relaxed));
  if (!options_.status_path.empty()) write_snapshot(true);
}

void CampaignMonitor::begin_trial(std::size_t worker,
                                  std::size_t cell) noexcept {
  if (worker >= workers_.size() || cell >= cells_.size()) return;
  WorkerSlot& slot = workers_[worker];
  slot.started_us.store(now_us(), std::memory_order_relaxed);
  slot.flagged.store(false, std::memory_order_relaxed);
  // Release-publish the busy marker so a watchdog scan that sees the cell
  // also sees its start time.
  slot.busy_cell.store(static_cast<std::uint64_t>(cell) + 1,
                       std::memory_order_release);
}

void CampaignMonitor::record(std::size_t worker, std::size_t cell,
                             MonitorOutcome outcome,
                             double latency_ms) noexcept {
  if (cell >= cells_.size()) return;
  Cell& c = *cells_[cell];
  const auto o = static_cast<std::size_t>(outcome);
  if (o < kMonitorOutcomes)
    c.outcomes[o].fetch_add(1, std::memory_order_relaxed);
  const auto us = static_cast<std::uint64_t>(
      std::max(0.0, latency_ms) * 1000.0);
  c.latency_buckets[HistogramSnapshot::bucket_of(us)].fetch_add(
      1, std::memory_order_relaxed);
  c.latency_sum_us.fetch_add(us, std::memory_order_relaxed);
  c.done.fetch_add(1, std::memory_order_relaxed);
  trials_done_.fetch_add(1, std::memory_order_relaxed);
  if (worker < workers_.size()) {
    WorkerSlot& slot = workers_[worker];
    slot.trials_done.fetch_add(1, std::memory_order_relaxed);
    slot.busy_cell.store(0, std::memory_order_release);
  }
}

MonitorCellStatus CampaignMonitor::cell_status_locked(
    std::size_t cell) const {
  MonitorCellStatus s;
  if (cell >= cells_.size()) return s;
  const Cell& c = *cells_[cell];
  s.app = c.app;
  s.tool = c.tool;
  s.category = c.category;
  s.fault_model = c.fault_model;
  s.planned = c.planned;
  for (std::size_t o = 0; o < kMonitorOutcomes; ++o)
    s.outcomes[o] = c.outcomes[o].load(std::memory_order_relaxed);
  // Derive `done` from the outcome tallies rather than loading the done
  // counter: a concurrent record() between the two reads would otherwise
  // let activated + not_activated disagree with done in a snapshot.
  s.done = 0;
  for (std::size_t o = 0; o < kMonitorOutcomes; ++o) s.done += s.outcomes[o];
  s.activated =
      s.done -
      s.outcomes[static_cast<std::size_t>(MonitorOutcome::NotActivated)];
  const Proportion crash{
      static_cast<std::size_t>(
          s.outcomes[static_cast<std::size_t>(MonitorOutcome::Crash)]),
      static_cast<std::size_t>(s.activated)};
  s.crash_share = crash.value();
  const Proportion::Interval ci = crash.wilson95();
  s.ci_lo = ci.lo;
  s.ci_hi = ci.hi;
  s.ci_halfwidth = (ci.hi - ci.lo) / 2.0;
  s.converged = s.activated > 0 && s.ci_halfwidth <= options_.ci_target;
  HistogramSnapshot hist;
  bool any_bucket = false;
  for (unsigned b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    hist.buckets[b] = c.latency_buckets[b].load(std::memory_order_relaxed);
    hist.count += hist.buckets[b];
    if (hist.buckets[b] != 0) {
      if (!any_bucket) hist.min = HistogramSnapshot::bucket_lo(b);
      hist.max = HistogramSnapshot::bucket_hi(b);
      any_bucket = true;
    }
  }
  hist.sum = c.latency_sum_us.load(std::memory_order_relaxed);
  if (hist.count != 0) {
    s.p50_ms = hist.percentile(50.0) / 1000.0;
    s.p99_ms = hist.percentile(99.0) / 1000.0;
    s.mean_ms = hist.mean() / 1000.0;
  }
  s.watchdog_flags = c.watchdog_flags.load(std::memory_order_relaxed);
  for (const WorkerSlot& slot : workers_)
    if (slot.busy_cell.load(std::memory_order_acquire) == cell + 1)
      ++s.in_flight;
  return s;
}

MonitorCellStatus CampaignMonitor::cell_status(std::size_t cell) const {
  return cell_status_locked(cell);
}

std::vector<MonitorWorkerStatus> CampaignMonitor::worker_status() const {
  std::vector<MonitorWorkerStatus> out;
  out.reserve(workers_.size());
  const std::uint64_t now = now_us();
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const WorkerSlot& slot = workers_[w];
    MonitorWorkerStatus s;
    s.worker = w;
    const std::uint64_t busy =
        slot.busy_cell.load(std::memory_order_acquire);
    s.running = busy != 0;
    if (s.running) {
      s.cell = static_cast<std::size_t>(busy - 1);
      const std::uint64_t started =
          slot.started_us.load(std::memory_order_relaxed);
      s.trial_age_ms =
          now > started ? static_cast<double>(now - started) / 1000.0 : 0.0;
      s.in_flight = 1;
      s.flagged = slot.flagged.load(std::memory_order_relaxed);
    }
    s.trials_done = slot.trials_done.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

double CampaignMonitor::eta_locked(double elapsed, std::uint64_t done_now,
                                   double* rate_out) const {
  std::uint64_t total = 0;
  for (const auto& c : cells_) total += c->planned;
  const std::uint64_t remaining = total > done_now ? total - done_now : 0;
  const double rate = rate_.rate();
  if (rate_out != nullptr) *rate_out = rate;
  if (remaining == 0) return 0.0;
  // Recent-window rate is the primary model: it reflects the current
  // steady state instead of the checkpoint warm-up. Before the window has
  // two samples, fall back to the engines' always-on phase split — mean
  // busy seconds per finished trial, spread across the pool.
  if (rate_.samples() >= 2 && rate > 0.0)
    return static_cast<double>(remaining) / rate;
  if (aux_source_ && done_now > 0) {
    const MonitorAux aux = aux_source_();
    const double busy =
        aux.restore_seconds + aux.execute_seconds + aux.classify_seconds;
    if (busy > 0.0)
      return busy / static_cast<double>(done_now) *
             static_cast<double>(remaining) /
             static_cast<double>(workers_.size());
  }
  if (rate > 0.0) return static_cast<double>(remaining) / rate;
  (void)elapsed;
  return 0.0;
}

MonitorSummary CampaignMonitor::summary() const {
  MonitorSummary s;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const MonitorCellStatus cs = cell_status_locked(i);
    s.trials_total += cs.planned;
    s.trials_done += cs.done;
    if (cs.converged) ++s.converged_cells;
  }
  s.cells = cells_.size();
  s.watchdog_flags = watchdog_flags_.load(std::memory_order_relaxed);
  s.status_writes = status_writes_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(control_mutex_);
  s.eta_seconds = eta_locked(static_cast<double>(now_us()) * 1e-6,
                             s.trials_done, &s.rate_trials_per_second);
  return s;
}

void CampaignMonitor::scan_watchdog() {
  const std::uint64_t now = now_us();
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerSlot& slot = workers_[w];
    const std::uint64_t busy =
        slot.busy_cell.load(std::memory_order_acquire);
    if (busy == 0 || slot.flagged.load(std::memory_order_relaxed)) continue;
    const std::size_t cell = static_cast<std::size_t>(busy - 1);
    if (cell >= cells_.size()) continue;
    Cell& c = *cells_[cell];
    if (c.done.load(std::memory_order_relaxed) < kWatchdogMinSamples)
      continue;  // p99 not yet trustworthy
    const MonitorCellStatus cs = cell_status_locked(cell);
    const double threshold_ms = options_.watchdog_factor * cs.p99_ms;
    if (threshold_ms <= 0.0) continue;
    const std::uint64_t started =
        slot.started_us.load(std::memory_order_relaxed);
    const double age_ms =
        now > started ? static_cast<double>(now - started) / 1000.0 : 0.0;
    if (age_ms <= threshold_ms) continue;
    // Observe, don't kill: flag the slot (once per in-flight trial),
    // count it, and keep a bounded event list for the snapshot.
    slot.flagged.store(true, std::memory_order_relaxed);
    c.watchdog_flags.fetch_add(1, std::memory_order_relaxed);
    watchdog_flags_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_enabled())
      Registry::global().counter("monitor.watchdog_flags").add(1);
    if (watchdog_events_.size() < kMaxWatchdogEvents) {
      WatchdogEvent ev;
      ev.worker = w;
      ev.cell = cell;
      ev.trial_age_ms = age_ms;
      ev.threshold_ms = threshold_ms;
      ev.elapsed_seconds = static_cast<double>(now) * 1e-6;
      watchdog_events_.push_back(ev);
    } else {
      ++watchdog_events_dropped_;
    }
  }
}

void CampaignMonitor::poll(bool force_snapshot) {
  std::unique_lock<std::mutex> lock(control_mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return;  // another poller holds the baton
  const std::uint64_t now = now_us();
  rate_.sample(static_cast<double>(now) * 1e-6,
               trials_done_.load(std::memory_order_relaxed));
  scan_watchdog();
  if (options_.status_path.empty()) return;
  if (!force_snapshot && now < next_snapshot_us_) return;
  next_snapshot_us_ = now + options_.status_interval_ms * 1000;
  write_snapshot(false);
}

std::string CampaignMonitor::status_json(bool final_snapshot) const {
  std::lock_guard<std::mutex> lock(control_mutex_);
  return status_json_locked(final_snapshot);
}

std::string CampaignMonitor::status_json_locked(bool final_snapshot) const {
  const std::uint64_t now = now_us();
  const double elapsed = static_cast<double>(now) * 1e-6;
  const std::uint64_t done = trials_done_.load(std::memory_order_relaxed);
  double rate = 0.0;
  const double eta = eta_locked(elapsed, done, &rate);

  std::uint64_t total = 0;
  std::size_t converged = 0;
  std::vector<MonitorCellStatus> cells;
  cells.reserve(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells.push_back(cell_status_locked(i));
    total += cells.back().planned;
    if (cells.back().converged) ++converged;
  }

  std::string out;
  out.reserve(2048 + cells.size() * 512);
  out += "{\n  \"v\": 1,\n  \"schema\": \"faultlab-status\",\n  \"final\": ";
  out += final_snapshot ? "true" : "false";
  out += ",\n  \"generated_unix\": ";
  append_u64(out, static_cast<std::uint64_t>(std::time(nullptr)));
  out += ",\n  \"elapsed_seconds\": ";
  append_double(out, elapsed);
  out += ",\n  \"ci_target\": ";
  append_double(out, options_.ci_target);
  out += ",\n  \"watchdog_factor\": ";
  append_double(out, options_.watchdog_factor);
  out += ",\n  \"status_interval_ms\": ";
  append_u64(out, options_.status_interval_ms);
  out += ",\n  \"workers_total\": ";
  append_u64(out, workers_.size());
  out += ",\n  \"trials_total\": ";
  append_u64(out, total);
  out += ",\n  \"trials_done\": ";
  append_u64(out, done);
  out += ",\n  \"cells_total\": ";
  append_u64(out, cells.size());
  out += ",\n  \"converged_cells\": ";
  append_u64(out, converged);
  out += ",\n  \"watchdog_flags\": ";
  append_u64(out, watchdog_flags_.load(std::memory_order_relaxed));
  out += ",\n  \"status_writes\": ";
  append_u64(out, status_writes_.load(std::memory_order_relaxed));
  out += ",\n  \"rate_trials_per_second\": ";
  append_double(out, rate);
  out += ",\n  \"eta_seconds\": ";
  append_double(out, eta);

  MonitorAux aux;
  if (aux_source_) aux = aux_source_();
  out += ",\n  \"phases\": {\"restore_seconds\": ";
  append_double(out, aux.restore_seconds);
  out += ", \"execute_seconds\": ";
  append_double(out, aux.execute_seconds);
  out += ", \"classify_seconds\": ";
  append_double(out, aux.classify_seconds);
  out += "},\n  \"counters\": {\"checkpoint_snapshots\": ";
  append_u64(out, aux.checkpoint_snapshots);
  out += ", \"checkpoint_restores\": ";
  append_u64(out, aux.checkpoint_restores);
  out += ", \"delta_restores\": ";
  append_u64(out, aux.delta_restores);
  out += ", \"snapshot_evictions\": ";
  append_u64(out, aux.snapshot_evictions);
  out += ", \"converged_trials\": ";
  append_u64(out, aux.converged_trials);
  out += ", \"converged_instructions\": ";
  append_u64(out, aux.converged_instructions);
  out += ", \"trace_decodes\": ";
  append_u64(out, aux.trace_decodes);
  out += ", \"trace_hits\": ";
  append_u64(out, aux.trace_hits);
  out += ", \"trace_invalidations\": ";
  append_u64(out, aux.trace_invalidations);
  out += "},\n  \"dispatch_mode\": ";
  append_string(out, aux.dispatch_mode);

  out += ",\n  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const MonitorCellStatus& s = cells[i];
    out += i == 0 ? "\n    {" : ",\n    {";
    out += "\"app\": ";
    append_string(out, s.app);
    out += ", \"tool\": ";
    append_string(out, s.tool);
    out += ", \"category\": ";
    append_string(out, s.category);
    out += ", \"fault_model\": ";
    append_string(out, s.fault_model);
    out += ", \"trials\": ";
    append_u64(out, s.planned);
    out += ", \"done\": ";
    append_u64(out, s.done);
    out += ", \"crash\": ";
    append_u64(out, s.outcomes[0]);
    out += ", \"sdc\": ";
    append_u64(out, s.outcomes[1]);
    out += ", \"benign\": ";
    append_u64(out, s.outcomes[2]);
    out += ", \"hang\": ";
    append_u64(out, s.outcomes[3]);
    out += ", \"not_activated\": ";
    append_u64(out, s.outcomes[4]);
    out += ", \"activated\": ";
    append_u64(out, s.activated);
    out += ", \"crash_share\": ";
    append_double(out, s.crash_share);
    out += ", \"ci_lo\": ";
    append_double(out, s.ci_lo);
    out += ", \"ci_hi\": ";
    append_double(out, s.ci_hi);
    out += ", \"ci_halfwidth\": ";
    append_double(out, s.ci_halfwidth);
    out += ", \"converged\": ";
    out += s.converged ? "true" : "false";
    out += ", \"p50_ms\": ";
    append_double(out, s.p50_ms);
    out += ", \"p99_ms\": ";
    append_double(out, s.p99_ms);
    out += ", \"mean_ms\": ";
    append_double(out, s.mean_ms);
    out += ", \"watchdog_flags\": ";
    append_u64(out, s.watchdog_flags);
    out += ", \"in_flight\": ";
    append_u64(out, s.in_flight);
    out += "}";
  }
  out += "\n  ],\n  \"workers\": [";
  const std::vector<MonitorWorkerStatus> workers = worker_status();
  for (std::size_t w = 0; w < workers.size(); ++w) {
    const MonitorWorkerStatus& s = workers[w];
    out += w == 0 ? "\n    {" : ",\n    {";
    out += "\"worker\": ";
    append_u64(out, s.worker);
    out += ", \"state\": ";
    append_string(out, s.running ? "running" : "idle");
    out += ", \"cell\": ";
    if (s.running && s.cell < cells_.size()) {
      const Cell& c = *cells_[s.cell];
      append_string(out, c.app + "/" + c.tool + "/" + c.category);
    } else {
      out += "null";
    }
    out += ", \"trial_age_ms\": ";
    append_double(out, s.trial_age_ms);
    out += ", \"trials_done\": ";
    append_u64(out, s.trials_done);
    out += ", \"in_flight\": ";
    append_u64(out, s.in_flight);
    out += ", \"flagged\": ";
    out += s.flagged ? "true" : "false";
    out += "}";
  }
  out += "\n  ],\n  \"watchdog_events\": [";
  for (std::size_t i = 0; i < watchdog_events_.size(); ++i) {
    const WatchdogEvent& ev = watchdog_events_[i];
    out += i == 0 ? "\n    {" : ",\n    {";
    out += "\"worker\": ";
    append_u64(out, ev.worker);
    out += ", \"cell\": ";
    if (ev.cell < cells_.size()) {
      const Cell& c = *cells_[ev.cell];
      append_string(out, c.app + "/" + c.tool + "/" + c.category);
    } else {
      out += "null";
    }
    out += ", \"trial_age_ms\": ";
    append_double(out, ev.trial_age_ms);
    out += ", \"threshold_ms\": ";
    append_double(out, ev.threshold_ms);
    out += ", \"elapsed_seconds\": ";
    append_double(out, ev.elapsed_seconds);
    out += "}";
  }
  out += "\n  ],\n  \"watchdog_events_dropped\": ";
  append_u64(out, watchdog_events_dropped_);
  out += "\n}\n";
  return out;
}

void CampaignMonitor::write_snapshot(bool final_snapshot) {
  // Called with control_mutex_ held. Holding it through the file write is
  // fine: only the ticker and poll() callers ever contend here — never
  // trial workers.
  const std::string doc = status_json_locked(final_snapshot);
  const std::string tmp = options_.status_path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
      std::fprintf(stderr,
                   "warning: FAULTLAB_STATUS: cannot open '%s' for writing; "
                   "status snapshots disabled\n",
                   tmp.c_str());
    options_.status_path.clear();
    return;
  }
  const bool ok =
      std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  // Atomic publish: readers either see the previous snapshot or this one,
  // never a torn file.
  if (!ok || std::rename(tmp.c_str(), options_.status_path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return;
  }
  status_writes_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_enabled())
    Registry::global().counter("monitor.status_writes").add(1);
}

}  // namespace faultlab::obs
