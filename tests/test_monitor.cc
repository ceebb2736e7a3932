// Campaign monitor tests: rate window behaviour, per-cell tallies and
// Wilson-CI convergence, the stall watchdog (via the test clock seam),
// atomic status snapshots, the heartbeat line, scheduler integration
// (monitor on/off result equivalence, manifest convergence columns), and
// the always-on fault::PhaseStats accounting the ETA model leans on.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "driver/pipeline.h"
#include "fault/campaign.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "fault/scheduler.h"
#include "obs/monitor.h"
#include "support/stats.h"
#include "support/timer.h"

namespace faultlab::obs {
namespace {

TEST(RateWindowTest, EmptyAndSingleSample) {
  RateWindow w;
  EXPECT_DOUBLE_EQ(w.rate(), 0.0);
  // One sample: only the since-start average is available.
  w.sample(2.0, 10);
  EXPECT_EQ(w.samples(), 1u);
  EXPECT_DOUBLE_EQ(w.rate(), 5.0);
}

TEST(RateWindowTest, WindowRateTracksRecentSamplesOnly) {
  RateWindow w;
  // Slow warm-up: 10 trials over the first 10 seconds (1/s)...
  w.sample(0.0, 0);
  w.sample(10.0, 10);
  EXPECT_DOUBLE_EQ(w.rate(), 1.0);
  // ...then steady state at 100/s. Once the slow points rotate out of the
  // 32-sample ring, the window rate converges to the recent rate; the
  // since-start average never would.
  for (int i = 1; i <= 64; ++i)
    w.sample(10.0 + i, 10 + static_cast<std::uint64_t>(i) * 100);
  EXPECT_DOUBLE_EQ(w.rate(), 100.0);
}

TEST(RateWindowTest, DropsNonIncreasingTimestamps) {
  RateWindow w;
  w.sample(1.0, 5);
  w.sample(1.0, 9);   // same timestamp: dropped
  w.sample(0.5, 12);  // going backwards: dropped
  EXPECT_EQ(w.samples(), 1u);
  w.sample(2.0, 15);
  EXPECT_EQ(w.samples(), 2u);
  EXPECT_DOUBLE_EQ(w.rate(), 10.0);  // (15 - 5) / (2.0 - 1.0)
}

TEST(MonitorOptionsTest, FromEnvParsesAndRejects) {
  ::setenv("FAULTLAB_CI_TARGET", "0.02", 1);
  ::setenv("FAULTLAB_WATCHDOG", "4", 1);
  ::setenv("FAULTLAB_STATUS_INTERVAL", "250", 1);
  ::setenv("FAULTLAB_STATUS", "/tmp/s.json", 1);
  MonitorOptions o = MonitorOptions::from_env();
  EXPECT_DOUBLE_EQ(o.ci_target, 0.02);
  EXPECT_DOUBLE_EQ(o.watchdog_factor, 4.0);
  EXPECT_EQ(o.status_interval_ms, 250u);
  EXPECT_EQ(o.status_path, "/tmp/s.json");
  // "0" means off, like the other FAULTLAB_* file switches; garbage knobs
  // warn and keep their defaults.
  ::setenv("FAULTLAB_STATUS", "0", 1);
  ::setenv("FAULTLAB_CI_TARGET", "2.0", 1);   // above 1: rejected
  ::setenv("FAULTLAB_WATCHDOG", "zero", 1);   // not a number
  ::setenv("FAULTLAB_STATUS_INTERVAL", "0", 1);  // below min 1
  o = MonitorOptions::from_env();
  EXPECT_TRUE(o.status_path.empty());
  EXPECT_DOUBLE_EQ(o.ci_target, 0.05);
  EXPECT_DOUBLE_EQ(o.watchdog_factor, 8.0);
  EXPECT_EQ(o.status_interval_ms, 1000u);
  ::unsetenv("FAULTLAB_CI_TARGET");
  ::unsetenv("FAULTLAB_WATCHDOG");
  ::unsetenv("FAULTLAB_STATUS_INTERVAL");
  ::unsetenv("FAULTLAB_STATUS");
}

TEST(CampaignMonitorTest, TalliesAndConvergence) {
  MonitorOptions options;
  options.ci_target = 0.05;
  CampaignMonitor monitor(options, /*workers=*/2);
  const std::size_t big = monitor.add_cell("mcf", "llfi", "all", "transient",
                                           /*planned_trials=*/200);
  const std::size_t small = monitor.add_cell("mcf", "pinfi", "all",
                                             "transient", 200);
  // 100 activated trials, all crashes: Wilson 95% half-width ~0.018 < 0.05.
  for (int i = 0; i < 100; ++i)
    monitor.record(0, big, MonitorOutcome::Crash, 1.0);
  // 10 activated trials cannot converge at a 0.05 target.
  for (int i = 0; i < 8; ++i)
    monitor.record(1, small, MonitorOutcome::Benign, 2.0);
  monitor.record(1, small, MonitorOutcome::SDC, 2.0);
  monitor.record(1, small, MonitorOutcome::NotActivated, 2.0);

  const MonitorCellStatus b = monitor.cell_status(big);
  EXPECT_EQ(b.done, 100u);
  EXPECT_EQ(b.activated, 100u);
  EXPECT_DOUBLE_EQ(b.crash_share, 1.0);
  EXPECT_GT(b.ci_lo, 0.9);
  EXPECT_LE(b.ci_hi, 1.0);
  EXPECT_LT(b.ci_halfwidth, 0.05);
  EXPECT_TRUE(b.converged);
  EXPECT_EQ(b.in_flight, 0u);
  EXPECT_GT(b.p50_ms, 0.0);
  EXPECT_GE(b.p99_ms, b.p50_ms);

  const MonitorCellStatus s = monitor.cell_status(small);
  EXPECT_EQ(s.done, 10u);
  EXPECT_EQ(s.activated, 9u);  // NotActivated excluded
  EXPECT_EQ(s.outcomes[static_cast<std::size_t>(MonitorOutcome::SDC)], 1u);
  EXPECT_DOUBLE_EQ(s.crash_share, 0.0);
  EXPECT_FALSE(s.converged);

  const MonitorSummary sum = monitor.summary();
  EXPECT_EQ(sum.trials_done, 110u);
  EXPECT_EQ(sum.trials_total, 400u);
  EXPECT_EQ(sum.cells, 2u);
  EXPECT_EQ(sum.converged_cells, 1u);
}

TEST(CampaignMonitorTest, WatchdogFlagsStalledTrialOnce) {
  MonitorOptions options;
  options.watchdog_factor = 8.0;
  CampaignMonitor monitor(options, /*workers=*/2);
  const std::size_t cell =
      monitor.add_cell("mcf", "llfi", "all", "transient", 100);
  // Establish a trustworthy p99 (>= kWatchdogMinSamples completions at
  // ~1 ms each), then leave one trial in flight.
  for (std::uint64_t i = 0; i < CampaignMonitor::kWatchdogMinSamples; ++i)
    monitor.record(0, cell, MonitorOutcome::Benign, 1.0);
  monitor.begin_trial(0, cell);
  monitor.poll();
  EXPECT_EQ(monitor.summary().watchdog_flags, 0u);  // young trial: quiet

  // Age the in-flight trial by 10 s — far past 8 x p99(~1 ms).
  monitor.advance_clock_for_test(10u * 1000 * 1000);
  monitor.poll();
  EXPECT_EQ(monitor.summary().watchdog_flags, 1u);
  EXPECT_EQ(monitor.cell_status(cell).watchdog_flags, 1u);
  const std::vector<MonitorWorkerStatus> workers = monitor.worker_status();
  ASSERT_EQ(workers.size(), 2u);
  EXPECT_TRUE(workers[0].running);
  EXPECT_TRUE(workers[0].flagged);
  EXPECT_FALSE(workers[1].running);

  // Re-scanning must not double-flag the same in-flight trial.
  monitor.poll();
  monitor.poll();
  EXPECT_EQ(monitor.summary().watchdog_flags, 1u);

  // Completion clears the slot; the flag tally stays as history.
  monitor.record(0, cell, MonitorOutcome::Hang, 10000.0);
  EXPECT_FALSE(monitor.worker_status()[0].running);
  EXPECT_EQ(monitor.summary().watchdog_flags, 1u);
  EXPECT_EQ(monitor.cell_status(cell).in_flight, 0u);
}

TEST(CampaignMonitorTest, StatusJsonCarriesSchemaAndCells) {
  MonitorOptions options;
  CampaignMonitor monitor(options, 1);
  monitor.add_cell("mcf", "llfi", "arithmetic", "transient", 50);
  for (int i = 0; i < 5; ++i)
    monitor.record(0, 0, MonitorOutcome::Crash, 1.0);
  const std::string doc = monitor.status_json(/*final_snapshot=*/false);
  EXPECT_NE(doc.find("\"schema\": \"faultlab-status\""), std::string::npos);
  EXPECT_NE(doc.find("\"v\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"final\": false"), std::string::npos);
  EXPECT_NE(doc.find("\"category\": \"arithmetic\""), std::string::npos);
  EXPECT_NE(doc.find("\"crash\": 5"), std::string::npos);
  EXPECT_NE(doc.find("\"trials_done\": 5"), std::string::npos);
}

TEST(CampaignMonitorTest, HeartbeatRendersTheCellTallies) {
  CampaignMonitor monitor(MonitorOptions{}, /*workers=*/2);
  // Worker 0 completes a converging cell; worker 1 leaves the other one
  // open with its last trial stalled long enough to trip the watchdog.
  const std::size_t full =
      monitor.add_cell("mcf", "llfi", "all", "transient", 100);
  const std::size_t open =
      monitor.add_cell("mcf", "pinfi", "all", "transient", 25);
  for (int i = 0; i < 100; ++i) {
    monitor.begin_trial(0, full);
    monitor.record(0, full, MonitorOutcome::Crash, 1.0);
  }
  const MonitorOutcome mixed[] = {MonitorOutcome::SDC, MonitorOutcome::Hang,
                                  MonitorOutcome::NotActivated};
  for (int i = 0; i < 21; ++i) {
    monitor.begin_trial(1, open);
    monitor.record(1, open, i < 3 ? mixed[i] : MonitorOutcome::Benign, 1.0);
  }
  monitor.begin_trial(1, open);
  monitor.advance_clock_for_test(10u * 1000 * 1000);
  monitor.poll();

  const std::string line = monitor.heartbeat();
  EXPECT_EQ(line.rfind("[faultlab] 121/125 trials (96.8%)", 0), 0u) << line;
  EXPECT_NE(line.find("[1/2 campaigns]  conv 1/2  wd 1"), std::string::npos)
      << line;
  EXPECT_NE(line.find("crash 100  sdc 1  benign 18  hang 1  n/a 1  util "),
            std::string::npos)
      << line;
  EXPECT_EQ(line.find_first_of("\r\n"), std::string::npos);
}

TEST(CampaignMonitorTest, SnapshotFilePublishedAtomically) {
  const std::string path =
      ::testing::TempDir() + "faultlab_monitor_snapshot.json";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  {
    MonitorOptions options;
    options.status_path = path;
    options.status_interval_ms = 10;
    CampaignMonitor monitor(options, 1);
    monitor.add_cell("mcf", "llfi", "all", "transient", 3);
    monitor.start();
    for (int i = 0; i < 3; ++i)
      monitor.record(0, 0, MonitorOutcome::Benign, 1.0);
    monitor.finish();
    EXPECT_GE(monitor.summary().status_writes, 1u);
  }
  // The final snapshot exists, the temp file does not (rename published
  // it), and the document is marked final with the full tally.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"final\": true"), std::string::npos);
  EXPECT_NE(content.str().find("\"trials_done\": 3"), std::string::npos);
  std::remove(path.c_str());
}

/// A small program with work in every category (mirrors test_scheduler.cc).
const char* kMonitorProgram = R"(
  int data[32];
  double weights[32];
  int main() {
    int i;
    for (i = 0; i < 32; i++) {
      data[i] = i * 7 + 3;
      weights[i] = (double)i * 0.5;
    }
    long acc = 0;
    double wacc = 0.0;
    for (i = 0; i < 32; i++) {
      if (data[i] % 3 == 0) acc += data[i];
      wacc = wacc + weights[i] * 1.25;
    }
    print_int(acc);
    print_int((long)(wacc * 100.0));
    return 0;
  }
)";

std::vector<fault::CampaignResult> run_monitored_grid(
    fault::LlfiEngine& llfi, fault::PinfiEngine& pinfi, bool monitored,
    fault::RunManifest* manifest_out, double ci_target = 0.05) {
  fault::SchedulerOptions options;
  options.threads = 2;
  if (monitored) {
    MonitorOptions mopts;
    mopts.ci_target = ci_target;
    options.monitor = mopts;
  }
  fault::CampaignScheduler scheduler(options);
  for (ir::Category c : {ir::Category::All, ir::Category::Arithmetic}) {
    fault::CampaignConfig cfg;
    cfg.app = "grid";
    cfg.category = c;
    cfg.trials = 16;
    cfg.seed = 7;
    scheduler.add(llfi, cfg);
    scheduler.add(pinfi, cfg);
  }
  std::vector<fault::CampaignResult> results = scheduler.run();
  if (manifest_out != nullptr) *manifest_out = scheduler.manifest();
  return results;
}

TEST(MonitorSchedulerTest, ResultsIdenticalWithMonitorOnAndOff) {
  auto prog = driver::compile(kMonitorProgram, "grid");
  fault::LlfiEngine llfi(prog.module());
  fault::PinfiEngine pinfi(prog.program());
  fault::RunManifest with_monitor;
  fault::RunManifest without_monitor;
  const auto monitored =
      run_monitored_grid(llfi, pinfi, true, &with_monitor);
  const auto plain =
      run_monitored_grid(llfi, pinfi, false, &without_monitor);
  ASSERT_EQ(monitored.size(), plain.size());
  for (std::size_t i = 0; i < monitored.size(); ++i) {
    ASSERT_EQ(monitored[i].trials.size(), plain[i].trials.size());
    for (std::size_t t = 0; t < monitored[i].trials.size(); ++t) {
      EXPECT_EQ(monitored[i].trials[t].outcome, plain[i].trials[t].outcome)
          << "campaign " << i << " trial " << t;
      EXPECT_EQ(monitored[i].trials[t].bit, plain[i].trials[t].bit);
    }
  }
  // Convergence columns come from the final tallies, not the monitor, so
  // both manifests agree (watchdog flags can only exist with the monitor,
  // and no trial here runs long enough to trip one).
  ASSERT_EQ(with_monitor.campaigns.size(), without_monitor.campaigns.size());
  for (std::size_t i = 0; i < with_monitor.campaigns.size(); ++i) {
    EXPECT_EQ(with_monitor.campaigns[i].converged,
              without_monitor.campaigns[i].converged);
    EXPECT_DOUBLE_EQ(with_monitor.campaigns[i].ci_halfwidth,
                     without_monitor.campaigns[i].ci_halfwidth);
    EXPECT_EQ(with_monitor.campaigns[i].watchdog_flags, 0u);
  }
}

TEST(MonitorSchedulerTest, ManifestConvergenceMatchesWilson) {
  auto prog = driver::compile(kMonitorProgram, "grid");
  fault::LlfiEngine llfi(prog.module());
  fault::PinfiEngine pinfi(prog.program());
  fault::RunManifest manifest;
  run_monitored_grid(llfi, pinfi, true, &manifest,
                     /*ci_target=*/0.5);  // loose: tiny campaigns converge
  EXPECT_DOUBLE_EQ(manifest.ci_target, 0.5);
  for (const fault::CampaignTiming& t : manifest.campaigns) {
    const Proportion crash{t.crash, t.activated};
    const Proportion::Interval ci = crash.wilson95();
    EXPECT_NEAR(t.ci_halfwidth, (ci.hi - ci.lo) / 2.0, 1e-12);
    EXPECT_EQ(t.converged,
              t.activated > 0 && t.ci_halfwidth <= manifest.ci_target);
  }
  // The CSV rendering carries the new columns.
  const std::string csv = fault::manifest_csv(manifest).to_string();
  EXPECT_NE(csv.find("converged"), std::string::npos);
  EXPECT_NE(csv.find("ci_halfwidth"), std::string::npos);
  EXPECT_NE(csv.find("watchdog_flags"), std::string::npos);
  EXPECT_NE(csv.find("ci_target"), std::string::npos);
}

// ---- fault::PhaseStats coverage (previously only surfaced in benches) ----

fault::PhaseStats run_phase_campaign(fault::InjectorEngine& engine,
                                     std::size_t threads,
                                     double* wall_out) {
  fault::SchedulerOptions options;
  options.threads = threads;
  fault::CampaignScheduler scheduler(options);
  fault::CampaignConfig cfg;
  cfg.app = "grid";
  cfg.category = ir::Category::All;
  cfg.trials = 24;
  cfg.seed = 13;
  scheduler.add(engine, cfg);
  WallTimer timer;
  scheduler.run();
  if (wall_out != nullptr) *wall_out = timer.seconds();
  return engine.phase_stats();
}

TEST(PhaseStatsTest, NonNegativeAndMonotonicAcrossRuns) {
  auto prog = driver::compile(kMonitorProgram, "grid");
  fault::LlfiEngine llfi(prog.module());
  double wall = 0.0;
  const fault::PhaseStats first = run_phase_campaign(llfi, 1, &wall);
  EXPECT_GE(first.restore_seconds, 0.0);
  EXPECT_GE(first.execute_seconds, 0.0);
  EXPECT_GE(first.classify_seconds, 0.0);
  EXPECT_GT(first.execute_seconds, 0.0);  // trials definitely executed
  // Phase clocks are cumulative per engine: a second campaign only adds.
  const fault::PhaseStats second = run_phase_campaign(llfi, 1, &wall);
  EXPECT_GE(second.restore_seconds, first.restore_seconds);
  EXPECT_GE(second.execute_seconds, first.execute_seconds);
  EXPECT_GE(second.classify_seconds, first.classify_seconds);
}

TEST(PhaseStatsTest, BoundedByWallTimeAcrossThreads) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    auto prog = driver::compile(kMonitorProgram, "grid");
    fault::LlfiEngine llfi(prog.module());
    fault::PinfiEngine pinfi(prog.program());
    for (fault::InjectorEngine* engine :
         {static_cast<fault::InjectorEngine*>(&llfi),
          static_cast<fault::InjectorEngine*>(&pinfi)}) {
      double wall = 0.0;
      const fault::PhaseStats stats =
          run_phase_campaign(*engine, threads, &wall);
      const double busy = stats.restore_seconds + stats.execute_seconds +
                          stats.classify_seconds;
      // N workers can accumulate at most N seconds of phase time per wall
      // second; 1.25 covers clock-read granularity at these tiny scales.
      EXPECT_LE(busy,
                wall * static_cast<double>(threads) * 1.25 + 0.05)
          << engine->tool_name() << " with " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace faultlab::obs
