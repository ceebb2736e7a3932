// Campaign scheduler tests: grid determinism across thread counts,
// single-pass profiling equivalence (one fault-free run per engine,
// profiled in parallel), the snapshot stride's doubling rule, exception
// propagation from profiling and trial workers, manifest contents, and
// FAULTLAB_TRIALS parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "driver/pipeline.h"
#include "fault/campaign.h"
#include "fault/checkpoint_store.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "fault/report.h"
#include "fault/scheduler.h"
#include "machine/dispatch.h"
#include "obs/propagation.h"
#include "record_compare.h"

namespace faultlab::fault {
namespace {

/// A small program with work in every category.
const char* kGridProgram = R"(
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

std::vector<CampaignResult> run_grid(LlfiEngine& llfi, PinfiEngine& pinfi,
                                     std::size_t threads) {
  SchedulerOptions options;
  options.threads = threads;
  CampaignScheduler scheduler(options);
  for (ir::Category c :
       {ir::Category::All, ir::Category::Arithmetic, ir::Category::Load}) {
    CampaignConfig cfg;
    cfg.app = "grid";
    cfg.category = c;
    cfg.trials = 12;
    cfg.seed = 99;
    scheduler.add(llfi, cfg);
    scheduler.add(pinfi, cfg);
  }
  return scheduler.run();
}

TEST(Scheduler, GridDeterministicAcrossThreadCounts) {
  auto prog = driver::compile(kGridProgram, "grid");
  LlfiEngine llfi(prog.module());
  PinfiEngine pinfi(prog.program());
  const std::vector<CampaignResult> serial = run_grid(llfi, pinfi, 1);
  const std::vector<CampaignResult> parallel = run_grid(llfi, pinfi, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].app, parallel[i].app);
    EXPECT_EQ(serial[i].tool, parallel[i].tool);
    EXPECT_EQ(serial[i].category, parallel[i].category);
    EXPECT_EQ(serial[i].profiled_count, parallel[i].profiled_count);
    EXPECT_EQ(serial[i].crash, parallel[i].crash);
    EXPECT_EQ(serial[i].sdc, parallel[i].sdc);
    EXPECT_EQ(serial[i].benign, parallel[i].benign);
    EXPECT_EQ(serial[i].hang, parallel[i].hang);
    EXPECT_EQ(serial[i].not_activated, parallel[i].not_activated);
    EXPECT_EQ(serial[i].injected_trials, parallel[i].injected_trials);
    expect_same_records(serial[i].trials, parallel[i].trials);
  }
}

TEST(Scheduler, MatchesRunCampaignCellByCell) {
  // The scheduler must be a pure orchestration change: each grid cell's
  // records equal what the single-campaign wrapper produces.
  auto prog = driver::compile(kGridProgram, "grid");
  LlfiEngine llfi(prog.module());
  PinfiEngine pinfi(prog.program());
  const std::vector<CampaignResult> grid = run_grid(llfi, pinfi, 2);
  for (const CampaignResult& cell : grid) {
    CampaignConfig cfg;
    cfg.app = cell.app;
    cfg.category = cell.category;
    cfg.trials = 12;
    cfg.seed = 99;
    cfg.threads = 1;
    InjectorEngine& engine =
        cell.tool == "LLFI" ? static_cast<InjectorEngine&>(llfi) : pinfi;
    const CampaignResult solo = run_campaign(engine, cfg);
    EXPECT_EQ(solo.profiled_count, cell.profiled_count);
    expect_same_records(solo.trials, cell.trials);
  }
}

TEST(Scheduler, CheckpointedMatchesDirectCellByCellAtAnyThreadCount) {
  // The acceptance bar for checkpoint/restore: resuming trials from
  // mid-run snapshots (at a deliberately dense stride) must reproduce the
  // direct-execution records cell by cell, for 1, 2, and 4 workers.
  auto prog = driver::compile(kGridProgram, "grid");
  LlfiEngine llfi_direct(prog.module(), {}, {0, /*enabled=*/false});
  PinfiEngine pinfi_direct(prog.program(), {}, {0, /*enabled=*/false});
  const std::vector<CampaignResult> direct =
      run_grid(llfi_direct, pinfi_direct, 1);
  EXPECT_EQ(llfi_direct.checkpoint_stats().restored_trials, 0u);
  EXPECT_EQ(pinfi_direct.checkpoint_stats().restored_trials, 0u);

  for (std::size_t threads : {1u, 2u, 4u}) {
    LlfiEngine llfi(prog.module(), {}, {/*stride=*/500, true});
    PinfiEngine pinfi(prog.program(), {}, {/*stride=*/500, true});
    const std::vector<CampaignResult> checkpointed =
        run_grid(llfi, pinfi, threads);
    ASSERT_EQ(checkpointed.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(checkpointed[i].profiled_count, direct[i].profiled_count);
      EXPECT_EQ(checkpointed[i].crash, direct[i].crash);
      EXPECT_EQ(checkpointed[i].sdc, direct[i].sdc);
      EXPECT_EQ(checkpointed[i].benign, direct[i].benign);
      EXPECT_EQ(checkpointed[i].hang, direct[i].hang);
      EXPECT_EQ(checkpointed[i].not_activated, direct[i].not_activated);
      expect_same_records(checkpointed[i].trials, direct[i].trials);
    }
    // The dense stride guarantees snapshots exist and most trials resume.
    const CheckpointStats ls = llfi.checkpoint_stats();
    const CheckpointStats ps = pinfi.checkpoint_stats();
    EXPECT_GT(ls.snapshots, 0u) << threads << " threads";
    EXPECT_GT(ps.snapshots, 0u) << threads << " threads";
    EXPECT_GT(ls.restored_trials, 0u) << threads << " threads";
    EXPECT_GT(ps.restored_trials, 0u) << threads << " threads";
    EXPECT_GT(ls.skipped_instructions, 0u);
    EXPECT_GT(ps.skipped_instructions, 0u);
  }
}

/// One fig3 cell (mcf, category all) per tool on one worker, with the
/// engines built under `checkpoints` and `model`.
struct ConvergeRun {
  std::vector<CampaignResult> results;
  CheckpointStats llfi;
  CheckpointStats pinfi;
  RunManifest manifest;
};

ConvergeRun run_mcf_cells(const driver::CompiledProgram& prog,
                          CheckpointPolicy checkpoints, const Model& model,
                          std::size_t trials) {
  LlfiEngine llfi(prog.module(), {}, checkpoints, model);
  PinfiEngine pinfi(prog.program(), {}, checkpoints, model);
  SchedulerOptions options;
  options.threads = 1;
  CampaignScheduler scheduler(options);
  CampaignConfig cfg;
  cfg.app = "mcf";
  cfg.category = ir::Category::All;
  cfg.trials = trials;
  cfg.seed = 1;
  scheduler.add(llfi, cfg);
  scheduler.add(pinfi, cfg);
  ConvergeRun run;
  run.results = scheduler.run();
  run.llfi = llfi.checkpoint_stats();
  run.pinfi = pinfi.checkpoint_stats();
  run.manifest = scheduler.manifest();
  return run;
}

TEST(Scheduler, ConvergedTrialsMatchCheckpointFreeRuns) {
  // Golden-convergence early exit: a checkpointed trial whose state again
  // equals the golden run's stops there and completes its record from the
  // golden run. Checkpoint-free trials never converge, so they are the
  // oracle, record for record.
  const apps::Benchmark& mcf = apps::benchmark("mcf");
  auto prog = driver::compile(mcf.source, mcf.name);
  CheckpointPolicy direct;
  direct.enabled = false;
  const ConvergeRun off = run_mcf_cells(prog, direct, Model{}, 60);
  const ConvergeRun on = run_mcf_cells(prog, CheckpointPolicy{}, Model{}, 60);
  ASSERT_EQ(on.results.size(), off.results.size());
  for (std::size_t i = 0; i < on.results.size(); ++i)
    expect_same_records(on.results[i].trials, off.results[i].trials);
  EXPECT_EQ(off.llfi.converged_trials + off.pinfi.converged_trials, 0u);
  EXPECT_GT(on.llfi.converged_trials, 0u);
  EXPECT_GT(on.pinfi.converged_trials, 0u);
  EXPECT_GT(on.llfi.converged_instructions, 0u);
  EXPECT_GT(on.pinfi.converged_instructions, 0u);
  EXPECT_EQ(on.manifest.converged_trials,
            on.llfi.converged_trials + on.pinfi.converged_trials);
  EXPECT_EQ(on.manifest.converged_instructions,
            on.llfi.converged_instructions + on.pinfi.converged_instructions);
}

TEST(Scheduler, PersistentFaultsNeverConverge) {
  // A stuck-at fault keeps its hook attached to the end of the run, so no
  // trial may stop early (the equivalence harness in test_differential.cc
  // compares stuck-at-1 records with checkpoint-free runs).
  const apps::Benchmark& mcf = apps::benchmark("mcf");
  auto prog = driver::compile(mcf.source, mcf.name);
  const ConvergeRun on = run_mcf_cells(prog, CheckpointPolicy{},
                                       Model::parse("stuck-at-1"), 10);
  EXPECT_GT(on.llfi.restored_trials + on.pinfi.restored_trials, 0u);
  EXPECT_EQ(on.llfi.converged_trials, 0u);
  EXPECT_EQ(on.pinfi.converged_trials, 0u);
  EXPECT_EQ(on.manifest.converged_trials, 0u);
}

/// Minimal snapshot shape the store needs: a golden position.
struct FakeSnapshot {
  std::uint64_t executed = 0;
};

CategoryCounts seen_all(std::uint64_t n) {
  CategoryCounts c;
  c[ir::Category::All] = n;
  return c;
}

/// Captures at executed = 100, 200, ... with seen = 10, 20, ...
CheckpointStore<FakeSnapshot> store_of(std::uint64_t captures) {
  CheckpointStore<FakeSnapshot> store;
  for (std::uint64_t i = 1; i <= captures; ++i)
    store.add({i * 100}, seen_all(i * 10));
  return store;
}

TEST(CheckpointStore, BeforeAndWindowAgreeAndSkipDeadEntries) {
  CheckpointStore<FakeSnapshot> store = store_of(4);
  // k=25: entries with seen {10,20,30,40} -> latest with seen < 25 is #1.
  EXPECT_EQ(store.window_of(ir::Category::All, 25), 1u);
  const auto* entry = store.before(ir::Category::All, 25);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->snapshot.executed, 200u);
  // A prefix holding exactly k-1 instances still resumes: k=21 -> #1.
  EXPECT_EQ(store.window_of(ir::Category::All, 21), 1u);
  EXPECT_EQ(store.window_of(ir::Category::All, 20), 0u);
  // k=5: every prefix already holds >= 10 instances, so no resumable point
  // exists and the trial runs from scratch.
  EXPECT_EQ(store.window_of(ir::Category::All, 5), store.kNoWindow);
  EXPECT_EQ(store.before(ir::Category::All, 5), nullptr);
  // The time-triggered queries agree the same way.
  EXPECT_EQ(store.window_of_time(250), 1u);
  EXPECT_EQ(store.before_time(250)->snapshot.executed, 200u);
  EXPECT_EQ(store.window_of_time(100), store.kNoWindow);
  EXPECT_EQ(store.before_time(100), nullptr);

  // The captures halve() dropped (#0 and #2) are gone: before() resumes
  // from the nearest kept entry and window_of() names its new index.
  store.halve();
  for (std::uint64_t k = 1; k <= 50; ++k) {
    const auto* e = store.before(ir::Category::All, k);
    const std::uint64_t w = store.window_of(ir::Category::All, k);
    if (e == nullptr) {
      EXPECT_EQ(w, store.kNoWindow) << "k=" << k;
      EXPECT_LE(k, 20u) << "k=" << k;
      continue;
    }
    EXPECT_LT(e->seen[ir::Category::All], k);
    EXPECT_EQ(e->snapshot.executed % 200, 0u) << "k=" << k;  // a kept one
    EXPECT_EQ(w, e->snapshot.executed / 200 - 1) << "k=" << k;
  }
}

TEST(CheckpointStore, AfterFindsTheNextLiveGoldenState) {
  CheckpointStore<FakeSnapshot> store = store_of(4);
  ASSERT_NE(store.after(0), nullptr);
  EXPECT_EQ(store.after(0)->executed, 100u);
  EXPECT_EQ(store.after(100)->executed, 200u);
  EXPECT_EQ(store.after(250)->executed, 300u);
  EXPECT_EQ(store.after(400), nullptr);

  // After halve() only the kept captures are golden states to converge on.
  store.halve();
  std::set<std::uint64_t> seen;
  for (std::uint64_t x = 0; x < 400; x += 50) {
    const FakeSnapshot* next = store.after(x);
    if (next == nullptr) continue;
    EXPECT_GT(next->executed, x);
    seen.insert(next->executed);
  }
  EXPECT_EQ(seen, (std::set<std::uint64_t>{200, 400}));
}

TEST(CheckpointStore, HalveKeepsEverySecondEntry) {
  CheckpointStore<FakeSnapshot> store = store_of(8);
  store.halve();
  // The second, fourth, ... captures survive.
  ASSERT_EQ(store.size(), 4u);
  std::uint64_t at = 0;
  for (std::uint64_t w = 0; w < 4; ++w) {
    const FakeSnapshot* next = store.after(at);
    ASSERT_NE(next, nullptr);
    at = (w + 1) * 200;
    EXPECT_EQ(next->executed, at);
    EXPECT_EQ(store.window_of(ir::Category::All, (w + 1) * 20 + 1), w);
  }
  EXPECT_EQ(store.after(at), nullptr);
  EXPECT_EQ(store.window_of(ir::Category::All, 20), store.kNoWindow);
  // An odd count drops the last capture too.
  CheckpointStore<FakeSnapshot> odd = store_of(5);
  odd.halve();
  ASSERT_EQ(odd.size(), 2u);
  EXPECT_EQ(odd.after(200)->executed, 400u);
  EXPECT_EQ(odd.after(400), nullptr);
}

class CheckpointEnv : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("FAULTLAB_CHECKPOINTS");
    unsetenv("FAULTLAB_SNAPSHOT_STRIDE");
    unsetenv("FAULTLAB_DISPATCH");
    unsetenv("FAULTLAB_PROP");
  }
};

TEST_F(CheckpointEnv, PolicyParsesEnvironment) {
  unsetenv("FAULTLAB_CHECKPOINTS");
  unsetenv("FAULTLAB_SNAPSHOT_STRIDE");
  CheckpointPolicy p = CheckpointPolicy::from_env();
  EXPECT_TRUE(p.enabled);
  EXPECT_EQ(p.stride, 0u);

  setenv("FAULTLAB_CHECKPOINTS", "0", 1);
  EXPECT_FALSE(CheckpointPolicy::from_env().enabled);
  setenv("FAULTLAB_CHECKPOINTS", "junk", 1);  // warns, falls back to on
  EXPECT_TRUE(CheckpointPolicy::from_env().enabled);

  setenv("FAULTLAB_SNAPSHOT_STRIDE", "12345", 1);
  EXPECT_EQ(CheckpointPolicy::from_env().stride, 12345u);
  setenv("FAULTLAB_SNAPSHOT_STRIDE", "-3", 1);  // warns, falls back to auto
  EXPECT_EQ(CheckpointPolicy::from_env().stride, 0u);

  unsetenv("FAULTLAB_DISPATCH");
  unsetenv("FAULTLAB_PROP");
  const ExecConfig defaults = ExecConfig::from_env();
  EXPECT_EQ(defaults.dispatch, machine::DispatchMode::Threaded);
  EXPECT_FALSE(defaults.trace_prop);
  setenv("FAULTLAB_DISPATCH", "switch", 1);
  EXPECT_EQ(ExecConfig::from_env().dispatch, machine::DispatchMode::Switch);
  setenv("FAULTLAB_DISPATCH", "threaded", 1);
  EXPECT_EQ(ExecConfig::from_env().dispatch, machine::DispatchMode::Threaded);
  setenv("FAULTLAB_DISPATCH", "junk", 1);  // warns, falls back to threaded
  EXPECT_EQ(ExecConfig::from_env().dispatch, machine::DispatchMode::Threaded);
  setenv("FAULTLAB_PROP", "1", 1);
  EXPECT_TRUE(ExecConfig::from_env().trace_prop);
  setenv("FAULTLAB_PROP", "0", 1);
  EXPECT_FALSE(ExecConfig::from_env().trace_prop);
  // Each engine reads the environment when it is constructed.
  auto prog = driver::compile(kGridProgram, "grid");
  setenv("FAULTLAB_DISPATCH", "switch", 1);
  setenv("FAULTLAB_PROP", "1", 1);
  const LlfiEngine traced_switch(prog.module());
  unsetenv("FAULTLAB_DISPATCH");
  unsetenv("FAULTLAB_PROP");
  const PinfiEngine plain(prog.program());
  EXPECT_EQ(traced_switch.exec_config().dispatch,
            machine::DispatchMode::Switch);
  EXPECT_TRUE(traced_switch.exec_config().trace_prop);
  EXPECT_EQ(plain.exec_config().dispatch, machine::DispatchMode::Threaded);
  EXPECT_FALSE(plain.exec_config().trace_prop);
}

TEST(Scheduler, ManifestReportsTheEnginesDispatchMode) {
  auto prog = driver::compile(kGridProgram, "grid");
  const auto manifest_mode = [&](machine::DispatchMode llfi_mode,
                                 machine::DispatchMode pinfi_mode) {
    LlfiEngine llfi(prog.module(), {}, CheckpointPolicy{}, Model{},
                    ExecConfig{llfi_mode, false});
    PinfiEngine pinfi(prog.program(), {}, CheckpointPolicy{}, Model{},
                      ExecConfig{pinfi_mode, false});
    SchedulerOptions options;
    options.threads = 1;
    CampaignScheduler scheduler(options);
    CampaignConfig cfg;
    cfg.app = "grid";
    cfg.trials = 2;
    scheduler.add(llfi, cfg);
    scheduler.add(pinfi, cfg);
    scheduler.run();
    return scheduler.manifest().dispatch_mode;
  };
  using machine::DispatchMode;
  EXPECT_EQ(manifest_mode(DispatchMode::Threaded, DispatchMode::Threaded),
            "threaded");
  EXPECT_EQ(manifest_mode(DispatchMode::Switch, DispatchMode::Switch),
            "switch");
  EXPECT_EQ(manifest_mode(DispatchMode::Switch, DispatchMode::Threaded),
            "mixed");
}

/// The automatic stride starts at kMinStride and doubles each time the
/// store holds 2 * kAutoWindows snapshots, so a profiled engine ends with
/// kMinStride * 2^j and kAutoWindows to 2 * kAutoWindows - 1 windows, or
/// with one window per kMinStride instructions when its run is shorter.
void expect_doubling_rule(const InjectorEngine& engine,
                          const std::string& label) {
  const CheckpointStats stats = engine.checkpoint_stats();
  const std::uint64_t golden = engine.golden_instructions();
  std::uint64_t stride = CheckpointPolicy::kMinStride;
  while (stride < stats.stride) stride *= 2;
  EXPECT_EQ(stats.stride, stride) << label;
  if (stride == CheckpointPolicy::kMinStride) {
    EXPECT_EQ(stats.snapshots, golden / stride) << label;
  } else {
    EXPECT_GE(stats.snapshots, CheckpointPolicy::kAutoWindows) << label;
    EXPECT_LT(stats.snapshots, 2 * CheckpointPolicy::kAutoWindows) << label;
  }
}

TEST_F(CheckpointEnv, StrideDoublesOnlyWhenAutomatic) {
  const apps::Benchmark* longest = nullptr;
  std::uint64_t longest_golden = 0;
  std::size_t doubled = 0;
  for (const apps::Benchmark& app : apps::all_benchmarks()) {
    auto prog = driver::compile(app.source, app.name);
    LlfiEngine llfi(prog.module(), {}, CheckpointPolicy{}, Model{});
    PinfiEngine pinfi(prog.program(), {}, CheckpointPolicy{}, Model{});
    llfi.profile_all();
    pinfi.profile_all();
    expect_doubling_rule(llfi, app.name + " LLFI");
    expect_doubling_rule(pinfi, app.name + " PINFI");
    for (const InjectorEngine* e : {static_cast<InjectorEngine*>(&llfi),
                                    static_cast<InjectorEngine*>(&pinfi)})
      doubled += e->checkpoint_stats().stride > CheckpointPolicy::kMinStride;
    if (llfi.golden_instructions() > longest_golden) {
      longest = &app;
      longest_golden = llfi.golden_instructions();
    }
  }
  EXPECT_GT(doubled, 0u) << "no app is long enough to double the stride";

  // An explicit stride, from the policy or FAULTLAB_SNAPSHOT_STRIDE, never
  // doubles: the longest app keeps one window per stride, far more than
  // 2 * kAutoWindows.
  ASSERT_NE(longest, nullptr);
  auto prog = driver::compile(longest->source, longest->name);
  CheckpointPolicy fixed;
  fixed.stride = 10'000;
  setenv("FAULTLAB_SNAPSHOT_STRIDE", "10000", 1);
  for (const CheckpointPolicy& policy : {fixed, CheckpointPolicy::from_env()}) {
    LlfiEngine llfi(prog.module(), {}, policy, Model{});
    llfi.profile_all();
    const CheckpointStats stats = llfi.checkpoint_stats();
    EXPECT_EQ(stats.stride, 10'000u);
    EXPECT_EQ(stats.snapshots, longest_golden / 10'000);
    EXPECT_GE(stats.snapshots, 2 * CheckpointPolicy::kAutoWindows);
  }

  CheckpointPolicy off;
  off.enabled = false;
  PinfiEngine direct(prog.program(), {}, off, Model{});
  direct.profile_all();
  EXPECT_EQ(direct.checkpoint_stats().stride, 0u);
  EXPECT_EQ(direct.checkpoint_stats().snapshots, 0u);
}

TEST(Scheduler, ProfileAllMatchesPerCategoryProfile) {
  // profile_all() counts category instances on the threaded fast path (in
  // switch mode, on the slow loop); the hooked per-category profile() is
  // the oracle in both modes.
  for (machine::DispatchMode mode :
       {machine::DispatchMode::Threaded, machine::DispatchMode::Switch}) {
    const ExecConfig exec{mode, /*trace_prop=*/false};
    for (const apps::Benchmark& app : apps::all_benchmarks()) {
      auto prog = driver::compile(app.source, app.name);
      LlfiEngine llfi(prog.module(), {}, CheckpointPolicy::from_env(),
                      Model::from_env(), exec);
      PinfiEngine pinfi(prog.program(), {}, CheckpointPolicy::from_env(),
                        Model::from_env(), exec);
      const CategoryCounts lcounts = llfi.profile_all();
      const CategoryCounts pcounts = pinfi.profile_all();
      for (ir::Category c : ir::kAllCategories) {
        EXPECT_EQ(lcounts[c], llfi.profile(c))
            << app.name << " LLFI " << ir::category_name(c) << " "
            << machine::dispatch_mode_name(mode);
        EXPECT_EQ(pcounts[c], pinfi.profile(c))
            << app.name << " PINFI " << ir::category_name(c) << " "
            << machine::dispatch_mode_name(mode);
      }
    }
  }
}

/// Trials k-1, k and k+1 at a sample of the instance indices k where
/// window_of(category, k) changes, on a checkpointed engine and on a
/// checkpoint-free one, must give equal records. A boundary trial resumes
/// from the snapshot whose stored category count is exactly k-1, so this
/// pins the counts captured with each snapshot, not only the final ones.
void expect_window_boundaries_match(InjectorEngine& checkpointed,
                                    InjectorEngine& direct,
                                    ir::Category category, std::uint64_t n,
                                    const std::string& label) {
  std::vector<std::uint64_t> boundaries;
  std::uint64_t prev = checkpointed.window_of(category, 1);
  for (std::uint64_t k = 2; k <= n; ++k) {
    const std::uint64_t w = checkpointed.window_of(category, k);
    if (w != prev) boundaries.push_back(k);
    prev = w;
  }
  ASSERT_FALSE(boundaries.empty()) << label;
  const std::size_t step = std::max<std::size_t>(boundaries.size() / 3, 1);
  for (std::size_t i = 0; i < boundaries.size(); i += step) {
    const std::uint64_t b = boundaries[i];
    for (std::uint64_t k = b - 1; k <= std::min(b + 1, n); ++k) {
      Rng r1(k);
      Rng r2(k);
      const TrialRecord on = checkpointed.inject(category, k, r1);
      const TrialRecord off = direct.inject(category, k, r2);
      SCOPED_TRACE(label + " k=" + std::to_string(k));
      EXPECT_EQ(on.restored, checkpointed.window_of(category, k) !=
                                 InjectorEngine::kNoWindow);
      expect_same_records({on}, {off});
    }
  }
}

TEST(Scheduler, WindowBoundaryTrialsMatchCheckpointFreeRuns) {
  // The automatic stride doubles on the longer apps (see
  // StrideDoublesOnlyWhenAutomatic), so these boundaries include snapshots
  // kept by CheckpointStore::halve().
  CheckpointPolicy direct_policy;
  direct_policy.enabled = false;
  for (const apps::Benchmark& app : apps::all_benchmarks()) {
    auto prog = driver::compile(app.source, app.name);
    LlfiEngine llfi(prog.module(), {}, CheckpointPolicy{}, Model{});
    LlfiEngine llfi_direct(prog.module(), {}, direct_policy, Model{});
    PinfiEngine pinfi(prog.program(), {}, CheckpointPolicy{}, Model{});
    PinfiEngine pinfi_direct(prog.program(), {}, direct_policy, Model{});
    const CategoryCounts lcounts = llfi.profile_all();
    const CategoryCounts pcounts = pinfi.profile_all();
    EXPECT_EQ(llfi_direct.profile_all().counts, lcounts.counts) << app.name;
    EXPECT_EQ(pinfi_direct.profile_all().counts, pcounts.counts) << app.name;
    for (ir::Category c : {ir::Category::All, ir::Category::Cmp}) {
      const std::string cell = app.name + " " + ir::category_name(c);
      expect_window_boundaries_match(llfi, llfi_direct, c, lcounts[c],
                                     cell + " LLFI");
      expect_window_boundaries_match(pinfi, pinfi_direct, c, pcounts[c],
                                     cell + " PINFI");
    }
  }
}

/// Engine whose inject_in() always throws — the std::terminate repro.
class ThrowingEngine final : public InjectorEngine {
 public:
  const char* tool_name() const noexcept override { return "MOCK"; }
  CategoryCounts profile_all() override {
    CategoryCounts counts;
    counts.counts.fill(8);
    return counts;
  }
  std::unique_ptr<TrialContext> make_context() override {
    return std::make_unique<TrialContext>();
  }
  TrialRecord inject_in(TrialContext* context, ir::Category, std::uint64_t,
                        Rng&) override {
    EXPECT_NE(context, nullptr);
    throw std::runtime_error("injector exploded");
  }
  std::uint64_t window_of(ir::Category, std::uint64_t) const override {
    return kNoWindow;
  }
  const std::string& golden_output() const noexcept override {
    return golden_;
  }
  std::uint64_t golden_instructions() const noexcept override { return 1; }

 private:
  std::string golden_;
};

TEST(Scheduler, ThrowingEngineSurfacesAsCampaignError) {
  ThrowingEngine engine;
  CampaignConfig cfg;
  cfg.app = "boomapp";
  cfg.category = ir::Category::All;
  cfg.trials = 6;
  cfg.threads = 4;
  try {
    run_campaign(engine, cfg);
    FAIL() << "expected CampaignError";
  } catch (const CampaignError& e) {
    EXPECT_EQ(e.app(), "boomapp");
    EXPECT_EQ(e.tool(), "MOCK");
    EXPECT_EQ(e.category(), ir::Category::All);
    EXPECT_NE(std::string(e.what()).find("boomapp"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("injector exploded"),
              std::string::npos);
    ASSERT_NE(e.cause(), nullptr);
    EXPECT_THROW(std::rethrow_exception(e.cause()), std::runtime_error);
  }
}

TEST(Scheduler, ThrowingCampaignInAGridStillThrows) {
  auto prog = driver::compile(kGridProgram, "grid");
  LlfiEngine llfi(prog.module());
  ThrowingEngine bad;
  CampaignScheduler scheduler;
  CampaignConfig good;
  good.app = "grid";
  good.category = ir::Category::All;
  good.trials = 4;
  scheduler.add(llfi, good);
  CampaignConfig boom;
  boom.app = "boomapp";
  boom.category = ir::Category::Cmp;
  boom.trials = 4;
  scheduler.add(bad, boom);
  EXPECT_THROW(scheduler.run(), CampaignError);
}

TEST(Scheduler, ManifestRecordsTimingsAndCounters) {
  auto prog = driver::compile(kGridProgram, "grid");
  LlfiEngine llfi(prog.module());
  PinfiEngine pinfi(prog.program());
  SchedulerOptions options;
  options.threads = 2;
  std::size_t progress_calls = 0;
  options.progress = [&](const SchedulerProgress& p) {
    if (p.completed != nullptr) ++progress_calls;
  };
  CampaignScheduler scheduler(options);
  CampaignConfig cfg;
  cfg.app = "grid";
  cfg.category = ir::Category::All;
  cfg.trials = 10;
  scheduler.add(llfi, cfg);
  scheduler.add(pinfi, cfg);
  const std::vector<CampaignResult> results = scheduler.run();

  const RunManifest& m = scheduler.manifest();
  EXPECT_EQ(m.threads, 2u);
  EXPECT_GE(m.wall_seconds, 0.0);
  EXPECT_GE(m.profile_seconds, 0.0);
  ASSERT_EQ(m.campaigns.size(), 2u);
  EXPECT_EQ(progress_calls, 2u);
  for (std::size_t i = 0; i < m.campaigns.size(); ++i) {
    EXPECT_EQ(m.campaigns[i].app, results[i].app);
    EXPECT_EQ(m.campaigns[i].tool, results[i].tool);
    EXPECT_EQ(m.campaigns[i].trials, results[i].trials.size());
    EXPECT_EQ(m.campaigns[i].injected, results[i].injected_trials);
    EXPECT_EQ(m.campaigns[i].activated, results[i].activated());
    EXPECT_GT(m.campaigns[i].wall_seconds, 0.0);
  }

  const std::string csv = manifest_csv(m).to_string();
  EXPECT_NE(csv.find("trials_per_second"), std::string::npos);
  EXPECT_NE(csv.find("grid,LLFI,all"), std::string::npos);
  EXPECT_NE(csv.find("grid,PINFI,all"), std::string::npos);
}

/// Engine whose profile_all() throws `message`.
class ProfileThrowingEngine final : public InjectorEngine {
 public:
  explicit ProfileThrowingEngine(const char* message) : message_(message) {}
  const char* tool_name() const noexcept override { return "MOCK"; }
  CategoryCounts profile_all() override { throw std::runtime_error(message_); }
  std::unique_ptr<TrialContext> make_context() override {
    return std::make_unique<TrialContext>();
  }
  TrialRecord inject_in(TrialContext*, ir::Category, std::uint64_t,
                        Rng&) override {
    ADD_FAILURE() << "trial on an engine that never profiled";
    return {};
  }
  std::uint64_t window_of(ir::Category, std::uint64_t) const override {
    return kNoWindow;
  }
  const std::string& golden_output() const noexcept override {
    return golden_;
  }
  std::uint64_t golden_instructions() const noexcept override { return 1; }

 private:
  const char* message_;
  std::string golden_;
};

const apps::Benchmark& benchmark(std::string_view name) {
  for (const apps::Benchmark& app : apps::all_benchmarks())
    if (app.name == name) return app;
  throw std::invalid_argument("no benchmark " + std::string(name));
}

TEST(Scheduler, ProfileExceptionSurfacesAfterEveryProfilerJoins) {
  auto grid = driver::compile(kGridProgram, "grid");
  auto mcf = driver::compile(benchmark("mcf").source, "mcf");
  LlfiEngine a(grid.module());
  PinfiEngine b(grid.program());
  LlfiEngine c(mcf.module());
  PinfiEngine d(mcf.program());
  ProfileThrowingEngine first("first profile exploded");
  ProfileThrowingEngine second("second profile exploded");
  SchedulerOptions options;
  options.threads = 4;
  CampaignScheduler scheduler(options);
  CampaignConfig cfg;
  cfg.app = "grid";
  cfg.trials = 4;
  for (InjectorEngine* engine : std::vector<InjectorEngine*>{
           &a, &first, &b, &second, &c, &d})
    scheduler.add(*engine, cfg);
  try {
    scheduler.run();
    FAIL() << "expected the profiling exception";
  } catch (const CampaignError& e) {
    FAIL() << "profiling failures are not trial failures: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first profile exploded");  // lowest index wins
  }
  // Every real engine finished its run before the rethrow.
  for (const InjectorEngine* engine :
       std::vector<const InjectorEngine*>{&a, &b, &c, &d})
    EXPECT_GT(engine->golden_instructions(), 1u) << engine->tool_name();
}

TEST(Scheduler, ParallelProfilingMatchesSerialProfiling) {
  // Phase 1 profiles on up to `threads` workers: results CSVs, category
  // counts and checkpoint stats must not depend on it.
  std::vector<driver::CompiledProgram> programs;
  programs.push_back(driver::compile(kGridProgram, "grid"));
  for (const char* name : {"mcf", "libquantum"})
    programs.push_back(driver::compile(benchmark(name).source, name));
  struct Run {
    std::string csv;
    std::vector<CategoryCounts> counts;
    std::vector<CheckpointStats> checkpoints;
  };
  const auto run = [&](std::size_t threads) {
    std::vector<std::unique_ptr<InjectorEngine>> engines;
    SchedulerOptions options;
    options.threads = threads;
    CampaignScheduler scheduler(options);
    for (const driver::CompiledProgram& prog : programs) {
      engines.push_back(std::make_unique<LlfiEngine>(prog.module()));
      engines.push_back(std::make_unique<PinfiEngine>(prog.program()));
      for (ir::Category c : {ir::Category::All, ir::Category::Cmp}) {
        CampaignConfig cfg;
        cfg.app = prog.module().name();
        cfg.category = c;
        cfg.trials = 8;
        cfg.seed = 7;
        scheduler.add(*engines[engines.size() - 2], cfg);
        scheduler.add(*engines.back(), cfg);
      }
    }
    ResultSet results;
    for (CampaignResult& r : scheduler.run()) results.add(std::move(r));
    Run out;
    out.csv = results_csv(results).to_string();
    for (const auto& engine : engines) {
      out.counts.push_back(engine->profile_all());
      out.checkpoints.push_back(engine->checkpoint_stats());
    }
    return out;
  };
  const Run serial = run(1);
  const Run parallel = run(4);
  EXPECT_EQ(serial.csv, parallel.csv);
  ASSERT_EQ(serial.counts.size(), parallel.counts.size());
  for (std::size_t i = 0; i < serial.counts.size(); ++i) {
    EXPECT_EQ(serial.counts[i].counts, parallel.counts[i].counts) << i;
    EXPECT_EQ(serial.checkpoints[i].snapshots,
              parallel.checkpoints[i].snapshots) << i;
    EXPECT_EQ(serial.checkpoints[i].stride, parallel.checkpoints[i].stride)
        << i;
  }
}

/// Trace-cache activity while `body` runs: the process-wide dispatch
/// counters' decodes plus fast-path entries. Every threaded run that is not
/// hooked from start to end moves them, by the same amount each time for
/// the same program and engine configuration.
template <typename Body>
std::uint64_t trace_activity(Body body) {
  const auto before = machine::dispatch_counters_snapshot();
  body();
  const auto after = machine::dispatch_counters_snapshot();
  return (after.trace_decodes - before.trace_decodes) +
         (after.trace_hits - before.trace_hits);
}

/// Fault-free runs the engines make while `body` runs, counted through the
/// dispatch counters in units of `one_run`, the trace activity of one
/// profiling run of an identically configured engine: the profiling run is
/// the only run, so any other execution of the program would show up as
/// extra activity.
template <typename Body>
std::size_t fault_free_runs(std::uint64_t one_run, Body body) {
  const std::uint64_t moved = trace_activity(body);
  EXPECT_EQ(moved % one_run, 0u) << "activity is not a whole number of runs";
  return static_cast<std::size_t>(moved / one_run);
}

template <typename Engine, typename Code>
void expect_one_fault_free_run(const Code& code, const std::string& label) {
  Engine reference(code);
  const std::uint64_t one_run =
      trace_activity([&] { reference.profile_all(); });
  ASSERT_GT(one_run, 0u) << label;
  std::unique_ptr<Engine> by_context;
  std::unique_ptr<Engine> by_profile;
  // Construction executes nothing; make_context() alone and profile_all()
  // each make the one run.
  EXPECT_EQ(fault_free_runs(one_run,
                            [&] {
                              by_context = std::make_unique<Engine>(code);
                              by_profile = std::make_unique<Engine>(code);
                            }),
            0u)
      << label;
  EXPECT_EQ(fault_free_runs(one_run,
                            [&] {
                              by_context->make_context();
                              by_profile->profile_all();
                            }),
            2u)
      << label;
  EXPECT_EQ(by_context->golden_instructions(),
            by_profile->golden_instructions())
      << label;
  EXPECT_EQ(by_context->golden_output(), by_profile->golden_output()) << label;
  const CheckpointStats before = by_profile->checkpoint_stats();
  EXPECT_GT(before.snapshots, 0u) << label;
  EXPECT_EQ(fault_free_runs(one_run,
                            [&] {
                              EXPECT_EQ(by_profile->profile_all().counts,
                                        by_context->profile_all().counts)
                                  << label;
                              by_profile->make_context();
                            }),
            0u)
      << label;
  const CheckpointStats after = by_profile->checkpoint_stats();
  EXPECT_EQ(after.snapshots, before.snapshots) << label;
  EXPECT_EQ(after.stride, before.stride) << label;
}

TEST(Engines, OneFaultFreeRunServesGoldenProfileAndSnapshots) {
  auto prog = driver::compile(benchmark("mcf").source, "mcf");
  expect_one_fault_free_run<LlfiEngine>(prog.module(), "LLFI");
  expect_one_fault_free_run<PinfiEngine>(prog.program(), "PINFI");
}

TEST(Engines, ConcurrentFirstCallsMakeOneRun) {
  // Four threads make an engine's first call at once, half through
  // profile_all() and half through make_context(); a traced engine
  // captures its golden journal in that same run, so its trials trace
  // exactly like a checkpoint-free engine's.
  auto prog = driver::compile(benchmark("mcf").source, "mcf");
  CheckpointPolicy off;
  off.enabled = false;
  for (bool traced : {false, true}) {
    const ExecConfig exec{machine::DispatchMode::Threaded, traced};
    LlfiEngine llfi(prog.module(), {}, CheckpointPolicy::from_env(),
                    Model::from_env(), exec);
    PinfiEngine pinfi(prog.program(), {}, CheckpointPolicy::from_env(),
                      Model::from_env(), exec);
    // The same configuration again, profiled alone: the run to compare.
    LlfiEngine llfi_alone(prog.module(), {}, CheckpointPolicy::from_env(),
                          Model::from_env(), exec);
    PinfiEngine pinfi_alone(prog.program(), {}, CheckpointPolicy::from_env(),
                            Model::from_env(), exec);
    LlfiEngine llfi_direct(prog.module(), {}, off, Model::from_env(), exec);
    PinfiEngine pinfi_direct(prog.program(), {}, off, Model::from_env(), exec);
    for (auto [engine, alone, direct] :
         std::vector<std::tuple<InjectorEngine*, InjectorEngine*,
                                InjectorEngine*>>{
             {&llfi, &llfi_alone, &llfi_direct},
             {&pinfi, &pinfi_alone, &pinfi_direct}}) {
      const std::string label =
          std::string(engine->tool_name()) + (traced ? " traced" : "");
      const std::uint64_t one_run =
          trace_activity([&] { alone->profile_all(); });
      std::atomic<bool> go{false};
      std::vector<CategoryCounts> counts(4);
      const std::uint64_t moved = trace_activity([&] {
        std::vector<std::thread> pool;
        for (std::size_t t = 0; t < 4; ++t) {
          pool.emplace_back([&, t] {
            while (!go.load()) std::this_thread::yield();
            if (t % 2 == 0) {
              counts[t] = engine->profile_all();
            } else {
              engine->make_context();
              counts[t] = engine->profile_all();
            }
          });
        }
        go.store(true);
        for (std::thread& th : pool) th.join();
      });
      // One run's worth of trace activity. A traced profiling run is hooked
      // from start to end and never enters the trace cache, so there a
      // second run would show in the snapshot count instead.
      EXPECT_EQ(moved, one_run) << label;
      EXPECT_EQ(one_run == 0, traced) << label;
      EXPECT_EQ(engine->checkpoint_stats().snapshots,
                alone->checkpoint_stats().snapshots)
          << label;
      for (const CategoryCounts& c : counts)
        EXPECT_EQ(c.counts, counts[0].counts) << label;
      const std::uint64_t k = counts[0][ir::Category::All] / 2;
      Rng r1(11);
      Rng r2(11);
      const TrialRecord record = engine->inject(ir::Category::All, k, r1);
      const TrialRecord reference = direct->inject(ir::Category::All, k, r2);
      EXPECT_TRUE(record.restored) << label;
      EXPECT_EQ(record.prop.traced, traced) << label;
      EXPECT_EQ(record.prop, reference.prop) << label;
      expect_same_records({record}, {reference});
    }
  }
}

TEST(Scheduler, EmptyAndZeroTrialCampaigns) {
  CampaignScheduler empty;
  EXPECT_TRUE(empty.run().empty());

  auto prog = driver::compile(kGridProgram, "grid");
  LlfiEngine llfi(prog.module());
  CampaignScheduler scheduler;
  CampaignConfig cfg;
  cfg.app = "grid";
  cfg.category = ir::Category::All;
  cfg.trials = 0;
  scheduler.add(llfi, cfg);
  const std::vector<CampaignResult> results = scheduler.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].profiled_count, 0u);
  EXPECT_TRUE(results[0].trials.empty());
  EXPECT_EQ(results[0].activated(), 0u);
}

class DefaultTrialsEnv : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("FAULTLAB_TRIALS"); }
  std::size_t with(const char* value) {
    setenv("FAULTLAB_TRIALS", value, 1);
    return default_trials();
  }
};

TEST_F(DefaultTrialsEnv, ParsesAndRejects) {
  unsetenv("FAULTLAB_TRIALS");
  EXPECT_EQ(default_trials(), 150u);          // unset -> default
  EXPECT_EQ(with("200"), 200u);               // plain number
  EXPECT_EQ(with("37abc"), 150u);             // trailing garbage rejected
  EXPECT_EQ(with("abc"), 150u);               // non-numeric rejected
  EXPECT_EQ(with(""), 150u);                  // empty rejected
  EXPECT_EQ(with("-5"), 150u);                // non-positive rejected
  EXPECT_EQ(with("0"), 150u);                 // zero rejected
  EXPECT_EQ(with("99999999999999999999999"), 150u);  // overflow rejected
}

}  // namespace
}  // namespace faultlab::fault
