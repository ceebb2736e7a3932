// Campaign scheduler tests: grid determinism across thread counts,
// single-pass profiling equivalence, exception propagation from trial
// workers, manifest contents, and FAULTLAB_TRIALS parsing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "apps/apps.h"
#include "driver/pipeline.h"
#include "fault/campaign.h"
#include "fault/checkpoint_store.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "fault/scheduler.h"

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

void expect_same_records(const std::vector<TrialRecord>& a,
                         const std::vector<TrialRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].outcome, b[i].outcome) << "trial " << i;
    EXPECT_EQ(a[i].dynamic_target, b[i].dynamic_target) << "trial " << i;
    EXPECT_EQ(a[i].bit, b[i].bit) << "trial " << i;
    EXPECT_EQ(a[i].static_site, b[i].static_site) << "trial " << i;
    EXPECT_EQ(a[i].injected, b[i].injected) << "trial " << i;
    EXPECT_EQ(a[i].total_instructions, b[i].total_instructions)
        << "trial " << i;
    EXPECT_EQ(a[i].inject_instruction, b[i].inject_instruction)
        << "trial " << i;
    EXPECT_EQ(a[i].trap, b[i].trap) << "trial " << i;
    EXPECT_EQ(a[i].trap_pc, b[i].trap_pc) << "trial " << i;
  }
}

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
  // trial may stop early (the ConvergeEquiv stuck-at-1 fixtures compare
  // the records with checkpoint-free runs).
  const apps::Benchmark& mcf = apps::benchmark("mcf");
  auto prog = driver::compile(mcf.source, mcf.name);
  const ConvergeRun on = run_mcf_cells(prog, CheckpointPolicy{},
                                       Model::parse("stuck-at-1"), 10);
  EXPECT_GT(on.llfi.restored_trials + on.pinfi.restored_trials, 0u);
  EXPECT_EQ(on.llfi.converged_trials, 0u);
  EXPECT_EQ(on.pinfi.converged_trials, 0u);
  EXPECT_EQ(on.manifest.converged_trials, 0u);
}

TEST(Scheduler, SnapshotBudgetEvictsWithoutChangingOutcomes) {
  // A page budget far below the unbudgeted live set forces evictions at
  // capture time; trials whose window was evicted fall back to an earlier
  // live snapshot (or a from-scratch run), so every record must still match
  // the unbudgeted grid.
  auto prog = driver::compile(kGridProgram, "grid");
  LlfiEngine llfi_ref(prog.module(), {}, {/*stride=*/500, true});
  PinfiEngine pinfi_ref(prog.program(), {}, {/*stride=*/500, true});
  const std::vector<CampaignResult> reference =
      run_grid(llfi_ref, pinfi_ref, 2);

  CheckpointPolicy capped_policy;
  capped_policy.stride = 500;
  capped_policy.budget_pages = 48;
  LlfiEngine llfi(prog.module(), {}, capped_policy);
  PinfiEngine pinfi(prog.program(), {}, capped_policy);
  const std::vector<CampaignResult> capped = run_grid(llfi, pinfi, 2);

  ASSERT_EQ(capped.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_same_records(capped[i].trials, reference[i].trials);
  // The budget actually bit (the dense stride over-captures way past 48
  // pages), and it bit on both engines' stores.
  EXPECT_GT(llfi.checkpoint_stats().evictions, 0u);
  EXPECT_GT(pinfi.checkpoint_stats().evictions, 0u);
  EXPECT_EQ(llfi_ref.checkpoint_stats().evictions, 0u);
  EXPECT_EQ(pinfi_ref.checkpoint_stats().evictions, 0u);
}

TEST(Engines, EvictedSnapshotsFallBackWithoutChangingRecords) {
  // LRU eviction after trials have run: squeezing the budget to below a
  // single snapshot evicts every resume point, and the same draw must
  // produce the same record from scratch.
  auto prog = driver::compile(kGridProgram, "grid");
  LlfiEngine reference(prog.module(), {}, {/*stride=*/500, true});
  LlfiEngine squeezed(prog.module(), {}, {/*stride=*/500, true});
  reference.profile_all();
  squeezed.profile_all();
  const std::uint64_t n = reference.profile(ir::Category::All);
  ASSERT_GT(n, 0u);

  const std::uint64_t k = n;  // late instance: resumes from a late window
  Rng r1(7);
  Rng r2(7);
  const TrialRecord warm = reference.inject(ir::Category::All, k, r1);
  EXPECT_TRUE(warm.restored);

  squeezed.set_snapshot_budget(1);  // below any snapshot: evicts everything
  EXPECT_GT(squeezed.checkpoint_stats().evictions, 0u);
  const TrialRecord cold = squeezed.inject(ir::Category::All, k, r2);
  EXPECT_FALSE(cold.restored);
  EXPECT_EQ(cold.outcome, warm.outcome);
  EXPECT_EQ(cold.bit, warm.bit);
  EXPECT_EQ(cold.static_site, warm.static_site);
  EXPECT_EQ(cold.injected, warm.injected);
}

/// Minimal snapshot shape the store needs: a golden position plus a paged
/// memory image.
struct FakeMemory {
  std::size_t pages = 0;
  std::size_t mapped_pages() const noexcept { return pages; }
};
struct FakeSnapshot {
  std::uint64_t executed = 0;
  FakeMemory memory;
};

CategoryCounts seen_all(std::uint64_t n) {
  CategoryCounts c;
  c[ir::Category::All] = n;
  return c;
}

TEST(CheckpointStore, BeforeAndWindowAgreeAndSkipDeadEntries) {
  CheckpointStore<FakeSnapshot> store;
  for (std::uint64_t i = 0; i < 4; ++i)
    store.add({(i + 1) * 100, {10}}, seen_all((i + 1) * 10));

  // k=25: entries with seen {10,20,30,40} -> latest with seen < 25 is #1.
  EXPECT_EQ(store.window_of(ir::Category::All, 25), 1u);
  const auto* entry = store.before(ir::Category::All, 25);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->executed, 200u);
  // k=5: every prefix already contains >= 5? No — all seen >= 10, so no
  // resumable point exists and the trial runs from scratch.
  EXPECT_EQ(store.window_of(ir::Category::All, 5), store.kNoWindow);
  EXPECT_EQ(store.before(ir::Category::All, 5), nullptr);

  // Evict down to 20 pages (two entries). Untouched entries tie on LRU, so
  // interval thinning picks victims; before() then walks left to the
  // nearest live entry instead of resuming from a dead one.
  store.set_budget(20);
  EXPECT_EQ(store.live_count(), 2u);
  EXPECT_EQ(store.evictions(), 2u);
  EXPECT_LE(store.live_pages(), 20u);
  const auto* fallback = store.before(ir::Category::All, 35);
  ASSERT_NE(fallback, nullptr);
  EXPECT_TRUE(fallback->alive);
  EXPECT_LT(fallback->seen[ir::Category::All], 35u);
}

TEST(CheckpointStore, AfterFindsTheNextLiveGoldenState) {
  CheckpointStore<FakeSnapshot> store;
  for (std::uint64_t i = 0; i < 4; ++i)
    store.add({(i + 1) * 100, {10}}, seen_all((i + 1) * 10));
  ASSERT_NE(store.after(0), nullptr);
  EXPECT_EQ(store.after(0)->executed, 100u);
  EXPECT_EQ(store.after(100)->executed, 200u);
  EXPECT_EQ(store.after(250)->executed, 300u);
  EXPECT_EQ(store.after(400), nullptr);

  // Evicted entries release their snapshot (executed resets to 0), so a
  // dead entry handed out would fail the position check below.
  store.set_budget(20);
  ASSERT_EQ(store.live_count(), 2u);
  std::set<std::uint64_t> seen;
  for (std::uint64_t x = 0; x < 400; x += 50) {
    const FakeSnapshot* next = store.after(x);
    if (next == nullptr) continue;
    EXPECT_GT(next->executed, x);
    seen.insert(next->executed);
  }
  EXPECT_EQ(seen.size(), 2u);
}

TEST(CheckpointStore, LruKeepsTouchedEntriesAndThinsUntouchedOnes) {
  CheckpointStore<FakeSnapshot> store;
  for (std::uint64_t i = 0; i < 4; ++i)
    store.add({(i + 1) * 100, {10}}, seen_all((i + 1) * 10));

  // Touch entry #1 (k=25 resumes from it); it must outlive untouched peers.
  ASSERT_NE(store.before(ir::Category::All, 25), nullptr);
  store.set_budget(20);
  EXPECT_EQ(store.live_count(), 2u);
  const auto* kept = store.before(ir::Category::All, 25);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->executed, 200u);  // the touched entry survived

  // The newest entry has an unbounded trailing gap, so among untouched
  // entries it is thinned last: it is the other survivor.
  EXPECT_EQ(store.before(ir::Category::All, 45)->executed, 400u);
}

TEST(CheckpointStore, BudgetEnforcedDuringCapture) {
  CheckpointStore<FakeSnapshot> store;
  store.set_budget(25);
  for (std::uint64_t i = 0; i < 8; ++i) {
    store.add({(i + 1) * 100, {10}}, seen_all((i + 1) * 10));
    EXPECT_LE(store.live_pages(), 25u) << "after add " << i;
  }
  EXPECT_EQ(store.size(), 8u);  // dead entries keep their counters
  EXPECT_EQ(store.live_count(), 2u);
  EXPECT_EQ(store.evictions(), 6u);
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.live_pages(), 0u);
  EXPECT_EQ(store.evictions(), 6u);  // cumulative, like the engine stats
}

class CheckpointEnv : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("FAULTLAB_CHECKPOINTS");
    unsetenv("FAULTLAB_SNAPSHOT_STRIDE");
    unsetenv("FAULTLAB_SNAPSHOT_BUDGET");
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

  EXPECT_EQ(CheckpointPolicy::from_env().budget_pages, 0u);  // unlimited
  setenv("FAULTLAB_SNAPSHOT_BUDGET", "4096", 1);
  EXPECT_EQ(CheckpointPolicy::from_env().budget_pages, 4096u);
  setenv("FAULTLAB_SNAPSHOT_BUDGET", "junk", 1);  // warns, falls back
  EXPECT_EQ(CheckpointPolicy::from_env().budget_pages, 0u);
}

TEST_F(CheckpointEnv, EffectiveStrideSelection) {
  CheckpointPolicy p;
  p.enabled = false;
  EXPECT_EQ(p.effective_stride(1'000'000), 0u);  // disabled -> no snapshots
  p.enabled = true;
  p.stride = 777;
  EXPECT_EQ(p.effective_stride(1'000'000), 777u);  // explicit wins
  p.stride = 0;
  // Automatic: golden length over kAutoWindows, floored at kMinStride.
  EXPECT_EQ(p.effective_stride(64 * 50'000), 50'000u);
  EXPECT_EQ(p.effective_stride(1'000), CheckpointPolicy::kMinStride);
}

TEST(Scheduler, ProfileAllMatchesPerCategoryProfile) {
  for (const char* name : {"mcf", "libquantum"}) {
    auto prog = driver::compile(apps::benchmark(name).source, name);
    LlfiEngine llfi(prog.module());
    PinfiEngine pinfi(prog.program());
    const CategoryCounts lcounts = llfi.profile_all();
    const CategoryCounts pcounts = pinfi.profile_all();
    for (ir::Category c : ir::kAllCategories) {
      EXPECT_EQ(lcounts[c], llfi.profile(c))
          << name << " LLFI " << ir::category_name(c);
      EXPECT_EQ(pcounts[c], pinfi.profile(c))
          << name << " PINFI " << ir::category_name(c);
    }
  }
}

/// Engine whose inject() always throws — the std::terminate repro.
class ThrowingEngine final : public InjectorEngine {
 public:
  const char* tool_name() const noexcept override { return "MOCK"; }
  std::uint64_t profile(ir::Category) override { return 8; }
  TrialRecord inject(ir::Category, std::uint64_t, Rng&) override {
    throw std::runtime_error("injector exploded");
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
