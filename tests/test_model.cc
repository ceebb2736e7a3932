// Hardware fault-model library tests: spec parsing, naming, corruption
// semantics, the FaultPlan draw discipline, and end-to-end campaigns for
// every builtin model on both engines (including determinism across
// re-runs and checkpoint on/off for the time trigger).
#include <gtest/gtest.h>

#include <cstdlib>

#include "driver/pipeline.h"
#include "fault/campaign.h"
#include "fault/llfi.h"
#include "fault/model.h"
#include "fault/pinfi.h"

namespace faultlab::fault {
namespace {

TEST(Model, DefaultIsThePaperModel) {
  const Model m;
  EXPECT_EQ(m.kind, FaultKind::Transient);
  EXPECT_EQ(m.mask, FaultMask::SingleBit);
  EXPECT_EQ(m.trigger, FaultTrigger::Access);
  EXPECT_FALSE(m.persistent());
  EXPECT_EQ(m.name(), "transient");
}

TEST(Model, ParseKinds) {
  EXPECT_EQ(Model::parse("transient").kind, FaultKind::Transient);
  EXPECT_EQ(Model::parse("intermittent").kind, FaultKind::Intermittent);
  const Model s0 = Model::parse("stuck-at-0");
  EXPECT_EQ(s0.kind, FaultKind::Permanent);
  EXPECT_FALSE(s0.stuck_value);
  const Model s1 = Model::parse("stuck-at-1");
  EXPECT_EQ(s1.kind, FaultKind::Permanent);
  EXPECT_TRUE(s1.stuck_value);
  // "permanent" is an alias for stuck-at-1.
  EXPECT_EQ(Model::parse("permanent").name(), "stuck-at-1");
  EXPECT_TRUE(s1.persistent());
  EXPECT_TRUE(Model::parse("intermittent").persistent());
}

TEST(Model, ParseOptions) {
  const Model m =
      Model::parse("intermittent:burst=8,gap=2,bits=3,trigger=time");
  EXPECT_EQ(m.kind, FaultKind::Intermittent);
  EXPECT_EQ(m.burst_length, 8u);
  EXPECT_EQ(m.burst_gap, 2u);
  EXPECT_EQ(m.mask, FaultMask::MultiBit);
  EXPECT_EQ(m.mask_bits, 3u);
  EXPECT_EQ(m.trigger, FaultTrigger::Time);

  const Model b = Model::parse("stuck-at-0:mask=byte");
  EXPECT_EQ(b.mask, FaultMask::Byte);

  // bits=1 stays single-bit.
  EXPECT_EQ(Model::parse("transient:bits=1").mask, FaultMask::SingleBit);
}

TEST(Model, ParseRejectsBadSpecs) {
  std::string error;
  const Model bad = Model::parse("cosmic-ray", &error);
  EXPECT_EQ(bad.name(), "transient");  // falls back to the default model
  EXPECT_NE(error.find("cosmic-ray"), std::string::npos);

  EXPECT_NE(Model::parse("transient:bits=0", &error).name(), "zzz");
  EXPECT_NE(error.find("bits"), std::string::npos);
  Model::parse("transient:bits=9", &error);
  EXPECT_NE(error.find("bits"), std::string::npos);
  Model::parse("intermittent:burst=0", &error);
  EXPECT_NE(error.find("burst"), std::string::npos);
  Model::parse("intermittent:gap=65", &error);
  EXPECT_NE(error.find("gap"), std::string::npos);
  Model::parse("transient:nonsense=1", &error);
  EXPECT_NE(error.find("nonsense"), std::string::npos);
  Model::parse("transient:garbage", &error);
  EXPECT_NE(error.find("key=value"), std::string::npos);
  // Overflowing numbers are rejected, not wrapped.
  Model::parse("intermittent:burst=99999999999999999999", &error);
  EXPECT_NE(error.find("burst"), std::string::npos);
  // Only register destinations are modelled: no target key, no -mem name.
  error.clear();
  EXPECT_EQ(Model::parse("transient:target=mem", &error).name(), "transient");
  EXPECT_NE(error.find("unknown option 'target'"), std::string::npos);
  error.clear();
  EXPECT_EQ(Model::parse("stuck-at-0-mem", &error).name(), "transient");
  EXPECT_NE(error.find("unknown fault kind 'stuck-at-0-mem'"),
            std::string::npos);
}

TEST(Model, Names) {
  EXPECT_EQ(Model::parse("intermittent:burst=4,gap=1").name(),
            "intermittent-b4g1");
  EXPECT_EQ(Model::parse("transient:bits=2").name(), "transient-m2");
  EXPECT_EQ(Model::parse("stuck-at-0:mask=byte").name(), "stuck-at-0-byte");
  EXPECT_EQ(Model::parse("stuck-at-1:trigger=time").name(),
            "stuck-at-1-time");
}

TEST(Model, RoundTripThroughName) {
  // Every builtin model's name parses back to an equivalent model.
  for (const Model& m : Model::builtin_suite()) {
    std::string error;
    const Model back = Model::parse(m.name(), &error);
    EXPECT_EQ(back.name(), m.name()) << error;
  }
}

TEST(Model, ApplySemantics) {
  Model transient;
  EXPECT_EQ(transient.apply(0b1010, 0b0110), 0b1100u);  // XOR

  Model stuck1 = Model::parse("stuck-at-1");
  EXPECT_EQ(stuck1.apply(0b0000, 0b0110), 0b0110u);
  EXPECT_EQ(stuck1.apply(0b0110, 0b0110), 0b0110u);  // already stuck: latent

  Model stuck0 = Model::parse("stuck-at-0");
  EXPECT_EQ(stuck0.apply(0b1111, 0b0110), 0b1001u);
  EXPECT_EQ(stuck0.apply(0b1001, 0b0110), 0b1001u);

  Model intermittent = Model::parse("intermittent");
  EXPECT_EQ(intermittent.apply(0b1010, 0b0110), 0b1100u);  // XOR like transient
}

TEST(Model, FromEnvParsesAndFallsBack) {
  ::setenv("FAULTLAB_FAULT_MODEL", "stuck-at-0:mask=byte", 1);
  EXPECT_EQ(Model::from_env().name(), "stuck-at-0-byte");
  ::setenv("FAULTLAB_FAULT_MODEL", "not-a-model", 1);
  EXPECT_EQ(Model::from_env().name(), "transient");  // warns, falls back
  ::unsetenv("FAULTLAB_FAULT_MODEL");
  EXPECT_EQ(Model::from_env().name(), "transient");
}

TEST(FaultPlan, DefaultConsumesExactlyOneDraw) {
  // The transient single-bit plan must replicate the historical
  // rng.below(space) draw byte-for-byte so default campaigns stay
  // bit-identical to the pre-model code.
  Rng a(42), b(42);
  const FaultPlan plan(Model{}, a, 64);
  const std::uint64_t expected = b.below(64);
  EXPECT_EQ(plan.primary_bit(64), expected % 64);
  // Both rngs must now be in the same state: no extra draws happened.
  EXPECT_EQ(a(), b());
}

TEST(FaultPlan, MultiBitDrawsExtraAndDeduplicates) {
  Model m = Model::parse("transient:bits=4");
  Rng rng(7);
  const FaultPlan plan(m, rng, 64);
  unsigned bits[FaultPlan::kMaxBits];
  const unsigned n = plan.bits_for(64, bits);
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, 4u);
  for (unsigned i = 0; i < n; ++i) {
    EXPECT_LT(bits[i], 64u);
    for (unsigned j = i + 1; j < n; ++j) EXPECT_NE(bits[i], bits[j]);
  }
  // The realized mask has exactly n set bits.
  EXPECT_EQ(static_cast<unsigned>(__builtin_popcountll(plan.mask_for(64))), n);
}

TEST(FaultPlan, ByteMaskIsAlignedWindow) {
  Model m = Model::parse("transient:mask=byte");
  Rng rng(3);
  const FaultPlan plan(m, rng, 64);
  const std::uint64_t mask = plan.mask_for(64);
  EXPECT_EQ(__builtin_popcountll(mask), 8);
  // Aligned: the mask is 0xff shifted by a multiple of 8 containing the
  // primary bit.
  const unsigned base = (plan.primary_bit(64) / 8) * 8;
  EXPECT_EQ(mask, std::uint64_t{0xff} << base);
  // Narrow destinations clip the window.
  const std::uint64_t narrow = plan.mask_for(4);
  EXPECT_EQ(narrow, 0xfull & (0xffull << ((plan.primary_bit(4) / 8) * 8)));
}

TEST(FaultPlan, NarrowWidthFoldsDraws) {
  Rng rng(11);
  const FaultPlan plan(Model{}, rng, 64);
  EXPECT_LT(plan.primary_bit(1), 1u);
  EXPECT_LT(plan.primary_bit(16), 16u);
  EXPECT_EQ(plan.mask_for(1) & ~std::uint64_t{1}, 0u);
}

/// A small program with work in every category (mirrors test_fault.cc).
const char* kModelProgram = R"(
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

CampaignConfig small_config(std::size_t trials = 40) {
  CampaignConfig cfg;
  cfg.app = std::string("t");
  cfg.category = ir::Category::All;
  cfg.trials = trials;
  cfg.seed = 99;
  cfg.threads = 1;
  return cfg;
}

/// Per-trial fingerprint for equality checks across engine configurations.
std::string fingerprint(const CampaignResult& r) {
  std::string out;
  for (const TrialRecord& t : r.trials) {
    out += outcome_name(t.outcome);
    out += ':';
    out += std::to_string(t.dynamic_target);
    out += ':';
    out += std::to_string(t.bit);
    out += ':';
    out += std::to_string(t.inject_instruction);
    out += ';';
  }
  return out;
}

TEST(ModelCampaign, BuiltinSuiteRunsOnBothEngines) {
  driver::CompiledProgram prog = driver::compile(kModelProgram, "t");
  for (const Model& m : Model::builtin_suite()) {
    LlfiEngine llfi(prog.module(), {}, CheckpointPolicy::from_env(), m);
    PinfiEngine pinfi(prog.program(), {}, CheckpointPolicy::from_env(), m);
    for (InjectorEngine* engine : {static_cast<InjectorEngine*>(&llfi),
                                   static_cast<InjectorEngine*>(&pinfi)}) {
      const CampaignResult r = run_campaign(*engine, small_config());
      EXPECT_EQ(r.fault_model, m.name());
      EXPECT_GT(r.injected_trials, 0u)
          << engine->tool_name() << " under " << m.name();
      EXPECT_GT(r.activated(), 0u)
          << engine->tool_name() << " under " << m.name();
    }
  }
}

TEST(ModelCampaign, DeterministicAcrossEngineInstances) {
  driver::CompiledProgram prog = driver::compile(kModelProgram, "t");
  for (const Model& m : Model::builtin_suite()) {
    LlfiEngine a(prog.module(), {}, CheckpointPolicy::from_env(), m);
    LlfiEngine b(prog.module(), {}, CheckpointPolicy::from_env(), m);
    EXPECT_EQ(fingerprint(run_campaign(a, small_config())),
              fingerprint(run_campaign(b, small_config())))
        << "LLFI under " << m.name();
    PinfiEngine c(prog.program(), {}, CheckpointPolicy::from_env(), m);
    PinfiEngine d(prog.program(), {}, CheckpointPolicy::from_env(), m);
    EXPECT_EQ(fingerprint(run_campaign(c, small_config())),
              fingerprint(run_campaign(d, small_config())))
        << "PINFI under " << m.name();
  }
}

TEST(ModelCampaign, CheckpointsDoNotPerturbAnyModel) {
  // Checkpointed resumption must be invisible to every model, including
  // the time trigger (whose arm point is an absolute dynamic index) and
  // the persistent models (whose hooks re-fire long after the snapshot).
  driver::CompiledProgram prog = driver::compile(kModelProgram, "t");
  CheckpointPolicy off;
  off.enabled = false;
  std::vector<Model> models = Model::builtin_suite();
  models.push_back(Model::parse("transient:trigger=time"));
  models.push_back(Model::parse("stuck-at-1:trigger=time"));
  for (const Model& m : models) {
    LlfiEngine with_cp(prog.module(), {}, CheckpointPolicy::from_env(), m);
    LlfiEngine without_cp(prog.module(), {}, off, m);
    EXPECT_EQ(fingerprint(run_campaign(with_cp, small_config())),
              fingerprint(run_campaign(without_cp, small_config())))
        << "LLFI under " << m.name();
    PinfiEngine p_with(prog.program(), {}, CheckpointPolicy::from_env(), m);
    PinfiEngine p_without(prog.program(), {}, off, m);
    EXPECT_EQ(fingerprint(run_campaign(p_with, small_config())),
              fingerprint(run_campaign(p_without, small_config())))
        << "PINFI under " << m.name();
  }
}

TEST(ModelCampaign, DefaultModelMatchesExplicitTransient) {
  // An engine built with the default-constructed Model must reproduce the
  // plain two-argument construction (the pre-model code path) exactly.
  driver::CompiledProgram prog = driver::compile(kModelProgram, "t");
  LlfiEngine plain(prog.module());
  LlfiEngine explicit_model(prog.module(), {}, CheckpointPolicy::from_env(),
                            Model{});
  EXPECT_EQ(fingerprint(run_campaign(plain, small_config())),
            fingerprint(run_campaign(explicit_model, small_config())));
}

TEST(ModelCampaign, PermanentActivatesMoreThanTransient) {
  // A stuck-at fault re-fires on every re-execution of the armed site, so
  // over a whole campaign it can only activate at least as often as the
  // single-shot transient under the same draws.
  driver::CompiledProgram prog = driver::compile(kModelProgram, "t");
  LlfiEngine transient(prog.module());
  LlfiEngine stuck(prog.module(), {}, CheckpointPolicy::from_env(),
                   Model::parse("stuck-at-1"));
  const CampaignResult rt = run_campaign(transient, small_config());
  const CampaignResult rs = run_campaign(stuck, small_config());
  EXPECT_GE(rs.activated(), rt.activated());
}

}  // namespace
}  // namespace faultlab::fault
