// Property-based differential testing: a seeded generator produces random
// mini-C programs; for each one, (a) the optimizer must preserve the
// output, (b) the machine simulator must agree with the IR interpreter
// bit-for-bit, (c) both engines' single-pass category profile must agree
// with their hooked per-category profile, and (d) a trial run on a reused
// execution context must equal the same trial on a fresh one (a fresh
// context takes a full restore, a reused one mostly the delta path). This
// cross-checks the frontend, optimizer, backend, and both execution
// engines against each other. Last, (e) engines that differ only in their
// execution strategy (threaded vs switch dispatch, propagation tracing on
// vs off) must produce the same records side by side in one process.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "driver/pipeline.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "support/rng.h"
#include "vm/interpreter.h"

namespace faultlab {
namespace {

/// Generates a random but always-terminating, trap-free mini-C program.
class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    std::ostringstream os;
    os << "int garr[16];\n";
    os << "long gacc = 7;\n";
    os << "int main() {\n";
    os << "  int i0 = " << rng_.below(100) << ";\n";
    os << "  int i1 = " << rng_.below(100) << ";\n";
    os << "  int i2 = " << rng_.below(100) << ";\n";
    os << "  long l0 = " << rng_.below(1000) << ";\n";
    os << "  long l1 = " << rng_.below(1000) << ";\n";
    os << "  double d0 = " << (rng_.below(100)) << ".25;\n";
    os << "  double d1 = " << (rng_.below(100)) << ".5;\n";
    os << "  int k;\n";
    os << "  for (k = 0; k < 16; k++) garr[k] = k * "
       << (1 + rng_.below(9)) << ";\n";
    const int statements = 8 + static_cast<int>(rng_.below(12));
    for (int s = 0; s < statements; ++s) emit_statement(os, 2);
    os << "  print_int(i0); print_int(i1); print_int(i2);\n";
    os << "  print_int(l0); print_int(l1);\n";
    os << "  print_int((long)(d0 * 1024.0)); print_int((long)(d1 * 1024.0));\n";
    os << "  print_int(gacc);\n";
    os << "  for (k = 0; k < 16; k++) print_int(garr[k]);\n";
    os << "  return 0;\n}\n";
    return os.str();
  }

 private:
  std::string int_var() {
    const char* names[] = {"i0", "i1", "i2"};
    return names[rng_.below(3)];
  }
  std::string long_var() { return rng_.chance(0.5) ? "l0" : "l1"; }
  std::string double_var() { return rng_.chance(0.5) ? "d0" : "d1"; }

  /// An int-valued expression that cannot trap.
  std::string int_expr(int depth) {
    if (depth <= 0 || rng_.chance(0.35)) {
      switch (rng_.below(4)) {
        case 0: return int_var();
        case 1: return std::to_string(rng_.below(64));
        case 2: return "garr[" + int_var() + " & 15]";
        default: return "(int)" + long_var();
      }
    }
    const std::string a = int_expr(depth - 1);
    const std::string b = int_expr(depth - 1);
    switch (rng_.below(8)) {
      case 0: return "(" + a + " + " + b + ")";
      case 1: return "(" + a + " - " + b + ")";
      case 2: return "(" + a + " * " + b + ")";
      case 3: return "(" + a + " & " + b + ")";
      case 4: return "(" + a + " | " + b + ")";
      case 5: return "(" + a + " ^ " + b + ")";
      case 6: return "(" + a + " >> " + std::to_string(rng_.below(8)) + ")";
      default:
        // Division guarded against zero and INT_MIN/-1.
        return "((" + a + " & 0xffff) / " + std::to_string(1 + rng_.below(9)) +
               ")";
    }
  }

  std::string cond_expr() {
    const char* ops[] = {"<", "<=", ">", ">=", "==", "!="};
    return int_expr(1) + " " + ops[rng_.below(6)] + " " + int_expr(1);
  }

  void emit_statement(std::ostringstream& os, int depth) {
    switch (rng_.below(7)) {
      case 0:
        os << "  " << int_var() << " = " << int_expr(2) << ";\n";
        return;
      case 1:
        os << "  " << long_var() << " += " << int_expr(2) << ";\n";
        return;
      case 2:
        os << "  " << double_var() << " = " << double_var() << " * 0.5 + (double)("
           << int_expr(1) << ");\n";
        return;
      case 3:
        os << "  garr[" << int_var() << " & 15] = " << int_expr(2) << ";\n";
        return;
      case 4:
        os << "  if (" << cond_expr() << ") { " << int_var() << " = "
           << int_expr(1) << "; } else { gacc += 3; }\n";
        return;
      case 5: {
        // Bounded loop.
        os << "  for (k = 0; k < " << (2 + rng_.below(10)) << "; k++) {\n";
        os << "    gacc = gacc * 3 + " << int_expr(1) << ";\n";
        os << "    gacc = gacc & 0xffffffffL;\n";
        if (depth > 0 && rng_.chance(0.4)) {
          os << "    if (" << cond_expr() << ") continue;\n";
        }
        os << "    " << int_var() << " ^= k;\n";
        os << "  }\n";
        return;
      }
      default:
        os << "  " << int_var() << " = (" << cond_expr() << ") ? "
           << int_expr(1) << " : " << int_expr(1) << ";\n";
        return;
    }
  }

  Rng rng_;
};

class RandomPrograms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPrograms, OptimizerPreservesSemantics) {
  ProgramGenerator gen(GetParam());
  const std::string src = gen.generate();

  driver::CompileOptions unopt;
  unopt.optimize = false;
  auto before = driver::compile(src, "rand", unopt);
  auto after = driver::compile(src, "rand");

  const auto r0 = before.run_ir();
  const auto r1 = after.run_ir();
  ASSERT_TRUE(r0.completed()) << src;
  ASSERT_TRUE(r1.completed()) << src;
  EXPECT_EQ(r0.output, r1.output) << src;
}

TEST_P(RandomPrograms, SimulatorMatchesInterpreter) {
  ProgramGenerator gen(GetParam() ^ 0xABCDEF);
  const std::string src = gen.generate();
  auto prog = driver::compile(src, "rand");
  const auto r_ir = prog.run_ir();
  const auto r_asm = prog.run_asm();
  ASSERT_TRUE(r_ir.completed()) << src;
  ASSERT_TRUE(r_asm.completed()) << src;
  EXPECT_EQ(r_ir.output, r_asm.output) << src;
  EXPECT_EQ(r_ir.exit_value, r_asm.exit_value) << src;
}

TEST_P(RandomPrograms, UnoptimizedSimulatorMatchesToo) {
  ProgramGenerator gen(GetParam() * 2654435761u);
  const std::string src = gen.generate();
  driver::CompileOptions unopt;
  unopt.optimize = false;
  auto prog = driver::compile(src, "rand", unopt);
  const auto r_ir = prog.run_ir();
  const auto r_asm = prog.run_asm();
  ASSERT_TRUE(r_ir.completed()) << src;
  ASSERT_TRUE(r_asm.completed()) << src;
  EXPECT_EQ(r_ir.output, r_asm.output) << src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Range<std::uint64_t>(1, 41));

class RandomProfiles : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProfiles, ProfileAllMatchesPerCategoryProfile) {
  // profile_all() counts category instances on the fast path, here with a
  // dense snapshot stride so the count also crosses many slow steps; the
  // hooked per-category profile() is the oracle.
  ProgramGenerator gen(GetParam() ^ 0x5EED5EEDull);
  const std::string src = gen.generate();
  auto prog = driver::compile(src, "rand");
  const fault::CheckpointPolicy dense{/*stride=*/97, /*enabled=*/true};
  fault::LlfiEngine llfi(prog.module(), {}, dense, fault::Model{});
  fault::PinfiEngine pinfi(prog.program(), {}, dense, fault::Model{});
  const fault::CategoryCounts lcounts = llfi.profile_all();
  const fault::CategoryCounts pcounts = pinfi.profile_all();
  for (ir::Category c : ir::kAllCategories) {
    EXPECT_EQ(lcounts[c], llfi.profile(c))
        << "LLFI " << ir::category_name(c) << "\n" << src;
    EXPECT_EQ(pcounts[c], pinfi.profile(c))
        << "PINFI " << ir::category_name(c) << "\n" << src;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProfiles,
                         ::testing::Range<std::uint64_t>(1, 51));

/// Every TrialRecord field except the restore-side observability
/// (restored, delta_restored, restored_pages), which depends on what the
/// context ran before, and the propagation summary.
void expect_same_core(const fault::TrialRecord& a, const fault::TrialRecord& b,
                      const std::string& where) {
  EXPECT_EQ(a.outcome, b.outcome) << where;
  EXPECT_EQ(a.dynamic_target, b.dynamic_target) << where;
  EXPECT_EQ(a.bit, b.bit) << where;
  EXPECT_EQ(a.static_site, b.static_site) << where;
  EXPECT_EQ(a.injected, b.injected) << where;
  EXPECT_STREQ(a.site_opcode, b.site_opcode) << where;
  EXPECT_STREQ(a.site_function, b.site_function) << where;
  EXPECT_EQ(a.inject_instruction, b.inject_instruction) << where;
  EXPECT_EQ(a.total_instructions, b.total_instructions) << where;
  EXPECT_EQ(a.trap, b.trap) << where;
  EXPECT_EQ(a.trap_pc, b.trap_pc) << where;
}

/// kTrials instance indices spread evenly over [1, n], in shuffled order.
std::vector<std::uint64_t> shuffled_targets(std::uint64_t n,
                                            std::uint64_t seed) {
  constexpr std::uint64_t kTrials = 16;
  std::vector<std::uint64_t> ks;
  for (std::uint64_t i = 0; i < kTrials; ++i)
    ks.push_back(1 + i * (n - 1) / (kTrials - 1));
  Rng order(seed);
  std::shuffle(ks.begin(), ks.end(), order);
  return ks;
}

/// Runs trials at evenly spaced k, visited in shuffled order, once through
/// inject() (a fresh context per trial) and once through inject_in() on one
/// context reused for every trial. The core records must match.
template <typename Engine>
void expect_reused_context_matches_fresh(Engine& engine, std::uint64_t seed,
                                         const std::string& src) {
  const std::uint64_t n = engine.profile_all()[ir::Category::All];
  ASSERT_GT(n, 0u) << src;
  const std::unique_ptr<fault::TrialContext> reused = engine.make_context();
  for (const std::uint64_t k : shuffled_targets(n, seed)) {
    Rng fresh_rng(seed * 31 + k);
    Rng reused_rng(seed * 31 + k);
    const fault::TrialRecord a =
        engine.inject(ir::Category::All, k, fresh_rng);
    const fault::TrialRecord b =
        engine.inject_in(reused.get(), ir::Category::All, k, reused_rng);
    expect_same_core(a, b,
                     std::string(engine.tool_name()) + " k=" +
                         std::to_string(k) + "\n" + src);
  }
}

/// The trials of `ks` on one reused context of `engine`, drawn as in
/// expect_reused_context_matches_fresh().
std::vector<fault::TrialRecord> run_targets(fault::InjectorEngine& engine,
                                            const std::vector<std::uint64_t>& ks,
                                            std::uint64_t seed) {
  std::vector<fault::TrialRecord> records;
  const std::unique_ptr<fault::TrialContext> context = engine.make_context();
  for (const std::uint64_t k : ks) {
    Rng rng(seed * 31 + k);
    records.push_back(
        engine.inject_in(context.get(), ir::Category::All, k, rng));
  }
  return records;
}

/// Four engines over `code` that differ only in their ExecConfig: threaded
/// and switch dispatch, each untraced and traced. The same (k, draw) must
/// give the same core record on all four, and the traced pair the same
/// PropSummary. Each pair runs its trials on two threads at once.
template <typename Engine, typename Code>
void expect_strategies_agree(const Code& code, std::uint64_t seed,
                             const std::string& src) {
  using machine::DispatchMode;
  const fault::CheckpointPolicy dense{/*stride=*/97, /*enabled=*/true};
  Engine threaded(code, {}, dense, fault::Model{},
                  fault::ExecConfig{DispatchMode::Threaded, false});
  Engine switched(code, {}, dense, fault::Model{},
                  fault::ExecConfig{DispatchMode::Switch, false});
  Engine traced_threaded(code, {}, dense, fault::Model{},
                         fault::ExecConfig{DispatchMode::Threaded, true});
  Engine traced_switched(code, {}, dense, fault::Model{},
                         fault::ExecConfig{DispatchMode::Switch, true});
  const std::uint64_t n = threaded.profile_all()[ir::Category::All];
  ASSERT_GT(n, 0u) << src;
  const std::vector<std::uint64_t> ks = shuffled_targets(n, seed);

  const auto side_by_side = [&](fault::InjectorEngine& a,
                                fault::InjectorEngine& b) {
    std::vector<fault::TrialRecord> a_records;
    std::vector<fault::TrialRecord> b_records;
    std::exception_ptr error;
    {
      std::jthread worker([&] {
        try {
          a_records = run_targets(a, ks, seed);
        } catch (...) {
          error = std::current_exception();
        }
      });
      b_records = run_targets(b, ks, seed);
    }  // joins the worker, also when run_targets(b) throws
    if (error != nullptr) std::rethrow_exception(error);
    return std::make_pair(std::move(a_records), std::move(b_records));
  };
  const auto [plain_t, plain_s] = side_by_side(threaded, switched);
  const auto [traced_t, traced_s] = side_by_side(traced_threaded,
                                                 traced_switched);

  EXPECT_EQ(switched.golden_output(), threaded.golden_output());
  EXPECT_EQ(switched.golden_instructions(), threaded.golden_instructions());
  EXPECT_EQ(traced_switched.profile_all().counts,
            threaded.profile_all().counts);
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const std::string where = std::string(threaded.tool_name()) +
                              " k=" + std::to_string(ks[i]) + "\n" + src;
    expect_same_core(plain_t[i], plain_s[i], "switch " + where);
    expect_same_core(plain_t[i], traced_t[i], "traced " + where);
    expect_same_core(plain_t[i], traced_s[i], "traced switch " + where);
    EXPECT_FALSE(plain_t[i].prop.traced) << where;
    EXPECT_FALSE(plain_s[i].prop.traced) << where;
    EXPECT_EQ(traced_t[i].prop.traced, traced_t[i].injected) << where;
    EXPECT_TRUE(traced_t[i].prop == traced_s[i].prop) << where;
  }
}

class RandomContexts : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomContexts, ReusedContextMatchesFreshContext) {
  // A dense stride spreads the trials over many snapshot windows, so the
  // reused context keeps switching between them.
  ProgramGenerator gen(GetParam() ^ 0xC0117E47ull);
  const std::string src = gen.generate();
  auto prog = driver::compile(src, "rand");
  const fault::CheckpointPolicy dense{/*stride=*/97, /*enabled=*/true};
  fault::LlfiEngine llfi(prog.module(), {}, dense, fault::Model{});
  fault::PinfiEngine pinfi(prog.program(), {}, dense, fault::Model{});
  expect_reused_context_matches_fresh(llfi, GetParam(), src);
  expect_reused_context_matches_fresh(pinfi, GetParam(), src);
}

TEST_P(RandomContexts, StrategiesAgreeSideBySide) {
  ProgramGenerator gen(GetParam() ^ 0x57A7E61Eull);
  const std::string src = gen.generate();
  auto prog = driver::compile(src, "rand");
  expect_strategies_agree<fault::LlfiEngine>(prog.module(), GetParam(), src);
  expect_strategies_agree<fault::PinfiEngine>(prog.program(), GetParam(), src);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomContexts,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace faultlab
