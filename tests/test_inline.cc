// Function-inliner tests: site selection, body cloning (branches, phis,
// allocas, nested calls), return wiring, and semantic preservation under
// recursion and multiple call sites.
#include <gtest/gtest.h>

#include "driver/pipeline.h"
#include "frontend/codegen.h"
#include "ir/verifier.h"
#include "opt/pass.h"
#include "vm/interpreter.h"

namespace faultlab::opt {
namespace {

using ir::Function;
using ir::Opcode;

std::size_t count_calls_to(const Function& f, const std::string& callee) {
  std::size_t n = 0;
  for (const auto& bb : f.blocks())
    for (const auto& instr : bb->instructions())
      if (auto* call = dynamic_cast<const ir::CallInst*>(instr.get()))
        if (call->callee()->name() == callee) ++n;
  return n;
}

std::int64_t run(const ir::Module& m) {
  vm::Interpreter vm(m);
  auto r = vm.run();
  EXPECT_TRUE(r.completed());
  return r.exit_value;
}

TEST(Inliner, InlinesSmallHelper) {
  auto m = mc::compile_to_ir(R"(
    int twice(int x) { return x * 2; }
    int main() { return twice(21); }
  )", "t");
  Function* main_fn = m->find_function("main");
  ASSERT_EQ(count_calls_to(*main_fn, "twice"), 1u);
  EXPECT_TRUE(make_inline()->run(*main_fn));
  main_fn->renumber();
  ir::verify_or_throw(*m);
  EXPECT_EQ(count_calls_to(*main_fn, "twice"), 0u);
  EXPECT_EQ(run(*m), 42);
}

TEST(Inliner, SkipsDirectRecursion) {
  auto m = mc::compile_to_ir(R"(
    int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
    int main() { return fact(5); }
  )", "t");
  Function* main_fn = m->find_function("main");
  // fact calls itself, so it must never be inlined anywhere.
  make_inline()->run(*main_fn);
  main_fn->renumber();
  ir::verify_or_throw(*m);
  EXPECT_EQ(count_calls_to(*main_fn, "fact"), 1u);
  EXPECT_EQ(run(*m), 120);
}

TEST(Inliner, SkipsBuiltinsAndLargeFunctions) {
  std::string big = "int big(int x) { int s = x;\n";
  for (int i = 0; i < 120; ++i)
    big += "  s = s + " + std::to_string(i) + "; s = s ^ 3;\n";
  big += "  return s; }\n";
  auto m = mc::compile_to_ir(
      big + "int main() { print_int(7); return big(1); }", "t");
  Function* main_fn = m->find_function("main");
  make_inline()->run(*main_fn);
  main_fn->renumber();
  ir::verify_or_throw(*m);
  EXPECT_EQ(count_calls_to(*main_fn, "big"), 1u);       // too large
  EXPECT_EQ(count_calls_to(*main_fn, "print_int"), 1u);  // builtin
}

TEST(Inliner, MultipleCallSitesEachCloned) {
  auto m = mc::compile_to_ir(R"(
    int sq(int x) { return x * x; }
    int main() { return sq(3) + sq(4) + sq(5); }
  )", "t");
  Function* main_fn = m->find_function("main");
  EXPECT_TRUE(make_inline()->run(*main_fn));
  main_fn->renumber();
  ir::verify_or_throw(*m);
  EXPECT_EQ(count_calls_to(*main_fn, "sq"), 0u);
  EXPECT_EQ(run(*m), 9 + 16 + 25);
}

TEST(Inliner, CalleeWithBranchesAndMultipleReturns) {
  auto m = mc::compile_to_ir(R"(
    int clamp(int v) {
      if (v < 0) return 0;
      if (v > 100) return 100;
      return v;
    }
    int main() { return clamp(-5) * 10000 + clamp(250) * 10 + clamp(7); }
  )", "t");
  Function* main_fn = m->find_function("main");
  EXPECT_TRUE(make_inline()->run(*main_fn));
  main_fn->renumber();
  ir::verify_or_throw(*m);
  EXPECT_EQ(run(*m), 0 * 10000 + 100 * 10 + 7);
}

TEST(Inliner, CalleeWithLoopPhis) {
  auto m = mc::compile_to_ir(R"(
    int sum_to(int n) {
      int s = 0;
      int i;
      for (i = 1; i <= n; i++) s += i;
      return s;
    }
    int main() { return sum_to(10) + sum_to(4); }
  )", "t");
  // Promote to SSA first so the callee contains real phi nodes.
  for (const auto& f : m->functions()) {
    if (f->is_builtin()) continue;
    make_simplify_cfg()->run(*f);
    make_mem2reg()->run(*f);
    f->renumber();
  }
  ir::verify_or_throw(*m);
  Function* main_fn = m->find_function("main");
  EXPECT_TRUE(make_inline()->run(*main_fn));
  main_fn->renumber();
  ir::verify_or_throw(*m);
  EXPECT_EQ(run(*m), 55 + 10);
}

TEST(Inliner, CalleeWithLocalArrays) {
  auto m = mc::compile_to_ir(R"(
    int tbl_sum(int seed) {
      int tbl[8];
      int i;
      for (i = 0; i < 8; i++) tbl[i] = seed + i;
      int s = 0;
      for (i = 0; i < 8; i++) s += tbl[i];
      return s;
    }
    int main() { return tbl_sum(1) + tbl_sum(100); }
  )", "t");
  Function* main_fn = m->find_function("main");
  EXPECT_TRUE(make_inline()->run(*main_fn));
  main_fn->renumber();
  ir::verify_or_throw(*m);
  // Each clone must have its own alloca (no aliasing between sites).
  EXPECT_EQ(run(*m), (8 + 28) + (800 + 28));
}

TEST(Inliner, NestedHelpersCollapseOverRounds) {
  auto m = mc::compile_to_ir(R"(
    int add1(int x) { return x + 1; }
    int add2(int x) { return add1(add1(x)); }
    int main() { return add2(40); }
  )", "t");
  Function* main_fn = m->find_function("main");
  // Round 1 inlines add2 (bringing add1 calls in); round 2 inlines those.
  make_inline()->run(*main_fn);
  make_inline()->run(*main_fn);
  main_fn->renumber();
  ir::verify_or_throw(*m);
  EXPECT_EQ(count_calls_to(*main_fn, "add1"), 0u);
  EXPECT_EQ(count_calls_to(*main_fn, "add2"), 0u);
  EXPECT_EQ(run(*m), 42);
}

TEST(Inliner, VoidCalleeAndIgnoredResult) {
  auto m = mc::compile_to_ir(R"(
    int counter = 0;
    void bump(int by) { counter += by; }
    int probe() { counter += 100; return counter; }
    int main() {
      bump(1);
      bump(2);
      probe();          // result ignored
      return counter;
    }
  )", "t");
  Function* main_fn = m->find_function("main");
  EXPECT_TRUE(make_inline()->run(*main_fn));
  main_fn->renumber();
  ir::verify_or_throw(*m);
  EXPECT_EQ(run(*m), 103);
}

TEST(Inliner, PreservesOutputAcrossWholePipeline) {
  const char* src = R"(
    double mix(double a, double b) { return a * 0.75 + b * 0.25; }
    int idx(int r, int c) { return r * 8 + c; }
    double grid[64];
    int main() {
      int r; int c;
      for (r = 0; r < 8; r++)
        for (c = 0; c < 8; c++)
          grid[idx(r, c)] = (double)(r * c);
      double acc = 0.0;
      for (r = 1; r < 8; r++)
        acc = mix(acc, grid[idx(r, r)]);
      print_int((long)(acc * 1000.0));
      return 0;
    }
  )";
  auto plain = mc::compile_to_ir(src, "t");
  vm::Interpreter vm_plain(*plain);
  const auto golden = vm_plain.run();

  auto optimized = mc::compile_to_ir(src, "t");
  run_standard_pipeline(*optimized);
  vm::Interpreter vm_opt(*optimized);
  const auto r = vm_opt.run();
  EXPECT_EQ(golden.output, r.output);
  // And the pipeline actually removed the helper calls from main.
  EXPECT_EQ(count_calls_to(*optimized->find_function("main"), "idx"), 0u);
  EXPECT_EQ(count_calls_to(*optimized->find_function("main"), "mix"), 0u);
}

TEST(Inliner, ValueCalleeThatNeverReturns) {
  // sweep has no reachable ret, so there is no value to replace the
  // call's result with: the call stays, the whole pipeline compiles the
  // program, and the run spins until the instruction budget runs out.
  const char* src = R"(
    int sweep(int p) { while (1) { } return 1; }
    int main() { int x = sweep(0); return 0; }
  )";
  const driver::CompiledProgram prog = driver::compile(src, "t");
  EXPECT_EQ(count_calls_to(*prog.module().find_function("main"), "sweep"),
            1u);
  vm::RunLimits ir_limits;
  ir_limits.max_instructions = 1000;
  EXPECT_TRUE(prog.run_ir(nullptr, ir_limits).timed_out);
  x86::SimLimits asm_limits;
  asm_limits.max_instructions = 1000;
  EXPECT_TRUE(prog.run_asm(nullptr, asm_limits).timed_out);
}

TEST(Inliner, CalleesThatNeverReturnStayCalls) {
  // Neither a value nor a void callee without a reachable ret is inlined:
  // the code after the call site would become unreachable while still
  // storing to main's allocas, which mem2reg does not rewrite.
  const char* src = R"(
    void spin() { while (1) { } }
    int main() { int x = 3; spin(); x = x + 1; print_int(x); return 0; }
  )";
  const driver::CompiledProgram prog = driver::compile(src, "t");
  EXPECT_EQ(count_calls_to(*prog.module().find_function("main"), "spin"),
            1u);
  vm::RunLimits limits;
  limits.max_instructions = 1000;
  EXPECT_TRUE(prog.run_ir(nullptr, limits).timed_out);
}

TEST(Inliner, ClonesOnlyReachableBlocksOfALaterCallee) {
  // g is defined after main, so main inlines it before simplifycfg has
  // removed g's dead tail; only g's live blocks may be cloned.
  const char* src = R"(
    int main() { print_int(g(1) * 10 + g(0)); return 0; }
    int g(int p) { if (p) return 1; else return 2; int z = p; return z; }
  )";
  const driver::CompiledProgram prog = driver::compile(src, "t");
  EXPECT_EQ(count_calls_to(*prog.module().find_function("main"), "g"), 0u);
  const vm::RunResult r = prog.run_ir();
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.output, "12\n");
}

TEST(Inliner, MutualRecursionTerminates) {
  auto m = mc::compile_to_ir(R"(
    int odd(int n) { if (n == 0) return 0; return even(n - 1); }
    int even(int n) { if (n == 0) return 1; return odd(n - 1); }
    int main() { return even(9); }
  )", "t");
  // Bounded rounds must terminate and stay correct (self-calls appear
  // after one round and are never inlined).
  for (int round = 0; round < 8; ++round)
    for (const auto& f : m->functions())
      if (!f->is_builtin()) make_inline()->run(*f);
  for (const auto& f : m->functions())
    if (!f->is_builtin()) f->renumber();
  ir::verify_or_throw(*m);
  EXPECT_EQ(run(*m), 0);
}

}  // namespace
}  // namespace faultlab::opt
