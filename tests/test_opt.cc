// Optimizer tests: pass-level unit behaviour plus whole-pipeline semantic
// preservation on executable programs.
#include <gtest/gtest.h>

#include "frontend/codegen.h"
#include "ir/irbuilder.h"
#include "ir/irparser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "opt/pass.h"
#include "vm/interpreter.h"

namespace faultlab::opt {
namespace {

using ir::BasicBlock;
using ir::Function;
using ir::IRBuilder;
using ir::Instruction;
using ir::Module;
using ir::Opcode;
using ir::Value;

std::size_t count_op(const Function& f, Opcode op) {
  std::size_t n = 0;
  for (const auto& bb : f.blocks())
    for (const auto& instr : bb->instructions())
      if (instr->opcode() == op) ++n;
  return n;
}

TEST(Mem2Reg, PromotesScalarSlotAndInsertsPhi) {
  auto m = mc::compile_to_ir(R"(
    int f(int n) {
      int x = 0;
      if (n > 0) x = 1; else x = 2;
      return x;
    })", "t");
  Function* f = m->find_function("f");
  ASSERT_GT(count_op(*f, Opcode::Alloca), 0u);

  auto simplify = make_simplify_cfg();
  simplify->run(*f);
  auto pass = make_mem2reg();
  EXPECT_TRUE(pass->run(*f));
  f->renumber();
  ir::verify_or_throw(*m);

  EXPECT_EQ(count_op(*f, Opcode::Alloca), 0u);
  EXPECT_GE(count_op(*f, Opcode::Phi), 1u);
  EXPECT_EQ(count_op(*f, Opcode::Load), 0u);
  EXPECT_EQ(count_op(*f, Opcode::Store), 0u);
}

TEST(Mem2Reg, LeavesAddressTakenSlotsAlone) {
  auto m = mc::compile_to_ir(R"(
    int g(int* p) { return *p; }
    int f() {
      int x = 5;
      return g(&x);
    })", "t");
  Function* f = m->find_function("f");
  auto pass = make_mem2reg();
  pass->run(*f);
  // x's slot is address-taken: must survive.
  EXPECT_EQ(count_op(*f, Opcode::Alloca), 1u);
}

TEST(Mem2Reg, LeavesArraysAlone) {
  auto m = mc::compile_to_ir(R"(
    int f() {
      int a[4];
      a[0] = 1;
      return a[0];
    })", "t");
  Function* f = m->find_function("f");
  auto pass = make_mem2reg();
  pass->run(*f);
  EXPECT_EQ(count_op(*f, Opcode::Alloca), 1u);
}

TEST(Mem2Reg, LoopVariableGetsHeaderPhi) {
  auto m = mc::compile_to_ir(R"(
    int f(int n) {
      int s = 0;
      int i;
      for (i = 0; i < n; i++) s += i;
      return s;
    })", "t");
  Function* f = m->find_function("f");
  make_simplify_cfg()->run(*f);
  make_mem2reg()->run(*f);
  f->renumber();
  ir::verify_or_throw(*m);
  EXPECT_GE(count_op(*f, Opcode::Phi), 2u);  // s and i
}

TEST(Mem2Reg, LeavesSlotsUsedInUnreachableBlocksForDce) {
  // Renaming walks the dominator tree, which holds only the blocks
  // reachable from the entry. A slot loaded and stored in an unreachable
  // block must stay in memory: promoting it would erase the alloca under
  // the unreachable load and store, and DCE would then read the dangling
  // operand.
  auto m = ir::parse_module(R"(
define i32 @f(i32 %arg0) {
bb0:
  %t0 = alloca i32
  store i32 %arg0, i32* %t0
  %t1 = load i32, i32* %t0
  ret i32 %t1
bb1:
  %t2 = load i32, i32* %t0
  %t3 = add i32 %t2, 1
  store i32 %t3, i32* %t0
  br label %bb1
}
)");
  Function* f = m->find_function("f");
  make_mem2reg()->run(*f);
  make_dce()->run(*f);
  f->renumber();
  ir::verify_or_throw(*m);
  EXPECT_EQ(count_op(*f, Opcode::Alloca), 1u);
  EXPECT_EQ(count_op(*f, Opcode::Load), 2u);
  EXPECT_EQ(count_op(*f, Opcode::Store), 2u);
  EXPECT_EQ(reachable_blocks(*f).size(), 1u);
}

TEST(ConstFold, FoldsArithmeticChains) {
  Module m("t");
  auto& t = m.types();
  Function* f = m.create_function(t.func_type(t.i32(), {}), "f");
  IRBuilder b(m);
  b.set_insert_point(f->create_block("entry"));
  Value* x = b.add(m.const_i32(2), m.const_i32(3));
  Value* y = b.mul(x, m.const_i32(4));
  b.ret(y);
  f->renumber();

  make_const_fold()->run(*f);
  make_const_fold()->run(*f);  // second round folds the dependent mul
  make_dce()->run(*f);
  ASSERT_EQ(f->entry()->size(), 1u);
  auto* ret = static_cast<ir::RetInst*>(f->entry()->instr(0));
  EXPECT_EQ(static_cast<ir::ConstantInt*>(ret->value())->signed_value(), 20);
}

TEST(ConstFold, DoesNotFoldTrappingDivision) {
  Module m("t");
  auto& t = m.types();
  Function* f = m.create_function(t.func_type(t.i32(), {}), "f");
  IRBuilder b(m);
  b.set_insert_point(f->create_block("entry"));
  Value* x = b.binary(Opcode::SDiv, m.const_i32(5), m.const_i32(0));
  b.ret(x);
  f->renumber();
  EXPECT_FALSE(make_const_fold()->run(*f));
  EXPECT_EQ(count_op(*f, Opcode::SDiv), 1u);
}

TEST(ConstFold, FoldsComparisonsAndCasts) {
  Module m("t");
  auto& t = m.types();
  Function* f = m.create_function(t.func_type(t.i64(), {}), "f");
  IRBuilder b(m);
  b.set_insert_point(f->create_block("entry"));
  Value* cmp = b.icmp(ir::ICmpPred::SLT, m.const_i32(-5), m.const_i32(3));
  Value* wide = b.cast(Opcode::ZExt, cmp, t.i64());
  Value* sext = b.cast(Opcode::SExt, m.const_int(t.i8(), 0xF0), t.i64());
  Value* sum = b.add(wide, sext);
  b.ret(sum);
  f->renumber();
  for (int i = 0; i < 3; ++i) make_const_fold()->run(*f);
  make_dce()->run(*f);
  auto* ret = static_cast<ir::RetInst*>(f->entry()->instr(0));
  // true(1) + sext(0xF0 as i8 = -16) = -15
  EXPECT_EQ(static_cast<ir::ConstantInt*>(ret->value())->signed_value(), -15);
}

TEST(InstCombine, IdentityAndAbsorbing) {
  Module m("t");
  auto& t = m.types();
  Function* f =
      m.create_function(t.func_type(t.i32(), {t.i32()}), "f");
  IRBuilder b(m);
  b.set_insert_point(f->create_block("entry"));
  Value* a0 = b.add(f->arg(0), m.const_i32(0));   // -> arg
  Value* m1 = b.mul(a0, m.const_i32(1));          // -> arg
  Value* x0 = b.binary(Opcode::Xor, m1, m1);      // -> 0
  Value* o = b.binary(Opcode::Or, x0, f->arg(0)); // -> arg
  b.ret(o);
  f->renumber();
  while (make_inst_combine()->run(*f) || make_dce()->run(*f)) {
  }
  ASSERT_EQ(f->entry()->size(), 1u);
  auto* ret = static_cast<ir::RetInst*>(f->entry()->instr(0));
  EXPECT_EQ(ret->value(), f->arg(0));
}

TEST(InstCombine, FoldsBoolZextRoundTrip) {
  // icmp ne (zext i1 x), 0 -> x   (the cmp-count-preserving fold)
  Module m("t");
  auto& t = m.types();
  Function* f = m.create_function(t.func_type(t.i32(), {t.i32()}), "f");
  BasicBlock* entry = f->create_block("entry");
  BasicBlock* then_bb = f->create_block("then");
  BasicBlock* else_bb = f->create_block("else");
  IRBuilder b(m);
  b.set_insert_point(entry);
  Value* flag = b.icmp(ir::ICmpPred::SGT, f->arg(0), m.const_i32(0));
  Value* wide = b.cast(Opcode::ZExt, flag, t.i32());
  Value* again = b.icmp(ir::ICmpPred::NE, wide, m.const_i32(0));
  b.cond_br(again, then_bb, else_bb);
  b.set_insert_point(then_bb);
  b.ret(m.const_i32(1));
  b.set_insert_point(else_bb);
  b.ret(m.const_i32(0));
  f->renumber();

  make_inst_combine()->run(*f);
  make_dce()->run(*f);
  EXPECT_EQ(count_op(*f, Opcode::ICmp), 1u);
  EXPECT_EQ(count_op(*f, Opcode::ZExt), 0u);
}

TEST(Cse, DeduplicatesPureExpressions) {
  Module m("t");
  auto& t = m.types();
  Function* f = m.create_function(t.func_type(t.i32(), {t.i32()}), "f");
  IRBuilder b(m);
  b.set_insert_point(f->create_block("entry"));
  Value* x = b.add(f->arg(0), m.const_i32(7));
  Value* y = b.add(f->arg(0), m.const_i32(7));  // duplicate
  Value* z = b.add(x, y);
  b.ret(z);
  f->renumber();
  EXPECT_TRUE(make_cse()->run(*f));
  make_dce()->run(*f);
  EXPECT_EQ(count_op(*f, Opcode::Add), 2u);  // one add + the sum
}

TEST(Cse, LoadReuseStopsAtStore) {
  auto m = mc::compile_to_ir(R"(
    int g;
    int f() {
      int a = g;
      int b = g;      // reusable
      g = a + b;
      int c = g;      // NOT reusable: store intervenes
      return c;
    })", "t");
  Function* f = m->find_function("f");
  make_simplify_cfg()->run(*f);
  make_mem2reg()->run(*f);
  const std::size_t loads_before = count_op(*f, Opcode::Load);
  make_cse()->run(*f);
  make_dce()->run(*f);
  const std::size_t loads_after = count_op(*f, Opcode::Load);
  EXPECT_EQ(loads_before, 3u);
  EXPECT_EQ(loads_after, 2u);
}

TEST(SimplifyCfg, RemovesUnreachableBlocks) {
  auto m = mc::compile_to_ir(R"(
    int f() {
      return 1;
      return 2;
    })", "t");
  Function* f = m->find_function("f");
  const std::size_t before = f->num_blocks();
  make_simplify_cfg()->run(*f);
  EXPECT_LE(f->num_blocks(), before);
  EXPECT_EQ(f->num_blocks(), 1u);
}

TEST(SimplifyCfg, FoldsConstantBranches) {
  Module m("t");
  auto& t = m.types();
  Function* f = m.create_function(t.func_type(t.i32(), {}), "f");
  BasicBlock* entry = f->create_block("entry");
  BasicBlock* live = f->create_block("live");
  BasicBlock* dead = f->create_block("dead");
  IRBuilder b(m);
  b.set_insert_point(entry);
  b.cond_br(m.const_i1(true), live, dead);
  b.set_insert_point(live);
  b.ret(m.const_i32(1));
  b.set_insert_point(dead);
  b.ret(m.const_i32(2));
  f->renumber();

  EXPECT_TRUE(make_simplify_cfg()->run(*f));
  f->renumber();
  ir::verify_or_throw(m);
  EXPECT_EQ(f->num_blocks(), 1u);  // entry merged with live, dead removed
}

TEST(Dce, RemovesDeadPhiCycles) {
  // Two phis feeding only each other across a loop must both die.
  Module m("t");
  auto& t = m.types();
  Function* f = m.create_function(t.func_type(t.i32(), {}), "f");
  BasicBlock* entry = f->create_block("entry");
  BasicBlock* loop = f->create_block("loop");
  BasicBlock* exit = f->create_block("exit");
  IRBuilder b(m);
  b.set_insert_point(entry);
  b.br(loop);
  b.set_insert_point(loop);
  ir::PhiInst* p1 = b.phi(t.i32());
  ir::PhiInst* p2 = b.phi(t.i32());
  p1->add_incoming(m.const_i32(0), entry);
  p1->add_incoming(p2, loop);
  p2->add_incoming(m.const_i32(1), entry);
  p2->add_incoming(p1, loop);
  b.cond_br(m.const_i1(true), exit, loop);
  b.set_insert_point(exit);
  b.ret(m.const_i32(9));
  f->renumber();

  EXPECT_TRUE(make_dce()->run(*f));
  EXPECT_EQ(count_op(*f, Opcode::Phi), 0u);
}

TEST(Dce, KeepsSideEffectsAndTraps) {
  auto m = mc::compile_to_ir(R"(
    int f(int a, int b) {
      int unused = a / b;    // may trap: must not be removed
      print_int(1);          // side effect
      return 0;
    })", "t");
  Function* f = m->find_function("f");
  make_simplify_cfg()->run(*f);
  make_mem2reg()->run(*f);
  make_dce()->run(*f);
  EXPECT_EQ(count_op(*f, Opcode::SDiv), 1u);
  EXPECT_EQ(count_op(*f, Opcode::Call), 1u);
}

// ---------------------------------------------------------------------------
// Whole-pipeline semantic preservation.

class PipelinePreservation : public ::testing::TestWithParam<const char*> {};

TEST_P(PipelinePreservation, OutputUnchangedByOptimization) {
  auto m = mc::compile_to_ir(GetParam(), "t");
  vm::Interpreter before(*m);
  const auto r0 = before.run();
  ASSERT_TRUE(r0.completed());

  const PipelineStats stats = run_standard_pipeline(*m);
  EXPECT_LE(stats.instructions_after, stats.instructions_before);

  vm::Interpreter after(*m);
  const auto r1 = after.run();
  ASSERT_TRUE(r1.completed());
  EXPECT_EQ(r0.output, r1.output);
  EXPECT_EQ(r0.exit_value, r1.exit_value);
  EXPECT_LE(r1.dynamic_instructions, r0.dynamic_instructions);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, PipelinePreservation,
    ::testing::Values(
        R"(int main() { int s=0; int i; for(i=0;i<50;i++) s+=i*i; print_int(s); return 0; })",
        R"(int fib(int n){ if(n<2) return n; return fib(n-1)+fib(n-2); }
           int main(){ print_int(fib(15)); return 0; })",
        R"(int main() { double x=1.0; int i; for(i=0;i<30;i++) x=x*1.1-0.05;
           print_double(x); return 0; })",
        R"(int g[20];
           int main(){ int i; for(i=0;i<20;i++) g[i]=i;
           int s=0; for(i=0;i<20;i+=2) s+=g[i]; print_int(s); return 0; })",
        R"(struct P { int x; int y; };
           int main(){ struct P p; p.x=1; p.y=2;
           int i; for(i=0;i<10;i++){ p.x+=p.y; p.y=p.x-p.y; }
           print_int(p.x*100+p.y); return 0; })",
        R"(int main(){ char* s = "hello world"; int n=0;
           while(s[n] != 0) n++; print_int(n); return 0; })",
        R"(int main(){ long h=1469598103934665603L; int i;
           for(i=0;i<64;i++){ h = (h ^ i) * 1099511628211L; }
           print_int(h & 0xffffffffL); return 0; })"));

TEST(Pipeline, IdempotentSecondRun) {
  auto m = mc::compile_to_ir(
      "int main(){ int i; int s=0; for(i=0;i<9;i++) s+=i; print_int(s); return 0; }",
      "t");
  run_standard_pipeline(*m);
  const std::size_t n1 = m->find_function("main")->num_instructions();
  run_standard_pipeline(*m);
  EXPECT_EQ(m->find_function("main")->num_instructions(), n1);
}

}  // namespace
}  // namespace faultlab::opt
