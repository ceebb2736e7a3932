// Backend tests: structural properties of lowering (GEP folding, cmp+jcc
// fusion, prologue/epilogue, spilling) plus IR-vs-assembly differential
// execution across representative programs.
#include <gtest/gtest.h>

#include <cmath>

#include "backend/isel.h"
#include "ir/dominance.h"
#include "backend/liveness.h"
#include "backend/phi_elim.h"
#include "backend/regalloc.h"
#include "driver/pipeline.h"
#include "frontend/codegen.h"
#include "frontend/lexer.h"
#include "opt/pass.h"
#include "x86/printer.h"

namespace faultlab::backend {
namespace {

using x86::Inst;
using x86::Op;

std::size_t count_op(const x86::Program& p, Op op) {
  std::size_t n = 0;
  for (const Inst& i : p.code)
    if (i.op == op) ++n;
  return n;
}

driver::CompiledProgram compile(const char* src) {
  return driver::compile(src, "t");
}

TEST(Isel, GepFoldsIntoAddressingMode) {
  // a[i] with 4-byte elements must become a scaled-index memory operand,
  // with no explicit lea/imul for the address.
  auto prog = compile(R"(
    int a[64];
    int f(int i) { return a[i]; }
    int main() { return f(5); }
  )");
  const auto* f = prog.program().function_by_name("f");
  ASSERT_NE(f, nullptr);
  bool found_scaled_load = false;
  std::size_t arithmetic_in_f = 0;
  for (std::size_t i = f->entry; i < f->entry + f->size; ++i) {
    const Inst& inst = prog.program().code[i];
    if (inst.op == Op::MovRM && inst.mem.has_index() && inst.mem.scale == 4)
      found_scaled_load = true;
    if (inst.op == Op::Imul || inst.op == Op::Lea) ++arithmetic_in_f;
  }
  EXPECT_TRUE(found_scaled_load);
  EXPECT_EQ(arithmetic_in_f, 0u);
  EXPECT_EQ(prog.run_asm().exit_value, prog.run_ir().exit_value);
}

TEST(Isel, NonPowerOfTwoStructStrideUsesImul) {
  // struct of 24 bytes: the index must be scaled by an imul (the paper's
  // expanded-GEP case).
  auto prog = compile(R"(
    struct S { long a; long b; int c; };
    struct S arr[8];
    long f(int i) { return arr[i].b; }
    int main() { arr[3].b = 77; return (int)f(3); }
  )");
  const auto* f = prog.program().function_by_name("f");
  bool found_imul = false;
  for (std::size_t i = f->entry; i < f->entry + f->size; ++i)
    if (prog.program().code[i].op == Op::Imul) found_imul = true;
  EXPECT_TRUE(found_imul);
  EXPECT_EQ(prog.run_asm().exit_value, 77);
}

TEST(Isel, CmpBranchFusion) {
  // The comparison must lower to cmp directly followed by jcc — no setcc.
  auto prog = compile(R"(
    int f(int a) { if (a > 3) return 1; return 0; }
    int main() { return f(5); }
  )");
  const auto* f = prog.program().function_by_name("f");
  bool cmp_then_jcc = false;
  std::size_t setcc = 0;
  for (std::size_t i = f->entry; i + 1 < f->entry + f->size; ++i) {
    const Inst& inst = prog.program().code[i];
    if (inst.op == Op::Cmp &&
        prog.program().code[i + 1].op == Op::Jcc)
      cmp_then_jcc = true;
    if (inst.op == Op::Setcc) ++setcc;
  }
  EXPECT_TRUE(cmp_then_jcc);
  EXPECT_EQ(setcc, 0u);
}

TEST(Isel, BoolValueUsesSetcc) {
  // Comparison used as a value (not a branch) needs setcc materialization.
  auto prog = compile(R"(
    int f(int a, int b) { return (a < b) + (b < a); }
    int main() { return f(1, 2); }
  )");
  const auto* f = prog.program().function_by_name("f");
  std::size_t setcc = 0;
  for (std::size_t i = f->entry; i < f->entry + f->size; ++i)
    if (prog.program().code[i].op == Op::Setcc) ++setcc;
  EXPECT_EQ(setcc, 2u);
  EXPECT_EQ(prog.run_asm().exit_value, 1);
}

TEST(Frame, PrologueEpiloguePushPopBalance) {
  auto prog = compile(R"(
    int helper(int a, int b, int c) { return a * b + c; }
    int main() { return helper(2, 3, 4); }
  )");
  EXPECT_EQ(count_op(prog.program(), Op::Push),
            count_op(prog.program(), Op::Pop));
  EXPECT_GE(count_op(prog.program(), Op::Push), 2u);  // at least rbp x2
  EXPECT_EQ(prog.run_asm().exit_value, 10);
}

TEST(Frame, CalleeSavesEverythingItWrites) {
  // A function with many live values must save the registers it uses;
  // a trivial function should save almost nothing beyond rbp.
  auto busy = compile(R"(
    int f(int a) {
      int v0=a+1; int v1=a+2; int v2=a+3; int v3=a+4; int v4=a+5;
      int v5=a+6; int v6=a+7; int v7=a+8;
      return v0*v1 + v2*v3 + v4*v5 + v6*v7 + v0*v7;
    }
    int main() { return f(1); }
  )");
  auto trivial = compile("int f() { return 7; } int main() { return f(); }");
  const auto count_in = [](const driver::CompiledProgram& p, const char* name,
                           Op op) {
    const auto* f = p.program().function_by_name(name);
    std::size_t n = 0;
    for (std::size_t i = f->entry; i < f->entry + f->size; ++i)
      if (p.program().code[i].op == op) ++n;
    return n;
  };
  EXPECT_GT(count_in(busy, "f", Op::Push), count_in(trivial, "f", Op::Push));
  EXPECT_EQ(busy.run_asm().exit_value, busy.run_ir().exit_value);
}

TEST(RegAlloc, HighPressureSpillsAndStaysCorrect) {
  // 20 simultaneously-live values exceed the 10 allocatable GPRs.
  std::string src = "int main() {\n";
  for (int i = 0; i < 20; ++i)
    src += "  int v" + std::to_string(i) + " = " + std::to_string(i * 3 + 1) +
           " + (" + std::to_string(i) + " * 0);\n";  // defeat constfold? no: folded
  src += "  int s = 0;\n";
  // Keep all alive until the end via a second round of uses.
  for (int i = 0; i < 20; ++i) src += "  s += v" + std::to_string(i) + ";\n";
  for (int i = 0; i < 20; ++i)
    src += "  s += v" + std::to_string(i) + " * v" +
           std::to_string((i + 7) % 20) + ";\n";
  src += "  return s & 0xff;\n}\n";

  // Compile unoptimized so the constants stay as distinct live values.
  driver::CompileOptions opts;
  opts.optimize = false;
  auto prog = driver::compile(src, "t", opts);
  EXPECT_EQ(prog.run_asm().exit_value, prog.run_ir().exit_value);
}

TEST(RegAlloc, StatsReportSpills) {
  // Directly exercise the allocator on a synthetic high-pressure function.
  auto m = mc::compile_to_ir(R"(
    double f(double a) {
      double x0=a*1.0; double x1=a*2.0; double x2=a*3.0; double x3=a*4.0;
      double x4=a*5.0; double x5=a*6.0; double x6=a*7.0; double x7=a*8.0;
      double x8=a*9.0; double x9=a*10.0; double xa=a*11.0; double xb=a*12.0;
      double xc=a*13.0; double xd=a*14.0; double xe=a*15.0;
      return ((x0+x1)+(x2+x3))+((x4+x5)+(x6+x7))+((x8+x9)+(xa+xb))+((xc+xd)+xe)
             + x0*x7 + x3*xe;
    }
    int main() { return (int)f(1.0); }
  )", "t");
  opt::run_standard_pipeline(*m);
  machine::GlobalLayout layout(*m);
  for (const auto& fn : m->functions()) {
    if (fn->is_builtin()) continue;
    split_critical_edges(*fn);
    ir::DominatorTree dom(*fn);
    fn->reorder_blocks(dom.reverse_postorder());
  }
  LoweringContext ctx = LoweringContext::build(*m, layout);
  RegAllocStats total{};
  for (const auto& fn : m->functions()) {
    if (fn->is_builtin()) continue;
    IselResult sel = select_instructions(*fn, ctx);
    eliminate_phis(sel.mf, sel.phi_copies);
    const RegAllocStats stats = allocate_registers(sel.mf);
    total.vregs += stats.vregs;
    total.spilled += stats.spilled;
  }
  EXPECT_GT(total.vregs, 20u);
  // 15+ simultaneously-live doubles vs 12 allocatable XMM: must spill.
  EXPECT_GT(total.spilled, 0u);
}

TEST(Liveness, IntervalsCoverUsesAndCrossCalls) {
  // g is recursive so the inliner leaves the call in f intact.
  auto m = mc::compile_to_ir(R"(
    int g(int x) { if (x <= 0) return 1; return g(x - 1) + x; }
    int f(int a) {
      int kept = a * 3;
      int r = g(a);
      return kept + r;
    }
    int main() { return f(5); }
  )", "t");
  opt::run_standard_pipeline(*m);
  machine::GlobalLayout layout(*m);
  LoweringContext ctx = LoweringContext::build(*m, layout);
  ir::Function* f = const_cast<ir::Function*>(m->find_function("f"));
  split_critical_edges(*f);
  ir::DominatorTree dom(*f);
  f->reorder_blocks(dom.reverse_postorder());
  IselResult sel = select_instructions(*f, ctx);
  eliminate_phis(sel.mf, sel.phi_copies);
  const LivenessResult live = compute_liveness(sel.mf);
  EXPECT_GT(live.intervals.size(), 0u);
  bool some_cross_call = false;
  for (const auto& iv : live.intervals) some_cross_call |= iv.crosses_call;
  EXPECT_TRUE(some_cross_call);  // `kept` lives across the call to g
  for (const auto& iv : live.intervals) EXPECT_LE(iv.start, iv.end);
}

TEST(PhiElim, SwapCycleHandledWithTemp) {
  // Classic swap: both phis exchange values each iteration. Wrong phi
  // lowering (sequential copies without a temp) breaks this.
  auto prog = compile(R"(
    int main() {
      int a = 1; int b = 2; int i;
      for (i = 0; i < 5; i++) { int t = a; a = b; b = t; }
      return a * 10 + b;  // 5 swaps: a=2,b=1
    }
  )");
  EXPECT_EQ(prog.run_ir().exit_value, 21);
  EXPECT_EQ(prog.run_asm().exit_value, 21);
}

TEST(Backend, DoubleConstantsComeFromPool) {
  auto prog = compile(R"(
    double f() { return 3.25; }
    int main() { return (int)(f() * 4.0); }
  )");
  // Double literals load from the constant pool: movsd xmm, [abs].
  bool pool_load = false;
  for (const Inst& i : prog.program().code)
    if (i.op == Op::MovsdRM && !i.mem.has_base()) pool_load = true;
  EXPECT_TRUE(pool_load);
  EXPECT_EQ(prog.run_asm().exit_value, 13);
}

TEST(Backend, DataImageEndsAtOrBelowTheHeap) {
  // 16 711 680 bytes lie between the global base and the heap. The raw
  // sizes fit in every program here; alignment padding and the double
  // pool decide. a@0, b@8, c@16, d@24: d[2088957] ends at the heap.
  EXPECT_NO_THROW(compile(
      "char a; long b[1]; char c; long d[2088957]; "
      "int main() { return 0; }"));
  EXPECT_THROW(compile("char a; long b[1]; char c; long d[2088958]; "
                       "int main() { return 0; }"),
               mc::CompileError);
  // g@24, d@32: the globals end at the heap, and a double literal's pool
  // slot would be the heap's first word.
  EXPECT_NO_THROW(compile(
      "char a; long b[1]; char c; double g; long d[2088956]; "
      "int main() { return (int)g; }"));
  EXPECT_THROW(compile("char a; long b[1]; char c; double g; long d[2088956]; "
                       "int main() { return (int)(g * 2.5); }"),
               mc::CompileError);
}

TEST(Backend, EmitResolvesCallsAndLabels) {
  auto prog = compile(R"(
    int a() { return 1; }
    int b() { return a() + 1; }
    int c() { return b() + 1; }
    int main() { return c(); }
  )");
  for (const Inst& i : prog.program().code) {
    if (i.op == Op::Call) {
      EXPECT_GE(i.target, 0);
      EXPECT_LT(static_cast<std::size_t>(i.target), prog.program().code.size());
    }
    if (i.op == Op::Jmp || i.op == Op::Jcc) {
      EXPECT_GE(i.target, 0);
      EXPECT_LT(static_cast<std::size_t>(i.target), prog.program().code.size());
    }
  }
  EXPECT_EQ(prog.run_asm().exit_value, 3);
}

TEST(Backend, NoVirtualRegistersSurviveEmission) {
  auto prog = compile(R"(
    int main() { int s=0; int i; for(i=0;i<10;i++) s+=i*i; return s & 0x7f; }
  )");
  for (const Inst& i : prog.program().code) {
    EXPECT_FALSE(x86::is_virtual(i.dst));
    EXPECT_FALSE(x86::is_virtual(i.src));
    EXPECT_FALSE(x86::is_virtual(i.mem.base) && i.mem.base != x86::kNoReg);
    EXPECT_FALSE(x86::is_virtual(i.mem.index) && i.mem.index != x86::kNoReg);
  }
}

// ---------------------------------------------------------------------------
// Differential execution: IR interpreter vs simulator must agree.

class Differential : public ::testing::TestWithParam<const char*> {};

TEST_P(Differential, SameOutputAndExit) {
  auto prog = compile(GetParam());
  const auto r_ir = prog.run_ir();
  const auto r_asm = prog.run_asm();
  ASSERT_TRUE(r_ir.completed());
  ASSERT_TRUE(r_asm.completed());
  EXPECT_EQ(r_ir.output, r_asm.output);
  EXPECT_EQ(r_ir.exit_value, r_asm.exit_value);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, Differential,
    ::testing::Values(
        // Narrow-type arithmetic and sign handling.
        R"(int main() { char c = -100; c -= 100; short s = c; return s == 56 ? 1 : (int)s; })",
        // Deep recursion.
        R"(int ack(int m, int n) {
             if (m == 0) return n + 1;
             if (n == 0) return ack(m - 1, 1);
             return ack(m - 1, ack(m, n - 1)); }
           int main() { return ack(2, 3); })",
        // Heap-linked structures.
        R"(struct N { long v; struct N* next; };
           int main() {
             struct N* head = 0; int i;
             for (i = 1; i <= 10; i++) {
               struct N* n = (struct N*)malloc(sizeof(struct N));
               n->v = i * i; n->next = head; head = n;
             }
             long s = 0;
             while (head != 0) { s += head->v; head = head->next; }
             print_int(s); return 0; })",
        // Doubles with comparisons and conversions.
        R"(int main() {
             double x = 0.1; int n = 0;
             while (x < 100.0) { x = x * 1.7 + 0.3; n++; }
             print_int(n); print_double(x); return 0; })",
        // Mixed int widths through memory.
        R"(short tbl[64];
           int main() {
             int i; for (i = 0; i < 64; i++) tbl[i] = (short)(i * 1000);
             long s = 0; for (i = 0; i < 64; i++) s += tbl[i];
             print_int(s); return 0; })",
        // Logical operators with side effects.
        R"(int hits = 0;
           int probe(int v) { hits++; return v; }
           int main() {
             int a = probe(0) && probe(1);
             int b = probe(1) || probe(0);
             int c = probe(1) && probe(1);
             print_int(hits); print_int(a + b * 10 + c * 100); return 0; })",
        // Shifts, masks, ternaries.
        R"(int main() {
             long h = 0x9e3779b97f4a7c15L; int i; long acc = 0;
             for (i = 0; i < 32; i++) {
               acc += (h >> i) & 0xff;
               acc += (h << i) & 0xffff;
               acc = acc > 100000 ? acc - 77777 : acc;
             }
             print_int(acc); return 0; })",
        // 2-D array sweep with function calls in the inner loop.
        R"(double cell(int r, int c) { return (double)(r * 31 + c); }
           int main() {
             double sum = 0.0; int r; int c;
             for (r = 0; r < 12; r++)
               for (c = 0; c < 12; c++)
                 sum = sum + cell(r, c) * 0.25;
             print_double(sum); return 0; })",
        // String/char processing.
        R"(int main() {
             char* s = "the quick brown fox jumps over the lazy dog";
             int counts[26]; int i;
             for (i = 0; i < 26; i++) counts[i] = 0;
             i = 0;
             while (s[i] != 0) {
               if (s[i] >= 'a' && s[i] <= 'z') counts[s[i] - 'a']++;
               i++;
             }
             int distinct = 0;
             for (i = 0; i < 26; i++) if (counts[i] > 0) distinct++;
             print_int(distinct); return 0; })"));

TEST(BackendTraps, AsmCrashesMatchIrCrashes) {
  // Programs that trap must trap in BOTH engines with the same kind.
  const char* trapping[] = {
      "int main() { int z = 0; return 7 / z; }",
      "int main() { long a = 0x999999999; int* p = (int*)a; return *p; }",
  };
  for (const char* src : trapping) {
    auto prog = compile(src);
    const auto r_ir = prog.run_ir();
    const auto r_asm = prog.run_asm();
    EXPECT_TRUE(r_ir.trapped) << src;
    EXPECT_TRUE(r_asm.trapped) << src;
    EXPECT_EQ(r_ir.trap, r_asm.trap) << src;
  }
}

}  // namespace
}  // namespace faultlab::backend
