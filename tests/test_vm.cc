// IR interpreter tests: instruction semantics (edge cases), traps, hooks,
// activation-relevant bookkeeping.
#include <gtest/gtest.h>

#include <stdexcept>

#include "frontend/codegen.h"
#include "ir/irbuilder.h"
#include "support/bitutil.h"
#include "vm/interpreter.h"

namespace faultlab::vm {
namespace {

using ir::IRBuilder;
using ir::Module;
using ir::Opcode;
using ir::Value;

/// Builds `i64 main() { ret <op>(a, b) }` over i64 and runs it.
std::int64_t eval_binary64(Opcode op, std::int64_t a, std::int64_t b) {
  Module m("t");
  auto& t = m.types();
  auto* f = m.create_function(t.func_type(t.i64(), {}), "main");
  IRBuilder builder(m);
  builder.set_insert_point(f->create_block("entry"));
  builder.ret(builder.binary(op, m.const_i64(a), m.const_i64(b)));
  f->renumber();
  Interpreter vm(m);
  auto r = vm.run();
  EXPECT_TRUE(r.completed());
  return r.exit_value;
}

TEST(VmSemantics, WrappingArithmetic64) {
  EXPECT_EQ(eval_binary64(Opcode::Add, INT64_MAX, 1), INT64_MIN);
  EXPECT_EQ(eval_binary64(Opcode::Sub, INT64_MIN, 1), INT64_MAX);
  EXPECT_EQ(eval_binary64(Opcode::Mul, 1LL << 62, 4), 0);
}

TEST(VmSemantics, SignedDivisionTruncates) {
  EXPECT_EQ(eval_binary64(Opcode::SDiv, -7, 2), -3);
  EXPECT_EQ(eval_binary64(Opcode::SRem, -7, 2), -1);
  EXPECT_EQ(eval_binary64(Opcode::SDiv, 7, -2), -3);
}

TEST(VmSemantics, ShiftCountMasking) {
  // x86-style: 64-bit shifts mask the count by 63.
  EXPECT_EQ(eval_binary64(Opcode::Shl, 1, 64), 1);  // 64 & 63 == 0
  EXPECT_EQ(eval_binary64(Opcode::Shl, 1, 65), 2);
  EXPECT_EQ(eval_binary64(Opcode::AShr, -8, 1), -4);
  EXPECT_EQ(static_cast<std::uint64_t>(eval_binary64(Opcode::LShr, -8, 1)),
            0x7ffffffffffffffcull);
}

TEST(VmSemantics, NarrowWidthWrapping) {
  Module m("t");
  auto& t = m.types();
  auto* f = m.create_function(t.func_type(t.i64(), {}), "main");
  IRBuilder b(m);
  b.set_insert_point(f->create_block("entry"));
  // (200 + 100) as i8 = 300 & 0xff = 44; sext to i64 = 44.
  Value* sum = b.add(m.const_int(t.i8(), 200), m.const_int(t.i8(), 100));
  b.ret(b.cast(Opcode::SExt, sum, t.i64()));
  f->renumber();
  Interpreter vm(m);
  EXPECT_EQ(vm.run().exit_value, 44);
}

TEST(VmTraps, DivisionByZeroAndOverflow) {
  {
    Module m("t");
    auto& t = m.types();
    auto* f = m.create_function(t.func_type(t.i64(), {}), "main");
    IRBuilder b(m);
    b.set_insert_point(f->create_block("entry"));
    b.ret(b.binary(Opcode::SDiv, m.const_i64(1), m.const_i64(0)));
    f->renumber();
    Interpreter vm(m);
    auto r = vm.run();
    EXPECT_TRUE(r.trapped);
    EXPECT_EQ(r.trap, machine::TrapKind::DivideByZero);
  }
  // INT64_MIN / -1 overflows: x86 #DE.
  EXPECT_TRUE([&] {
    Module m("t");
    auto& t = m.types();
    auto* f = m.create_function(t.func_type(t.i64(), {}), "main");
    IRBuilder b(m);
    b.set_insert_point(f->create_block("entry"));
    b.ret(b.binary(Opcode::SDiv, m.const_i64(INT64_MIN), m.const_i64(-1)));
    f->renumber();
    Interpreter vm(m);
    return vm.run().trapped;
  }());
}

TEST(VmTraps, StackOverflowOnRunawayRecursion) {
  auto m = mc::compile_to_ir(
      "int f(int n) { int big[200]; big[0] = n; return f(n + 1) + big[0]; }"
      "int main() { return f(0); }",
      "t");
  Interpreter vm(*m);
  auto r = vm.run();
  EXPECT_TRUE(r.trapped);
  EXPECT_EQ(r.trap, machine::TrapKind::StackOverflow);
}

TEST(VmTraps, WildPointerTraps) {
  auto m = mc::compile_to_ir(
      "int main() { long x = 0x123456789; int* p = (int*)x; return *p; }",
      "t");
  Interpreter vm(*m);
  auto r = vm.run();
  EXPECT_TRUE(r.trapped);
  EXPECT_EQ(r.trap, machine::TrapKind::UnmappedAccess);
}

TEST(VmLimits, TimeoutOnInfiniteLoop) {
  auto m = mc::compile_to_ir("int main() { while (1) {} return 0; }", "t");
  Interpreter vm(*m);
  RunLimits limits;
  limits.max_instructions = 10'000;
  auto r = vm.run("main", limits);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.trapped);
}

TEST(VmSemantics, FloatingPointSpecials) {
  auto m = mc::compile_to_ir(R"(
    int main() {
      double inf = 1.0 / 0.0;       // IEEE: no trap
      double nan = inf - inf;
      print_int(inf > 1e308);
      print_int(nan == nan);        // NaN compares false (ordered)
      print_int(nan < 1.0);
      return 0;
    })", "t");
  Interpreter vm(*m);
  auto r = vm.run();
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.output, "1\n0\n0\n");
}

TEST(VmSemantics, FpToSiSaturatesLikeCvttsd2si) {
  auto m = mc::compile_to_ir(R"(
    int main() {
      double big = 1e300;
      long x = (long)big;
      print_int(x);
      double nan = (1.0/0.0) - (1.0/0.0);
      print_int((long)nan);
      return 0;
    })", "t");
  Interpreter vm(*m);
  auto r = vm.run();
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.output, "-9223372036854775808\n-9223372036854775808\n");
}

// ---------------------------------------------------------------------------
// Hook machinery (what the LLFI injector builds on).

struct CountingHook final : ExecHook {
  std::uint64_t instructions = 0;
  std::uint64_t results = 0;
  std::uint64_t reads = 0;
  void on_instruction(const ir::Instruction&) override { ++instructions; }
  std::uint64_t on_result(const DynValueId&, std::uint64_t raw) override {
    ++results;
    return raw;
  }
  void on_operand_read(const DynValueId&, const ir::Instruction&) override {
    ++reads;
  }
};

TEST(VmHooks, ObservesEveryInstructionAndRead) {
  auto m = mc::compile_to_ir(
      "int main() { int s = 0; int i; for (i=0;i<5;i++) s += i; return s; }",
      "t");
  CountingHook hook;
  Interpreter vm(*m, &hook);
  auto r = vm.run();
  EXPECT_EQ(hook.instructions, r.dynamic_instructions);
  EXPECT_GT(hook.results, 0u);
  EXPECT_GT(hook.reads, 0u);
}

/// Corrupting a result through the hook must change downstream behaviour.
struct FlipOnceHook final : ExecHook {
  std::uint64_t countdown;
  unsigned bit;
  bool fired = false;
  DynValueId injected{};
  bool read_back = false;

  FlipOnceHook(std::uint64_t n, unsigned b) : countdown(n), bit(b) {}

  std::uint64_t on_result(const DynValueId& id, std::uint64_t raw) override {
    if (fired || countdown-- != 0) return raw;
    fired = true;
    injected = id;
    return flip_bit(raw, bit);
  }
  void on_operand_read(const DynValueId& id, const ir::Instruction&) override {
    if (fired && id == injected) read_back = true;
  }
};

TEST(VmHooks, ResultRewriteIsVisibleAndTracked) {
  // Unoptimized module: plenty of live results to corrupt.
  auto m2 = mc::compile_to_ir(
      "int main() { int a = 3; int b = a + 4; return b * 2; }", "t");
  FlipOnceHook hook(2, 0);  // flip bit 0 of the third produced result
  Interpreter vm(*m2, &hook);
  auto r = vm.run();
  EXPECT_TRUE(hook.fired);
  if (hook.read_back) {
    // Behaviour changed somewhere downstream: exit differs from golden 14.
    Interpreter golden(*m2);
    EXPECT_NE(r.exit_value, golden.run().exit_value);
  }
}

TEST(VmDeterminism, RepeatedRunsIdentical) {
  auto m = mc::compile_to_ir(R"(
    int main() {
      long h = 7; int i;
      for (i = 0; i < 100; i++) h = h * 31 + i;
      print_int(h);
      return 0;
    })", "t");
  Interpreter vm(*m);
  const auto r1 = vm.run();
  const auto r2 = vm.run();
  EXPECT_EQ(r1.output, r2.output);
  EXPECT_EQ(r1.dynamic_instructions, r2.dynamic_instructions);
}

// ---------------------------------------------------------------------------
// Snapshot / resume (what the checkpointed trial execution builds on).

TEST(VmSnapshot, ResumeReproducesDirectRunFromEverySnapshot) {
  auto m = mc::compile_to_ir(R"(
    int main() {
      int s = 0; int i;
      print_int(12345);
      for (i = 0; i < 2000; i++) s += i * 3 + (s >> 5);
      print_int(s);
      return s & 127;
    })", "t");
  Interpreter vm(*m);
  const auto golden = vm.run();
  ASSERT_TRUE(golden.completed());

  std::vector<Snapshot> snaps;
  RunLimits capture;
  capture.capture_stride = 3'000;
  capture.capture_sink = [&](std::uint64_t, const auto& take) {
    snaps.push_back(take());
    return capture.capture_stride;
  };
  Interpreter recorder(*m);
  const auto recorded = recorder.run("main", capture);
  ASSERT_TRUE(recorded.completed());
  EXPECT_EQ(recorded.output, golden.output);
  EXPECT_EQ(recorded.dynamic_instructions, golden.dynamic_instructions);
  ASSERT_GE(snaps.size(), 3u);

  for (const Snapshot& snap : snaps) {
    // A fresh interpreter resumes any snapshot of the same module; the
    // result must report whole-logical-run totals including the prefix.
    Interpreter resumer(*m);
    resumer.restore(snap);
    const auto r = resumer.resume();
    EXPECT_TRUE(r.completed());
    EXPECT_EQ(r.exit_value, golden.exit_value);
    EXPECT_EQ(r.output, golden.output);
    EXPECT_EQ(r.dynamic_instructions, golden.dynamic_instructions);
  }
}

TEST(VmSnapshot, ResumePreservesCallFramesAndHeap) {
  auto m = mc::compile_to_ir(R"(
    int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
    int main() {
      int* buf = (int*)malloc(40);
      int i;
      for (i = 0; i < 10; i++) buf[i] = fib(i);
      for (i = 0; i < 10; i++) print_int(buf[i]);
      free((char*)buf);
      return 0;
    })", "t");
  Interpreter vm(*m);
  const auto golden = vm.run();
  ASSERT_TRUE(golden.completed());

  std::vector<Snapshot> snaps;
  RunLimits capture;
  capture.capture_stride = 500;  // dense: some land mid-recursion
  capture.capture_sink = [&](std::uint64_t, const auto& take) {
    snaps.push_back(take());
    return capture.capture_stride;
  };
  Interpreter recorder(*m);
  ASSERT_TRUE(recorder.run("main", capture).completed());
  ASSERT_GE(snaps.size(), 2u);

  bool saw_deep_stack = false;
  for (const Snapshot& snap : snaps) {
    saw_deep_stack = saw_deep_stack || snap.frames.size() > 2;
    Interpreter resumer(*m);
    resumer.restore(snap);
    const auto r = resumer.resume();
    EXPECT_TRUE(r.completed());
    EXPECT_EQ(r.output, golden.output);
    EXPECT_EQ(r.dynamic_instructions, golden.dynamic_instructions);
  }
  EXPECT_TRUE(saw_deep_stack);  // at least one snapshot inside fib()
}

TEST(VmSnapshot, SnapshotReusableAndIsolatedAcrossResumes) {
  auto m = mc::compile_to_ir(R"(
    int g;
    int main() {
      int i;
      for (i = 0; i < 1000; i++) g = g * 3 + i;
      print_int(g);
      return 0;
    })", "t");
  std::vector<Snapshot> snaps;
  RunLimits capture;
  capture.capture_stride = 2'000;
  capture.capture_sink = [&](std::uint64_t, const auto& take) {
    snaps.push_back(take());
    return capture.capture_stride;
  };
  Interpreter recorder(*m);
  const auto golden = recorder.run("main", capture);
  ASSERT_TRUE(golden.completed());
  ASSERT_GE(snaps.size(), 1u);

  // Resuming twice from the same snapshot must give the same answer: the
  // first resume's writes must not leak into the shared CoW pages.
  Interpreter a(*m);
  Interpreter b(*m);
  EXPECT_THROW(a.resume(), std::logic_error);     // nothing restored yet
  EXPECT_FALSE(a.restore(snaps.front()).delta);  // first restore is full
  const auto ra = a.resume();
  EXPECT_THROW(a.resume(), std::logic_error);  // one resume per restore
  b.restore(snaps.front());
  const auto rb = b.resume();
  EXPECT_EQ(ra.output, golden.output);
  EXPECT_EQ(rb.output, golden.output);
  EXPECT_EQ(ra.dynamic_instructions, rb.dynamic_instructions);
  // Restoring the same snapshot again rewrites only the dirtied pages.
  EXPECT_TRUE(a.restore(snaps.front()).delta);
  EXPECT_EQ(a.resume().output, golden.output);
}

TEST(VmSnapshot, ResumedRunHonoursTotalInstructionBudget) {
  auto m = mc::compile_to_ir("int main() { while (1) {} return 0; }", "t");
  std::vector<Snapshot> snaps;
  RunLimits capture;
  capture.capture_stride = 5'000;
  capture.max_instructions = 12'000;
  capture.capture_sink = [&](std::uint64_t, const auto& take) {
    snaps.push_back(take());
    return capture.capture_stride;
  };
  Interpreter recorder(*m);
  EXPECT_TRUE(recorder.run("main", capture).timed_out);
  ASSERT_GE(snaps.size(), 1u);
  ASSERT_GE(snaps.front().executed, 5'000u);

  // The budget is on *total* instructions including the skipped prefix: a
  // resumed trial must stop where the from-scratch run would, not
  // `max_instructions` later.
  Interpreter resumer(*m);
  RunLimits limits;
  limits.max_instructions = 8'000;
  resumer.restore(snaps.front());
  const auto r = resumer.resume(limits);
  EXPECT_TRUE(r.timed_out);
  EXPECT_LE(r.dynamic_instructions, 8'000u + 1);
  EXPECT_GT(r.dynamic_instructions, snaps.front().executed);
}

TEST(VmApi, MissingEntryThrows) {
  auto m = mc::compile_to_ir("int main() { return 0; }", "t");
  Interpreter vm(*m);
  EXPECT_THROW(vm.run("not_there"), std::invalid_argument);
}

}  // namespace
}  // namespace faultlab::vm
