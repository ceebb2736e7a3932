// x86 ISA and simulator tests: structural queries, flag semantics,
// hand-assembled program execution, categories, hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "machine/memory.h"
#include "support/bitutil.h"
#include "x86/category.h"
#include "x86/printer.h"
#include "x86/simulator.h"

namespace faultlab::x86 {
namespace {

Inst mov_ri(RegId dst, std::int64_t imm, unsigned w = 8) {
  Inst i;
  i.op = Op::MovRI;
  i.dst = dst;
  i.imm = imm;
  i.src_kind = SrcKind::Imm;
  i.width = static_cast<std::uint8_t>(w);
  return i;
}

Inst alu_rr(Op op, RegId dst, RegId src, unsigned w = 8) {
  Inst i;
  i.op = op;
  i.dst = dst;
  i.src = src;
  i.src_kind = SrcKind::Reg;
  i.width = static_cast<std::uint8_t>(w);
  return i;
}

Inst alu_ri(Op op, RegId dst, std::int64_t imm, unsigned w = 8) {
  Inst i;
  i.op = op;
  i.dst = dst;
  i.imm = imm;
  i.src_kind = SrcKind::Imm;
  i.width = static_cast<std::uint8_t>(w);
  return i;
}

Inst ret() {
  Inst i;
  i.op = Op::Ret;
  return i;
}

/// Wraps a raw instruction sequence as `main` and runs it.
SimResult run_program(std::vector<Inst> code, SimHook* hook = nullptr) {
  Program p;
  p.code = std::move(code);
  p.functions.push_back({"main", 0, p.code.size()});
  p.entry_index = 0;
  p.data_size = 0;
  Simulator sim(p, hook);
  return sim.run();
}

TEST(Isa, CondFlagBitsMatchX86) {
  EXPECT_EQ(cond_flag_bits(Cond::E), std::vector<unsigned>{kFlagZF});
  EXPECT_EQ(cond_flag_bits(Cond::L),
            (std::vector<unsigned>{kFlagSF, kFlagOF}));
  EXPECT_EQ(cond_flag_bits(Cond::B), std::vector<unsigned>{kFlagCF});
  EXPECT_EQ(cond_flag_bits(Cond::A),
            (std::vector<unsigned>{kFlagCF, kFlagZF}));
}

TEST(Isa, CondHolds) {
  const std::uint64_t zf = 1ull << kFlagZF;
  const std::uint64_t cf = 1ull << kFlagCF;
  const std::uint64_t sf = 1ull << kFlagSF;
  const std::uint64_t of = 1ull << kFlagOF;
  EXPECT_TRUE(cond_holds(Cond::E, zf));
  EXPECT_FALSE(cond_holds(Cond::NE, zf));
  EXPECT_TRUE(cond_holds(Cond::L, sf));      // SF != OF
  EXPECT_TRUE(cond_holds(Cond::L, of));
  EXPECT_FALSE(cond_holds(Cond::L, sf | of));
  EXPECT_TRUE(cond_holds(Cond::GE, 0));
  EXPECT_TRUE(cond_holds(Cond::B, cf));
  EXPECT_TRUE(cond_holds(Cond::A, 0));
  EXPECT_FALSE(cond_holds(Cond::A, cf));
  EXPECT_FALSE(cond_holds(Cond::A, zf));
}

TEST(Isa, DestRegAndReadsQueries) {
  Inst add = alu_rr(Op::Add, RCX, RDX, 8);
  EXPECT_EQ(dest_reg(add), RCX);
  std::vector<RegId> reads;
  collect_reads(add, reads);
  EXPECT_NE(std::find(reads.begin(), reads.end(), RCX), reads.end());
  EXPECT_NE(std::find(reads.begin(), reads.end(), RDX), reads.end());

  Inst store;
  store.op = Op::MovMR;
  store.dst = RSI;
  store.mem.base = RDI;
  EXPECT_EQ(dest_reg(store), kNoReg);
  reads.clear();
  collect_reads(store, reads);
  EXPECT_NE(std::find(reads.begin(), reads.end(), RSI), reads.end());
  EXPECT_NE(std::find(reads.begin(), reads.end(), RDI), reads.end());

  Inst cmp = alu_rr(Op::Cmp, RAX, RBX, 8);
  EXPECT_EQ(dest_reg(cmp), kNoReg);
  EXPECT_TRUE(writes_flags(cmp));
}

TEST(Isa, DestOverwriteWidths) {
  EXPECT_TRUE(dest_fully_overwrites(mov_ri(RAX, 1, 8)));
  EXPECT_TRUE(dest_fully_overwrites(mov_ri(RAX, 1, 4)));  // zero-extends
  EXPECT_FALSE(dest_fully_overwrites(mov_ri(RAX, 1, 1)));  // merges
  Inst setcc;
  setcc.op = Op::Setcc;
  setcc.dst = RAX;
  EXPECT_FALSE(dest_fully_overwrites(setcc));
}

TEST(Simulator, MovAndZeroExtension32) {
  auto r = run_program({
      mov_ri(RAX, -1, 8),          // rax = all ones
      mov_ri(RCX, 0x11223344, 4),  // 32-bit write
      alu_rr(Op::MovRR, RAX, RCX, 4),
      ret(),
  });
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.exit_value, 0x11223344);
}

TEST(Simulator, FlagsFromCmpAndJcc) {
  // if (3 < 5) rax = 1 else rax = 2
  Inst cmp = alu_ri(Op::Cmp, RCX, 5, 8);
  Inst jl;
  jl.op = Op::Jcc;
  jl.cond = Cond::L;
  jl.target = 5;
  Inst jmp;
  jmp.op = Op::Jmp;
  jmp.target = 7;  // to ret
  auto r = run_program({
      mov_ri(RCX, 3),        // 0
      cmp,                   // 1
      jl,                    // 2
      mov_ri(RAX, 2),        // 3
      jmp,                   // 4  (skip the then-branch)
      mov_ri(RAX, 1),        // 5
      jmp,                   // 6
      ret(),                 // 7
  });
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.exit_value, 1);
}

TEST(Simulator, SubSetsCarryAndOverflow) {
  struct Probe final : SimHook {
    std::uint64_t flags_after_cmp = 0;
    void on_after(std::size_t, const Inst& inst, MachineState& s) override {
      if (inst.op == Op::Cmp) flags_after_cmp = s.rflags;
    }
  } probe;
  // cmp 1, 2 -> borrow: CF set, result negative: SF set.
  auto r = run_program(
      {mov_ri(RCX, 1), alu_ri(Op::Cmp, RCX, 2, 8), ret()}, &probe);
  ASSERT_TRUE(r.completed());
  EXPECT_TRUE((probe.flags_after_cmp >> kFlagCF) & 1);
  EXPECT_TRUE((probe.flags_after_cmp >> kFlagSF) & 1);
  EXPECT_FALSE((probe.flags_after_cmp >> kFlagZF) & 1);
}

TEST(Simulator, StackPushPopRoundTrip) {
  Inst push;
  push.op = Op::Push;
  push.dst = RCX;
  Inst pop;
  pop.op = Op::Pop;
  pop.dst = RAX;
  auto r = run_program({mov_ri(RCX, 777), push, pop, ret()});
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.exit_value, 777);
}

TEST(Simulator, CorruptedReturnAddressTrapsAsInvalidJump) {
  // Overwrite the saved return address ([rsp]) then ret.
  Inst clobber;
  clobber.op = Op::MovMI;
  clobber.mem.base = RSP;
  clobber.imm = 0x1234;
  clobber.width = 8;
  auto r = run_program({clobber, ret()});
  EXPECT_TRUE(r.trapped);
  EXPECT_EQ(r.trap, machine::TrapKind::InvalidJump);
}

TEST(Simulator, DivideByZeroTraps) {
  auto r = run_program({
      mov_ri(RAX, 10),
      mov_ri(RCX, 0),
      alu_rr(Op::Idiv, RAX, RCX, 8),
      ret(),
  });
  EXPECT_TRUE(r.trapped);
  EXPECT_EQ(r.trap, machine::TrapKind::DivideByZero);
}

TEST(Simulator, SseScalarArithmetic) {
  // xmm1 = 3.0; xmm2 = 4.0; xmm1 = xmm1*xmm1 + xmm2*xmm2; rax = cvttsd2si
  const RegId x1 = kXmmBase + 1, x2 = kXmmBase + 2;
  Inst load1 = mov_ri(RBX, static_cast<std::int64_t>(bits_of(3.0)));
  Inst movq1;
  movq1.op = Op::MovqXR;
  movq1.dst = x1;
  movq1.src = RBX;
  movq1.src_kind = SrcKind::Reg;
  Inst load2 = mov_ri(RDX, static_cast<std::int64_t>(bits_of(4.0)));
  Inst movq2;
  movq2.op = Op::MovqXR;
  movq2.dst = x2;
  movq2.src = RDX;
  movq2.src_kind = SrcKind::Reg;
  Inst sq1 = alu_rr(Op::Mulsd, x1, x1);
  Inst sq2 = alu_rr(Op::Mulsd, x2, x2);
  Inst sum = alu_rr(Op::Addsd, x1, x2);
  Inst cvt;
  cvt.op = Op::Cvttsd2si;
  cvt.dst = RAX;
  cvt.src = x1;
  cvt.src_kind = SrcKind::Reg;
  cvt.width = 8;
  auto r = run_program({load1, movq1, load2, movq2, sq1, sq2, sum, cvt, ret()});
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.exit_value, 25);
}

TEST(Simulator, UcomisdNaNSetsAllThree) {
  struct Probe final : SimHook {
    std::uint64_t flags = 0;
    void on_after(std::size_t, const Inst& inst, MachineState& s) override {
      if (inst.op == Op::Ucomisd) flags = s.rflags;
    }
  } probe;
  const RegId x1 = kXmmBase + 1;
  Inst nan_bits = mov_ri(RBX, static_cast<std::int64_t>(
                                   bits_of(std::nan(""))));
  Inst movq;
  movq.op = Op::MovqXR;
  movq.dst = x1;
  movq.src = RBX;
  movq.src_kind = SrcKind::Reg;
  Inst cmp = alu_rr(Op::Ucomisd, x1, x1);
  auto r = run_program({nan_bits, movq, cmp, ret()}, &probe);
  ASSERT_TRUE(r.completed());
  EXPECT_TRUE((probe.flags >> kFlagZF) & 1);
  EXPECT_TRUE((probe.flags >> kFlagPF) & 1);
  EXPECT_TRUE((probe.flags >> kFlagCF) & 1);
  // Both ordered predicates are false when unordered (NaN).
  EXPECT_FALSE(cond_holds(Cond::FpEq, probe.flags));
  EXPECT_FALSE(cond_holds(Cond::FpNe, probe.flags));
}

TEST(Simulator, TimeoutDetection) {
  Inst spin;
  spin.op = Op::Jmp;
  spin.target = 0;
  Program p;
  p.code = {spin};
  p.functions.push_back({"main", 0, 1});
  p.entry_index = 0;
  Simulator sim(p);
  SimLimits limits;
  limits.max_instructions = 1000;
  auto r = sim.run(limits);
  EXPECT_TRUE(r.timed_out);
}

// ---------------------------------------------------------------------------
// Snapshot / resume (what PINFI's checkpointed trial execution builds on).

/// sum(0..n-1) via a cmp/jcc loop: enough dynamic instructions to land
/// several snapshots mid-loop.
Program sum_loop_program(std::int64_t n) {
  Inst cmp = alu_ri(Op::Cmp, RCX, n, 8);
  Inst jge;
  jge.op = Op::Jcc;
  jge.cond = Cond::GE;
  jge.target = 7;
  Inst body = alu_rr(Op::Add, RAX, RCX, 8);
  Inst step = alu_ri(Op::Add, RCX, 1, 8);
  Inst back;
  back.op = Op::Jmp;
  back.target = 2;
  Program p;
  p.code = {mov_ri(RCX, 0), mov_ri(RAX, 0), cmp, jge, body, step, back, ret()};
  p.functions.push_back({"main", 0, p.code.size()});
  p.entry_index = 0;
  p.data_size = 0;
  return p;
}

TEST(SimSnapshotTest, ResumeReproducesDirectRunFromEverySnapshot) {
  const Program p = sum_loop_program(10'000);
  Simulator direct(p);
  const SimResult golden = direct.run();
  ASSERT_TRUE(golden.completed());
  EXPECT_EQ(golden.exit_value, 10'000LL * 9'999 / 2);

  std::vector<SimSnapshot> snaps;
  SimLimits capture;
  capture.capture_stride = 7'000;
  capture.capture_sink = [&](std::uint64_t, const auto& take) {
    snaps.push_back(take());
    return capture.capture_stride;
  };
  Simulator recorder(p);
  const SimResult recorded = recorder.run(capture);
  ASSERT_TRUE(recorded.completed());
  EXPECT_EQ(recorded.exit_value, golden.exit_value);
  EXPECT_EQ(recorded.dynamic_instructions, golden.dynamic_instructions);
  ASSERT_GE(snaps.size(), 3u);

  for (const SimSnapshot& snap : snaps) {
    Simulator resumer(p);
    resumer.restore(snap);
    const SimResult r = resumer.resume();
    EXPECT_TRUE(r.completed());
    EXPECT_EQ(r.exit_value, golden.exit_value);
    EXPECT_EQ(r.dynamic_instructions, golden.dynamic_instructions);
  }
}

TEST(SimSnapshotTest, SnapshotReusableAcrossResumes) {
  const Program p = sum_loop_program(5'000);
  std::vector<SimSnapshot> snaps;
  SimLimits capture;
  capture.capture_stride = 4'000;
  capture.capture_sink = [&](std::uint64_t, const auto& take) {
    snaps.push_back(take());
    return capture.capture_stride;
  };
  Simulator recorder(p);
  const SimResult golden = recorder.run(capture);
  ASSERT_TRUE(golden.completed());
  ASSERT_GE(snaps.size(), 1u);

  Simulator a(p);
  Simulator b(p);
  EXPECT_THROW(a.resume(), std::logic_error);     // nothing restored yet
  EXPECT_FALSE(a.restore(snaps.front()).delta);  // first restore is full
  const SimResult ra = a.resume();
  EXPECT_THROW(a.resume(), std::logic_error);  // one resume per restore
  b.restore(snaps.front());
  const SimResult rb = b.resume();
  EXPECT_EQ(ra.exit_value, golden.exit_value);
  EXPECT_EQ(rb.exit_value, golden.exit_value);
  EXPECT_EQ(ra.dynamic_instructions, rb.dynamic_instructions);
  // Restoring the same snapshot again rewrites only the dirtied pages.
  EXPECT_TRUE(a.restore(snaps.front()).delta);
  EXPECT_EQ(a.resume().exit_value, golden.exit_value);
}

TEST(SimSnapshotTest, ResumedRunHonoursTotalInstructionBudget) {
  Inst spin;
  spin.op = Op::Jmp;
  spin.target = 0;
  Program p;
  p.code = {spin};
  p.functions.push_back({"main", 0, 1});
  p.entry_index = 0;

  std::vector<SimSnapshot> snaps;
  SimLimits capture;
  capture.capture_stride = 500;
  capture.max_instructions = 1'200;
  capture.capture_sink = [&](std::uint64_t, const auto& take) {
    snaps.push_back(take());
    return capture.capture_stride;
  };
  Simulator recorder(p);
  EXPECT_TRUE(recorder.run(capture).timed_out);
  ASSERT_GE(snaps.size(), 1u);
  ASSERT_GE(snaps.front().executed, 500u);

  // Budget counts the skipped prefix: the resumed run stops where a
  // from-scratch run would.
  Simulator resumer(p);
  SimLimits limits;
  limits.max_instructions = 800;
  resumer.restore(snaps.front());
  const SimResult r = resumer.resume(limits);
  EXPECT_TRUE(r.timed_out);
  EXPECT_LE(r.dynamic_instructions, 801u);
  EXPECT_GT(r.dynamic_instructions, snaps.front().executed);
}

TEST(Categories, Table3AsmSide) {
  Inst add = alu_rr(Op::Add, RAX, RCX, 8);
  Inst lea;
  lea.op = Op::Lea;
  lea.dst = RAX;
  lea.mem.base = RCX;
  Inst load;
  load.op = Op::MovRM;
  load.dst = RAX;
  load.mem.base = RCX;
  load.width = 8;
  Inst store;
  store.op = Op::MovMR;
  store.dst = RAX;
  store.mem.base = RCX;
  Inst cvt;
  cvt.op = Op::Cvtsi2sd;
  cvt.dst = kXmmBase + 1;
  cvt.src = RAX;
  Inst movzx;
  movzx.op = Op::MovzxRR;
  movzx.dst = RAX;
  movzx.src = RCX;
  movzx.src_width = 1;
  Inst cmp = alu_rr(Op::Cmp, RAX, RCX, 8);
  Inst jcc;
  jcc.op = Op::Jcc;

  using ir::Category;
  EXPECT_TRUE(asm_in_category(add, nullptr, Category::Arithmetic));
  EXPECT_TRUE(asm_in_category(lea, nullptr, Category::Arithmetic));
  EXPECT_TRUE(asm_in_category(cvt, nullptr, Category::Cast));
  EXPECT_FALSE(asm_in_category(movzx, nullptr, Category::Cast));  // DATAXFER
  EXPECT_TRUE(asm_in_category(load, nullptr, Category::Load));
  EXPECT_FALSE(asm_in_category(store, nullptr, Category::Load));
  EXPECT_FALSE(asm_in_category(store, nullptr, Category::All));  // no dest
  EXPECT_TRUE(asm_in_category(movzx, nullptr, Category::All));
  // cmp only counts when followed by a conditional branch.
  EXPECT_TRUE(asm_in_category(cmp, &jcc, Category::Cmp));
  EXPECT_FALSE(asm_in_category(cmp, &add, Category::Cmp));
  EXPECT_FALSE(asm_in_category(cmp, nullptr, Category::Cmp));
}

TEST(Printer, DisassemblesReadably) {
  Inst load;
  load.op = Op::MovRM;
  load.dst = RAX;
  load.mem.base = RBP;
  load.mem.index = RCX;
  load.mem.scale = 4;
  load.mem.disp = -24;
  load.width = 4;
  const std::string s = to_string(load);
  EXPECT_NE(s.find("mov"), std::string::npos);
  EXPECT_NE(s.find("eax"), std::string::npos);
  EXPECT_NE(s.find("rbp"), std::string::npos);
  EXPECT_NE(s.find("rcx*4"), std::string::npos);
}

TEST(ProgramAddressing, CodeAddressRoundTrip) {
  Program p;
  p.code.resize(10);
  const std::uint64_t addr = Program::address_of_index(7);
  EXPECT_EQ(p.index_of_address(addr), 7);
  EXPECT_EQ(p.index_of_address(addr + 1), -1);   // misaligned
  EXPECT_EQ(p.index_of_address(Program::address_of_index(10)), -1);  // oob
  EXPECT_EQ(p.index_of_address(0x1000), -1);     // below code base
}

}  // namespace
}  // namespace faultlab::x86
