// Trace-layer tests: micro-op decode round-trips for both engines,
// armed-window side exits and hook re-arming, dispatch-mode equivalence
// (trap PCs, observation schedules, checkpoint resume mid-trace), and the
// trace-cache counters behind the manifest's dispatch columns.
#include <gtest/gtest.h>

#include <vector>

#include "apps/apps.h"
#include "driver/pipeline.h"
#include "fault/campaign.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "machine/dispatch.h"
#include "machine/runtime.h"
#include "vm/interpreter.h"
#include "vm/trace.h"
#include "x86/simulator.h"
#include "x86/trace.h"

namespace faultlab {
namespace {

using machine::DispatchMode;

/// Restores the process dispatch mode on scope exit.
struct DispatchModeGuard {
  DispatchMode saved = machine::dispatch_mode();
  ~DispatchModeGuard() { machine::set_dispatch_mode(saved); }
};

// Long enough (~100k dynamic instructions) that checkpoints, re-arm
// windows, and fast-path stretches all occur; calls + arrays + nested
// loops keep several basic blocks hot.
const char* kKernel = R"(
  int a[128];
  int mix(int x, int y) { return (x ^ y) + (x >> 1); }
  int main() {
    int i; int j; long s = 0;
    for (i = 0; i < 128; i++) a[i] = i * 7;
    for (j = 0; j < 60; j++)
      for (i = 0; i < 128; i++)
        s = s + mix(a[i], a[(i + j) & 127]);
    print_int(s);
    return 0;
  }
)";

// Divides by zero mid-run (i == 5), several iterations into the loop, so
// the trap fires from inside a decoded trace.
const char* kTrapKernel = R"(
  int main() {
    int i; long s = 0;
    for (i = 0; i < 10; i = i + 1)
      s = s + 100 / (5 - i);
    print_int(s);
    return 0;
  }
)";

TEST(VmTraceDecode, DecodesEveryAppBlockOneToOne) {
  for (const auto& b : apps::all_benchmarks()) {
    auto prog = driver::compile(b.source, b.name);
    machine::GlobalLayout layout(prog.module());
    vm::TraceCache cache(layout);
    for (const auto& fn : prog.module().functions()) {
      if (fn->blocks().empty()) continue;  // declarations have no traces
      vm::TraceFunction& tf = cache.function(*fn);
      for (const auto& bb : fn->blocks()) {
        vm::TraceBlock* tb = cache.block(tf, bb.get());
        ASSERT_NE(tb, nullptr)
            << b.name << "/" << fn->name() << ": block failed to decode";
        // The uop array is 1:1 with the block's instructions (phi runs
        // collapse into PhiGroup + Pad fillers), so interpreter PCs map
        // onto trace PCs without translation.
        EXPECT_EQ(tb->uops.size(), bb->size());
      }
    }
  }
}

TEST(X86TraceDecode, MirrorsEveryInstruction) {
  for (const auto& b : apps::all_benchmarks()) {
    auto prog = driver::compile(b.source, b.name);
    const x86::Program& p = prog.program();
    x86::XTrace trace(p);
    ASSERT_EQ(trace.uops.size(), p.code.size() + 1);
    EXPECT_EQ(trace.uops.back().op, x86::XOp::TrapFetch);
    for (std::size_t i = 0; i < p.code.size(); ++i) {
      const x86::Inst& inst = p.code[i];
      const x86::XUOp& u = trace.uops[i];
      EXPECT_EQ(static_cast<unsigned>(u.op), static_cast<unsigned>(inst.op));
      EXPECT_EQ(u.inst, &inst);
      switch (inst.op) {
        case x86::Op::Jmp:
        case x86::Op::Jcc:
        case x86::Op::Call:
          EXPECT_EQ(u.target_ok,
                    inst.target >= 0 &&
                        static_cast<std::size_t>(inst.target) < p.code.size());
          if (u.target_ok) {
            EXPECT_EQ(u.target, static_cast<std::size_t>(inst.target));
          }
          EXPECT_EQ(u.ret_addr, x86::Program::address_of_index(i + 1));
          break;
        case x86::Op::CallBuiltin:
          if (inst.target >= 0 &&
              static_cast<std::size_t>(inst.target) < p.builtins.size())
            EXPECT_EQ(u.sig,
                      &p.builtins[static_cast<std::size_t>(inst.target)]);
          else
            EXPECT_EQ(u.sig, nullptr);
          break;
        default:
          break;
      }
    }
  }
}

TEST(X86TraceDecode, InvalidBranchTargetDecodesAsNotOk) {
  x86::Program p;
  x86::Inst jmp;
  jmp.op = x86::Op::Jmp;
  jmp.target = 99;  // out of range for a 1-instruction program
  p.code.push_back(jmp);
  x86::XTrace trace(p);
  EXPECT_EQ(trace.uops[0].op, x86::XOp::Jmp);
  EXPECT_FALSE(trace.uops[0].target_ok);
  EXPECT_EQ(trace.uops[1].op, x86::XOp::TrapFetch);
}

TEST(DispatchCounters, X86TraceLifecycleFeedsGauge) {
  auto prog = driver::compile(kKernel, "t");
  const auto before = machine::dispatch_counters_snapshot();
  {
    x86::XTrace trace(prog.program());
    const auto during = machine::dispatch_counters_snapshot();
    EXPECT_EQ(during.trace_decodes, before.trace_decodes + 1);
    EXPECT_EQ(during.decoded_blocks, before.decoded_blocks + 1);
  }
  const auto after = machine::dispatch_counters_snapshot();
  EXPECT_EQ(after.decoded_blocks, before.decoded_blocks);
}

TEST(DispatchCounters, ThreadedVmRunDecodesHitsAndFoldsGauge) {
  DispatchModeGuard guard;
  machine::set_dispatch_mode(DispatchMode::Threaded);
  auto prog = driver::compile(kKernel, "t");
  const auto before = machine::dispatch_counters_snapshot();
  {
    vm::Interpreter interp(prog.module());
    ASSERT_TRUE(interp.run("main").completed());
    const auto during = machine::dispatch_counters_snapshot();
    EXPECT_GT(during.trace_decodes, before.trace_decodes);
    EXPECT_GT(during.trace_hits, before.trace_hits);
    EXPECT_GT(during.decoded_blocks, before.decoded_blocks);
    // The resident cache decodes each block once: a second run must not
    // decode anything new.
    ASSERT_TRUE(interp.run("main").completed());
    const auto again = machine::dispatch_counters_snapshot();
    EXPECT_EQ(again.trace_decodes, during.trace_decodes);
    EXPECT_GT(again.trace_hits, during.trace_hits);
  }
  const auto after = machine::dispatch_counters_snapshot();
  EXPECT_EQ(after.decoded_blocks, before.decoded_blocks);
}

TEST(DispatchCounters, SwitchModeNeverTouchesTraces) {
  DispatchModeGuard guard;
  machine::set_dispatch_mode(DispatchMode::Switch);
  auto prog = driver::compile(kKernel, "t");
  const auto before = machine::dispatch_counters_snapshot();
  ASSERT_TRUE(prog.run_ir().completed());
  ASSERT_FALSE(prog.run_asm().trapped);
  const auto after = machine::dispatch_counters_snapshot();
  EXPECT_EQ(after.trace_decodes, before.trace_decodes);
  EXPECT_EQ(after.trace_hits, before.trace_hits);
}

// A getelementptr whose scaled index overflows int64_t (2^61 elements of
// 4 bytes) wraps like the machine's address arithmetic and traps on the
// unmapped result, on the slow path and on the decoded Gep micro-op alike.
TEST(DispatchEquiv, HugeGepIndexWrapsAndTrapsInBothModes) {
  DispatchModeGuard guard;
  auto prog = driver::compile(R"(
    int data[8];
    int main() {
      long big = 1;
      int k;
      for (k = 0; k < 61; k++) big = big * 2;
      print_int(7);
      print_int(data[big]);
      return 0;
    }
  )", "gep");
  for (const DispatchMode mode : {DispatchMode::Switch, DispatchMode::Threaded}) {
    machine::set_dispatch_mode(mode);
    const vm::RunResult r = prog.run_ir();
    EXPECT_TRUE(r.trapped) << machine::dispatch_mode_name(mode);
    EXPECT_EQ(r.trap, machine::TrapKind::UnmappedAccess);
    EXPECT_EQ(r.output, "7\n");
  }
}

TEST(DispatchEquiv, GoldenRunsMatchSwitchOnAllApps) {
  DispatchModeGuard guard;
  for (const auto& b : apps::all_benchmarks()) {
    auto prog = driver::compile(b.source, b.name);
    machine::set_dispatch_mode(DispatchMode::Switch);
    const vm::RunResult vs = prog.run_ir();
    const x86::SimResult xs = prog.run_asm();
    machine::set_dispatch_mode(DispatchMode::Threaded);
    const vm::RunResult vt = prog.run_ir();
    const x86::SimResult xt = prog.run_asm();
    EXPECT_EQ(vt.exit_value, vs.exit_value) << b.name;
    EXPECT_EQ(vt.dynamic_instructions, vs.dynamic_instructions) << b.name;
    EXPECT_EQ(vt.output, vs.output) << b.name;
    EXPECT_EQ(vt.trapped, vs.trapped) << b.name;
    EXPECT_EQ(xt.exit_value, xs.exit_value) << b.name;
    EXPECT_EQ(xt.dynamic_instructions, xs.dynamic_instructions) << b.name;
    EXPECT_EQ(xt.output, xs.output) << b.name;
    EXPECT_EQ(xt.trapped, xs.trapped) << b.name;
  }
}

TEST(DispatchEquiv, TrapPcExactOnBothEngines) {
  DispatchModeGuard guard;
  auto prog = driver::compile(kTrapKernel, "trap");
  machine::set_dispatch_mode(DispatchMode::Switch);
  const vm::RunResult vs = prog.run_ir();
  const x86::SimResult xs = prog.run_asm();
  machine::set_dispatch_mode(DispatchMode::Threaded);
  const vm::RunResult vt = prog.run_ir();
  const x86::SimResult xt = prog.run_asm();

  ASSERT_TRUE(vs.trapped);
  ASSERT_TRUE(vt.trapped);
  EXPECT_EQ(vt.trap, vs.trap);
  EXPECT_EQ(vt.trap_pc, vs.trap_pc);
  EXPECT_EQ(vt.trap_address, vs.trap_address);
  EXPECT_EQ(vt.dynamic_instructions, vs.dynamic_instructions);
  EXPECT_EQ(vt.output, vs.output);

  ASSERT_TRUE(xs.trapped);
  ASSERT_TRUE(xt.trapped);
  EXPECT_EQ(xt.trap, xs.trap);
  EXPECT_EQ(xt.trap_pc, xs.trap_pc);
  EXPECT_EQ(xt.trap_address, xs.trap_address);
  EXPECT_EQ(xt.dynamic_instructions, xs.dynamic_instructions);
  EXPECT_EQ(xt.output, xs.output);
}

/// Hook that starts dormant (fast path until `wake`), observes `window`
/// instructions, then detaches for good — the shape of an injection hook's
/// armed window, without any injection.
class WindowHook final : public vm::ExecHook {
 public:
  WindowHook(std::uint64_t wake, std::uint64_t window) : window_(window) {
    detach(wake);
  }
  void on_instruction(const ir::Instruction&) override {
    if (++seen_ == window_) detach();
  }
  std::uint64_t seen() const noexcept { return seen_; }

 private:
  std::uint64_t window_;
  std::uint64_t seen_ = 0;
};

TEST(DispatchEquiv, DormantHookRearmsAtExactInstruction) {
  DispatchModeGuard guard;
  auto prog = driver::compile(kKernel, "t");

  machine::set_dispatch_mode(DispatchMode::Switch);
  WindowHook slow_hook(1000, 500);
  const vm::RunResult vs = prog.run_ir(&slow_hook);
  ASSERT_TRUE(vs.completed());
  ASSERT_EQ(slow_hook.seen(), 500u);  // window fully observed

  machine::set_dispatch_mode(DispatchMode::Threaded);
  const auto before = machine::dispatch_counters_snapshot();
  WindowHook fast_hook(1000, 500);
  const vm::RunResult vt = prog.run_ir(&fast_hook);
  const auto after = machine::dispatch_counters_snapshot();

  // Identical observation schedule: the fast path must side-exit at the
  // re-arm boundary so the hook sees exactly the same 500 instructions...
  EXPECT_EQ(fast_hook.seen(), slow_hook.seen());
  EXPECT_EQ(vt.exit_value, vs.exit_value);
  EXPECT_EQ(vt.dynamic_instructions, vs.dynamic_instructions);
  EXPECT_EQ(vt.output, vs.output);
  // ...and the boundary crossings show up as trace invalidations.
  EXPECT_GT(after.trace_invalidations, before.trace_invalidations);
}

TEST(DispatchEquiv, CheckpointResumeMidTraceVm) {
  DispatchModeGuard guard;
  auto prog = driver::compile(kKernel, "t");
  // An odd stride lands resume points mid-block; the switch capture run is
  // the reference schedule.
  std::vector<vm::Snapshot> snaps;
  vm::RunLimits capture;
  capture.snapshot_stride = 997;
  capture.snapshot_sink = [&](vm::Snapshot&& s) {
    snaps.push_back(std::move(s));
  };
  machine::set_dispatch_mode(DispatchMode::Switch);
  const vm::RunResult full = prog.run_ir(nullptr, capture);
  ASSERT_TRUE(full.completed());
  ASSERT_GT(snaps.size(), 2u);

  // Threaded capture stops fast execution at each snapshot point: the
  // snapshot schedule must be position-identical.
  std::vector<std::uint64_t> threaded_at;
  vm::RunLimits recapture;
  recapture.snapshot_stride = 997;
  recapture.snapshot_sink = [&](vm::Snapshot&& s) {
    threaded_at.push_back(s.executed);
  };
  machine::set_dispatch_mode(DispatchMode::Threaded);
  ASSERT_TRUE(prog.run_ir(nullptr, recapture).completed());
  ASSERT_EQ(threaded_at.size(), snaps.size());
  for (std::size_t i = 0; i < snaps.size(); ++i)
    EXPECT_EQ(threaded_at[i], snaps[i].executed) << "snapshot " << i;

  // Resuming from a mid-run snapshot replays the identical suffix in
  // either mode (side entry into the middle of a decoded block).
  const vm::Snapshot& mid = snaps[snaps.size() / 2];
  for (DispatchMode mode : {DispatchMode::Switch, DispatchMode::Threaded}) {
    machine::set_dispatch_mode(mode);
    vm::Interpreter resumed(prog.module());
    const vm::RunResult r = resumed.run_from(mid);
    EXPECT_TRUE(r.completed());
    EXPECT_EQ(r.exit_value, full.exit_value);
    EXPECT_EQ(r.dynamic_instructions, full.dynamic_instructions);
    EXPECT_EQ(r.output, full.output);
  }
}

TEST(DispatchEquiv, CheckpointResumeMidTraceSim) {
  DispatchModeGuard guard;
  auto prog = driver::compile(kKernel, "t");
  std::vector<x86::SimSnapshot> snaps;
  x86::SimLimits capture;
  capture.snapshot_stride = 997;
  capture.snapshot_sink = [&](x86::SimSnapshot&& s) {
    snaps.push_back(std::move(s));
  };
  machine::set_dispatch_mode(DispatchMode::Switch);
  const x86::SimResult full = prog.run_asm(nullptr, capture);
  ASSERT_FALSE(full.trapped);
  ASSERT_GT(snaps.size(), 2u);

  std::vector<std::uint64_t> threaded_at;
  x86::SimLimits recapture;
  recapture.snapshot_stride = 997;
  recapture.snapshot_sink = [&](x86::SimSnapshot&& s) {
    threaded_at.push_back(s.executed);
  };
  machine::set_dispatch_mode(DispatchMode::Threaded);
  ASSERT_FALSE(prog.run_asm(nullptr, recapture).trapped);
  ASSERT_EQ(threaded_at.size(), snaps.size());
  for (std::size_t i = 0; i < snaps.size(); ++i)
    EXPECT_EQ(threaded_at[i], snaps[i].executed) << "snapshot " << i;

  const x86::SimSnapshot& mid = snaps[snaps.size() / 2];
  for (DispatchMode mode : {DispatchMode::Switch, DispatchMode::Threaded}) {
    machine::set_dispatch_mode(mode);
    x86::Simulator resumed(prog.program());
    const x86::SimResult r = resumed.run_from(mid);
    EXPECT_FALSE(r.trapped);
    EXPECT_EQ(r.exit_value, full.exit_value);
    EXPECT_EQ(r.dynamic_instructions, full.dynamic_instructions);
    EXPECT_EQ(r.output, full.output);
  }
}

void expect_same_campaign(const fault::CampaignResult& a,
                          const fault::CampaignResult& b) {
  EXPECT_EQ(a.profiled_count, b.profiled_count);
  EXPECT_EQ(a.crash, b.crash);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.benign, b.benign);
  EXPECT_EQ(a.hang, b.hang);
  EXPECT_EQ(a.not_activated, b.not_activated);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    const fault::TrialRecord& x = a.trials[i];
    const fault::TrialRecord& y = b.trials[i];
    EXPECT_EQ(x.outcome, y.outcome) << "trial " << i;
    EXPECT_EQ(x.dynamic_target, y.dynamic_target) << "trial " << i;
    EXPECT_EQ(x.bit, y.bit) << "trial " << i;
    EXPECT_EQ(x.static_site, y.static_site) << "trial " << i;
    EXPECT_EQ(x.injected, y.injected) << "trial " << i;
    EXPECT_EQ(x.trap_pc, y.trap_pc) << "trial " << i;
    EXPECT_EQ(x.inject_instruction, y.inject_instruction) << "trial " << i;
    EXPECT_EQ(x.total_instructions, y.total_instructions) << "trial " << i;
    EXPECT_EQ(x.instructions_after_injection(),
              y.instructions_after_injection())
        << "trial " << i;
  }
}

fault::CampaignResult run_cell(driver::CompiledProgram& prog, bool pinfi,
                               const fault::Model& model) {
  // Small stride so many trials resume from snapshots (run_from entering
  // mid-trace) while others run from scratch.
  const fault::CheckpointPolicy checkpoints{2000, true};
  fault::CampaignConfig cfg;
  cfg.app = "kernel";
  cfg.trials = 40;
  cfg.seed = 0x7e57;
  cfg.threads = 2;
  if (pinfi) {
    fault::PinfiEngine engine(prog.program(), {}, checkpoints, model);
    return fault::run_campaign(engine, cfg);
  }
  fault::LlfiEngine engine(prog.module(), {}, checkpoints, model);
  return fault::run_campaign(engine, cfg);
}

TEST(DispatchEquiv, CampaignRecordsMatchSwitchBothTools) {
  DispatchModeGuard guard;
  auto prog = driver::compile(kKernel, "t");
  for (bool pinfi : {false, true}) {
    machine::set_dispatch_mode(DispatchMode::Switch);
    const fault::CampaignResult sw = run_cell(prog, pinfi, {});
    machine::set_dispatch_mode(DispatchMode::Threaded);
    const fault::CampaignResult th = run_cell(prog, pinfi, {});
    expect_same_campaign(sw, th);
  }
}

TEST(DispatchEquiv, PersistentModelRearmsIdentically) {
  // Stuck-at faults keep the hook re-arming at every re-execution of the
  // armed site: the fast path must side-exit at every rearm_at boundary.
  DispatchModeGuard guard;
  auto prog = driver::compile(kKernel, "t");
  fault::Model model;
  model.kind = fault::FaultKind::Permanent;
  for (bool pinfi : {false, true}) {
    machine::set_dispatch_mode(DispatchMode::Switch);
    const fault::CampaignResult sw = run_cell(prog, pinfi, model);
    machine::set_dispatch_mode(DispatchMode::Threaded);
    const fault::CampaignResult th = run_cell(prog, pinfi, model);
    expect_same_campaign(sw, th);
  }
}

}  // namespace
}  // namespace faultlab
